//! The instruction interpreter ("simulated CPU").
//!
//! Module code executes here, instruction by instruction, with every
//! memory access translated through the kernel page tables (via a
//! per-CPU [`Tlb`]). That makes Adelie's mechanics *real* in this
//! reproduction rather than narrated:
//!
//! * a stale code pointer into a re-randomized-away range raises a page
//!   fault ([`VmError::Fault`]),
//! * GOT loads are RIP-relative reads through PTEs; writes to sealed GOT
//!   pages fault,
//! * return-address encryption XORs real stack slots, so a forged,
//!   unencrypted return address decrypts to garbage and faults,
//! * calls whose target lands in the native-dispatch region trap to the
//!   registered kernel function — the exported-symbol mechanism.

use crate::layout;
use crate::symbols::{native_slot, NativeFn};
use crate::{Kernel, ObserverList};
use adelie_isa::{decode, AluOp, Cond, DecodeError, Insn, Mem, Reg, ARG_REGS};
use adelie_vmem::{
    page_base, page_offset, Access, Fault, FrameRef, PageRegister, Pfn, PteKind, SpaceReader, Tlb,
    TlbStats, Translation, PAGE_SIZE,
};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors raised during interpreted execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Memory fault (page fault, NX, write-protection, …).
    Fault(Fault),
    /// Undecodable bytes at `rip` — e.g. a ROP chain that landed mid-
    /// instruction after re-randomization.
    Decode {
        /// Faulting instruction pointer.
        rip: u64,
        /// Decoder diagnosis.
        err: DecodeError,
    },
    /// An explicit trap instruction (`int3`, `ud2`, `hlt`).
    Trap {
        /// Address of the trap.
        rip: u64,
        /// Mnemonic.
        what: &'static str,
    },
    /// Call into the native region with no registered handler.
    UnknownNative {
        /// The bad target.
        va: u64,
    },
    /// The per-call instruction budget ran out (runaway loop guard).
    OutOfFuel {
        /// Where execution was when the budget died.
        rip: u64,
    },
    /// A native handler rejected its arguments or failed.
    Native(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Fault(e) => write!(f, "{e}"),
            VmError::Decode { rip, err } => write!(f, "decode error at {rip:#x}: {err}"),
            VmError::Trap { rip, what } => write!(f, "trap `{what}` at {rip:#x}"),
            VmError::UnknownNative { va } => write!(f, "call to unregistered kernel text {va:#x}"),
            VmError::OutOfFuel { rip } => write!(f, "instruction budget exhausted at {rip:#x}"),
            VmError::Native(msg) => write!(f, "native handler error: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<Fault> for VmError {
    fn from(f: Fault) -> Self {
        VmError::Fault(f)
    }
}

/// Bytes fetched per instruction (the longest encoding fits).
const FETCH_WINDOW: usize = 16;

/// Page-register slots ([`Vm`]'s `page_regs`): data, code and stack.
const DATA_REG: usize = 0;
const EXEC_REG: usize = 1;
const STACK_REG: usize = 2;

/// Instructions one run slot holds; a longer straight line goes on in
/// a second run.
const RUN_MAX: usize = 16;

/// A decoded run (DESIGN.md §18.4): the instructions control reaches
/// from a start offset of one frame, following fall-through and
/// same-page direct `call`/`jmp`, up to the first `ret`, indirect or
/// conditional branch or trap, the last instruction whose fetch window
/// fits the page, or [`RUN_MAX`]. Every instruction of a run was read
/// at one write version of the frame, and the run is valid exactly
/// while the frame is still at it.
#[derive(Copy, Clone)]
struct Run {
    /// `pfn << 12 | start offset`; [`Run::EMPTY_KEY`] for a free slot.
    key: u64,
    version: u64,
    len: u8,
    /// Page offset and encoded length of each instruction.
    offs: [u16; RUN_MAX],
    lens: [u8; RUN_MAX],
    insns: [Insn; RUN_MAX],
}

impl Run {
    const EMPTY_KEY: u64 = u64::MAX;
    const EMPTY: Run = Run {
        key: Run::EMPTY_KEY,
        version: 0,
        len: 0,
        offs: [0; RUN_MAX],
        lens: [0; RUN_MAX],
        insns: [Insn::Nop; RUN_MAX],
    };

    fn key(pfn: Pfn, off: usize) -> u64 {
        pfn.0 << 12 | off as u64
    }

    /// The page offset control reaches after `insn` at `off` (encoded
    /// in `len` bytes) when that is known at decode time and stays in
    /// the page: fall-through, or a direct `call`/`jmp` target.
    fn successor(insn: Insn, off: usize, len: usize) -> Option<usize> {
        let next = off + len;
        let target = |d: i32| {
            let t = next as i64 + i64::from(d);
            (0..PAGE_SIZE as i64).contains(&t).then_some(t as usize)
        };
        match insn {
            Insn::CallRel(d) | Insn::JmpRel(d) => target(d),
            Insn::Ret
            | Insn::Jcc(..)
            | Insn::CallReg(_)
            | Insn::JmpReg(_)
            | Insn::CallMem(_)
            | Insn::JmpMem(_)
            | Insn::Int3
            | Insn::Ud2
            | Insn::Hlt => None,
            _ => Some(next),
        }
    }
}

/// A CPU's table of decoded runs (DESIGN.md §18), direct-mapped by
/// `(pfn, start offset)` into fixed inline slots: no run allocates.
///
/// Keyed by physical location, not virtual address, so aliases and
/// re-randomized mappings of the same text share runs, and validated
/// against the frame's write version, so any write to the frame —
/// through any mapping, or a free and reallocation — turns its runs
/// into misses. Translation is not cached here: a run is entered
/// through a translation, and each later instruction checks that the
/// translation still stands (DESIGN.md §18.5).
///
/// The table starts empty and grows fourfold each time it has taken as
/// many fills as it has slots, up to [`RunTable::MAX_SLOTS`]: a `Vm`
/// that never fetches allocates nothing, a CPU that runs a module init
/// once pays for a few slots, a CPU in a steady call loop reaches its
/// working set within a few calls.
#[derive(Default)]
struct RunTable {
    slots: Vec<Run>,
    fills: usize,
}

impl RunTable {
    const MIN_SLOTS: usize = 16;
    const MAX_SLOTS: usize = 256;

    /// Like a hardware I-cache, the page offset indexes directly; a
    /// hash of the frame number spreads the pages.
    fn index(&self, key: u64) -> usize {
        let page_hash = (key >> 12).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52;
        ((key ^ page_hash) as usize) & (self.slots.len() - 1)
    }

    /// The slot of a run starting at `key` and still at `version`.
    fn find(&self, key: u64, version: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let i = self.index(key);
        let r = &self.slots[i];
        (r.key == key && r.version == version).then_some(i)
    }

    /// The slot a new run starting at `key` goes into, emptied; grows
    /// the table first when it has taken as many fills as it has slots.
    fn claim(&mut self, key: u64) -> usize {
        if self.fills >= self.slots.len() && self.slots.len() < Self::MAX_SLOTS {
            let n = (self.slots.len() * 4).max(Self::MIN_SLOTS);
            self.slots = vec![Run::EMPTY; n];
            self.fills = 0;
        }
        self.fills += 1;
        let i = self.index(key);
        self.slots[i].key = Run::EMPTY_KEY;
        self.slots[i].len = 0;
        i
    }
}

/// Where a CPU is inside a run: the slot, the next instruction's
/// position, the frame and version the run is valid for, and the exec
/// page register its page was last translated under (DESIGN.md §18.5).
#[derive(Copy, Clone)]
struct Cursor<'k> {
    slot: usize,
    pos: usize,
    pfn: Pfn,
    frame: FrameRef<'k>,
    version: u64,
    reg: Option<PageRegister>,
}

#[derive(Copy, Clone, Default)]
struct Flags {
    zf: bool,
    sf: bool,
    cf: bool,
    of: bool,
}

/// A simulated CPU executing kernel-module code.
///
/// One `Vm` per thread; create with [`Kernel::vm`]. Reentrant: native
/// handlers may call back into interpreted code via [`Vm::call`].
pub struct Vm<'k> {
    /// The kernel this CPU belongs to.
    pub kernel: &'k Kernel,
    regs: [u64; 16],
    flags: Flags,
    tlb: Tlb,
    /// Page registers (DESIGN.md §14.8): the micro-TLB entries of the
    /// last data page ([`DATA_REG`]), the last code page
    /// ([`EXEC_REG`]) and the last page under `rsp` ([`STACK_REG`]). An
    /// access to the same page, with the space's generation and the
    /// TLB's stamp unchanged, skips the TLB.
    page_regs: [Option<PageRegister>; 3],
    /// This CPU's long-lived read handle into the kernel address space:
    /// owns one reader slot of the snapshot reclamation domain, so the
    /// translate hot path pays only an epoch enter/leave — never a lock
    /// and never a per-operation slot claim.
    reader: SpaceReader<'k>,
    /// Native handlers by dispatch slot, as of the symbol table's
    /// natives generation `.0` (DESIGN.md §18.7): resolved once per
    /// CPU, so the registry's `RwLock` is off the dispatch hot path,
    /// and dropped whole when an unregistration may have freed an
    /// address for reuse.
    natives: (u64, Vec<Option<Arc<NativeFn>>>),
    /// Decoded runs by physical location (DESIGN.md §18).
    runs: RunTable,
    /// The kernel's call-observer list as of generation `.0`; refreshed
    /// only when the kernel publishes a new one.
    observers: (u64, ObserverList),
    cpu: usize,
    stack_top: u64,
    depth: u32,
    insns_retired: u64,
    natives_called: u64,
    rip_loads: u64,
    /// TLB counters as of the last publish into [`crate::PerCpu`], so
    /// each outermost call exit posts only the delta it produced.
    tlb_published: TlbStats,
}

impl Drop for Vm<'_> {
    /// Hand the kernel stack back for the next [`Kernel::vm`].
    fn drop(&mut self) {
        self.kernel.free_stack(self.stack_top);
    }
}

impl<'k> Vm<'k> {
    pub(crate) fn new(kernel: &'k Kernel, cpu: usize, stack_top: u64) -> Vm<'k> {
        Vm {
            kernel,
            regs: [0; 16],
            flags: Flags::default(),
            tlb: Tlb::with_arch(kernel.config.arch),
            page_regs: [None; 3],
            reader: kernel.space.reader(),
            natives: (0, Vec::new()),
            runs: RunTable::default(),
            observers: kernel.call_observers(),
            cpu,
            stack_top,
            depth: 0,
            insns_retired: 0,
            natives_called: 0,
            rip_loads: 0,
            tlb_published: TlbStats::default(),
        }
    }

    /// This CPU's id (the reclamation slot for `mr_start`/`mr_finish`).
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// Total instructions retired by this CPU.
    pub fn insns_retired(&self) -> u64 {
        self.insns_retired
    }

    /// Total native handlers this CPU has dispatched (kernel entries
    /// from module code: `mr_start`, stack pops and pushes, …).
    pub fn natives_called(&self) -> u64 {
        self.natives_called
    }

    /// Total RIP-relative pointer loads this CPU has executed. In
    /// module code these are its GOT hops: each GOT-routed call, PLT
    /// stub and return-address key load makes one.
    pub fn rip_loads(&self) -> u64 {
        self.rip_loads
    }

    /// Read a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// Write a register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index() as usize] = v;
    }

    /// The n-th System-V argument register's value (n < 6).
    pub fn arg(&self, n: usize) -> u64 {
        self.reg(ARG_REGS[n])
    }

    /// Call interpreted code at `entry` with up to six arguments,
    /// following the System-V convention. Returns `rax`.
    ///
    /// Reentrant: may be invoked from native handlers; the caller's
    /// register file is saved and restored (except `rax`).
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution.
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied (the paper notes
    /// no wrapped kernel function needs more, §3.4).
    pub fn call(&mut self, entry: u64, args: &[u64]) -> Result<u64, VmError> {
        assert!(args.len() <= 6, "System-V register args only");
        let mut entry = entry;
        let saved_regs = self.regs;
        let saved_flags = self.flags;
        if self.depth == 0 {
            self.regs[Reg::Rsp.index() as usize] = self.stack_top;
            // Demand fault: an outermost entry that no longer translates
            // for execute may target an evicted cold-tier module. The
            // loader faults it back in from its catalog record and hands
            // back the (possibly relocated) address to continue at; the
            // probe doubles as a TLB warm-up for the first fetch, so the
            // resident fast path pays one gate check only.
            if !layout::is_native(entry)
                && self.kernel.has_demand_loader()
                && self.translate(entry, Access::Exec).is_err()
            {
                if let Some(resolved) = self.kernel.demand_load(entry) {
                    entry = resolved;
                }
            }
            // Telemetry for the re-randomization scheduler: outermost
            // entries only, so nested calls don't double-count.
            self.observe_call(entry);
        }
        for (i, &a) in args.iter().enumerate() {
            self.set_reg(ARG_REGS[i], a);
        }
        self.depth += 1;
        let start = (self.depth == 1).then(Instant::now);
        // Push the sentinel return address and run to it.
        let result = self
            .push_u64(layout::RETURN_SENTINEL)
            .and_then(|()| self.run(entry));
        self.depth -= 1;
        if let Some(t0) = start {
            self.kernel.percpu.account(self.cpu, t0.elapsed());
            // Publish this call's TLB activity so hit rates survive the
            // Vm (benches and fleet reporting read the per-CPU sums).
            let now = self.tlb.stats();
            self.kernel
                .percpu
                .record_tlb(self.cpu, &now.delta_since(&self.tlb_published));
            self.tlb_published = now;
        }
        let rax = self.reg(Reg::Rax);
        self.regs = saved_regs;
        self.flags = saved_flags;
        self.set_reg(Reg::Rax, rax);
        result.map(|()| rax)
    }

    /// Tail-forward the *current* native call to interpreted code at
    /// `target`, preserving all six System-V argument registers.
    ///
    /// This is how a lazy PLT binder behaves on real hardware: the stub
    /// traps into the binder with the caller's argument registers
    /// untouched, the binder resolves the import, then jumps to the
    /// resolved function as if it had been called directly. Returns the
    /// callee's `rax`, which the native dispatch path hands back to the
    /// original caller.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised while executing the callee.
    pub fn forward_call(&mut self, target: u64) -> Result<u64, VmError> {
        let args = [
            self.arg(0),
            self.arg(1),
            self.arg(2),
            self.arg(3),
            self.arg(4),
            self.arg(5),
        ];
        self.call(target, &args)
    }

    /// Invoke every call observer for an outermost call to `entry`: one
    /// atomic load when the observer set is unchanged, no allocation.
    fn observe_call(&mut self, entry: u64) {
        if self.kernel.observers_generation() != self.observers.0 {
            self.observers = self.kernel.call_observers();
        }
        for (_, observer) in self.observers.1.iter() {
            observer(entry);
        }
    }

    fn run(&mut self, entry: u64) -> Result<(), VmError> {
        let mut rip = entry;
        let mut fuel = self.kernel.config.fuel;
        let mut cursor = None;
        loop {
            if rip == layout::RETURN_SENTINEL {
                return Ok(());
            }
            if layout::is_native(rip) {
                let (slot, handler) = self.take_native(rip)?;
                let generation = self.natives.0;
                self.natives_called += 1;
                let ret = handler(self);
                self.put_native(slot, generation, handler);
                self.set_reg(Reg::Rax, ret?);
                rip = self.pop_u64()?;
                continue;
            }
            if fuel == 0 {
                return Err(VmError::OutOfFuel { rip });
            }
            fuel -= 1;
            self.insns_retired += 1;
            let (insn, len) = self.fetch(rip, &mut cursor)?;
            rip = self.step(rip, rip + len as u64, insn)?;
        }
    }

    /// The dispatch slot and handler of native address `va`, moved out
    /// of this CPU's cache (resolved from the symbol table on a miss or
    /// after an unregistration): the handler runs on `&mut self`, and
    /// moving it costs no reference-count traffic. Hand it back with
    /// [`Vm::put_native`].
    fn take_native(&mut self, va: u64) -> Result<(usize, Arc<NativeFn>), VmError> {
        let generation = self.kernel.symbols.natives_generation();
        if generation != self.natives.0 {
            self.natives = (generation, Vec::new());
        }
        let slot = native_slot(va).ok_or(VmError::UnknownNative { va })?;
        if let Some(h) = self.natives.1.get_mut(slot).and_then(Option::take) {
            return Ok((slot, h));
        }
        let h = self
            .kernel
            .symbols
            .native_at(va)
            .ok_or(VmError::UnknownNative { va })?;
        Ok((slot, h))
    }

    /// Cache a handler [`Vm::take_native`] handed out at natives
    /// generation `generation`, unless an unregistration since may have
    /// freed its address.
    fn put_native(&mut self, slot: usize, generation: u64, handler: Arc<NativeFn>) {
        if self.natives.0 != generation || self.kernel.symbols.natives_generation() != generation {
            return;
        }
        let cache = &mut self.natives.1;
        if cache.len() <= slot {
            cache.resize(slot + 1, None);
        }
        cache[slot] = Some(handler);
    }

    /// Fetch the decoded instruction at `rip`, continuing `cursor`'s
    /// run when `rip` is its next instruction. Inside a run, a fetch
    /// whose space generation and TLB stamp still match the cursor's
    /// exec page register, and whose frame is still at the run's
    /// version, takes the next instruction at once and counts the micro
    /// hit its translation would have been. Anything else translates
    /// for execute access, so NX, stale-pointer and MMIO faults and the
    /// TLB counters are exactly those of an uncached fetch, and then
    /// continues the run if the translation still names its frame at
    /// its version, or starts a run at `rip`, from the table or freshly
    /// decoded (DESIGN.md §18.5).
    fn fetch(
        &mut self,
        rip: u64,
        cursor: &mut Option<Cursor<'k>>,
    ) -> Result<(Insn, usize), VmError> {
        if let Some(c) = cursor {
            if let Some(reg) = &c.reg {
                let gen = self.kernel.space.generation();
                if c.frame.version() == c.version && self.tlb.register_current(reg, gen) {
                    debug_assert!(
                        self.tlb.micro_pte(page_base(rip), gen).is_some_and(|pte| {
                            pte.kind == PteKind::Frame(c.pfn)
                                && pte.check(rip, Access::Exec).is_ok()
                        }),
                        "an instruction at {rip:#x} retired through a retired translation"
                    );
                    return Ok(self.advance(cursor, page_offset(rip)));
                }
            }
        }
        let off = page_offset(rip);
        if off + FETCH_WINDOW > PAGE_SIZE {
            *cursor = None;
            return self.fetch_decode_across(rip);
        }
        let t = self.translate(rip, Access::Exec)?;
        let PteKind::Frame(pfn) = t.pte.kind else {
            return Err(VmError::Fault(Fault::MmioExec { va: rip }));
        };
        if let Some(c) = cursor {
            if c.pfn == pfn && c.frame.version() == c.version {
                c.reg = self.page_regs[EXEC_REG];
                return Ok(self.advance(cursor, off));
            }
        }
        let frame = self.kernel.phys.frame(pfn);
        let key = Run::key(pfn, off);
        let slot = match self.runs.find(key, frame.version()) {
            Some(slot) => slot,
            None => self.fill_run(frame, key, off, rip)?,
        };
        let run = &self.runs.slots[slot];
        *cursor = (run.len > 1).then_some(Cursor {
            slot,
            pos: 1,
            pfn,
            frame,
            version: run.version,
            reg: self.page_regs[EXEC_REG],
        });
        Ok((run.insns[0], run.lens[0] as usize))
    }

    /// The live `cursor`'s next instruction, which is at page offset
    /// `off`; ends the cursor after its run's last instruction.
    #[inline]
    fn advance(&self, cursor: &mut Option<Cursor<'k>>, off: usize) -> (Insn, usize) {
        let c = cursor.as_mut().expect("a live cursor");
        let run = &self.runs.slots[c.slot];
        let pos = c.pos;
        debug_assert_eq!(run.key, Run::key(c.pfn, run.offs[0] as usize));
        debug_assert_eq!(run.offs[pos] as usize, off, "a run left its path");
        c.pos += 1;
        if c.pos == run.len as usize {
            *cursor = None;
        }
        (run.insns[pos], run.lens[pos] as usize)
    }

    /// Decode the run starting at `off` of `frame` into its table slot.
    /// Each instruction's window is read on its own; the run stops
    /// before the first one read at another version than the first, so
    /// one version covers the whole run. Only the first instruction's
    /// decode error is raised here: a later one ends the run, and is
    /// raised when control reaches it.
    fn fill_run(
        &mut self,
        frame: FrameRef<'_>,
        key: u64,
        off: usize,
        rip: u64,
    ) -> Result<usize, VmError> {
        let slot = self.runs.claim(key);
        let run = &mut self.runs.slots[slot];
        let mut at = off;
        let mut n = 0;
        while n < RUN_MAX && at + FETCH_WINDOW <= PAGE_SIZE {
            let mut buf = [0u8; FETCH_WINDOW];
            let version = frame.read_versioned(at, &mut buf);
            if n == 0 {
                run.version = version;
            } else if version != run.version {
                break;
            }
            let (insn, len) = match decode(&buf) {
                Ok(d) => d,
                Err(err) if n == 0 => return Err(VmError::Decode { rip, err }),
                Err(_) => break,
            };
            run.offs[n] = at as u16;
            run.lens[n] = len as u8;
            run.insns[n] = insn;
            n += 1;
            match Run::successor(insn, at, len) {
                Some(next) => at = next,
                None => break,
            }
        }
        run.len = n as u8;
        run.key = key;
        Ok(slot)
    }

    /// Uncached fetch of a window that spans two pages: each page is
    /// translated and read on its own, and a fault on the second page
    /// shortens the window instead of failing the fetch.
    fn fetch_decode_across(&mut self, rip: u64) -> Result<(Insn, usize), VmError> {
        let mut buf = [0u8; FETCH_WINDOW];
        let mut got = 0usize;
        while got < buf.len() {
            let cur = rip + got as u64;
            let off = page_offset(cur);
            let n = (PAGE_SIZE - off).min(buf.len() - got);
            let t = match self.translate(cur, Access::Exec) {
                Ok(t) => t,
                Err(_) if got > 0 => break, // short fetch at a mapping edge
                Err(e) => return Err(e),
            };
            match t.pte.kind {
                PteKind::Frame(pfn) => {
                    self.kernel.phys.read(pfn, off, &mut buf[got..got + n]);
                }
                PteKind::Mmio { .. } => return Err(VmError::Fault(Fault::MmioExec { va: cur })),
            }
            got += n;
        }
        decode(&buf[..got]).map_err(|err| VmError::Decode { rip, err })
    }

    fn translate(&mut self, va: u64, access: Access) -> Result<Translation, VmError> {
        let page_va = page_base(va);
        let gen = self.kernel.space.generation();
        // Same page as the last access of this class, nothing changed
        // since: the register is the micro hit the probe would make.
        // The permission check still runs, so NX and write faults are
        // those of the probe.
        let class = if access == Access::Exec {
            EXEC_REG
        } else if page_va == page_base(self.reg(Reg::Rsp)) {
            STACK_REG
        } else {
            DATA_REG
        };
        if let Some(reg) = &self.page_regs[class] {
            if let Some(pte) = self.tlb.register_hit(reg, page_va, gen) {
                pte.check(va, access)?;
                return Ok(Translation { pte, page_va });
            }
        }
        let t = self.translate_tlb(va, page_va, gen, access)?;
        self.page_regs[class] = self.tlb.load_register(page_va, gen);
        Ok(t)
    }

    fn translate_tlb(
        &mut self,
        va: u64,
        page_va: u64,
        gen: u64,
        access: Access,
    ) -> Result<Translation, VmError> {
        // Hit fast path: when this CPU's TLB is already at the space's
        // current generation, a lookup is one atomic load plus a
        // micro-TLB array probe — no lock, no epoch pin, nothing a
        // re-randomization writer can block. Safe because published
        // roots are immutable and generations monotonic: an entry
        // tagged with the current generation was valid when that
        // generation was published and nothing has retired it since.
        if let Some(hit) = self.tlb.try_lookup_current(page_va, gen) {
            if let Some(pte) = hit {
                pte.check(va, access)?;
                return Ok(Translation { pte, page_va });
            }
            // Miss at the current generation: walk under one epoch
            // pin — zero locks — through the TLB's leaf-node cache.
            let pin = self.reader.pin();
            let t = self.tlb.walk(&pin, va, access)?;
            drop(pin);
            self.tlb.insert(&t);
            return Ok(t);
        }
        // Lagging: one pin covers both the resynchronization against
        // the lock-free invalidation ring (range-based shootdown —
        // only covered entries are evicted) and the walk on a miss.
        let pin = self.reader.pin();
        if let Some(pte) = self.tlb.lookup_pinned(page_va, &pin) {
            pte.check(va, access)?;
            return Ok(Translation { pte, page_va });
        }
        let t = self.tlb.walk(&pin, va, access)?;
        drop(pin);
        self.tlb.insert(&t);
        Ok(t)
    }

    /// Read `N ≤ 8` bytes of data at `va` (handles page crossings and
    /// MMIO dispatch).
    fn read_data(&mut self, va: u64, size: usize) -> Result<u64, VmError> {
        debug_assert!(size <= 8);
        let off = page_offset(va);
        if off + size > PAGE_SIZE {
            // Split access across the page boundary.
            let first = PAGE_SIZE - off;
            let lo = self.read_data(va, first)?;
            let hi = self.read_data(va + first as u64, size - first)?;
            return Ok(lo | (hi << (8 * first)));
        }
        let t = self.translate(va, Access::Read)?;
        match t.pte.kind {
            PteKind::Frame(pfn) if size == 8 => Ok(self.kernel.phys.read_u64(pfn, off)),
            PteKind::Frame(pfn) => {
                let mut buf = [0u8; 8];
                self.kernel.phys.read(pfn, off, &mut buf[..size]);
                Ok(u64::from_le_bytes(buf))
            }
            PteKind::Mmio { dev, page } => {
                let dev = self
                    .kernel
                    .mmio
                    .get(dev)
                    .ok_or(VmError::Native(format!("MMIO read: no device {dev}")))?;
                Ok(dev.mmio_read(page as u64 * PAGE_SIZE as u64 + off as u64, size))
            }
        }
    }

    fn write_data(&mut self, va: u64, value: u64, size: usize) -> Result<(), VmError> {
        debug_assert!(size <= 8);
        let off = page_offset(va);
        if off + size > PAGE_SIZE {
            let first = PAGE_SIZE - off;
            self.write_data(va, value, first)?;
            self.write_data(va + first as u64, value >> (8 * first), size - first)?;
            return Ok(());
        }
        let t = self.translate(va, Access::Write)?;
        match t.pte.kind {
            PteKind::Frame(pfn) if size == 8 => {
                self.kernel.phys.write_u64(pfn, off, value);
                Ok(())
            }
            PteKind::Frame(pfn) => {
                self.kernel
                    .phys
                    .write(pfn, off, &value.to_le_bytes()[..size]);
                Ok(())
            }
            PteKind::Mmio { dev, page } => {
                let dev = self
                    .kernel
                    .mmio
                    .get(dev)
                    .ok_or(VmError::Native(format!("MMIO write: no device {dev}")))?;
                dev.mmio_write(page as u64 * PAGE_SIZE as u64 + off as u64, value, size);
                Ok(())
            }
        }
    }

    /// Read a u64 at `va` through the MMU (public for native handlers).
    ///
    /// # Errors
    ///
    /// Translation faults.
    pub fn read_u64(&mut self, va: u64) -> Result<u64, VmError> {
        self.read_data(va, 8)
    }

    /// Write a u64 at `va` through the MMU (public for native handlers).
    ///
    /// # Errors
    ///
    /// Translation faults.
    pub fn write_u64(&mut self, va: u64, v: u64) -> Result<(), VmError> {
        self.write_data(va, v, 8)
    }

    /// Translate `n` consecutive pages starting at the page containing
    /// `va` in one shot: cached translations come from this CPU's TLB
    /// (one resynchronization for the whole batch), and the misses walk
    /// the snapshot under a **single** epoch pin and a single root load
    /// — so a pointer-heavy ioctl amortizes the pin instead of paying
    /// enter/leave per page, and the batch can never observe two
    /// different published generations.
    ///
    /// # Errors
    ///
    /// The first translation fault in the range, if any.
    pub fn translate_pages(
        &mut self,
        va: u64,
        n: usize,
        access: Access,
    ) -> Result<Vec<Translation>, VmError> {
        let base = page_base(va);
        let page_vas: Vec<u64> = (0..n).map(|i| base + (i * PAGE_SIZE) as u64).collect();
        let pin = self.reader.pin();
        let cached = self.tlb.lookup_batch(&page_vas, &pin);
        let miss_vas: Vec<u64> = page_vas
            .iter()
            .zip(&cached)
            .filter(|(_, c)| c.is_none())
            .map(|(&va, _)| va)
            .collect();
        let walked = pin.translate_batch(&miss_vas, access);
        drop(pin);
        let mut out = Vec::with_capacity(n);
        let mut next_miss = walked.into_iter();
        for (&page_va, c) in page_vas.iter().zip(&cached) {
            let t = match c {
                Some(pte) => {
                    pte.check(page_va, access)?;
                    Translation { pte: *pte, page_va }
                }
                None => {
                    let t = next_miss.next().expect("one walk per miss")?;
                    self.tlb.insert(&t);
                    t
                }
            };
            out.push(t);
        }
        Ok(out)
    }

    /// Read `buf.len()` bytes at `va` through this CPU's TLB: one
    /// batched translation for the whole span (see
    /// [`Vm::translate_pages`]), then frame reads. The pin-per-call
    /// [`adelie_vmem::AddressSpace::read_bytes`] stays for callers
    /// without a `Vm`.
    ///
    /// # Errors
    ///
    /// Translation faults, or [`Fault::MmioData`] over device pages.
    pub fn read_bytes(&mut self, va: u64, buf: &mut [u8]) -> Result<(), VmError> {
        if buf.is_empty() {
            return Ok(());
        }
        let n_pages = (page_offset(va) + buf.len()).div_ceil(PAGE_SIZE);
        let ts = self.translate_pages(va, n_pages, Access::Read)?;
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let off = page_offset(cur);
            let n = (buf.len() - done).min(PAGE_SIZE - off);
            match ts[((cur - page_base(va)) as usize) / PAGE_SIZE].pte.kind {
                PteKind::Frame(pfn) => self.kernel.phys.read(pfn, off, &mut buf[done..done + n]),
                PteKind::Mmio { .. } => return Err(VmError::Fault(Fault::MmioData { va: cur })),
            }
            done += n;
        }
        Ok(())
    }

    /// Copy `len` bytes inside the simulated address space (the `memcpy`
    /// native uses this; copies run at host speed like a real `rep movsb`).
    ///
    /// Both ranges are translated up front via [`Vm::translate_pages`]
    /// (one epoch pin each), then bytes move frame-to-frame.
    ///
    /// # Errors
    ///
    /// Translation faults on either range, or [`Fault::MmioData`] if a
    /// range covers an MMIO page (device copies must go through the
    /// interpreter's load/store path).
    pub fn copy_bytes(&mut self, dst: u64, src: u64, len: usize) -> Result<(), VmError> {
        if len == 0 {
            return Ok(());
        }
        let pages_of = |va: u64| {
            (page_offset(va) + len).div_ceil(PAGE_SIZE) // pages the span touches
        };
        let src_t = self.translate_pages(src, pages_of(src), Access::Read)?;
        let dst_t = self.translate_pages(dst, pages_of(dst), Access::Write)?;
        let frame_of = |t: &Translation| match t.pte.kind {
            PteKind::Frame(pfn) => Ok(pfn),
            PteKind::Mmio { .. } => Err(VmError::Fault(Fault::MmioData { va: t.page_va })),
        };
        let mut buf = [0u8; PAGE_SIZE];
        let mut done = 0usize;
        while done < len {
            let s = src + done as u64;
            let d = dst + done as u64;
            let so = page_offset(s);
            let dof = page_offset(d);
            let n = (len - done).min(PAGE_SIZE - so).min(PAGE_SIZE - dof);
            let spfn = frame_of(&src_t[((s - page_base(src)) as usize) / PAGE_SIZE])?;
            let dpfn = frame_of(&dst_t[((d - page_base(dst)) as usize) / PAGE_SIZE])?;
            self.kernel.phys.read(spfn, so, &mut buf[..n]);
            self.kernel.phys.write(dpfn, dof, &buf[..n]);
            done += n;
        }
        Ok(())
    }

    /// Read a NUL-terminated string (for `printk`-style natives).
    ///
    /// # Errors
    ///
    /// Translation faults; strings are capped at 4 KiB.
    pub fn read_cstr(&mut self, mut va: u64) -> Result<String, VmError> {
        let mut out = Vec::new();
        while out.len() < PAGE_SIZE {
            let b = self.read_data(va, 1)? as u8;
            if b == 0 {
                break;
            }
            out.push(b);
            va += 1;
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    fn push_u64(&mut self, v: u64) -> Result<(), VmError> {
        let rsp = self.reg(Reg::Rsp).wrapping_sub(8);
        self.set_reg(Reg::Rsp, rsp);
        self.write_data(rsp, v, 8)
    }

    fn pop_u64(&mut self) -> Result<u64, VmError> {
        let rsp = self.reg(Reg::Rsp);
        let v = self.read_data(rsp, 8)?;
        self.set_reg(Reg::Rsp, rsp.wrapping_add(8));
        Ok(v)
    }

    fn mem_addr(&mut self, m: Mem, next_rip: u64) -> u64 {
        match m {
            Mem::RipRel(d) => next_rip.wrapping_add(d as i64 as u64),
            Mem::Base { base, disp } => self.reg(base).wrapping_add(disp as i64 as u64),
        }
    }

    /// The 8-byte operand at `m`, counting RIP-relative (GOT) loads.
    fn load(&mut self, m: Mem, next_rip: u64) -> Result<u64, VmError> {
        if matches!(m, Mem::RipRel(_)) {
            self.rip_loads += 1;
        }
        let addr = self.mem_addr(m, next_rip);
        self.read_data(addr, 8)
    }

    fn set_logic_flags(&mut self, result: u64) {
        self.flags = Flags {
            zf: result == 0,
            sf: (result as i64) < 0,
            cf: false,
            of: false,
        };
    }

    fn add_with_flags(&mut self, a: u64, b: u64) -> u64 {
        let (r, c) = a.overflowing_add(b);
        let o = ((a ^ r) & (b ^ r)) >> 63 != 0;
        self.flags = Flags {
            zf: r == 0,
            sf: (r as i64) < 0,
            cf: c,
            of: o,
        };
        r
    }

    fn sub_with_flags(&mut self, a: u64, b: u64) -> u64 {
        let (r, borrow) = a.overflowing_sub(b);
        let o = ((a ^ b) & (a ^ r)) >> 63 != 0;
        self.flags = Flags {
            zf: r == 0,
            sf: (r as i64) < 0,
            cf: borrow,
            of: o,
        };
        r
    }

    fn alu_apply(&mut self, op: AluOp, dst: u64, src: u64) -> Option<u64> {
        match op {
            AluOp::Add => Some(self.add_with_flags(dst, src)),
            AluOp::Sub => Some(self.sub_with_flags(dst, src)),
            AluOp::Cmp => {
                self.sub_with_flags(dst, src);
                None
            }
            AluOp::And => {
                let r = dst & src;
                self.set_logic_flags(r);
                Some(r)
            }
            AluOp::Or => {
                let r = dst | src;
                self.set_logic_flags(r);
                Some(r)
            }
            AluOp::Xor => {
                let r = dst ^ src;
                self.set_logic_flags(r);
                Some(r)
            }
        }
    }

    fn cond(&self, c: Cond) -> bool {
        let f = &self.flags;
        match c {
            Cond::E => f.zf,
            Cond::Ne => !f.zf,
            Cond::B => f.cf,
            Cond::Ae => !f.cf,
            Cond::Be => f.cf || f.zf,
            Cond::A => !f.cf && !f.zf,
            Cond::S => f.sf,
            Cond::Ns => !f.sf,
            Cond::L => f.sf != f.of,
            Cond::Ge => f.sf == f.of,
            Cond::Le => f.zf || (f.sf != f.of),
            Cond::G => !f.zf && (f.sf == f.of),
        }
    }

    /// Execute one instruction; returns the next `rip`.
    fn step(&mut self, rip: u64, next: u64, insn: Insn) -> Result<u64, VmError> {
        match insn {
            Insn::Nop | Insn::Pause | Insn::Lfence => Ok(next),
            Insn::Ret => self.pop_u64(),
            Insn::Int3 => Err(VmError::Trap { rip, what: "int3" }),
            Insn::Ud2 => Err(VmError::Trap { rip, what: "ud2" }),
            Insn::Hlt => Err(VmError::Trap { rip, what: "hlt" }),
            Insn::CallRel(d) => {
                self.push_u64(next)?;
                Ok(next.wrapping_add(d as i64 as u64))
            }
            Insn::JmpRel(d) => Ok(next.wrapping_add(d as i64 as u64)),
            Insn::Jcc(c, d) => Ok(if self.cond(c) {
                next.wrapping_add(d as i64 as u64)
            } else {
                next
            }),
            Insn::CallReg(r) => {
                let target = self.reg(r);
                self.push_u64(next)?;
                Ok(target)
            }
            Insn::JmpReg(r) => Ok(self.reg(r)),
            Insn::CallMem(m) => {
                let target = self.load(m, next)?;
                self.push_u64(next)?;
                Ok(target)
            }
            Insn::JmpMem(m) => self.load(m, next),
            Insn::Push(r) => {
                let v = self.reg(r);
                self.push_u64(v)?;
                Ok(next)
            }
            Insn::Pop(r) => {
                let v = self.pop_u64()?;
                self.set_reg(r, v);
                Ok(next)
            }
            Insn::MovImm64(r, v) => {
                self.set_reg(r, v);
                Ok(next)
            }
            Insn::MovImm32(r, v) => {
                self.set_reg(r, v as i64 as u64);
                Ok(next)
            }
            Insn::MovRR { dst, src } => {
                let v = self.reg(src);
                self.set_reg(dst, v);
                Ok(next)
            }
            Insn::MovLoad { dst, src } => {
                let v = self.load(src, next)?;
                self.set_reg(dst, v);
                Ok(next)
            }
            Insn::MovStore { dst, src } => {
                let addr = self.mem_addr(dst, next);
                let v = self.reg(src);
                self.write_data(addr, v, 8)?;
                Ok(next)
            }
            Insn::Lea { dst, addr } => {
                let a = self.mem_addr(addr, next);
                self.set_reg(dst, a);
                Ok(next)
            }
            Insn::Alu { op, dst, src } => {
                let (a, b) = (self.reg(dst), self.reg(src));
                if let Some(r) = self.alu_apply(op, a, b) {
                    self.set_reg(dst, r);
                }
                Ok(next)
            }
            Insn::AluImm { op, dst, imm } => {
                let a = self.reg(dst);
                if let Some(r) = self.alu_apply(op, a, imm as i64 as u64) {
                    self.set_reg(dst, r);
                }
                Ok(next)
            }
            Insn::AluLoad { op, dst, src } => {
                let b = self.load(src, next)?;
                let a = self.reg(dst);
                if let Some(r) = self.alu_apply(op, a, b) {
                    self.set_reg(dst, r);
                }
                Ok(next)
            }
            Insn::AluStore { op, dst, src } => {
                let addr = self.mem_addr(dst, next);
                let a = self.read_data(addr, 8)?;
                let b = self.reg(src);
                if let Some(r) = self.alu_apply(op, a, b) {
                    self.write_data(addr, r, 8)?;
                }
                Ok(next)
            }
            Insn::Test(a, b) => {
                let r = self.reg(a) & self.reg(b);
                self.set_logic_flags(r);
                Ok(next)
            }
            Insn::Imul { dst, src } => {
                let r = self.reg(dst).wrapping_mul(self.reg(src));
                self.set_logic_flags(r);
                self.set_reg(dst, r);
                Ok(next)
            }
            Insn::ShlImm(r, n) => {
                let v = self.reg(r) << (n & 63);
                self.set_logic_flags(v);
                self.set_reg(r, v);
                Ok(next)
            }
            Insn::ShrImm(r, n) => {
                let v = self.reg(r) >> (n & 63);
                self.set_logic_flags(v);
                self.set_reg(r, v);
                Ok(next)
            }
        }
    }

    /// TLB statistics for this CPU.
    pub fn tlb_stats(&self) -> adelie_vmem::TlbStats {
        self.tlb.stats()
    }
}

impl fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("cpu", &self.cpu)
            .field("insns_retired", &self.insns_retired)
            .finish()
    }
}
