//! Mirror-model property test for the interpreter's decoded runs
//! (DESIGN.md §18).
//!
//! Two kernels receive the same seeded interleaving of operations:
//! calls into generated code (loops, and same-page direct call and jump
//! chains that a run follows), rewrites of its text frames (through the
//! frame store, through a writable alias, and through interpreted stores
//! on writable+executable pages, including a program's store into its
//! own running run), frees with free-list reuse, and remaps to fresh
//! addresses. Each program also loads, in the middle of a run, from a
//! data page that shares its text page's micro-TLB slot, which evicts
//! the running page's micro entry without a new space generation. One
//! kernel runs the code on a long-lived [`Vm`], whose run table stays
//! warm across all of it. The other runs it on
//! [`RefCpu`] below: a reference interpreter with its own TLB and the
//! same translate sequence, which fetches and decodes every instruction
//! afresh and resolves every translation through the pinned lookup
//! path ([`Tlb::lookup_pinned`]), never the no-pin micro-TLB probe; it
//! predicts the micro hits the fast path earns by asking its own
//! micro-TLB, before each lookup, whether it holds the page at the
//! space's current generation ([`Tlb::micro_pte`]). Results, register
//! files, retired-instruction counts and every TLB counter must agree
//! exactly after every call — so the proptest is also the end-to-end
//! check of the `Vm`'s generation-checked micro-TLB fast path, its page
//! registers and its run cursor against the pinned
//! resynchronize-then-probe path.

use adelie_isa::{decode, encode, AluOp, Asm, Cond, Insn, Mem, Reg, ARG_REGS};
use adelie_kernel::{layout, Kernel, KernelConfig, Vm, VmError};
use adelie_vmem::{
    page_base, page_offset, Access, Batch, Fault, Pfn, PteFlags, PteKind, SpaceReader, Tlb,
    TlbStats, Translation, PAGE_SIZE,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;

/// Where each call's register file is stored before `ret`.
const SCRATCH: u64 = 0x150_0000_0000;
/// `poke(dst, value)`: one interpreted 8-byte store.
const POKE: u64 = 0x151_0000_0000;
/// Code slots are two pages each, spaced apart; remaps move up.
const SLOT_BASE: u64 = 0x160_0000_0000;
const SLOT_STRIDE: u64 = 0x100_0000;
const SLOTS: usize = 3;
/// Registers generated bodies compute in (never rcx, the loop counter,
/// r11, the scratch base, the self-poke registers, or rsp).
const WORK: [Reg; 6] = [Reg::Rax, Reg::Rdx, Reg::Rsi, Reg::Rdi, Reg::R8, Reg::R9];
/// A program's entry stores [`POKE_WORD`] at [`POKE_AT`] when that is
/// non-zero. Calls leave both at 0 except a self-poke's.
const POKE_AT: Reg = Reg::R10;
const POKE_WORD: Reg = Reg::R12;
/// Distance from a slot's text pages up to its two shadow data pages:
/// 512 pages, the micro-TLB's period, so each shadow page shares its
/// text page's micro slot.
const SHADOW: u64 = 512 * PAGE_SIZE as u64;

/// A generated program: bytes plus the offsets of its `mov r, imm32`
/// instructions, which pokes may replace in place.
#[derive(Clone)]
struct Program {
    bytes: Vec<u8>,
    imm_sites: Vec<usize>,
}

/// A `mov`/ALU instruction on [`WORK`] registers.
fn work_insn(rng: &mut TestRng) -> Insn {
    let r = WORK[rng.below(WORK.len() as u64) as usize];
    let s = WORK[rng.below(WORK.len() as u64) as usize];
    let op = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And, AluOp::Or][rng.below(5) as usize];
    match rng.below(4) {
        0 => Insn::MovImm32(r, rng.next_u64() as i32),
        1 => Insn::AluImm {
            op,
            dst: r,
            imm: rng.next_u64() as i32,
        },
        2 => Insn::Alu { op, dst: r, src: s },
        _ => Insn::MovRR { dst: r, src: s },
    }
}

/// A guarded self-poke, then a `mov`/ALU body with one RIP-relative
/// load from the [`SHADOW`] page of its own page inside a short counted
/// loop, then a chain of same-page direct calls and jumps (which a
/// decoded run follows) through `mov`/ALU subroutines, then store all
/// sixteen registers to [`SCRATCH`] and return.
///
/// The guard: when [`POKE_AT`] is non-zero, the program first stores
/// [`POKE_WORD`] there. The store and the body's first instructions
/// make one run, so a self-poke rewrites the running run.
fn program(seed: u64) -> Program {
    let mut rng = TestRng::new(seed);
    let mut prefix = vec![
        Insn::MovImm32(Reg::Rax, rng.next_u64() as i32),
        Insn::MovImm32(Reg::Rcx, 1 + rng.below(4) as i32),
    ];
    for _ in 0..1 + rng.below(12) {
        prefix.push(work_insn(&mut rng));
    }
    // Never first in the body, so it is always inside a run.
    let at = 1 + rng.below(prefix.len() as u64) as usize;
    let dst = WORK[rng.below(WORK.len() as u64) as usize];
    prefix.insert(
        at,
        Insn::MovLoad {
            dst,
            src: Mem::RipRel(SHADOW as i32),
        },
    );
    let mut a = Asm::new();
    a.test(POKE_AT, POKE_AT);
    a.jcc_label(Cond::E, "body");
    a.mov_store(Mem::base(POKE_AT), POKE_WORD);
    a.label("body");
    let mut imm_labels = Vec::new();
    for (i, insn) in prefix.iter().enumerate() {
        if i == 2 {
            a.label("loop");
        }
        if matches!(insn, Insn::MovImm32(..)) {
            let label = format!("imm{i}");
            a.label(&label);
            imm_labels.push(label);
        }
        a.insn(*insn);
    }
    a.alu_imm(AluOp::Sub, Reg::Rcx, 1);
    a.jcc_label(Cond::Ne, "loop");
    // The chain: calls into subroutines placed after the final `ret`,
    // forward jumps over a trap, and subroutines that jump on or call
    // the next one. Their `mov r, imm32` sites are labelled for pokes.
    let subs = rng.below(4) as usize;
    let mut bodies = Vec::new();
    for k in 0..subs {
        if rng.below(2) == 0 {
            a.call_label(&format!("sub{k}"));
        }
        a.jmp_label(&format!("over{k}"));
        a.insn(Insn::Ud2);
        a.label(&format!("over{k}"));
        let body: Vec<Insn> = (0..1 + rng.below(4)).map(|_| work_insn(&mut rng)).collect();
        bodies.push((body, rng.below(3)));
    }
    a.mov_imm64(Reg::R11, SCRATCH);
    for (i, r) in Reg::ALL.into_iter().enumerate() {
        a.mov_store(Mem::base_disp(Reg::R11, 8 * i as i32), r);
    }
    a.ret();
    for (k, (body, tail)) in bodies.iter().enumerate() {
        a.label(&format!("sub{k}"));
        for (j, insn) in body.iter().enumerate() {
            if matches!(insn, Insn::MovImm32(..)) {
                let label = format!("imm{k}_{j}");
                a.label(&label);
                imm_labels.push(label);
            }
            a.insn(*insn);
        }
        match (tail, k + 1 < subs) {
            // Jump on into the next subroutine, whose `ret` returns.
            (0, true) => {
                a.jmp_label(&format!("sub{}", k + 1));
            }
            // Call the next one, then return.
            (1, true) => {
                a.call_label(&format!("sub{}", k + 1));
                a.ret();
            }
            _ => {
                a.ret();
            }
        }
        a.insn(Insn::Int3);
    }
    let out = a.assemble().unwrap();
    Program {
        imm_sites: imm_labels.iter().map(|l| out.labels[l]).collect(),
        bytes: out.bytes,
    }
}

struct Slot {
    va: u64,
    pfns: [Pfn; 2],
    /// Data frames mapped at `va + SHADOW`.
    shadow: [Pfn; 2],
    /// Program start within the two pages: low in the first page, or
    /// straddling the boundary so some fetch windows cross it.
    start: usize,
    flags: PteFlags,
    program: Program,
    /// Addresses the slot was mapped at before a remap.
    stale: Option<u64>,
}

/// One kernel and its code slots. Both sides of the mirror build one
/// from the same inputs.
struct World {
    kernel: Arc<Kernel>,
    slots: Vec<Slot>,
    next_va: u64,
}

impl World {
    fn new(seed: u64, slot_seeds: &[(u64, bool, bool)]) -> World {
        let kernel = Kernel::new(KernelConfig {
            seed,
            fuel: 100_000,
            ..KernelConfig::default()
        });
        kernel
            .space
            .apply(Batch::new().map_page(SCRATCH, kernel.phys.alloc(), PteFlags::DATA))
            .unwrap();
        let mut poke = Asm::new();
        poke.mov_store(Mem::base(Reg::Rdi), Reg::Rsi);
        poke.ret();
        let pfn = kernel.phys.alloc();
        kernel.phys.write(pfn, 0, &poke.assemble().unwrap().bytes);
        kernel
            .space
            .apply(Batch::new().map_page(POKE, pfn, PteFlags::TEXT))
            .unwrap();
        let mut world = World {
            kernel,
            slots: Vec::new(),
            next_va: SLOT_BASE + SLOT_STRIDE * SLOTS as u64,
        };
        for (i, &(pseed, straddle, wx)) in slot_seeds.iter().enumerate() {
            let program = program(pseed);
            let start = if straddle {
                PAGE_SIZE - program.bytes.len() / 2
            } else {
                0x80
            };
            let flags = if wx {
                PteFlags::WRITABLE
            } else {
                PteFlags::TEXT
            };
            let pfns = [world.kernel.phys.alloc(), world.kernel.phys.alloc()];
            let shadow = [world.kernel.phys.alloc(), world.kernel.phys.alloc()];
            let slot = Slot {
                va: SLOT_BASE + SLOT_STRIDE * i as u64,
                pfns,
                shadow,
                start,
                flags,
                program,
                stale: None,
            };
            world.store(&slot, &slot.program.bytes, None);
            world.map(&slot);
            world.map_shadow(&slot);
            world.slots.push(slot);
        }
        world
    }

    fn map(&self, slot: &Slot) {
        for (i, &pfn) in slot.pfns.iter().enumerate() {
            let va = slot.va + (i * PAGE_SIZE) as u64;
            self.kernel
                .space
                .apply(Batch::new().map_page(va, pfn, slot.flags))
                .unwrap();
        }
    }

    fn map_shadow(&self, slot: &Slot) {
        let va = slot.va + SHADOW;
        self.kernel
            .space
            .apply(Batch::new().map_range(va, &slot.shadow, PteFlags::DATA))
            .unwrap();
    }

    fn unmap(&self, va: u64) {
        for i in 0..2 {
            self.kernel
                .space
                .apply(Batch::new().unmap_range(va + (i * PAGE_SIZE) as u64, 1))
                .unwrap();
        }
    }

    /// Write program bytes into the slot's frames, straight to the
    /// frame store or through a temporary writable alias.
    fn store(&self, slot: &Slot, bytes: &[u8], alias: Option<u64>) {
        match alias {
            Some(va) => {
                for (i, &pfn) in slot.pfns.iter().enumerate() {
                    let page = va + (i * PAGE_SIZE) as u64;
                    self.kernel
                        .space
                        .apply(Batch::new().map_page(page, pfn, PteFlags::DATA))
                        .unwrap();
                }
                self.kernel
                    .space
                    .write_bytes(&self.kernel.phys, va + slot.start as u64, bytes)
                    .unwrap();
                self.unmap(va);
            }
            None => {
                let mut done = 0;
                while done < bytes.len() {
                    let at = slot.start + done;
                    let n = (bytes.len() - done).min(PAGE_SIZE - at % PAGE_SIZE);
                    let pfn = slot.pfns[at / PAGE_SIZE];
                    self.kernel
                        .phys
                        .write(pfn, at % PAGE_SIZE, &bytes[done..done + n]);
                    done += n;
                }
            }
        }
    }

    fn fresh_va(&mut self) -> u64 {
        let va = self.next_va;
        self.next_va += SLOT_STRIDE;
        va
    }

    /// Apply an operation. Returns the call to run next, if the
    /// operation is one.
    fn apply(&mut self, op: &Op) -> Option<Call> {
        let s = op.slot % self.slots.len();
        match op.kind {
            OpKind::Call => {
                let slot = &self.slots[s];
                Some(Call::plain(
                    slot.va + slot.start as u64,
                    [op.a, op.b, op.a ^ op.b],
                ))
            }
            OpKind::CallStale => {
                let slot = &self.slots[s];
                Some(Call::plain(slot.stale? + slot.start as u64, [0; 3]))
            }
            OpKind::Rewrite { via_alias } => {
                let program = program(op.a);
                let alias = via_alias.then(|| self.fresh_va());
                self.store(&self.slots[s], &program.bytes, alias);
                self.slots[s].program = program;
                None
            }
            OpKind::Poke { by_itself } => {
                // Replace one `mov r, imm32` (7 bytes) in place; the
                // eighth byte of the store keeps what follows it. The
                // store runs in `poke`, or in the slot's own entry run.
                let slot = &mut self.slots[s];
                let sites = &slot.program.imm_sites;
                if sites.is_empty() {
                    return None;
                }
                let at = sites[op.b as usize % sites.len()];
                let mut word = [0u8; 8];
                word[..7].copy_from_slice(&encode(&Insn::MovImm32(
                    WORK[op.a as usize % WORK.len()],
                    op.a as i32,
                )));
                word[7] = slot.program.bytes[at + 7];
                if slot.flags == PteFlags::WRITABLE {
                    slot.program.bytes[at..at + 8].copy_from_slice(&word);
                }
                let (dst, word) = (slot.va + (slot.start + at) as u64, u64::from_le_bytes(word));
                Some(if by_itself {
                    Call {
                        poke: (dst, word),
                        ..Call::plain(slot.va + slot.start as u64, [op.a, op.b, 1])
                    }
                } else {
                    Call::plain(POKE, [dst, word, 0])
                })
            }
            OpKind::Realloc { rewrite } => {
                let va = self.slots[s].va;
                self.unmap(va);
                for pfn in self.slots[s].pfns {
                    self.kernel.phys.free(pfn);
                }
                // Last-in first-out reuse: the same frames come back,
                // zeroed, and either get new code or stay zero (which
                // does not decode).
                let pfns = [self.kernel.phys.alloc(), self.kernel.phys.alloc()];
                let slot = &mut self.slots[s];
                slot.pfns = pfns;
                slot.program = if rewrite {
                    program(op.a)
                } else {
                    Program {
                        bytes: vec![0; slot.program.bytes.len()],
                        imm_sites: Vec::new(),
                    }
                };
                let slot = &self.slots[s];
                if rewrite {
                    self.store(slot, &slot.program.bytes, None);
                }
                self.map(slot);
                None
            }
            OpKind::Remap => {
                let to = self.fresh_va();
                let slot = &mut self.slots[s];
                let from = std::mem::replace(&mut slot.va, to);
                slot.stale = Some(from);
                let slot = &self.slots[s];
                self.map(slot);
                self.map_shadow(slot);
                self.unmap(from);
                self.unmap(from + SHADOW);
                None
            }
        }
    }

    fn scratch(&self) -> Vec<u8> {
        let mut buf = vec![0u8; 16 * 8];
        self.kernel
            .space
            .read_bytes(&self.kernel.phys, SCRATCH, &mut buf)
            .unwrap();
        buf
    }
}

/// One call to run on both sides.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Call {
    entry: u64,
    args: [u64; 3],
    /// [`POKE_AT`] and [`POKE_WORD`] for the call.
    poke: (u64, u64),
}

impl Call {
    fn plain(entry: u64, args: [u64; 3]) -> Call {
        Call {
            entry,
            args,
            poke: (0, 0),
        }
    }
}

#[derive(Copy, Clone, Debug)]
enum OpKind {
    Call,
    CallStale,
    Rewrite { via_alias: bool },
    Poke { by_itself: bool },
    Realloc { rewrite: bool },
    Remap,
}

#[derive(Copy, Clone, Debug)]
struct Op {
    kind: OpKind,
    slot: usize,
    a: u64,
    b: u64,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        Just(OpKind::Call),
        Just(OpKind::Call),
        Just(OpKind::Call),
        Just(OpKind::CallStale),
        Just(OpKind::Rewrite { via_alias: false }),
        Just(OpKind::Rewrite { via_alias: true }),
        Just(OpKind::Poke { by_itself: false }),
        Just(OpKind::Poke { by_itself: true }),
        Just(OpKind::Realloc { rewrite: true }),
        Just(OpKind::Realloc { rewrite: false }),
        Just(OpKind::Remap),
    ];
    (kind, 0..SLOTS, any::<u64>(), any::<u64>()).prop_map(|(kind, slot, a, b)| Op {
        kind,
        slot,
        a,
        b,
    })
}

/// The reference CPU: the interpreter's fetch path without any decode
/// cache — every instruction is translated, read from its frame and
/// decoded. Every translation pins an epoch, resynchronizes the TLB
/// with the space and probes it ([`Tlb::lookup_pinned`]), then walks on
/// a miss: the slow path `Vm` takes only when its TLB lags.
struct RefCpu<'k> {
    kernel: &'k Kernel,
    regs: [u64; 16],
    /// The only flag generated code branches on (`jne` after `sub`,
    /// `je` after `test`).
    zf: bool,
    tlb: Tlb,
    /// Lookups the `Vm`'s micro-TLB probe would have served.
    micro_hits: u64,
    reader: SpaceReader<'k>,
    stack_top: u64,
    insns_retired: u64,
}

impl<'k> RefCpu<'k> {
    fn new(kernel: &'k Kernel) -> RefCpu<'k> {
        RefCpu {
            kernel,
            regs: [0; 16],
            zf: false,
            tlb: Tlb::with_arch(kernel.config.arch),
            micro_hits: 0,
            reader: kernel.space.reader(),
            stack_top: kernel.alloc_stack(),
            insns_retired: 0,
        }
    }

    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index() as usize] = v;
    }

    fn call(&mut self, entry: u64, args: &[u64]) -> Result<u64, VmError> {
        let (saved_regs, saved_zf) = (self.regs, self.zf);
        self.set_reg(Reg::Rsp, self.stack_top);
        for (i, &a) in args.iter().enumerate() {
            self.set_reg(ARG_REGS[i], a);
        }
        let result = self
            .push(layout::RETURN_SENTINEL)
            .and_then(|()| self.run(entry));
        let rax = self.reg(Reg::Rax);
        self.regs = saved_regs;
        self.zf = saved_zf;
        self.set_reg(Reg::Rax, rax);
        result.map(|()| rax)
    }

    fn run(&mut self, mut rip: u64) -> Result<(), VmError> {
        let mut fuel = self.kernel.config.fuel;
        while rip != layout::RETURN_SENTINEL {
            assert!(
                !layout::is_native(rip),
                "generated code never calls natives"
            );
            if fuel == 0 {
                return Err(VmError::OutOfFuel { rip });
            }
            fuel -= 1;
            self.insns_retired += 1;
            let (insn, len) = self.fetch_decode(rip)?;
            rip = self.step(rip + len as u64, insn)?;
        }
        Ok(())
    }

    fn fetch_decode(&mut self, rip: u64) -> Result<(Insn, usize), VmError> {
        let mut buf = [0u8; 16];
        let mut got = 0;
        while got < buf.len() {
            let cur = rip + got as u64;
            let off = page_offset(cur);
            let n = (PAGE_SIZE - off).min(buf.len() - got);
            let t = match self.translate(cur, Access::Exec) {
                Ok(t) => t,
                Err(_) if got > 0 => break,
                Err(e) => return Err(e),
            };
            match t.pte.kind {
                PteKind::Frame(pfn) => self.kernel.phys.read(pfn, off, &mut buf[got..got + n]),
                PteKind::Mmio { .. } => return Err(VmError::Fault(Fault::MmioExec { va: cur })),
            }
            got += n;
        }
        decode(&buf[..got]).map_err(|err| VmError::Decode { rip, err })
    }

    fn translate(&mut self, va: u64, access: Access) -> Result<Translation, VmError> {
        let page_va = page_base(va);
        let current = self.kernel.space.generation();
        if self.tlb.micro_pte(page_va, current).is_some() {
            self.micro_hits += 1;
        }
        let pin = self.reader.pin();
        if let Some(pte) = self.tlb.lookup_pinned(page_va, &pin) {
            pte.check(va, access)?;
            return Ok(Translation { pte, page_va });
        }
        let t = pin.translate(va, access)?;
        drop(pin);
        self.tlb.insert(&t);
        Ok(t)
    }

    /// Data access split at page boundaries, as the interpreter does.
    fn read_data(&mut self, va: u64, size: usize) -> Result<u64, VmError> {
        let off = page_offset(va);
        if off + size > PAGE_SIZE {
            let first = PAGE_SIZE - off;
            let lo = self.read_data(va, first)?;
            let hi = self.read_data(va + first as u64, size - first)?;
            return Ok(lo | (hi << (8 * first)));
        }
        let PteKind::Frame(pfn) = self.translate(va, Access::Read)?.pte.kind else {
            unreachable!("no MMIO in generated code");
        };
        let mut buf = [0u8; 8];
        self.kernel.phys.read(pfn, off, &mut buf[..size]);
        Ok(u64::from_le_bytes(buf))
    }

    fn write_data(&mut self, va: u64, value: u64, size: usize) -> Result<(), VmError> {
        let off = page_offset(va);
        if off + size > PAGE_SIZE {
            let first = PAGE_SIZE - off;
            self.write_data(va, value, first)?;
            return self.write_data(va + first as u64, value >> (8 * first), size - first);
        }
        let PteKind::Frame(pfn) = self.translate(va, Access::Write)?.pte.kind else {
            unreachable!("no MMIO in generated code");
        };
        self.kernel
            .phys
            .write(pfn, off, &value.to_le_bytes()[..size]);
        Ok(())
    }

    fn push(&mut self, v: u64) -> Result<(), VmError> {
        let rsp = self.reg(Reg::Rsp).wrapping_sub(8);
        self.set_reg(Reg::Rsp, rsp);
        self.write_data(rsp, v, 8)
    }

    fn pop(&mut self) -> Result<u64, VmError> {
        let rsp = self.reg(Reg::Rsp);
        let v = self.read_data(rsp, 8)?;
        self.set_reg(Reg::Rsp, rsp.wrapping_add(8));
        Ok(v)
    }

    fn addr(&self, m: Mem, next: u64) -> u64 {
        match m {
            Mem::RipRel(d) => next.wrapping_add(d as i64 as u64),
            Mem::Base { base, disp } => self.reg(base).wrapping_add(disp as i64 as u64),
        }
    }

    fn alu(&mut self, op: AluOp, a: u64, b: u64) -> u64 {
        let r = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Cmp => unreachable!("generated code never compares"),
        };
        self.zf = r == 0;
        r
    }

    fn step(&mut self, next: u64, insn: Insn) -> Result<u64, VmError> {
        match insn {
            Insn::Ret => self.pop(),
            Insn::Jcc(c @ (Cond::Ne | Cond::E), d) => Ok(if self.zf == (c == Cond::E) {
                next.wrapping_add(d as i64 as u64)
            } else {
                next
            }),
            Insn::Test(a, b) => {
                self.zf = self.reg(a) & self.reg(b) == 0;
                Ok(next)
            }
            Insn::CallRel(d) => {
                self.push(next)?;
                Ok(next.wrapping_add(d as i64 as u64))
            }
            Insn::JmpRel(d) => Ok(next.wrapping_add(d as i64 as u64)),
            Insn::MovImm64(r, v) => {
                self.set_reg(r, v);
                Ok(next)
            }
            Insn::MovImm32(r, v) => {
                self.set_reg(r, v as i64 as u64);
                Ok(next)
            }
            Insn::MovRR { dst, src } => {
                self.set_reg(dst, self.reg(src));
                Ok(next)
            }
            Insn::MovStore { dst, src } => {
                let addr = self.addr(dst, next);
                self.write_data(addr, self.reg(src), 8)?;
                Ok(next)
            }
            Insn::MovLoad { dst, src } => {
                let v = self.read_data(self.addr(src, next), 8)?;
                self.set_reg(dst, v);
                Ok(next)
            }
            Insn::Alu { op, dst, src } => {
                let r = self.alu(op, self.reg(dst), self.reg(src));
                self.set_reg(dst, r);
                Ok(next)
            }
            Insn::AluImm { op, dst, imm } => {
                let r = self.alu(op, self.reg(dst), imm as i64 as u64);
                self.set_reg(dst, r);
                Ok(next)
            }
            other => unreachable!("generated code never emits {other:?}"),
        }
    }
}

/// Run one call on both sides and compare everything observable.
fn call_both(
    vm: &mut Vm<'_>,
    cached: &World,
    reference: &mut RefCpu<'_>,
    mirror: &World,
    call: Call,
) -> Result<(), TestCaseError> {
    let (at, word) = call.poke;
    vm.set_reg(POKE_AT, at);
    vm.set_reg(POKE_WORD, word);
    reference.set_reg(POKE_AT, at);
    reference.set_reg(POKE_WORD, word);
    let got = vm.call(call.entry, &call.args).map_err(|e| e.to_string());
    let want = reference
        .call(call.entry, &call.args)
        .map_err(|e| e.to_string());
    for r in [POKE_AT, POKE_WORD] {
        vm.set_reg(r, 0);
        reference.set_reg(r, 0);
    }
    prop_assert_eq!(&got, &want, "call {:#x}", call.entry);
    prop_assert_eq!(cached.scratch(), mirror.scratch(), "register file");
    prop_assert_eq!(vm.insns_retired(), reference.insns_retired);
    // The reference's own lookups never count a micro hit; the ones it
    // predicted stand in for them.
    let want = TlbStats {
        micro_hits: reference.micro_hits,
        ..reference.tlb.stats()
    };
    prop_assert_eq!(vm.tlb_stats(), want, "TLB counters");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_interpreter_matches_decode_every_fetch_reference(
        seed in any::<u64>(),
        slot_seeds in proptest::collection::vec(
            (any::<u64>(), any::<bool>(), any::<bool>()), SLOTS..SLOTS + 1),
        ops in proptest::collection::vec(arb_op(), 1..48),
    ) {
        let mut cached = World::new(seed, &slot_seeds);
        let mut mirror = World::new(seed, &slot_seeds);
        let (kc, km) = (cached.kernel.clone(), mirror.kernel.clone());
        let mut vm = kc.vm();
        let mut reference = RefCpu::new(&km);
        let mut calls = 0;
        for op in &ops {
            let next = cached.apply(op);
            prop_assert_eq!(next, mirror.apply(op), "worlds diverged on {:?}", op);
            if let Some(call) = next {
                call_both(&mut vm, &cached, &mut reference, &mirror, call)?;
                // Run the slot again warm: pokes and stale calls are
                // followed by a call of the code they touched.
                let slot = &cached.slots[op.slot % SLOTS];
                let again = Call::plain(slot.va + slot.start as u64, [op.b, op.a, 1]);
                call_both(&mut vm, &cached, &mut reference, &mirror, again)?;
                calls += 2;
            }
        }
        prop_assert_eq!(cached.kernel.phys.stats(), mirror.kernel.phys.stats());
        prop_assert!(calls == 0 || vm.insns_retired() > 0);
        // The fast path under test actually served lookups.
        prop_assert!(calls == 0 || vm.tlb_stats().micro_hits > 0);
    }
}
