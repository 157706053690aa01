//! # adelie-kernel — the simulated Linux-like kernel substrate
//!
//! Everything Adelie's loader and re-randomizer need from "the kernel",
//! built from scratch over `adelie-vmem`:
//!
//! * a single kernel [`AddressSpace`] plus physical memory,
//! * the [`SymbolTable`] (kallsyms) whose exported symbols are native
//!   Rust functions dispatched when interpreted code calls into the
//!   kernel-text region,
//! * the [`Vm`] interpreter — a simulated CPU that fetches, decodes, and
//!   executes module code through the page tables,
//! * `kmalloc`/`kfree` ([`Heap`]), `printk` ([`Printk`]), per-CPU
//!   accounting ([`PerCpu`]), MMIO dispatch ([`MmioRegistry`]),
//! * device-op registries ([`DeviceTable`]) and a VFS with a page cache
//!   ([`Vfs`]) — the I/O stack the paper's benchmarks exercise,
//! * the reclamation domain (`mr_start`/`mr_finish`/`mr_retire`) backed
//!   by `adelie-reclaim`'s Hyaline (or EBR, for the ablation).
//!
//! # Example
//!
//! ```
//! use adelie_kernel::{Kernel, KernelConfig};
//!
//! let kernel = Kernel::new(KernelConfig::default());
//! kernel.printk.log("hello from the simulated kernel");
//! assert!(kernel.symbols.lookup("kmalloc").is_some());
//! ```

mod dev;
mod exec;
mod fs;
mod heap;
pub mod layout;
mod mmio;
mod percpu;
mod printk;
mod sharded;
mod symbols;

pub use dev::{BlockDev, CharDev, DeviceTable, FsOps, NetDev, RxHandler};
pub use exec::{Vm, VmError};
pub use fs::{disk_byte, CacheStats, Vfs, VfsFile, CACHE_PAGE, SECTORS_PER_PAGE, SECTOR_SIZE};
pub use heap::Heap;
pub use mmio::{MmioDevice, MmioRegistry};
pub use percpu::PerCpu;
pub use printk::Printk;
pub use sharded::{FleetConfig, ShardedKernel};
pub use symbols::{BuildNameHasher, NativeFn, SymbolTable};

use adelie_reclaim::{Hyaline, Reclaimer};
use adelie_vmem::{AddressSpace, Batch, PhysMem, PteFlags, SpaceConfig, PAGE_SIZE};
pub use adelie_vmem::{ArchKind, TlbStats};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Callback invoked on every outermost [`Vm::call`] with the entry
/// address — the hook `adelie-sched` uses to measure per-module call
/// rates (entries resolve to modules by immovable-part address range).
pub type CallObserver = Arc<dyn Fn(u64) + Send + Sync>;

/// An immutable, published set of `(token, observer)` pairs.
pub(crate) type ObserverList = Arc<[(u64, CallObserver)]>;

/// Demand-fault handler consulted when an outermost [`Vm::call`]
/// targets an entry that does not translate for execute access. The
/// loader may materialize the backing module (the fleet's cold tier
/// faults the module back in from its catalog record) and return the
/// address execution should continue at — possibly different from the
/// faulting one, since a reloaded movable part lands at a fresh
/// randomized base. `None` means the fault stands and the call
/// proceeds to raise the usual [`VmError::Fault`].
pub type DemandLoader = Arc<dyn Fn(u64) -> Option<u64> + Send + Sync>;

/// Boot-time configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Simulated CPUs (Table 1's server has 20 cores).
    pub cpus: usize,
    /// Whether the retpoline Spectre-V2 mitigation is enabled (PLT stubs
    /// with speculation-safe thunks, paper §2.5/§4.1).
    pub retpoline: bool,
    /// Mirror printk lines to stderr.
    pub echo_printk: bool,
    /// Per-call instruction budget (runaway-loop guard).
    pub fuel: u64,
    /// RNG seed (layout randomization, keys).
    pub seed: u64,
    /// ISA backend of the kernel address space and every per-CPU TLB:
    /// selects hardware PTE encodings and ASID width. Defaults to the
    /// environment-selected arch (`ADELIE_ARCH=riscv64` picks Sv48;
    /// x86_64 otherwise).
    pub arch: ArchKind,
    /// `[lo, hi)` window of the randomization arena this kernel's
    /// module loads, re-randomization cycles, and randomized stacks may
    /// be placed in. Defaults to the whole arena
    /// (`[0, layout::MODULE_CEILING)`); fleet mode
    /// ([`ShardedKernel`]) hands each shard one of the disjoint
    /// [`layout::shard_windows`] so shard layouts can never overlap.
    pub module_window: (u64, u64),
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cpus: 20,
            retpoline: true,
            echo_printk: false,
            fuel: 200_000_000,
            seed: 0x00AD_E11E,
            arch: ArchKind::from_env(),
            module_window: (0, layout::MODULE_CEILING),
        }
    }
}

/// Pages per kernel thread stack (32 KiB, like Linux's 16 KiB ×2 for
/// comfort under interpretation).
const STACK_PAGES: usize = 8;

/// The simulated kernel. Create once with [`Kernel::new`] and share via
/// [`Arc`]; every public field is internally synchronized.
pub struct Kernel {
    /// Boot configuration.
    pub config: KernelConfig,
    /// Physical memory.
    pub phys: Arc<PhysMem>,
    /// The kernel address space.
    pub space: Arc<AddressSpace>,
    /// kallsyms + native dispatch.
    pub symbols: SymbolTable,
    /// kmalloc heap.
    pub heap: Heap,
    /// MMIO device models.
    pub mmio: MmioRegistry,
    /// Kernel log.
    pub printk: Printk,
    /// Per-CPU assignment and accounting.
    pub percpu: PerCpu,
    /// The `mr_*` reclamation domain: Hyaline, the paper's choice
    /// (page-table snapshots use EBR, DESIGN.md §11.3).
    pub reclaim: Arc<dyn Reclaimer>,
    /// Module-facing device registries.
    pub devices: DeviceTable,
    /// Filesystem + page cache.
    pub vfs: Vfs,
    rng: Mutex<SmallRng>,
    next_stack: AtomicU64,
    /// Tops of stacks whose `Vm` was dropped, reused before
    /// `next_stack` maps fresh ones.
    free_stacks: Mutex<Vec<u64>>,
    next_mmio_bar: AtomicU64,
    /// `(token, callback)` pairs, one per `add_call_observer` (each
    /// scheduler pool's call-rate hook, the fleet's cold-tier idle
    /// tracker). Each change publishes a fresh immutable list and bumps
    /// `observers_gen`; every `Vm` keeps the list it last saw and
    /// re-reads it only when the generation moved, so a steady call
    /// pays one atomic load and allocates nothing.
    call_observers: RwLock<ObserverList>,
    observers_gen: AtomicU64,
    next_observer_token: AtomicU64,
    demand_loader: RwLock<Option<DemandLoader>>,
    /// Mirrors `demand_loader.is_some()`: the per-call gate is one load.
    has_demand_loader: AtomicBool,
}

impl Kernel {
    /// Boot a kernel: builds the substrate and registers the base native
    /// symbol set (`kmalloc`, `kfree`, `printk`, `memcpy`, `memset`,
    /// `mr_start`, `mr_finish`, `netif_rx`, the `register_*dev` family,
    /// `jiffies`).
    pub fn new(config: KernelConfig) -> Arc<Kernel> {
        let reclaim: Arc<dyn Reclaimer> = Arc::new(Hyaline::new(config.cpus));
        // Every Vm holds a reader slot for its lifetime, so the domain
        // must cover at least the CPU count (with headroom for
        // auxiliary readers like oracles and one-shot pins) — a kernel
        // configured beyond READER_SLOTS CPUs must not hang its
        // interpreters on slot claims.
        let kernel = Arc::new(Kernel {
            phys: Arc::new(PhysMem::new()),
            space: Arc::new(AddressSpace::with_space_config(SpaceConfig {
                reader_slots: adelie_vmem::READER_SLOTS.max(config.cpus * 2),
                arch: config.arch,
                ..SpaceConfig::new()
            })),
            symbols: SymbolTable::new(),
            heap: Heap::new(),
            mmio: MmioRegistry::new(),
            printk: Printk::new(config.echo_printk),
            percpu: PerCpu::new(config.cpus),
            reclaim,
            devices: DeviceTable::new(),
            vfs: Vfs::new(),
            rng: Mutex::new(SmallRng::seed_from_u64(config.seed)),
            next_stack: AtomicU64::new(layout::STACK_BASE),
            free_stacks: Mutex::new(Vec::new()),
            next_mmio_bar: AtomicU64::new(layout::MMIO_BASE),
            call_observers: RwLock::new(Arc::from([])),
            observers_gen: AtomicU64::new(0),
            next_observer_token: AtomicU64::new(1),
            demand_loader: RwLock::new(None),
            has_demand_loader: AtomicBool::new(false),
            config,
        });
        register_base_natives(&kernel);
        kernel
    }

    /// Aggregate TLB counters published by every CPU's `Vm` at
    /// outermost call exit — the kernel-wide hit/miss/micro-hit totals
    /// the translate bench and fleet reporting consume.
    pub fn tlb_totals(&self) -> adelie_vmem::TlbStats {
        self.percpu.tlb_totals()
    }

    /// Create a simulated CPU for the calling thread (takes a kernel
    /// stack, which the `Vm` returns when dropped; the CPU id is sticky
    /// per thread).
    pub fn vm(&self) -> Vm<'_> {
        let cpu = self.percpu.current();
        let stack_top = self.alloc_stack();
        Vm::new(self, cpu, stack_top)
    }

    /// Allocate a kernel stack (with an unmapped guard page below);
    /// returns the initial stack-top address. A stack a dropped `Vm`
    /// returned is reused before fresh pages are mapped.
    pub fn alloc_stack(&self) -> u64 {
        if let Some(top) = self.free_stacks.lock().pop() {
            return top;
        }
        let base = self
            .next_stack
            .fetch_add(((STACK_PAGES + 1) * PAGE_SIZE) as u64, Ordering::Relaxed);
        // +1 page: the guard page at `base` stays unmapped.
        let first_mapped = base + PAGE_SIZE as u64;
        let pfns = self.phys.alloc_n(STACK_PAGES);
        self.space
            .apply(Batch::new().map_range(first_mapped, &pfns, PteFlags::DATA))
            .expect("stack region collision");
        first_mapped + (STACK_PAGES * PAGE_SIZE) as u64
    }

    /// Return a stack from [`Kernel::alloc_stack`] for reuse.
    pub(crate) fn free_stack(&self, top: u64) {
        self.free_stacks.lock().push(top);
    }

    /// Install a per-call observer alongside any others; returns the
    /// token that [`Kernel::remove_call_observer`] removes it by. The
    /// callback runs on every *outermost* interpreted call, on the
    /// calling thread — keep it cheap (a counter bump).
    pub fn add_call_observer(&self, observer: CallObserver) -> u64 {
        let token = self.next_observer_token.fetch_add(1, Ordering::Relaxed);
        self.update_observers(|list| list.push((token, observer)));
        token
    }

    /// Remove an observer added with [`Kernel::add_call_observer`].
    pub fn remove_call_observer(&self, token: u64) {
        self.update_observers(|list| list.retain(|(t, _)| *t != token));
    }

    /// Publish an edited copy of the observer list under a new
    /// generation. The generation is bumped (Release) after the list is
    /// in place, and readers load it (Acquire) before reading the list,
    /// so a list is never older than the generation it is cached under.
    fn update_observers(&self, edit: impl FnOnce(&mut Vec<(u64, CallObserver)>)) {
        let mut published = self.call_observers.write();
        let mut list = published.to_vec();
        edit(&mut list);
        *published = list.into();
        self.observers_gen.fetch_add(1, Ordering::Release);
    }

    /// Generation of the published observer list.
    pub(crate) fn observers_generation(&self) -> u64 {
        self.observers_gen.load(Ordering::Acquire)
    }

    /// The published observer list, with a generation it is at least
    /// as new as.
    pub(crate) fn call_observers(&self) -> (u64, ObserverList) {
        let gen = self.observers_generation();
        (gen, self.call_observers.read().clone())
    }

    /// Install the demand-fault loader (replacing any previous one).
    /// Consulted by [`Vm::call`] when an outermost entry address does
    /// not translate for execute access — see [`DemandLoader`].
    pub fn set_demand_loader(&self, loader: DemandLoader) {
        let mut slot = self.demand_loader.write();
        *slot = Some(loader);
        self.has_demand_loader.store(true, Ordering::Release);
    }

    /// Remove the demand-fault loader.
    pub fn clear_demand_loader(&self) {
        let mut slot = self.demand_loader.write();
        *slot = None;
        self.has_demand_loader.store(false, Ordering::Release);
    }

    /// Whether a demand loader is installed (fast gate so the common
    /// non-fleet call path skips the probe entirely): one atomic load.
    pub(crate) fn has_demand_loader(&self) -> bool {
        self.has_demand_loader.load(Ordering::Acquire)
    }

    /// Consult the demand loader, if any, for a faulting entry address.
    pub(crate) fn demand_load(&self, entry: u64) -> Option<u64> {
        let loader = self.demand_loader.read().clone();
        loader.and_then(|loader| loader(entry))
    }

    /// A uniformly random u64 from the seeded kernel RNG.
    pub fn rng_u64(&self) -> u64 {
        self.rng.lock().gen()
    }

    /// A uniformly random value in `[0, bound)`.
    pub fn rng_below(&self, bound: u64) -> u64 {
        self.rng.lock().gen_range(0..bound)
    }

    /// Register a device model and map its `pages`-page BAR in one
    /// batch; returns `(device id, aperture base address)`.
    pub fn map_device(&self, dev: Arc<dyn MmioDevice>, pages: usize) -> (u32, u64) {
        assert!((pages * PAGE_SIZE) as u64 <= layout::MMIO_BAR_SIZE);
        let id = self.mmio.register(dev);
        let base = self
            .next_mmio_bar
            .fetch_add(layout::MMIO_BAR_SIZE, Ordering::Relaxed);
        let mut bar = Batch::new();
        for p in 0..pages {
            bar.map_mmio(base + (p * PAGE_SIZE) as u64, id, p as u32, PteFlags::DATA);
        }
        self.space.apply(&bar).expect("MMIO window collision");
        (id, base)
    }

    /// Dispatch an `ioctl(2)` to the character device on `minor` — the
    /// entry point of Fig. 9's CPU-bound benchmark.
    ///
    /// # Errors
    ///
    /// `VmError::Native` for an unknown device, else whatever the
    /// driver's wrapper raises.
    pub fn ioctl(&self, vm: &mut Vm<'_>, minor: u32, cmd: u64, arg: u64) -> Result<u64, VmError> {
        let entry = self
            .devices
            .with_chrdev(minor, |dev| match dev.ioctl {
                0 => Err(format!("ioctl: {} has no ioctl", dev.name)),
                entry => Ok(entry),
            })
            .unwrap_or_else(|| Err(format!("ioctl: no chrdev minor {minor}")))
            .map_err(VmError::Native)?;
        vm.call(entry, &[minor as u64, cmd, arg])
    }

    /// Poll the network driver's receive path once; returns how many
    /// frames were delivered (0 when the ring is empty).
    ///
    /// # Errors
    ///
    /// `VmError::Native` if no NIC is registered.
    pub fn net_poll(&self, vm: &mut Vm<'_>) -> Result<u64, VmError> {
        let dev = self
            .devices
            .netdev()
            .ok_or_else(|| VmError::Native("net_poll: no netdev".into()))?;
        if dev.poll == 0 {
            return Ok(0);
        }
        vm.call(dev.poll, &[])
    }

    /// Transmit a frame through the registered network driver (the send
    /// path of the Apache/OLTP benchmarks). `frame` is copied into a
    /// kmalloc'd buffer, the driver's `xmit` wrapper is invoked, and the
    /// buffer freed.
    ///
    /// # Errors
    ///
    /// `VmError::Native` if no NIC is registered.
    pub fn net_xmit(&self, vm: &mut Vm<'_>, frame: &[u8]) -> Result<(), VmError> {
        let dev = self
            .devices
            .netdev()
            .ok_or_else(|| VmError::Native("net_xmit: no netdev".into()))?;
        let buf = self
            .heap
            .kmalloc(&self.space, &self.phys, frame.len().max(1));
        self.space.write_bytes(&self.phys, buf, frame)?;
        let res = vm.call(dev.xmit, &[buf, frame.len() as u64]);
        self.heap.kfree(buf);
        res.map(|_| ())
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("cpus", &self.config.cpus)
            .field("symbols", &self.symbols.len())
            .field("space", &self.space)
            .finish()
    }
}

/// Install the baseline exported-symbol set.
fn register_base_natives(kernel: &Arc<Kernel>) {
    let s = &kernel.symbols;

    s.register_native("kmalloc", |vm| {
        let size = vm.arg(0) as usize;
        if size == 0 {
            return Err(VmError::Native("kmalloc(0)".into()));
        }
        Ok(vm
            .kernel
            .heap
            .kmalloc(&vm.kernel.space, &vm.kernel.phys, size))
    });

    s.register_native("kfree", |vm| {
        let ptr = vm.arg(0);
        vm.kernel.heap.kfree(ptr);
        Ok(0)
    });

    s.register_native("printk", |vm| {
        let fmt = vm.read_cstr(vm.arg(0))?;
        let arg = vm.arg(1);
        let msg = if let Some(idx) = fmt.find("%llu") {
            format!("{}{}{}", &fmt[..idx], arg, &fmt[idx + 4..])
        } else if let Some(idx) = fmt.find("%llx") {
            format!("{}{:x}{}", &fmt[..idx], arg, &fmt[idx + 4..])
        } else {
            fmt
        };
        vm.kernel.printk.log(msg);
        Ok(0)
    });

    s.register_native("memcpy", |vm| {
        let (dst, src, n) = (vm.arg(0), vm.arg(1), vm.arg(2) as usize);
        vm.copy_bytes(dst, src, n)?;
        Ok(dst)
    });

    s.register_native("memset", |vm| {
        let (dst, byte, n) = (vm.arg(0), vm.arg(1) as u8, vm.arg(2) as usize);
        let chunk = vec![byte; n.min(PAGE_SIZE)];
        let mut done = 0;
        while done < n {
            let m = (n - done).min(chunk.len());
            vm.kernel
                .space
                .write_bytes(&vm.kernel.phys, dst + done as u64, &chunk[..m])?;
            done += m;
        }
        Ok(dst)
    });

    // The paper's memory-reclamation bracket for externally-initiated
    // calls (§3.4): wrappers call these around the real function.
    s.register_native("mr_start", |vm| {
        vm.kernel.reclaim.enter(vm.cpu());
        Ok(0)
    });

    s.register_native("mr_finish", |vm| {
        vm.kernel.reclaim.leave(vm.cpu());
        Ok(0)
    });

    s.register_native("jiffies", |vm| {
        Ok(vm.kernel.percpu.uptime().as_nanos() as u64)
    });

    // Driver registration family. Entry-point arguments are wrapper
    // addresses in the module's immovable part.
    s.register_native("register_chrdev", |vm| {
        let minor = vm.arg(0) as u32;
        let name = vm.read_cstr(vm.arg(4))?;
        vm.kernel.devices.register_chrdev(
            minor,
            CharDev {
                name,
                ioctl: vm.arg(1),
                read: vm.arg(2),
                write: vm.arg(3),
            },
        );
        Ok(0)
    });

    s.register_native("unregister_chrdev", |vm| {
        vm.kernel.devices.unregister_chrdev(vm.arg(0) as u32);
        Ok(0)
    });

    s.register_native("register_blkdev", |vm| {
        let name = vm.read_cstr(vm.arg(2))?;
        vm.kernel.devices.register_blkdev(BlockDev {
            name,
            read_block: vm.arg(0),
            write_block: vm.arg(1),
        });
        Ok(0)
    });

    s.register_native("unregister_blkdev", |vm| {
        vm.kernel.devices.unregister_blkdev();
        Ok(0)
    });

    s.register_native("register_netdev", |vm| {
        let name = vm.read_cstr(vm.arg(2))?;
        vm.kernel.devices.register_netdev(NetDev {
            name,
            xmit: vm.arg(0),
            poll: vm.arg(1),
        });
        Ok(0)
    });

    s.register_native("unregister_netdev", |vm| {
        vm.kernel.devices.unregister_netdev();
        Ok(0)
    });

    s.register_native("register_fs", |vm| {
        let name = vm.read_cstr(vm.arg(1))?;
        vm.kernel.devices.register_fs(FsOps {
            name,
            map_block: vm.arg(0),
        });
        Ok(0)
    });

    s.register_native("unregister_fs", |vm| {
        vm.kernel.devices.unregister_fs();
        Ok(0)
    });

    // Receive-path delivery: the NIC driver calls this with a frame the
    // device DMA'd into memory; the kernel hands it to the registered
    // protocol handler.
    s.register_native("netif_rx", |vm| {
        let (ptr, len) = (vm.arg(0), vm.arg(1) as usize);
        let mut frame = vec![0u8; len];
        vm.kernel
            .space
            .read_bytes(&vm.kernel.phys, ptr, &mut frame)?;
        Ok(u64::from(vm.kernel.devices.deliver_rx(&frame)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_isa::{Asm, Reg};
    use adelie_obj::{Binding, ObjectBuilder, SectionKind};

    /// Hand-load a tiny blob of code at a fixed address (bypassing the
    /// real loader, which lives in adelie-core).
    fn load_code(kernel: &Kernel, va: u64, bytes: &[u8]) {
        let pages = bytes.len().div_ceil(PAGE_SIZE);
        kernel
            .space
            .apply(Batch::new().map_range(va, &kernel.phys.alloc_n(pages), PteFlags::DATA))
            .unwrap();
        kernel.space.write_bytes(&kernel.phys, va, bytes).unwrap();
        kernel
            .space
            .apply(Batch::new().protect_range(va, pages, PteFlags::TEXT))
            .unwrap();
    }

    #[test]
    fn boot_and_basic_symbols() {
        let k = Kernel::new(KernelConfig::default());
        for sym in ["kmalloc", "kfree", "printk", "mr_start", "mr_finish"] {
            assert!(k.symbols.lookup(sym).is_some(), "missing {sym}");
        }
    }

    #[test]
    fn interpret_arithmetic() {
        let k = Kernel::new(KernelConfig::default());
        let mut a = Asm::new();
        // rax = rdi * 2 + rsi
        a.mov_rr(Reg::Rax, Reg::Rdi);
        a.alu(adelie_isa::AluOp::Add, Reg::Rax, Reg::Rdi);
        a.alu(adelie_isa::AluOp::Add, Reg::Rax, Reg::Rsi);
        a.ret();
        let bytes = a.assemble().unwrap().bytes;
        let va = 0x10_0000_0000;
        load_code(&k, va, &bytes);
        let mut vm = k.vm();
        assert_eq!(vm.call(va, &[20, 2]).unwrap(), 42);
    }

    #[test]
    fn interpret_loop_and_branches() {
        let k = Kernel::new(KernelConfig::default());
        let mut a = Asm::new();
        // sum 1..=rdi
        a.mov_imm32(Reg::Rax, 0);
        a.mov_imm32(Reg::Rcx, 0);
        a.label("loop");
        a.alu(adelie_isa::AluOp::Cmp, Reg::Rcx, Reg::Rdi);
        a.jcc_label(adelie_isa::Cond::E, "done");
        a.alu_imm(adelie_isa::AluOp::Add, Reg::Rcx, 1);
        a.alu(adelie_isa::AluOp::Add, Reg::Rax, Reg::Rcx);
        a.jmp_label("loop");
        a.label("done");
        a.ret();
        let bytes = a.assemble().unwrap().bytes;
        let va = 0x20_0000_0000;
        load_code(&k, va, &bytes);
        let mut vm = k.vm();
        assert_eq!(vm.call(va, &[10]).unwrap(), 55);
    }

    #[test]
    fn native_call_via_register() {
        // movabs rax, &kmalloc; call rax — direct native invocation.
        let k = Kernel::new(KernelConfig::default());
        let kmalloc = k.symbols.lookup("kmalloc").unwrap();
        let mut a = Asm::new();
        a.mov_imm32(Reg::Rdi, 256);
        a.mov_imm64(Reg::Rax, kmalloc);
        a.call_reg(Reg::Rax);
        a.ret();
        let bytes = a.assemble().unwrap().bytes;
        let va = 0x30_0000_0000;
        load_code(&k, va, &bytes);
        let mut vm = k.vm();
        let ptr = vm.call(va, &[]).unwrap();
        assert_eq!(k.heap.size_of(ptr), Some(256));
    }

    #[test]
    fn nx_and_write_protection_fault() {
        let k = Kernel::new(KernelConfig::default());
        // Data page is NX.
        let data_va = 0x40_0000_0000;
        k.space
            .apply(Batch::new().map_page(data_va, k.phys.alloc(), PteFlags::DATA))
            .unwrap();
        let mut vm = k.vm();
        match vm.call(data_va, &[]) {
            Err(VmError::Fault(adelie_vmem::Fault::NotExecutable { .. })) => {}
            other => panic!("expected NX fault, got {other:?}"),
        }
        // Text page rejects writes (what sealing a GOT relies on).
        let text_va = 0x50_0000_0000;
        let mut a = Asm::new();
        a.lea_sym(Reg::Rax, "self"); // pc32 to itself — resolve manually
        a.ret();
        // Simpler: store to own code page.
        let mut a = Asm::new();
        a.mov_imm64(Reg::Rcx, text_va);
        a.mov_store(adelie_isa::Mem::base(Reg::Rcx), Reg::Rcx);
        a.ret();
        load_code(&k, text_va, &a.assemble().unwrap().bytes);
        match vm.call(text_va, &[]) {
            Err(VmError::Fault(adelie_vmem::Fault::NotWritable { .. })) => {}
            other => panic!("expected write-protection fault, got {other:?}"),
        }
    }

    #[test]
    fn stale_pointer_faults_after_unmap() {
        // The observable effect of re-randomization on an attacker's
        // leaked address: once the old range is unmapped, jumping there
        // faults.
        let k = Kernel::new(KernelConfig::default());
        let va = 0x60_0000_0000;
        let mut a = Asm::new();
        a.mov_imm32(Reg::Rax, 1);
        a.ret();
        load_code(&k, va, &a.assemble().unwrap().bytes);
        let mut vm = k.vm();
        assert_eq!(vm.call(va, &[]).unwrap(), 1);
        k.space.apply(Batch::new().unmap_range(va, 1)).unwrap();
        match vm.call(va, &[]) {
            Err(VmError::Fault(adelie_vmem::Fault::Unmapped { .. })) => {}
            other => panic!("expected unmapped fault, got {other:?}"),
        }
    }

    #[test]
    fn fuel_stops_runaway_loops() {
        let k = Kernel::new(KernelConfig {
            fuel: 1000,
            ..KernelConfig::default()
        });
        let va = 0x70_0000_0000;
        let mut a = Asm::new();
        a.label("spin");
        a.jmp_label("spin");
        load_code(&k, va, &a.assemble().unwrap().bytes);
        let mut vm = k.vm();
        match vm.call(va, &[]) {
            Err(VmError::OutOfFuel { .. }) => {}
            other => panic!("expected fuel exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn printk_native_formats() {
        let k = Kernel::new(KernelConfig::default());
        // Put a format string in simulated memory.
        let msg_va = 0x80_0000_0000;
        k.space
            .apply(Batch::new().map_page(msg_va, k.phys.alloc(), PteFlags::DATA))
            .unwrap();
        k.space
            .write_bytes(&k.phys, msg_va, b"Randomized %llu times\0")
            .unwrap();
        let printk = k.symbols.lookup("printk").unwrap();
        let mut a = Asm::new();
        a.mov_imm64(Reg::Rdi, msg_va);
        a.mov_imm32(Reg::Rsi, 53);
        a.mov_imm64(Reg::Rax, printk);
        a.call_reg(Reg::Rax);
        a.ret();
        let code_va = 0x90_0000_0000;
        load_code(&k, code_va, &a.assemble().unwrap().bytes);
        let mut vm = k.vm();
        vm.call(code_va, &[]).unwrap();
        assert_eq!(k.printk.grep("Randomized 53 times").len(), 1);
    }

    #[test]
    fn vfs_cached_read_without_drivers() {
        let k = Kernel::new(KernelConfig::default());
        k.vfs.create("test.dat", 64 * 1024);
        let fd = k.vfs.open("test.dat", false).unwrap();
        let mut vm = k.vm();
        let buf = k.heap.kmalloc(&k.space, &k.phys, 4096);
        let n = k.vfs.pread(&mut vm, fd, buf, 4096, 0).unwrap();
        assert_eq!(n, 4096);
        // Second read of the same page hits the cache.
        let before = k.vfs.cache_stats();
        k.vfs.pread(&mut vm, fd, buf, 4096, 0).unwrap();
        let after = k.vfs.cache_stats();
        assert_eq!(after.hits, before.hits + 1);
        // Contents equal the deterministic disk pattern.
        let mut got = vec![0u8; 16];
        k.space.read_bytes(&k.phys, buf, &mut got).unwrap();
        let file = k.vfs.stat("test.dat").unwrap();
        let expect: Vec<u8> = (0..16).map(|i| disk_byte(file.first_lba, i)).collect();
        assert_eq!(got, expect);
        assert!(k.vfs.close(fd));
    }

    #[test]
    fn vfs_write_read_back() {
        let k = Kernel::new(KernelConfig::default());
        k.vfs.create("w.dat", 8192);
        let fd = k.vfs.open("w.dat", false).unwrap();
        let mut vm = k.vm();
        let buf = k.heap.kmalloc(&k.space, &k.phys, 128);
        k.space.write_bytes(&k.phys, buf, &[7u8; 128]).unwrap();
        assert_eq!(k.vfs.pwrite(&mut vm, fd, buf, 128, 100).unwrap(), 128);
        let out = k.heap.kmalloc(&k.space, &k.phys, 128);
        k.vfs.pread(&mut vm, fd, out, 128, 100).unwrap();
        let mut got = vec![0u8; 128];
        k.space.read_bytes(&k.phys, out, &mut got).unwrap();
        assert_eq!(got, vec![7u8; 128]);
    }

    #[test]
    fn object_file_smoke_with_kernel_symbols() {
        // The obj crate integrates: undefined symbols name kernel natives.
        let k = Kernel::new(KernelConfig::default());
        let mut b = ObjectBuilder::new("m");
        let mut a = Asm::new();
        a.call_got("kmalloc");
        a.ret();
        b.add_function("f", &a, SectionKind::Text, Binding::Global)
            .unwrap();
        let obj = b.finish();
        for u in obj.undefined_symbols() {
            assert!(k.symbols.lookup(&u.name).is_some());
        }
    }

    #[test]
    fn stack_guard_page_faults() {
        let k = Kernel::new(KernelConfig::default());
        let top = k.alloc_stack();
        let guard = top - ((STACK_PAGES + 1) * PAGE_SIZE) as u64;
        assert!(k.space.translate(guard, adelie_vmem::Access::Read).is_err());
        assert!(k
            .space
            .translate(top - 8, adelie_vmem::Access::Write)
            .is_ok());
    }

    /// A dropped `Vm` hands its stack back: creating CPUs one after
    /// another (a module init, an exit, a harness step) maps one stack,
    /// not one per `Vm`; live `Vm`s still get distinct stacks.
    #[test]
    fn sequential_vms_reuse_one_stack() {
        let k = Kernel::new(KernelConfig::default());
        let mapped = || k.space.stats().pages_mapped;
        let before = mapped();
        for _ in 0..1000 {
            drop(k.vm());
        }
        assert!(
            mapped() - before <= STACK_PAGES as u64,
            "1000 sequential Vms mapped {} pages",
            mapped() - before
        );
        let live = k.vm();
        let before = mapped();
        let second = k.vm();
        assert_eq!(
            mapped() - before,
            STACK_PAGES as u64,
            "a live Vm's stack was handed out again"
        );
        drop((live, second));
    }
}
