//! # adelie-core — Adelie itself
//!
//! The paper's contribution, implemented over the simulated substrate:
//!
//! * [`LinkPlan`] — links a PIC relocatable module once (builds the
//!   four GOTs of Fig. 2b, emits retpoline PLT stubs, applies the Fig. 4
//!   run-time patches) and instantiates it anywhere in the 57-bit
//!   address space (64-bit KASLR) with GOT pages sealed; also provides
//!   the non-PIC legacy mode (vanilla Linux baseline, 2 GiB window),
//! * [`rerandomize_module`] — one zero-copy re-randomization cycle with
//!   local-GOT rebuilds, key rotation, pointer adjustment, and
//!   SMR-delayed unmapping (§4.2); driven continuously by the
//!   `adelie-sched` scheduler (worker pool, per-module policies, CPU
//!   budget — see DESIGN.md §6),
//! * [`StackPool`] — per-CPU pools of randomly-placed kernel stacks
//!   (§3.4),
//! * [`ModuleRegistry`] — insmod/rmmod: load, init, unload.
//!
//! # Example
//!
//! ```
//! use adelie_core::ModuleRegistry;
//! use adelie_kernel::{Kernel, KernelConfig};
//! use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
//!
//! let kernel = Kernel::new(KernelConfig::default());
//! let registry = ModuleRegistry::new(&kernel);
//!
//! // A one-function driver, transformed to a re-randomizable module.
//! let mut spec = ModuleSpec::new("noop");
//! spec.funcs.push(FuncSpec::exported("noop_run", vec![MOp::Ret]));
//! let opts = TransformOptions::rerandomizable(true);
//! let obj = transform(&spec, &opts).unwrap();
//! let module = registry.load(&obj, &opts).unwrap();
//!
//! // Call it through its kernel-facing wrapper, then move it and call
//! // again: the wrapper address never changes, the code underneath does.
//! let entry = module.export("noop_run").unwrap();
//! let mut vm = kernel.vm();
//! vm.call(entry, &[]).unwrap();
//! adelie_core::rerandomize_module(&kernel, &registry, &module).unwrap();
//! vm.call(entry, &[]).unwrap();
//! ```

pub mod fleet;
mod hooks;
mod loader;
mod module;
mod rerand;
mod stacks;
mod supervise;
mod va;

pub use fleet::{
    AdmissionConfig, ColdTierConfig, ColdTierStats, Fleet, FleetError, LoadWeighted, Pinned,
    RecoveryReport, RoundRobin, ShardLoad, ShardPlacement,
};
pub use hooks::{CycleCommit, CycleHooks, CycleStage};
pub use loader::{Bases, LinkPlan, LoadError};
pub use module::{
    AdjustSlot, LazyPltSlot, LoadStats, LoadedModule, LocalGotEntry, PageGroup, Part, PartImage,
};
pub use rerand::{log_stats, rerandomize_module, rerandomize_module_epoch, RerandError};
pub use stacks::{StackPool, StackStats};
pub use supervise::ShardWatchdog;

use adelie_kernel::{layout, Kernel};
use adelie_obj::ObjectFile;
use adelie_plugin::{CodeModel, TransformOptions};
use adelie_vmem::PAGE_SIZE;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use va::{VaAllocator, VaReservation};

/// The module registry — insmod/rmmod plus the allocation state shared
/// by the loader, the re-randomizer, and the stack pools.
pub struct ModuleRegistry {
    kernel: Arc<Kernel>,
    modules: RwLock<HashMap<Arc<str>, Arc<LoadedModule>>>,
    /// The per-CPU randomized stack pools (shared by all modules).
    pub stacks: Arc<StackPool>,
    va: Arc<VaAllocator>,
    /// Cycle-stage observation/injection hooks (testkit seam; `None` in
    /// production).
    cycle_hooks: RwLock<Option<Arc<dyn CycleHooks>>>,
}

impl ModuleRegistry {
    /// Create the registry and register the stack-pool natives. One
    /// registry per kernel (natives can only be registered once).
    pub fn new(kernel: &Arc<Kernel>) -> Arc<ModuleRegistry> {
        // Vanilla Linux randomizes the legacy module base per boot
        // inside the 2 GiB window (31-12 = 19 bits of entropy, §6).
        // Randomized placements draw from the kernel's module window —
        // the whole arena standalone, one disjoint shard slice in fleet
        // mode (see `adelie_kernel::ShardedKernel`).
        let boot_offset = kernel.rng_below(1 << 18) * PAGE_SIZE as u64;
        let va = VaAllocator::new(
            layout::LEGACY_MODULE_BASE + boot_offset,
            kernel.config.module_window,
        );
        let stacks = StackPool::new(kernel.config.cpus, va.clone());
        stacks.register_natives(kernel);
        Arc::new(ModuleRegistry {
            kernel: kernel.clone(),
            modules: RwLock::new(HashMap::new()),
            stacks,
            va,
            cycle_hooks: RwLock::new(None),
        })
    }

    /// Install cycle-stage hooks (replacing any previous set). The hooks
    /// see every re-randomization cycle of every module in this registry
    /// and may inject stage failures — see [`CycleHooks`].
    pub fn set_cycle_hooks(&self, hooks: Arc<dyn CycleHooks>) {
        *self.cycle_hooks.write() = Some(hooks);
    }

    /// Remove the cycle-stage hooks.
    pub fn clear_cycle_hooks(&self) {
        *self.cycle_hooks.write() = None;
    }

    /// Snapshot the installed hooks (one read-lock per cycle).
    pub(crate) fn hooks(&self) -> Option<Arc<dyn CycleHooks>> {
        self.cycle_hooks.read().clone()
    }

    /// The kernel this registry serves.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Load a module and run its init entry point (insmod).
    ///
    /// # Errors
    ///
    /// [`LoadError`] from the loader, or [`LoadError::MissingEntry`]
    /// wrapping an init failure.
    pub fn load(
        &self,
        obj: &ObjectFile,
        opts: &TransformOptions,
    ) -> Result<Arc<LoadedModule>, LoadError> {
        self.load_plan(&LinkPlan::new(obj, opts)?)
    }

    /// Instantiate `plan` at freshly drawn bases and run its init entry
    /// point — the one load path: [`ModuleRegistry::load`] links first,
    /// a fleet fault-in reuses the plan its catalog record keeps.
    ///
    /// # Errors
    ///
    /// [`LoadError`] from placement or [`LinkPlan::instantiate`], or
    /// [`LoadError::MissingEntry`] wrapping an init failure.
    pub fn load_plan(&self, plan: &LinkPlan) -> Result<Arc<LoadedModule>, LoadError> {
        // An object this kernel cannot link is turned away before a
        // base is drawn: a rejected load reserves no VA and consumes
        // nothing from the kernel RNG.
        let imports = plan.resolve_imports(&self.kernel)?;
        let (bases, reservations) = self.place(plan)?;
        let module = plan.instantiate(&self.kernel, bases, &imports)?;
        // Both parts are mapped: the page tables exclude the ranges
        // from future picks, so the reservations can go.
        drop(reservations);
        self.modules
            .write()
            .insert(module.name.clone(), module.clone());
        if let Some(init) = module.init_va {
            let mut vm = self.kernel.vm();
            if let Err(e) = vm.call(init, &[]) {
                self.modules.write().remove(&module.name);
                return Err(LoadError::MissingEntry(format!(
                    "{} init failed: {e}",
                    module.name
                )));
            }
        }
        Ok(module)
    }

    /// Pick bases for `plan`: random free ranges in the kernel's module
    /// window (the 64-bit KASLR placement), or the next span of the
    /// legacy 2 GiB window, then the initial key. Reservations (not a
    /// held lock) keep other placements out of the chosen ranges while
    /// the instance is built and mapped, so loads and re-randomization
    /// cycles proceed concurrently; the caller drops them once mapped.
    fn place(&self, plan: &LinkPlan) -> Result<(Bases, Vec<VaReservation>), LoadError> {
        let reserve = |pages| self.reserve_va(pages).ok_or(LoadError::NoSpace);
        let (mov_pages, imm_pages) = plan.part_pages();
        let mut reservations = Vec::with_capacity(2);
        let movable = match plan.model() {
            CodeModel::Pic => {
                let r = reserve(mov_pages)?;
                let base = r.base();
                reservations.push(r);
                base
            }
            CodeModel::Legacy => {
                let size = (mov_pages * PAGE_SIZE) as u64;
                let base = self.va.legacy_bump(size);
                // The top of the window is kernel text; the window is
                // full when the cursor reaches it.
                if base + size > layout::NATIVE_BASE {
                    return Err(LoadError::NoSpace);
                }
                base
            }
        };
        // The movable reservation is already recorded, so the
        // immovable pick is disjoint from it by construction.
        let immovable = match imm_pages {
            Some(pages) => {
                let r = reserve(pages)?;
                let base = r.base();
                reservations.push(r);
                Some(base)
            }
            None => None,
        };
        let key = self.kernel.rng_u64();
        Ok((
            Bases {
                movable,
                immovable,
                key,
            },
            reservations,
        ))
    }

    /// Look up a loaded module.
    pub fn get(&self, name: &str) -> Option<Arc<LoadedModule>> {
        self.modules.read().get(name).cloned()
    }

    /// Names of all loaded modules.
    pub fn list(&self) -> Vec<String> {
        self.modules.read().keys().map(|k| k.to_string()).collect()
    }

    /// Unload a module (rmmod): runs its exit entry point, unpublishes
    /// exports, unmaps both parts, and frees the frames — a one-element
    /// [`ModuleRegistry::unload_many`].
    ///
    /// Stop any scheduler driving the module first.
    ///
    /// # Errors
    ///
    /// Textual error for unknown modules or a failing exit function.
    pub fn unload(&self, name: &str) -> Result<(), String> {
        self.unload_one(name, true)
    }

    /// Unload a module *without* running its exit entry point — the
    /// crash-recovery teardown. A module whose exit traps every time
    /// would otherwise wedge graceful [`ModuleRegistry::unload`]
    /// forever; shard rebuild ([`Fleet::recover_shard`]) skips the exit
    /// and reclaims the mappings anyway.
    ///
    /// # Errors
    ///
    /// Textual error for unknown modules or a failed retire batch.
    pub fn force_unload(&self, name: &str) -> Result<(), String> {
        self.kernel
            .printk
            .log(format!("module {name}: force-unload (exit skipped)"));
        self.unload_one(name, false)
    }

    fn unload_one(&self, name: &str, run_exit: bool) -> Result<(), String> {
        self.unload_many(&[name], run_exit)
            .pop()
            .expect("one result per name")
    }

    /// Unload several modules as one teardown: run each exit entry in
    /// order (all skipped when `run_exit` is false), then unpublish the
    /// exports of every module that survived its exit, retire both
    /// parts of all of them in **one** vmem batch — one page-table
    /// transaction, one range-tagged shootdown — and free their frames.
    /// Returns one result per name, in order.
    ///
    /// A failing exit leaves its module fully registered and
    /// retryable; the others still unload. A failed retire batch fails
    /// every module in it: the batch rolled back, so their frames are
    /// withheld, and their exports are already unpublished.
    pub fn unload_many(&self, names: &[&str], run_exit: bool) -> Vec<Result<(), String>> {
        let mut results = Vec::with_capacity(names.len());
        let mut victims: Vec<(usize, Arc<LoadedModule>)> = Vec::new();
        for (i, &name) in names.iter().enumerate() {
            // Run the exit entry *before* unpublishing anything: a
            // failing exit leaves the module fully registered and
            // retryable, not stranded mapped-but-invisible.
            match self.run_exit(name, run_exit) {
                Ok(module) if self.modules.write().remove(name).is_some() => {
                    victims.push((i, module));
                    results.push(Ok(()));
                }
                Ok(_) => results.push(Err(format!("no module `{name}` (concurrent unload)"))),
                Err(e) => results.push(Err(e)),
            }
        }
        if victims.is_empty() {
            return results;
        }
        // Move locks go in name order, so concurrent teardowns of
        // overlapping sets cannot deadlock.
        let mut by_name: Vec<&LoadedModule> = victims.iter().map(|(_, m)| &**m).collect();
        by_name.sort_by(|a, b| a.name.cmp(&b.name));
        let _guards: Vec<_> = by_name.iter().map(|m| m.move_lock.lock()).collect();
        let mut retire = adelie_vmem::Batch::new();
        for (_, module) in &victims {
            for (sym, _) in &module.exports {
                self.kernel.symbols.undefine(sym);
            }
            // Tear down the module's lazy-PLT binder trampolines:
            // nothing can reach them once the module is gone, and a
            // later re-load of the same module name must be able to
            // register fresh ones.
            for slot in &module.lazy_plt {
                self.kernel.symbols.unregister_native(&slot.binder_name);
            }
            // Retire the whole module — current movable mapping plus
            // the immovable part — in the shared batch (fleet eviction
            // leans on this to make an evicted module vanish
            // atomically).
            let base = module
                .movable_base
                .load(std::sync::atomic::Ordering::Acquire);
            retire.unmap_sparse(base, module.movable.total_pages);
            if let Some(imm) = &module.immovable {
                retire.unmap_sparse(imm.base, imm.total_pages);
            }
        }
        let label = victims
            .iter()
            .map(|(i, _)| names[*i])
            .collect::<Vec<_>>()
            .join(", ");
        if let Err(fault) = self.kernel.space.apply(&retire) {
            // The batch rolled back: every part is still mapped, so the
            // frames must NOT be returned to the allocator (a
            // freed-but-mapped frame would alias the next load). Leak
            // them deliberately and report — exports are already
            // unpublished, so the modules are unreachable either way.
            self.kernel.printk.log(format!(
                "module {label}: retire batch failed ({fault}); frames withheld"
            ));
            for (i, _) in &victims {
                results[*i] = Err(format!("{}: retire batch failed: {fault}", names[*i]));
            }
            return results;
        }
        for (_, module) in &victims {
            self.free_frames(module);
        }
        self.kernel.printk.log(format!("module {label}: unloaded"));
        results
    }

    /// Look `name` up and, when `run_exit`, run its exit entry point.
    fn run_exit(&self, name: &str, run_exit: bool) -> Result<Arc<LoadedModule>, String> {
        let module = self
            .modules
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no module `{name}`"))?;
        if let Some(exit) = module.exit_va.filter(|_| run_exit) {
            let mut vm = self.kernel.vm();
            vm.call(exit, &[])
                .map_err(|e| format!("exit failed: {e}"))?;
        }
        Ok(module)
    }

    /// Return a retired module's frames to the allocator. The original
    /// PartImage frame lists are correct except for the local GOT
    /// pages, whose *current* frames live in the mutexed lists.
    fn free_frames(&self, module: &LoadedModule) {
        let lgot_start = (module.movable.lgot_off / PAGE_SIZE as u64) as usize;
        let lgot_pages = module.movable.lgot_pages();
        for (i, &pfn) in module.movable.frames.iter().enumerate() {
            let is_lgot = lgot_pages > 0 && i >= lgot_start && i < lgot_start + lgot_pages;
            if !is_lgot {
                self.kernel.phys.free(pfn);
            }
        }
        for pfn in module.movable_lgot_frames.lock().drain(..) {
            self.kernel.phys.free(pfn);
        }
        if let Some(imm) = &module.immovable {
            let ilgot_start = (imm.lgot_off / PAGE_SIZE as u64) as usize;
            let ilgot_pages = imm.lgot_pages();
            for (i, &pfn) in imm.frames.iter().enumerate() {
                let is_lgot = ilgot_pages > 0 && i >= ilgot_start && i < ilgot_start + ilgot_pages;
                if !is_lgot {
                    self.kernel.phys.free(pfn);
                }
            }
            for pfn in module.immovable_lgot_frames.lock().drain(..) {
                self.kernel.phys.free(pfn);
            }
        }
    }

    /// Reserve a random free range of `pages`; the returned reservation
    /// keeps concurrent placements out of the range until the caller has
    /// mapped it and drops the guard (used by the re-randomizer — no
    /// global lock is held while mapping, so cycles of independent
    /// modules overlap).
    pub(crate) fn reserve_va(&self, pages: usize) -> Option<VaReservation> {
        self.va.reserve(&self.kernel, pages)
    }
}

/// Audit `module`'s fixed GOTs against the *owning* kernel: every slot
/// must hold exactly the address its recorded symbol name resolves to
/// there (an immovable module symbol or a kallsyms export). A mismatch
/// is a dangling GOT entry — the bug class a fleet would introduce if
/// it ever copied a GOT across shards instead of rebuilding it. Returns human-readable violations; empty = clean.
pub fn verify_fixed_gots(kernel: &Arc<Kernel>, module: &LoadedModule) -> Vec<String> {
    let mut violations = Vec::new();
    // Lazily-bound fixed-GOT slots are exempt from the eager-resolution
    // check: unbound they hold the binder trampoline, bound they are
    // audited (more strictly) by `verify_plt_bindings`.
    let lazy_fixed: std::collections::HashSet<(Part, usize)> = module
        .lazy_plt
        .iter()
        .filter(|s| !s.local)
        .map(|s| (s.part, s.idx))
        .collect();
    let mut check_part = |img: &PartImage, base: u64, part: Part, label: &str| {
        for (i, name) in img.fgot_names.iter().enumerate() {
            if lazy_fixed.contains(&(part, i)) {
                continue;
            }
            let slot_va = base + img.fgot_off + (i * 8) as u64;
            let held = match kernel.space.read_u64(&kernel.phys, slot_va) {
                Ok(v) => v,
                Err(e) => {
                    violations.push(format!(
                        "{}: {label} fixed-GOT slot {i} ({name}) unreadable: {e}",
                        module.name
                    ));
                    continue;
                }
            };
            let expected = module
                .immovable_syms
                .get(&**name)
                .copied()
                .or_else(|| kernel.symbols.lookup(name));
            match expected {
                Some(want) if want == held => {}
                Some(want) => violations.push(format!(
                    "{}: {label} fixed-GOT slot {i} ({name}) dangles: holds \
                     {held:#x}, kernel resolves {want:#x}",
                    module.name
                )),
                None => violations.push(format!(
                    "{}: {label} fixed-GOT slot {i} ({name}) names a symbol \
                     the owning kernel cannot resolve",
                    module.name
                )),
            }
        }
    };
    check_part(
        &module.movable,
        module
            .movable_base
            .load(std::sync::atomic::Ordering::Acquire),
        Part::Movable,
        "movable",
    );
    if let Some(imm) = &module.immovable {
        check_part(imm, imm.base, Part::Immovable, "immovable");
    }
    violations
}

/// Audit every lazy PLT slot of `module` against the current layout —
/// the bound-slot staleness invariant the testkit oracle enforces after
/// each cycle commit:
///
/// * an **unbound** slot must hold exactly its binder trampoline
///   address (anything else is a torn rebuild);
/// * a **bound** slot must hold exactly what the symbol resolves to
///   *right now* — for a movable target, `movable_base + offset` under
///   the published base; for an import, the owning kernel's current
///   kallsyms answer. A bound slot still pointing into a range the
///   module vacated fails this check by construction, because the
///   current resolution can never lie in a retired range.
///
/// Returns human-readable violations; empty = clean.
pub fn verify_plt_bindings(kernel: &Arc<Kernel>, module: &LoadedModule) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, slot) in module.lazy_plt.iter().enumerate() {
        let slot_va = module.lazy_slot_va(slot);
        let held = match kernel.space.read_u64(&kernel.phys, slot_va) {
            Ok(v) => v,
            Err(e) => {
                violations.push(format!(
                    "{}: lazy PLT slot {i} (`{}`) unreadable at {slot_va:#x}: {e}",
                    module.name, slot.symbol
                ));
                continue;
            }
        };
        let bound = slot.bound.load(std::sync::atomic::Ordering::Acquire);
        if bound == 0 {
            if held != slot.binder_va {
                violations.push(format!(
                    "{}: unbound lazy PLT slot {i} (`{}`) holds {held:#x}, \
                     expected its binder {:#x}",
                    module.name, slot.symbol, slot.binder_va
                ));
            }
            continue;
        }
        let expected = match slot.target_off {
            Some(off) => Some(
                module
                    .movable_base
                    .load(std::sync::atomic::Ordering::Acquire)
                    + off,
            ),
            None => module
                .immovable_syms
                .get(&*slot.symbol)
                .copied()
                .or_else(|| kernel.symbols.lookup(&slot.symbol)),
        };
        match expected {
            Some(want) if want == bound && want == held => {}
            Some(want) => violations.push(format!(
                "{}: bound lazy PLT slot {i} (`{}`) is stale: slot holds \
                 {held:#x}, recorded binding {bound:#x}, current resolution \
                 {want:#x}",
                module.name, slot.symbol
            )),
            None => violations.push(format!(
                "{}: bound lazy PLT slot {i} (`{}`) no longer resolves but \
                 still holds {held:#x}",
                module.name, slot.symbol
            )),
        }
    }
    violations
}

impl std::fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleRegistry")
            .field("modules", &self.list())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_isa::{AluOp, Insn, Reg};
    use adelie_kernel::{KernelConfig, VmError};
    use adelie_plugin::{
        transform, CodeModel, DataInit, DataSpec, FuncSpec, MOp, ModuleSpec, TransformOptions,
    };
    use std::sync::atomic::Ordering;

    /// A small arithmetic driver: `calc(x) = helper(x) * 2` where
    /// `helper(x) = x + 5`, plus a pointer table and a kmalloc touch.
    fn demo_spec() -> ModuleSpec {
        let mut spec = ModuleSpec::new("demo");
        spec.funcs.push(FuncSpec::exported(
            "demo_calc",
            vec![
                MOp::CallLocal("demo_helper".into()),
                MOp::Insn(Insn::Alu {
                    op: AluOp::Add,
                    dst: Reg::Rax,
                    src: Reg::Rax,
                }),
                MOp::Ret,
            ],
        ));
        spec.funcs.push(FuncSpec {
            name: "demo_helper".into(),
            exported: false,
            is_static: false,
            body: vec![
                MOp::Insn(Insn::MovRR {
                    dst: Reg::Rax,
                    src: Reg::Rdi,
                }),
                MOp::Insn(Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg::Rax,
                    imm: 5,
                }),
                MOp::Ret,
            ],
        });
        // An exported allocator exercise: rax = kmalloc(64); kfree(rax).
        spec.funcs.push(FuncSpec::exported(
            "demo_alloc",
            vec![
                MOp::Insn(Insn::MovImm32(Reg::Rdi, 64)),
                MOp::CallKernel("kmalloc".into()),
                MOp::Insn(Insn::MovRR {
                    dst: Reg::Rdi,
                    src: Reg::Rax,
                }),
                MOp::Insn(Insn::MovRR {
                    dst: Reg::Rbx,
                    src: Reg::Rax,
                }),
                MOp::CallKernel("kfree".into()),
                MOp::Insn(Insn::MovRR {
                    dst: Reg::Rax,
                    src: Reg::Rbx,
                }),
                MOp::Ret,
            ],
        ));
        spec.data.push(DataSpec {
            name: "demo_ops".into(),
            readonly: false,
            init: DataInit::PtrTable(vec!["demo_calc".into(), "demo_helper".into()]),
        });
        spec
    }

    fn setup(opts: &TransformOptions) -> (Arc<Kernel>, Arc<ModuleRegistry>, Arc<LoadedModule>) {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let obj = transform(&demo_spec(), opts).unwrap();
        let module = registry.load(&obj, opts).unwrap();
        (kernel, registry, module)
    }

    fn all_option_sets() -> Vec<TransformOptions> {
        vec![
            TransformOptions::vanilla(false),
            TransformOptions::vanilla(true),
            TransformOptions::pic(false),
            TransformOptions::pic(true),
            TransformOptions::rerandomizable(false),
            TransformOptions::rerandomizable(true),
        ]
    }

    #[test]
    fn demo_module_computes_under_every_configuration() {
        for opts in all_option_sets() {
            let (kernel, _registry, module) = setup(&opts);
            let mut vm = kernel.vm();
            let calc = module.export("demo_calc").unwrap();
            assert_eq!(
                vm.call(calc, &[16]).unwrap(),
                42,
                "wrong result under {opts:?}"
            );
            let alloc = module.export("demo_alloc").unwrap();
            let ptr = vm.call(alloc, &[]).unwrap();
            assert!(ptr >= adelie_kernel::layout::HEAP_BASE, "{opts:?}");
        }
    }

    #[test]
    fn legacy_modules_sit_in_the_2gib_window() {
        let opts = TransformOptions::vanilla(false);
        let (_kernel, _registry, module) = setup(&opts);
        let base = module.movable_base.load(Ordering::Relaxed);
        assert!(base >= layout::LEGACY_MODULE_BASE);
        assert!(base < layout::LEGACY_MODULE_BASE + layout::LEGACY_MODULE_SIZE);
    }

    #[test]
    fn pic_modules_land_in_the_full_arena() {
        let opts = TransformOptions::pic(true);
        let (_kernel, _registry, module) = setup(&opts);
        let base = module.movable_base.load(Ordering::Relaxed);
        assert!(base < layout::MODULE_CEILING);
    }

    #[test]
    fn patching_happens_for_local_references() {
        // The Fig. 4 relaxations fire for intra-part calls and loads.
        let opts = TransformOptions::pic(false);
        let (_k, _r, module) = setup(&opts);
        assert!(
            module.stats.patched_calls >= 1,
            "local call patched: {:?}",
            module.stats
        );
        // Kernel imports stay in the fixed GOT.
        assert!(module.stats.fixed_got_entries >= 2, "{:?}", module.stats);
    }

    #[test]
    fn rerandomizable_module_has_four_gots_and_wrappers() {
        let opts = TransformOptions::rerandomizable(true);
        let (_k, _r, module) = setup(&opts);
        assert!(module.immovable.is_some());
        // The immovable local GOT holds the real-function pointers that
        // get rewritten every period.
        assert!(!module.lgot_immovable.is_empty());
        // The movable local GOT holds (at least) the key slot.
        assert!(module
            .lgot_movable
            .iter()
            .any(|e| matches!(e, LocalGotEntry::Key)));
        // The pointer table produced adjustable slots.
        assert!(!module.adjust_slots.is_empty());
    }

    #[test]
    fn rerandomization_moves_code_and_keeps_it_working() {
        for retpoline in [false, true] {
            let opts = TransformOptions::rerandomizable(retpoline);
            let (kernel, registry, module) = setup(&opts);
            let calc = module.export("demo_calc").unwrap();
            let mut vm = kernel.vm();
            assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
            let base0 = module.movable_base.load(Ordering::Relaxed);
            let key0 = module.current_key.load(Ordering::Relaxed);
            for _ in 0..5 {
                rerandomize_module(&kernel, &registry, &module).unwrap();
                assert_eq!(vm.call(calc, &[16]).unwrap(), 42, "retpoline={retpoline}");
            }
            assert_ne!(module.movable_base.load(Ordering::Relaxed), base0);
            assert_ne!(module.current_key.load(Ordering::Relaxed), key0);
            assert_eq!(module.times_randomized(), 5);
        }
    }

    #[test]
    fn old_range_is_unmapped_after_drain() {
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, registry, module) = setup(&opts);
        let base0 = module.movable_base.load(Ordering::Relaxed);
        // No pending calls → retire runs immediately.
        rerandomize_module(&kernel, &registry, &module).unwrap();
        let err = kernel
            .space
            .translate(base0, adelie_vmem::Access::Read)
            .unwrap_err();
        assert!(matches!(err, adelie_vmem::Fault::Unmapped { .. }));
        assert_eq!(kernel.reclaim.stats().delta(), 0);
    }

    #[test]
    fn pending_call_delays_unmap() {
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, registry, module) = setup(&opts);
        let base0 = module.movable_base.load(Ordering::Relaxed);
        // Simulate a pending call (mr_start without mr_finish).
        kernel.reclaim.enter(3);
        rerandomize_module(&kernel, &registry, &module).unwrap();
        assert!(
            kernel
                .space
                .translate(base0, adelie_vmem::Access::Read)
                .is_ok(),
            "old range must stay mapped while a call is pending"
        );
        assert_eq!(kernel.reclaim.stats().delta(), 1);
        kernel.reclaim.leave(3);
        assert!(kernel
            .space
            .translate(base0, adelie_vmem::Access::Read)
            .is_err());
        assert_eq!(kernel.reclaim.stats().delta(), 0);
    }

    #[test]
    fn adjustable_data_slots_follow_the_module() {
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, registry, module) = setup(&opts);
        let slot = &module.adjust_slots[0];
        let read_slot = |m: &LoadedModule| {
            let frames = match slot.part {
                Part::Movable => &m.movable.frames,
                Part::Immovable => &m.immovable.as_ref().unwrap().frames,
            };
            let page = (slot.slot_off / PAGE_SIZE as u64) as usize;
            kernel
                .phys
                .read_u64(frames[page], (slot.slot_off % PAGE_SIZE as u64) as usize)
        };
        let before = read_slot(&module);
        rerandomize_module(&kernel, &registry, &module).unwrap();
        let after = read_slot(&module);
        assert_ne!(before, after);
        assert_eq!(
            after,
            module.movable_base.load(Ordering::Relaxed) + slot.target_off
        );
    }

    #[test]
    fn stale_text_address_faults_after_rerand() {
        // The JIT-ROP defence in action: a leaked code address dies with
        // the next cycle.
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, registry, module) = setup(&opts);
        let leaked =
            module.movable_base.load(Ordering::Relaxed) + module.movable_syms["demo_calc__real"];
        let mut vm = kernel.vm();
        // (Direct call to the real function works pre-move.)
        assert_eq!(vm.call(leaked, &[16]).unwrap(), 42);
        rerandomize_module(&kernel, &registry, &module).unwrap();
        match vm.call(leaked, &[16]) {
            Err(VmError::Fault(adelie_vmem::Fault::Unmapped { .. })) => {}
            other => panic!("stale address should fault, got {other:?}"),
        }
    }

    #[test]
    fn got_pages_are_write_protected() {
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, _r, module) = setup(&opts);
        let imm = module.immovable.as_ref().unwrap();
        let got_va = imm.base + imm.lgot_off;
        let err = kernel
            .space
            .write_u64(&kernel.phys, got_va, 0xdead)
            .unwrap_err();
        assert!(matches!(err, adelie_vmem::Fault::NotWritable { .. }));
    }

    #[test]
    fn return_address_encryption_uses_rotating_key() {
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, registry, module) = setup(&opts);
        let k0 = module.current_key.load(Ordering::Relaxed);
        rerandomize_module(&kernel, &registry, &module).unwrap();
        let k1 = module.current_key.load(Ordering::Relaxed);
        assert_ne!(k0, k1, "key must rotate every period");
        // The movable local GOT's key slot holds the current key.
        let key_idx = module
            .lgot_movable
            .iter()
            .position(|e| matches!(e, LocalGotEntry::Key))
            .unwrap();
        let got_va = module.movable_base.load(Ordering::Relaxed)
            + module.movable.lgot_off
            + (key_idx * 8) as u64;
        assert_eq!(kernel.space.read_u64(&kernel.phys, got_va).unwrap(), k1);
    }

    #[test]
    fn stack_rerand_round_trips_through_the_pool() {
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, registry, module) = setup(&opts);
        let calc = module.export("demo_calc").unwrap();
        let mut vm = kernel.vm();
        for _ in 0..10 {
            assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        }
        let st = registry.stacks.stats();
        assert_eq!(st.allocated, 1, "one stack allocated then pooled: {st:?}");
        // Rotation retires pooled stacks.
        registry.stacks.rotate(&kernel);
        let st = registry.stacks.stats();
        assert_eq!(st.delta(), 0, "{st:?}");
        // And the next call simply allocates a fresh one.
        assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        assert_eq!(registry.stacks.stats().allocated, 2);
    }

    #[test]
    fn unload_removes_everything() {
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry, module) = setup(&opts);
        let base = module.movable_base.load(Ordering::Relaxed);
        let imm_base = module.immovable.as_ref().unwrap().base;
        drop(module);
        registry.unload("demo").unwrap();
        assert!(registry.get("demo").is_none());
        assert!(kernel
            .space
            .translate(base, adelie_vmem::Access::Read)
            .is_err());
        assert!(kernel
            .space
            .translate(imm_base, adelie_vmem::Access::Read)
            .is_err());
        assert!(kernel.symbols.lookup("demo_calc").is_none());
    }

    #[test]
    fn lazy_plt_binds_on_first_call_and_survives_rerand() {
        // Lazy slots exist only where the compiler emits PLT32 relocs,
        // i.e. retpoline mode (non-retpoline PIC calls go through
        // inline GOT loads, which stay eager).
        let opts = TransformOptions::rerandomizable(true).with_lazy_plt();
        let (kernel, registry, module) = setup(&opts);
        assert!(
            !module.lazy_plt.is_empty(),
            "retpoline demo module must produce lazy PLT slots"
        );
        assert!(module
            .lazy_plt
            .iter()
            .all(|s| s.bound.load(Ordering::Acquire) == 0));
        assert_eq!(verify_plt_bindings(&kernel, &module), Vec::<String>::new());
        assert_eq!(verify_fixed_gots(&kernel, &module), Vec::<String>::new());
        let calc = module.export("demo_calc").unwrap();
        let alloc = module.export("demo_alloc").unwrap();
        let mut vm = kernel.vm();
        assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        let ptr = vm.call(alloc, &[]).unwrap();
        assert!(ptr >= adelie_kernel::layout::HEAP_BASE);
        assert!(
            module.plt_binds.load(Ordering::Relaxed) > 0,
            "first calls must bind through the binder"
        );
        assert_eq!(verify_plt_bindings(&kernel, &module), Vec::<String>::new());
        // Bound slots must be re-swung — and stay verifiable and
        // callable — across every cycle.
        for _ in 0..3 {
            rerandomize_module(&kernel, &registry, &module).unwrap();
            assert_eq!(verify_plt_bindings(&kernel, &module), Vec::<String>::new());
            assert_eq!(verify_fixed_gots(&kernel, &module), Vec::<String>::new());
            assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
            assert!(vm.call(alloc, &[]).unwrap() >= adelie_kernel::layout::HEAP_BASE);
        }
        assert!(
            module.plt_reswings.load(Ordering::Relaxed) > 0,
            "cycles must re-swing bound slots"
        );
    }

    #[test]
    fn lazy_plt_binders_unregister_at_unload_and_reload_starts_unbound() {
        let opts = TransformOptions::rerandomizable(true).with_lazy_plt();
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let obj = transform(&demo_spec(), &opts).unwrap();
        let module = registry.load(&obj, &opts).unwrap();
        let binder_names: Vec<String> = module
            .lazy_plt
            .iter()
            .map(|s| s.binder_name.clone())
            .collect();
        assert!(!binder_names.is_empty());
        for n in &binder_names {
            assert!(
                kernel.symbols.lookup(n).is_some(),
                "binder `{n}` registered"
            );
        }
        let calc = module.export("demo_calc").unwrap();
        let mut vm = kernel.vm();
        assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        drop(vm);
        drop(module);
        registry.unload("demo").unwrap();
        for n in &binder_names {
            assert!(
                kernel.symbols.lookup(n).is_none(),
                "binder `{n}` must be unregistered at unload"
            );
        }
        // A reload re-registers the same binder names (a leak would
        // panic `register_native` on the duplicate) and starts with
        // every slot unbound again.
        let module = registry.load(&obj, &opts).unwrap();
        assert!(module
            .lazy_plt
            .iter()
            .all(|s| s.bound.load(Ordering::Acquire) == 0));
        let calc = module.export("demo_calc").unwrap();
        let mut vm = kernel.vm();
        assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        assert!(module.plt_binds.load(Ordering::Relaxed) > 0);
        assert_eq!(verify_plt_bindings(&kernel, &module), Vec::<String>::new());
    }

    /// Hand-build an object whose only payload is a `.bss` of `size`
    /// bytes — the shape an adversarial ELF `sh_size` produces after
    /// ingestion (the parser does not bound sizes; the loader must).
    fn huge_bss_object(size: usize) -> adelie_obj::ObjectFile {
        let mut sections = std::collections::BTreeMap::new();
        sections.insert(
            adelie_obj::SectionKind::Bss,
            adelie_obj::Section {
                bytes: Vec::new(),
                size,
                relocs: Vec::new(),
            },
        );
        adelie_obj::ObjectFile {
            name: "huge".into(),
            sections,
            symbols: Vec::new(),
            exports: Vec::new(),
            init: None,
            exit: None,
            update_pointers: None,
        }
    }

    #[test]
    fn adversarial_section_sizes_are_too_large_never_wrapped() {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        for opts in [
            TransformOptions::pic(false),
            TransformOptions::rerandomizable(true),
        ] {
            for size in [
                u64::MAX as usize,
                (u64::MAX - 4095) as usize,
                (u64::MAX / 2) as usize,
                layout::MODULE_CEILING as usize,
                layout::MODULE_CEILING as usize + PAGE_SIZE,
            ] {
                match registry.load(&huge_bss_object(size), &opts) {
                    Err(LoadError::TooLarge(_)) => {}
                    Err(e) => panic!("size {size:#x} under {opts:?}: wrong error {e}"),
                    Ok(_) => panic!("size {size:#x} under {opts:?} must not load"),
                }
            }
        }
        // The allocator survives the rejections: a sane module still
        // loads and runs.
        let opts = TransformOptions::rerandomizable(true);
        let obj = transform(&demo_spec(), &opts).unwrap();
        let module = registry.load(&obj, &opts).unwrap();
        let mut vm = kernel.vm();
        assert_eq!(
            vm.call(module.export("demo_calc").unwrap(), &[16]).unwrap(),
            42
        );
    }

    /// Same audit, but with the hostile size arriving the way an
    /// attacker would actually deliver it: as an ELF `sh_size` that the
    /// parser (which does not bound sizes) faithfully reports.
    #[test]
    fn elf_delivered_huge_bss_is_too_large_never_wrapped() {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let opts = TransformOptions::rerandomizable(true);
        for size in [u64::MAX as usize, layout::MODULE_CEILING as usize] {
            let bytes = adelie_elf::emit(&huge_bss_object(size));
            let obj = adelie_elf::parse(&bytes).expect("huge .bss is well-formed ELF");
            match registry.load(&obj, &opts) {
                Err(LoadError::TooLarge(_)) => {}
                Err(e) => panic!("ELF size {size:#x}: wrong error {e}"),
                Ok(_) => panic!("ELF size {size:#x} must not load"),
            }
        }
    }

    #[test]
    fn verify_plt_bindings_flags_a_stale_binding() {
        let opts = TransformOptions::rerandomizable(true).with_lazy_plt();
        let (kernel, _registry, module) = setup(&opts);
        let calc = module.export("demo_calc").unwrap();
        let mut vm = kernel.vm();
        assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        let slot = module
            .lazy_plt
            .iter()
            .find(|s| s.bound.load(Ordering::Acquire) != 0)
            .expect("at least one slot bound by the calls above");
        // Simulate a missed re-swing: the recorded binding drifts from
        // what the slot should hold under the current layout.
        let good = slot.bound.load(Ordering::Acquire);
        slot.bound.store(good ^ 0x10, Ordering::Release);
        let v = verify_plt_bindings(&kernel, &module);
        assert!(
            v.iter().any(|m| m.contains("stale")),
            "tampered binding must be reported: {v:?}"
        );
        slot.bound.store(good, Ordering::Release);
        assert_eq!(verify_plt_bindings(&kernel, &module), Vec::<String>::new());
    }

    /// The tentpole property at the interpreter level: across a
    /// re-randomization cycle, a warm VM TLB resynchronizes with
    /// *partial* (range-based) invalidations — it never whole-TLB
    /// flushes.
    #[test]
    fn cycles_cost_partial_flushes_not_full_flushes() {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let opts = TransformOptions::rerandomizable(false);
        let obj = transform(&demo_spec(), &opts).unwrap();
        let module = registry.load(&obj, &opts).unwrap();
        let calc = module.export("demo_calc").unwrap();
        let mut vm = kernel.vm();
        assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        let warm = vm.tlb_stats();
        for _ in 0..5 {
            rerandomize_module(&kernel, &registry, &module).unwrap();
            assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
        }
        let s = vm.tlb_stats();
        assert_eq!(
            s.flushes - warm.flushes,
            0,
            "range-based sync must never full-flush here"
        );
        assert!(
            s.partial_flushes > warm.partial_flushes,
            "cycles must be visible as partial flushes"
        );
    }

    #[test]
    fn typed_errors_name_the_module() {
        let opts = TransformOptions::pic(false);
        let (kernel, registry, module) = setup(&opts);
        match rerandomize_module(&kernel, &registry, &module) {
            Err(RerandError::NotRerandomizable { module }) => assert_eq!(&*module, "demo"),
            other => panic!("expected NotRerandomizable, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_cycles_of_independent_modules_never_overlap() {
        // Two modules re-randomized from racing threads: the
        // reservation-based allocator must keep every placement
        // disjoint, with no global lock serializing the mapping phase.
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let opts = TransformOptions::rerandomizable(false);
        let modules: Vec<_> = (0..3)
            .map(|i| {
                let mut spec = ModuleSpec::new(&format!("demo{i}"));
                spec.funcs.push(FuncSpec::exported(
                    &format!("demo{i}_calc"),
                    vec![
                        MOp::Insn(Insn::MovRR {
                            dst: Reg::Rax,
                            src: Reg::Rdi,
                        }),
                        MOp::Insn(Insn::AluImm {
                            op: AluOp::Add,
                            dst: Reg::Rax,
                            imm: 26,
                        }),
                        MOp::Ret,
                    ],
                ));
                let obj = transform(&spec, &opts).unwrap();
                registry.load(&obj, &opts).unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for m in &modules {
                let kernel = kernel.clone();
                let registry = registry.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        rerandomize_module(&kernel, &registry, m).unwrap();
                    }
                });
            }
        });
        // Every module still works and the final placements are
        // pairwise disjoint.
        let mut vm = kernel.vm();
        let mut ranges = Vec::new();
        for (i, m) in modules.iter().enumerate() {
            let calc = m.export(&format!("demo{i}_calc")).unwrap();
            assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
            assert_eq!(m.times_randomized(), 20);
            let base = m.movable_base.load(Ordering::Relaxed);
            ranges.push((base, base + (m.movable.total_pages * PAGE_SIZE) as u64));
        }
        for (i, &(ab, ae)) in ranges.iter().enumerate() {
            for &(bb, be) in ranges.iter().skip(i + 1) {
                assert!(ae <= bb || be <= ab, "module ranges overlap");
            }
        }
    }

    #[test]
    fn legacy_mode_rejects_pic_relocs() {
        // A PIC-transformed object cannot be loaded as legacy.
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let pic_obj = transform(&demo_spec(), &TransformOptions::pic(false)).unwrap();
        let err = registry
            .load(&pic_obj, &TransformOptions::vanilla(false))
            .unwrap_err();
        assert!(matches!(err, LoadError::UnexpectedReloc(_)), "{err:?}");
    }

    #[test]
    fn unresolved_import_fails_load() {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        let mut spec = ModuleSpec::new("bad");
        spec.funcs.push(FuncSpec::exported(
            "bad_fn",
            vec![MOp::CallKernel("nonexistent_symbol".into()), MOp::Ret],
        ));
        let opts = TransformOptions::pic(false);
        let obj = transform(&spec, &opts).unwrap();
        match registry.load(&obj, &opts) {
            Err(LoadError::Unresolved(s)) => assert_eq!(s, "nonexistent_symbol"),
            other => panic!("expected unresolved, got {other:?}"),
        }
    }

    #[test]
    fn module_bases_differ_across_kernels_with_different_seeds() {
        let opts = TransformOptions::pic(false);
        let mut bases = Vec::new();
        for seed in [1u64, 2, 3] {
            let kernel = Kernel::new(KernelConfig {
                seed,
                ..KernelConfig::default()
            });
            let registry = ModuleRegistry::new(&kernel);
            let obj = transform(&demo_spec(), &opts).unwrap();
            let m = registry.load(&obj, &opts).unwrap();
            bases.push(m.movable_base.load(Ordering::Relaxed));
        }
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 3, "KASLR placement must vary with the seed");
    }

    #[test]
    fn model_mismatch_is_caught() {
        let _ = CodeModel::Pic; // silence unused import in some cfgs
    }
}
