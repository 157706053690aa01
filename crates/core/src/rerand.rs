//! One re-randomization cycle: the core move operation of paper §4.2.
//!
//! For the module being cycled:
//!
//! 1. pick a fresh random base for the movable part (a contention-safe
//!    [`VaAllocator`](crate::va) reservation, so independent modules can
//!    cycle concurrently under `adelie-sched`'s worker pool),
//! 2. alias every movable page (same frames) at the new base —
//!    *zero-copy* movement (Fig. 2a),
//! 3. build **new local GOTs** for both parts with entries rebased to
//!    the new addresses and a fresh encryption key; the new mapping's
//!    local-GOT pages point at the new frames, and the immovable part's
//!    local-GOT page is atomically swapped onto its new frame,
//! 4. adjust absolute data slots that point into the movable part,
//! 5. invoke the module's `update_pointers` callback if it has one,
//! 6. `mr_retire` the old range: it is unmapped (and the old local-GOT
//!    frames freed) as soon as the last pending call drains,
//! 7. rotate the per-CPU stack pools.
//!
//! Pending calls keep executing at the old addresses with the old GOTs
//! and the old key until they return — consistency by construction.
//!
//! Every page-table mutation above is issued as an `adelie_vmem::Batch`:
//! the alias map, the GOT maps, the immovable GOT swing, the retire
//! unmap, and the stack rotation each apply under one page-table lock
//! acquisition and publish at most one range-tagged shootdown, so TLBs
//! evict only the affected spans instead of flushing wholesale (§4.3).
//! [`rerandomize_module_epoch`] additionally tags the cycle's batches
//! with the scheduler's shared shootdown epoch.
//!
//! The background thread that used to live here (the artifact's
//! `randmod` kthread) is superseded by `adelie-sched`: a multi-worker
//! scheduler with per-module policies and a CPU budget; its
//! `SchedConfig::serial` configuration reproduces the old single
//! kthread.

use crate::hooks::{CycleCommit, CycleStage};
use crate::module::{LoadedModule, LocalGotEntry, Part};
use crate::stacks::StackPool;
use crate::ModuleRegistry;
use adelie_kernel::{Kernel, VmError};
use adelie_vmem::{Batch, Fault, Pfn, PteFlags, PAGE_SIZE};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Why one re-randomization cycle could not complete.
///
/// Cycle failures are *recoverable* from the scheduler's point of view:
/// the module keeps running at its current base, and the failed cycle is
/// counted and retried at the next deadline rather than killing the
/// randomizer thread (the old stringly-typed path treated every error as
/// fatal).
#[derive(Debug)]
pub enum RerandError {
    /// The module was not built with `TransformOptions::rerandomizable`.
    NotRerandomizable {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
    },
    /// The registry no longer holds this copy of the module: it was
    /// unloaded (or replaced by a fresh copy under the same name), so
    /// its frames are freed or about to be. The cycle touched nothing.
    Unloaded {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
    },
    /// No free virtual range of the required size could be found.
    NoSpace {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
        /// Pages requested.
        pages: usize,
    },
    /// Mapping or swapping pages at the new base failed.
    Remap {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
        /// Which remap step failed (alias, local GOT, immovable GOT).
        what: &'static str,
        /// The underlying page-table fault.
        fault: Fault,
    },
    /// The module's `update_pointers` callback raised an error. Unlike
    /// the other variants, the move itself *has* committed: the module
    /// runs correctly at its new base and the old range was retired —
    /// only the callback's own refresh work is in doubt.
    UpdatePointers {
        /// Module name (shared id — no per-error allocation).
        module: Arc<str>,
        /// The interpreter error.
        source: VmError,
    },
}

impl fmt::Display for RerandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RerandError::NotRerandomizable { module } => {
                write!(f, "module {module} is not re-randomizable")
            }
            RerandError::Unloaded { module } => {
                write!(f, "module {module} is no longer loaded")
            }
            RerandError::NoSpace { module, pages } => {
                write!(f, "no free {pages}-page range to move {module} into")
            }
            RerandError::Remap {
                module,
                what,
                fault,
            } => write!(f, "{module}: {what} remap failed: {fault}"),
            RerandError::UpdatePointers { module, source } => {
                write!(f, "{module}: update_pointers failed: {source}")
            }
        }
    }
}

impl std::error::Error for RerandError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RerandError::Remap { fault, .. } => Some(fault),
            RerandError::UpdatePointers { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Re-randomize `module` once. Returns the new movable base.
///
/// Safe to call concurrently for *different* modules: placement is
/// reservation-based and each module's `move_lock` serializes cycles of
/// the same module.
///
/// # Errors
///
/// [`RerandError`] — the module is left fully functional on any error
/// and callers may simply retry later. A copy `registry` no longer
/// holds is never moved ([`RerandError::Unloaded`]). Placement and
/// mapping errors roll the cycle back completely (the module has not
/// moved, nothing is leaked); a failing `update_pointers` callback is
/// reported after the move has committed and the old range been
/// retired (see [`RerandError::UpdatePointers`]).
pub fn rerandomize_module(
    kernel: &Arc<Kernel>,
    registry: &ModuleRegistry,
    module: &LoadedModule,
) -> Result<u64, RerandError> {
    rerandomize_module_epoch(kernel, registry, module, None)
}

/// [`rerandomize_module`] with an explicit shared shootdown-`epoch`
/// tag: every invalidating page-table batch the cycle issues (the GOT
/// swing, the retire unmap, the stack-pool rotation) carries the tag,
/// so same-deadline cycles of independent modules — which the
/// scheduler hands the same epoch — coalesce their invalidation sets
/// into one merged log slot and a lagging TLB pays a single partial
/// invalidation pass for the whole epoch.
///
/// # Errors
///
/// See [`rerandomize_module`].
pub fn rerandomize_module_epoch(
    kernel: &Arc<Kernel>,
    registry: &ModuleRegistry,
    module: &LoadedModule,
    epoch: Option<u64>,
) -> Result<u64, RerandError> {
    if !module.rerandomizable {
        return Err(RerandError::NotRerandomizable {
            module: module.name.clone(),
        });
    }
    let _move_guard = module.move_lock.lock();
    // A copy its registry no longer holds must not move: its frames are
    // freed (or about to be), and aliasing them at a fresh base would
    // map pages another load may own. `unload_many` takes the name out
    // of the map before it takes the victim's `move_lock`, so a cycle
    // that passes this check finishes before the retire.
    if !registry
        .get(&module.name)
        .is_some_and(|held| std::ptr::eq(&*held, module))
    {
        return Err(RerandError::Unloaded {
            module: module.name.clone(),
        });
    }
    let pages = module.movable.total_pages;
    let old_base = module.movable_base.load(Ordering::Acquire);

    // Hook snapshot: one read per cycle; `None` (production) makes every
    // `allowed` check a constant.
    let hooks = registry.hooks();
    let allowed = |stage: CycleStage| hooks.as_ref().is_none_or(|h| h.allow(&module.name, stage));

    // (1) Fresh base + key. The reservation keeps concurrent cycles and
    // loads out of this range until the pages are actually mapped.
    if !allowed(CycleStage::Reserve) {
        return Err(RerandError::NoSpace {
            module: module.name.clone(),
            pages,
        });
    }
    let reservation = registry
        .reserve_va(pages)
        .ok_or_else(|| RerandError::NoSpace {
            module: module.name.clone(),
            pages,
        })?;
    let new_base = reservation.base();
    let new_key = kernel.rng_u64();
    // Error constructor: the module id is a pre-built `Arc<str>`, so
    // even the fault paths cost a refcount bump, never a string copy.
    let remap = |what: &'static str, fault: Fault| RerandError::Remap {
        module: module.name.clone(),
        what,
        fault,
    };
    // Pre-publish rollback: unmap whatever earlier *batches* already
    // applied at the new base and free frames allocated this cycle that
    // the module never took ownership of. Individual batches are atomic
    // (a failed batch leaves nothing behind), so only previously
    // *successful* batches need tearing down. The reservation is still
    // held while this runs, so no other placement can race into the
    // half-torn-down range. After it, the module is genuinely untouched
    // and the cycle can simply be retried.
    let rollback = |fresh: &[Pfn], unmap_new: bool| {
        if unmap_new {
            let mut batch = Batch::with_epoch(epoch);
            batch.unmap_sparse(new_base, pages);
            let _ = kernel.space.apply(&batch);
        }
        for &pfn in fresh {
            kernel.phys.free(pfn);
        }
    };

    // (2) Zero-copy alias of every movable page group, except the local
    // GOT pages which get fresh frames. One batch: a single page-table
    // lock acquisition instead of one per page (and being map-only, it
    // publishes no shootdown at all).
    if !allowed(CycleStage::AliasMap) {
        return Err(remap("alias", Fault::Injected { va: new_base }));
    }
    let lgot_page_start = (module.movable.lgot_off / PAGE_SIZE as u64) as usize;
    let lgot_pages = module.movable.lgot_pages();
    let mut alias_batch = Batch::with_epoch(epoch);
    for g in &module.movable.groups {
        for i in 0..g.pages {
            let page = g.page_start + i;
            if lgot_pages > 0 && page >= lgot_page_start && page < lgot_page_start + lgot_pages {
                continue; // handled in step (3)
            }
            let va = new_base + (page * PAGE_SIZE) as u64;
            alias_batch.map_page(va, module.movable.frames[page], g.flags);
        }
    }
    if let Err(fault) = kernel.space.apply(&alias_batch) {
        return Err(remap("alias", fault));
    }

    // (3) New local GOTs.
    let build_lgot = |entries: &[LocalGotEntry]| -> Vec<u8> {
        let mut bytes = vec![
            0u8;
            (entries.len() * 8)
                .next_multiple_of(PAGE_SIZE)
                .max(PAGE_SIZE)
        ];
        for (i, e) in entries.iter().enumerate() {
            let v = match e {
                LocalGotEntry::Sym { offset, .. } => new_base + offset,
                LocalGotEntry::Key => new_key,
                // A rebuilt table starts lazy slots unbound (at the
                // binder); bound slots are re-swung after publication.
                LocalGotEntry::Lazy { binder, .. } => *binder,
            };
            bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        bytes
    };
    // All fallible mapping work happens before the module takes
    // ownership of any fresh frame, so every error path above and below
    // can restore the exact pre-cycle state.
    let mut new_mov_lgot: Vec<Pfn> = Vec::new();
    if lgot_pages > 0 {
        if !allowed(CycleStage::MovableGot) {
            rollback(&[], true);
            return Err(remap(
                "local GOT",
                Fault::Injected {
                    va: new_base + module.movable.lgot_off,
                },
            ));
        }
        let img = build_lgot(&module.lgot_movable);
        new_mov_lgot = kernel.phys.alloc_n(lgot_pages);
        for (i, &pfn) in new_mov_lgot.iter().enumerate() {
            kernel
                .phys
                .write(pfn, 0, &img[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]);
        }
        let mut lgot_batch = Batch::with_epoch(epoch);
        lgot_batch.map_range(
            new_base + module.movable.lgot_off,
            &new_mov_lgot,
            PteFlags::RO_DATA, // sealed from birth
        );
        if let Err(fault) = kernel.space.apply(&lgot_batch) {
            rollback(&new_mov_lgot, true);
            return Err(remap("local GOT", fault));
        }
    }
    let mut new_imm_lgot: Vec<Pfn> = Vec::new();
    if let Some(imm) = &module.immovable {
        let imm_lgot_pages = imm.lgot_pages();
        if imm_lgot_pages > 0 {
            if !allowed(CycleStage::ImmovableGotSwap) {
                rollback(&new_mov_lgot, true);
                return Err(remap(
                    "immovable GOT swap",
                    Fault::Injected {
                        va: imm.base + imm.lgot_off,
                    },
                ));
            }
            let img = build_lgot(&module.lgot_immovable);
            new_imm_lgot = kernel.phys.alloc_n(imm_lgot_pages);
            for (i, &pfn) in new_imm_lgot.iter().enumerate() {
                kernel
                    .phys
                    .write(pfn, 0, &img[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]);
            }
            // Atomic PTE swing, one batch: pending calls read either the
            // old or the new table, never a hole (§4.2 "GOT pages in the
            // new address space are remapped to point to the new GOTs").
            // The batch is all-or-nothing — a mid-batch failure swaps
            // every completed page straight back inside vmem — and it
            // publishes ONE shootdown where the old code paid one per
            // GOT page.
            let mut swap_batch = Batch::with_epoch(epoch);
            for (i, &pfn) in new_imm_lgot.iter().enumerate() {
                let va = imm.base + imm.lgot_off + (i * PAGE_SIZE) as u64;
                swap_batch.swap_frame(va, pfn, PteFlags::RO_DATA);
            }
            if let Err(fault) = kernel.space.apply(&swap_batch) {
                let fresh: Vec<Pfn> = new_mov_lgot.iter().chain(&new_imm_lgot).copied().collect();
                rollback(&fresh, true);
                return Err(remap("immovable GOT swap", fault));
            }
        }
    }
    // Last pre-commit stage gate: a denied AdjustSlots stage rolls back
    // everything above, including swapping the immovable local-GOT PTEs
    // back onto their old frames in one batch (the data slots
    // themselves have not been touched yet).
    if !allowed(CycleStage::AdjustSlots) {
        if let Some(imm) = &module.immovable {
            let cur = module.immovable_lgot_frames.lock();
            let mut unswap = Batch::with_epoch(epoch);
            for (j, &old) in cur.iter().enumerate() {
                let va_j = imm.base + imm.lgot_off + (j * PAGE_SIZE) as u64;
                unswap.swap_frame(va_j, old, PteFlags::RO_DATA);
            }
            if !unswap.is_empty() {
                let _ = kernel.space.apply(&unswap);
            }
        }
        let fresh: Vec<Pfn> = new_mov_lgot.iter().chain(&new_imm_lgot).copied().collect();
        rollback(&fresh, true);
        return Err(remap("adjust-slots", Fault::Injected { va: new_base }));
    }

    // Nothing can fail before publication now: hand the fresh GOT
    // frames to the module and collect the ones they replace.
    let mut doomed_frames = Vec::new();
    if !new_mov_lgot.is_empty() {
        let mut cur = module.movable_lgot_frames.lock();
        doomed_frames.append(&mut std::mem::replace(&mut *cur, new_mov_lgot));
    }
    if !new_imm_lgot.is_empty() {
        let mut cur = module.immovable_lgot_frames.lock();
        doomed_frames.append(&mut std::mem::replace(&mut *cur, new_imm_lgot));
    }
    // The new range is fully mapped: the page tables now exclude it from
    // other placements, so the reservation can go. Debug builds prove
    // "fully mapped" with one batched walk (a single epoch pin and
    // snapshot-root load for the whole span) before releasing it.
    #[cfg(debug_assertions)]
    {
        let vas: Vec<u64> = (0..pages)
            .map(|i| new_base + (i * PAGE_SIZE) as u64)
            .collect();
        assert!(
            kernel
                .space
                .translate_batch(&vas, adelie_vmem::Access::Read)
                .iter()
                .all(|r| r.is_ok()),
            "rerand published a hole in {}'s new range at {new_base:#x}",
            module.name
        );
    }
    drop(reservation);

    // (4) Adjust movable pointers in data (paper §6: "pointers are also
    // adjusted when re-randomizing"). Direct frame writes: the slots may
    // live on sealed (read-only-mapped) pages.
    for slot in &module.adjust_slots {
        let frames = match slot.part {
            Part::Movable => &module.movable.frames,
            Part::Immovable => &module.immovable.as_ref().unwrap().frames,
        };
        let page = (slot.slot_off / PAGE_SIZE as u64) as usize;
        let off = (slot.slot_off % PAGE_SIZE as u64) as usize;
        kernel
            .phys
            .write_u64(frames[page], off, new_base + slot.target_off);
    }

    // (5) Publish, then let the module refresh any run-time pointers.
    module.movable_base.store(new_base, Ordering::Release);
    module.current_key.store(new_key, Ordering::Release);
    module.generation.fetch_add(1, Ordering::Relaxed);
    // Re-swing bound lazy PLT slots against the published layout (the
    // MARDU hazard: a bound slot holds an absolute address, so leaving
    // it would let a first-call binding outlive the range it points
    // into). Runs before `update_pointers` so the callback itself calls
    // through correctly-bound stubs; a binder racing this re-resolves
    // under the same lock and reaches the same answer.
    module.reswing_bound_plt(kernel);
    let update_result = match module.update_pointers_va {
        Some(_) if !allowed(CycleStage::UpdatePointers) => Err(RerandError::UpdatePointers {
            module: module.name.clone(),
            source: VmError::Native("injected fault: update_pointers".into()),
        }),
        Some(up) => {
            let mut vm = kernel.vm();
            vm.call(up, &[new_base])
                .map(|_| ())
                .map_err(|source| RerandError::UpdatePointers {
                    module: module.name.clone(),
                    source,
                })
        }
        None => Ok(()),
    };
    if update_result.is_err() {
        // The move has committed and the old range is about to be
        // retired, but the module's own pointer refresh did not run to
        // completion: record it (the old silent-drop path) so the
        // scheduler's stats — and the testkit oracle — can see exactly
        // which modules may still hold references into retired layouts.
        module
            .pointer_refresh_failures
            .fetch_add(1, Ordering::Relaxed);
    }

    // (6) Retire the old range — unmapped when pending calls drain.
    // This runs even when the update_pointers callback failed: the move
    // is already published at this point, and skipping retirement would
    // leak the old mapping and the replaced GOT frames on every retried
    // cycle.
    if allowed(CycleStage::Retire) {
        let kernel2 = kernel.clone();
        let total_pages = pages;
        kernel.reclaim.retire(Box::new(move || {
            // Batched unmap: one TLB shootdown for the whole stale
            // range, tagged with the cycle's shared epoch so retires of
            // same-deadline cycles coalesce their invalidation sets.
            let mut batch = Batch::with_epoch(epoch);
            batch.unmap_sparse(old_base, total_pages);
            let _ = kernel2.space.apply(&batch);
            for pfn in doomed_frames {
                kernel2.phys.free(pfn);
            }
        }));
    } else {
        // Injected retirement drop: the old range stays mapped and the
        // replaced GOT frames leak — deliberately, so the testkit can
        // prove its layout oracle detects exactly this class of bug.
        kernel.printk.log(format!(
            "rerand: {} retire suppressed by injected fault (old range {old_base:#x} leaked)",
            module.name
        ));
    }

    // (7) Rotate the per-CPU randomized stack pools so stack addresses
    // go stale on the same cadence as code addresses (§3.4). The
    // rotation retires every pooled stack in one batch under the same
    // shared epoch.
    if allowed(CycleStage::StackRotate) {
        registry.stacks.rotate_epoch(kernel, epoch);
    }
    if let Some(h) = &hooks {
        h.committed(&CycleCommit {
            module: &module.name,
            old_base,
            new_base,
            span: (pages * PAGE_SIZE) as u64,
            generation: module.generation.load(Ordering::Relaxed),
        });
    }
    update_result.map(|()| new_base)
}

/// Print the artifact-style statistics block to the kernel log:
///
/// ```text
/// Randomized 53 times
/// SMR Retire: 106 / SMR Free: 106 / SMR Delta: 0
/// Stack Alloc: 530 / Stack Free: 530 / Stack Delta: 0
/// ```
pub fn log_stats(kernel: &Kernel, cycles: u64, stacks: &StackPool) {
    let smr = kernel.reclaim.stats();
    let st = stacks.stats();
    kernel.printk.log("-----".to_string());
    kernel.printk.log(format!("Randomized {cycles} times"));
    kernel.printk.log(format!("SMR Retire: {}", smr.retired));
    kernel.printk.log(format!("SMR Free: {}", smr.freed));
    kernel.printk.log(format!("SMR Delta: {}", smr.delta()));
    kernel.printk.log(format!("Stack Alloc: {}", st.allocated));
    kernel.printk.log(format!("Stack Free: {}", st.freed));
    kernel.printk.log(format!("Stack Delta: {}", st.delta()));
}
