//! Per-CPU pools of re-randomized kernel stacks (paper §3.4, Fig. 3b).
//!
//! Wrappers switch to a stack drawn from the calling CPU's LIFO pool;
//! stacks are allocated at *random* virtual addresses, and the
//! re-randomizer periodically swaps every CPU's pool for a fresh one,
//! retiring the old stacks through the SMR domain so they are unmapped
//! only after in-flight calls drain.
//!
//! The paper uses per-CPU lock-free LIFO lists; contention here is a
//! single CPU's wrapper push/pop racing the rotate swap, so this
//! implementation uses a short per-CPU mutex around a `Vec` — the same
//! LIFO semantics with negligible contention (documented simplification,
//! DESIGN.md §3).

use crate::va::VaAllocator;
use adelie_kernel::{Kernel, Vm, VmError};
use adelie_vmem::{Batch, Pfn, PteFlags, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pages per randomized stack.
const STACK_PAGES: usize = 8;

/// Counters mirrored in the artifact's dmesg output
/// (`Stack Alloc` / `Stack Free` / `Stack Delta`).
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct StackStats {
    /// Stacks allocated on demand.
    pub allocated: u64,
    /// Stacks torn down by rotation.
    pub freed: u64,
}

impl StackStats {
    /// Live stacks. Saturating: the two counters are sampled with
    /// independent relaxed loads, so a reclaim-thread `freed` increment
    /// can land between them and make `freed` momentarily exceed the
    /// sampled `allocated` — that transient must read as 0 live stacks,
    /// not wrap (or panic in debug builds).
    pub fn delta(&self) -> u64 {
        self.allocated.saturating_sub(self.freed)
    }
}

/// The per-CPU stack pools.
pub struct StackPool {
    pools: Vec<Mutex<Vec<u64>>>,
    /// Backing frames per stack top (moved into the retire closure on
    /// rotation).
    frames: Mutex<HashMap<u64, Vec<Pfn>>>,
    /// Shared placement state: stacks draw from the same reservation-
    /// based allocator as module loads and re-randomization cycles, so a
    /// stack can never land inside a range another placement has picked
    /// but not yet mapped.
    va: Arc<VaAllocator>,
    allocated: AtomicU64,
    /// Shared with rotation closures living in the SMR domain, which may
    /// outlive the pool.
    freed: Arc<AtomicU64>,
}

impl StackPool {
    /// Pools for `cpus` CPUs, placing stacks via `va`. At least one
    /// pool is always created so the per-CPU indexing below is total.
    pub(crate) fn new(cpus: usize, va: Arc<VaAllocator>) -> Arc<StackPool> {
        Arc::new(StackPool {
            pools: (0..cpus.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            frames: Mutex::new(HashMap::new()),
            va,
            allocated: AtomicU64::new(0),
            freed: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Register the wrapper-support natives (`pop_stack_this_cpu`,
    /// `push_stack_this_cpu`, `alloc_stack`).
    pub fn register_natives(self: &Arc<Self>, kernel: &Arc<Kernel>) {
        let pool = self.clone();
        kernel
            .symbols
            .register_native("pop_stack_this_cpu", move |vm| Ok(pool.pop(vm.cpu())));
        let pool = self.clone();
        kernel
            .symbols
            .register_native("push_stack_this_cpu", move |vm| {
                pool.push(vm.cpu(), vm.arg(0));
                Ok(0)
            });
        let pool = self.clone();
        kernel.symbols.register_native("alloc_stack", move |vm| {
            pool.alloc(vm.kernel).map_err(VmError::Native)
        });
    }

    /// The pool serving `cpu`. `Vm::cpu` can exceed the pool count when
    /// a kernel is booted with more CPUs than the registry that built
    /// this pool (or when sticky thread→CPU ids outgrow a smaller
    /// testbed); folding the index keeps pop/push total instead of
    /// panicking on an out-of-bounds CPU id.
    fn pool(&self, cpu: usize) -> &Mutex<Vec<u64>> {
        &self.pools[cpu % self.pools.len()]
    }

    /// Pop a stack top for `cpu` (0 when the pool is empty — the wrapper
    /// then calls `alloc_stack`).
    pub fn pop(&self, cpu: usize) -> u64 {
        self.pool(cpu).lock().pop().unwrap_or(0)
    }

    /// Return a stack to `cpu`'s pool.
    pub fn push(&self, cpu: usize, top: u64) {
        self.pool(cpu).lock().push(top);
    }

    /// Allocate a stack at a random virtual address; returns its top.
    ///
    /// # Errors
    ///
    /// A textual error when no free range is found (propagated as a
    /// native-handler failure).
    pub fn alloc(&self, kernel: &Kernel) -> Result<u64, String> {
        let span = (STACK_PAGES * PAGE_SIZE) as u64;
        let reservation = self
            .va
            .reserve(kernel, STACK_PAGES)
            .ok_or_else(|| "alloc_stack: no free range".to_string())?;
        let base = reservation.base();
        let pfns = kernel.phys.alloc_n(STACK_PAGES);
        kernel
            .space
            .apply(Batch::new().map_range(base, &pfns, PteFlags::DATA))
            .expect("reserved stack range collided");
        let top = base + span;
        self.frames.lock().insert(top, pfns);
        self.allocated.fetch_add(1, Ordering::Relaxed);
        Ok(top)
    }

    /// Swap every CPU's pool for a fresh empty one; old stacks are
    /// retired and unmapped once pending calls drain (the rotation step
    /// of each re-randomization cycle).
    pub fn rotate(&self, kernel: &Arc<Kernel>) {
        self.rotate_epoch(kernel, None);
    }

    /// [`StackPool::rotate`], tagging the retirement's unmap batch with
    /// a shared shootdown `epoch` (see `adelie_vmem::Batch::with_epoch`).
    /// All retired stacks are unmapped in **one** batch — a single TLB
    /// shootdown for the whole rotation, where the pre-batching code
    /// paid one per stack.
    pub fn rotate_epoch(&self, kernel: &Arc<Kernel>, epoch: Option<u64>) {
        let mut old_tops = Vec::new();
        for pool in &self.pools {
            old_tops.append(&mut *pool.lock());
        }
        if old_tops.is_empty() {
            return;
        }
        let mut frames = self.frames.lock();
        let doomed: Vec<(u64, Vec<Pfn>)> = old_tops
            .into_iter()
            .filter_map(|top| frames.remove(&top).map(|f| (top, f)))
            .collect();
        drop(frames);
        let n = doomed.len() as u64;
        let kernel2 = kernel.clone();
        let freed = self.freed.clone();
        kernel.reclaim.retire(Box::new(move || {
            let mut batch = Batch::with_epoch(epoch);
            for (top, _) in &doomed {
                let base = top - (STACK_PAGES * PAGE_SIZE) as u64;
                // Sparse: a stack range that somehow lost pages must
                // not abort the teardown of every other stack.
                batch.unmap_sparse(base, STACK_PAGES);
            }
            let _ = kernel2.space.apply(&batch);
            for (_, pfns) in doomed {
                for pfn in pfns {
                    kernel2.phys.free(pfn);
                }
            }
            freed.fetch_add(n, Ordering::Relaxed);
        }));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StackStats {
        StackStats {
            allocated: self.allocated.load(Ordering::Relaxed),
            freed: self.freed.load(Ordering::Relaxed),
        }
    }

    /// Run one wrapper-style pop/alloc-push round on the calling CPU
    /// (test helper exercising the same paths as wrapper code).
    pub fn checkout(&self, vm: &mut Vm<'_>) -> Result<u64, String> {
        let cpu = vm.cpu();
        let top = match self.pop(cpu) {
            0 => self.alloc(vm.kernel)?,
            t => t,
        };
        Ok(top)
    }
}

impl std::fmt::Debug for StackPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StackPool")
            .field("cpus", &self.pools.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_kernel::layout;

    /// Regression: `allocated - freed` panicked in debug builds when a
    /// reclaim-thread `freed` increment landed between the two relaxed
    /// loads of a stats snapshot.
    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let racing_snapshot = StackStats {
            allocated: 3,
            freed: 5,
        };
        assert_eq!(racing_snapshot.delta(), 0);
        let normal = StackStats {
            allocated: 5,
            freed: 3,
        };
        assert_eq!(normal.delta(), 2);
    }

    /// Fleet-style many-kernel churn: pools of *differently sized*
    /// kernels driven from one thread whose sticky CPU id was minted
    /// elsewhere. Folding must keep pop/push/alloc/rotate total, LIFO
    /// round-trips must stay intact per pool, and the alloc/free
    /// counters must converge to zero after rotation drains — with no
    /// stack ever crossing between the pools.
    #[test]
    fn many_kernel_churn_keeps_pools_consistent() {
        use adelie_kernel::{Kernel, KernelConfig};
        // Fleet shape: differently-sized shard kernels over disjoint VA
        // windows (identical seeds would otherwise legitimately draw
        // identical stack addresses in their separate spaces).
        let windows = layout::shard_windows(2);
        let big = Kernel::new(KernelConfig {
            cpus: 8,
            module_window: windows[0],
            ..KernelConfig::default()
        });
        let small = Kernel::new(KernelConfig {
            cpus: 2,
            module_window: windows[1],
            ..KernelConfig::default()
        });
        let pool_big = StackPool::new(8, VaAllocator::new(layout::LEGACY_MODULE_BASE, windows[0]));
        let pool_small =
            StackPool::new(2, VaAllocator::new(layout::LEGACY_MODULE_BASE, windows[1]));
        let mut seen_big = std::collections::HashSet::new();
        let mut seen_small = std::collections::HashSet::new();
        // Interleave checkouts across both kernels with raw CPU ids far
        // beyond the small pool's size (what a fleet thread entering
        // shard after shard produces).
        for round in 0..6u64 {
            for cpu in [0usize, 3, 7, 19] {
                let a = match pool_big.pop(cpu) {
                    0 => pool_big.alloc(&big).unwrap(),
                    t => t,
                };
                let b = match pool_small.pop(cpu) {
                    0 => pool_small.alloc(&small).unwrap(),
                    t => t,
                };
                assert_ne!(a, 0);
                assert_ne!(b, 0);
                seen_big.insert(a);
                seen_small.insert(b);
                pool_big.push(cpu, a);
                pool_small.push(cpu, b);
            }
            if round % 2 == 1 {
                pool_big.rotate(&big);
                pool_small.rotate(&small);
                big.reclaim.flush();
                small.reclaim.flush();
            }
        }
        // No stack ever served both pools, and every stack stayed
        // inside its shard's window (tops are exclusive upper bounds).
        assert!(
            seen_big.is_disjoint(&seen_small),
            "a stack crossed between shard windows"
        );
        for &top in &seen_big {
            assert!(top > windows[0].0 && top <= windows[0].1, "{top:#x}");
        }
        for &top in &seen_small {
            assert!(top > windows[1].0 && top <= windows[1].1, "{top:#x}");
        }
        pool_big.rotate(&big);
        pool_small.rotate(&small);
        big.reclaim.flush();
        small.reclaim.flush();
        let (sb, ss) = (pool_big.stats(), pool_small.stats());
        assert_eq!(sb.delta(), 0, "big pool leaked: {sb:?}");
        assert_eq!(ss.delta(), 0, "small pool leaked: {ss:?}");
        assert!(sb.allocated > 0 && ss.allocated > 0);
    }

    /// Regression: a `Vm::cpu` id at or past the pool count indexed out
    /// of bounds in `pop`/`push`.
    #[test]
    fn pop_push_tolerate_out_of_range_cpu_ids() {
        let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (0, layout::MODULE_CEILING));
        let pool = StackPool::new(2, va);
        // Far past the 2 pools that exist — must fold, not panic.
        assert_eq!(pool.pop(7), 0);
        pool.push(7, 0xAB00_0000);
        assert_eq!(pool.pop(7), 0xAB00_0000);
        // Zero CPUs still yields one pool.
        let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (0, layout::MODULE_CEILING));
        let pool = StackPool::new(0, va);
        assert_eq!(pool.pop(0), 0);
    }
}
