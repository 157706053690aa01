//! Contention-safe virtual-address allocation for module placement.
//!
//! Historically the registry held one big `va_lock` across *pick base →
//! build image → map pages*, which serialized every load and every
//! re-randomization cycle — a single randomizer thread was the only
//! thing that could work under it. The scheduler's multi-worker pool
//! overlaps cycles of independent modules, so placement is now
//! *reservation*-based:
//!
//! 1. a candidate base is drawn from the kernel RNG,
//! 2. under a short lock, the candidate is checked against both the
//!    currently **reserved** ranges and the already **mapped** pages,
//! 3. on success the range is recorded and a [`VaReservation`] guard is
//!    returned; the caller maps at leisure and drops the guard once the
//!    pages are live (at which point the page tables themselves exclude
//!    the range from future picks).
//!
//! Any two in-flight placements — loads, re-randomization cycles, and
//! randomized stack allocations, which all draw from this allocator —
//! are therefore disjoint by construction, with no lock held during the
//! expensive build/map phase.

use adelie_kernel::{layout, Kernel};
use adelie_vmem::PAGE_SIZE;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The registry's shared placement state.
pub(crate) struct VaAllocator {
    /// In-flight `(base, end)` ranges: picked but not fully mapped yet.
    reserved: Mutex<Vec<(u64, u64)>>,
    /// Bump cursor for the legacy 2 GiB window.
    legacy_cursor: AtomicU64,
    /// `[lo, hi)` randomization window candidates are drawn from — the
    /// whole arena for a standalone kernel, one disjoint
    /// `layout::shard_windows` slice for a fleet shard.
    window: (u64, u64),
}

impl VaAllocator {
    /// An allocator whose legacy window starts at `legacy_start` and
    /// whose randomized placements are confined to `window`.
    pub(crate) fn new(legacy_start: u64, window: (u64, u64)) -> Arc<VaAllocator> {
        Arc::new(VaAllocator {
            reserved: Mutex::new(Vec::new()),
            legacy_cursor: AtomicU64::new(legacy_start),
            window,
        })
    }

    /// Claim `size` bytes of the legacy window (vanilla Linux module
    /// placement); returns the base of the claimed span.
    pub(crate) fn legacy_bump(&self, size: u64) -> u64 {
        self.legacy_cursor.fetch_add(size, Ordering::Relaxed)
    }

    /// Reserve a random, free, page-aligned range of `pages` inside the
    /// allocator's window (the whole 57-bit arena for a standalone
    /// kernel — 64-bit KASLR placement). Returns `None` when no free
    /// range is found after bounded retries.
    pub(crate) fn reserve(
        self: &Arc<Self>,
        kernel: &Kernel,
        pages: usize,
    ) -> Option<VaReservation> {
        let span = (pages * PAGE_SIZE) as u64;
        let (lo, hi) = self.window;
        let limit = hi.min(layout::MODULE_CEILING).checked_sub(span)?;
        // Candidate bases are page slots in `[first, last_excl)`. The
        // topmost slot is deliberately excluded, mirroring the old
        // whole-arena arithmetic: a span within a page or two of the
        // window top has no (or exactly one) candidate, and retrying a
        // 256-draw loop over one near-window-sized free-range scan is
        // pathological — report exhaustion instead. (Page slot 0 is
        // never a candidate either: base 0 is not a valid placement.)
        let first = lo.div_ceil(PAGE_SIZE as u64).max(1);
        let last_excl = limit / PAGE_SIZE as u64;
        let slots = last_excl.checked_sub(first).filter(|&s| s > 0)?;
        for _ in 0..256 {
            // Draw outside the lock: the kernel RNG has its own.
            let base = (first + kernel.rng_below(slots)) * PAGE_SIZE as u64;
            let mut reserved = self.reserved.lock();
            let clashes = reserved.iter().any(|&(b, e)| base < e && b < base + span);
            if clashes || !range_is_free(kernel, base, pages) {
                continue;
            }
            reserved.push((base, base + span));
            return Some(VaReservation {
                va: self.clone(),
                base,
                span,
            });
        }
        None
    }
}

fn range_is_free(kernel: &Kernel, base: u64, pages: usize) -> bool {
    // One descent of one snapshot for the whole candidate range — this
    // probe runs up to 256 times per allocation under VA pressure.
    !kernel.space.maps_any(base, pages)
}

/// A claimed-but-not-yet-mapped address range. Hold it while mapping;
/// drop it once the pages are live (the page tables then keep the range
/// excluded from future picks).
pub(crate) struct VaReservation {
    va: Arc<VaAllocator>,
    base: u64,
    span: u64,
}

impl VaReservation {
    /// Base address of the reserved range.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }
}

impl Drop for VaReservation {
    fn drop(&mut self) {
        let mut reserved = self.va.reserved.lock();
        if let Some(pos) = reserved
            .iter()
            .position(|&(b, e)| b == self.base && e == self.base + self.span)
        {
            reserved.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_kernel::KernelConfig;

    #[test]
    fn reservations_never_overlap() {
        let kernel = Kernel::new(KernelConfig::default());
        let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (0, layout::MODULE_CEILING));
        let held: Vec<VaReservation> = (0..64)
            .map(|_| va.reserve(&kernel, 8).expect("arena is huge"))
            .collect();
        for (i, a) in held.iter().enumerate() {
            for b in held.iter().skip(i + 1) {
                let (ab, ae) = (a.base, a.base + a.span);
                let (bb, be) = (b.base, b.base + b.span);
                assert!(
                    ae <= bb || be <= ab,
                    "overlap: {ab:#x}..{ae:#x} vs {bb:#x}..{be:#x}"
                );
            }
        }
    }

    /// Regression: a span within a page or two of `MODULE_CEILING` made
    /// `limit / PAGE_SIZE - 1` wrap, turning `rng_below` into a
    /// near-2^64 draw (and the retry loop into a 2^45-page scan). Such
    /// requests must fail fast with `None` instead.
    #[test]
    fn reserve_near_the_ceiling_returns_none() {
        let kernel = Kernel::new(KernelConfig::default());
        let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (0, layout::MODULE_CEILING));
        let ceiling_pages = (layout::MODULE_CEILING / PAGE_SIZE as u64) as usize;
        // Exactly at and one page under the ceiling: neither leaves a
        // single valid (non-zero) base slot.
        for pages in [ceiling_pages, ceiling_pages - 1] {
            assert!(
                va.reserve(&kernel, pages).is_none(),
                "{pages}-page reservation must report exhaustion"
            );
        }
        // And over the ceiling as well (checked_sub path).
        assert!(va.reserve(&kernel, ceiling_pages + 1).is_none());
        // Sanity: ordinary requests still succeed.
        assert!(va.reserve(&kernel, 8).is_some());
    }

    /// Fleet shards confine placement to a `[lo, hi)` window: every
    /// draw lands inside it, and a request bigger than the window
    /// reports exhaustion instead of spilling into a neighbor shard.
    #[test]
    fn windowed_reservations_stay_inside_the_window() {
        let kernel = Kernel::new(KernelConfig::default());
        let windows = layout::shard_windows(4);
        for &(lo, hi) in &windows {
            let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (lo, hi));
            for _ in 0..32 {
                let r = va.reserve(&kernel, 8).expect("shard window is huge");
                assert!(r.base() >= lo, "{:#x} below window {lo:#x}", r.base());
                assert!(
                    r.base() + (8 * PAGE_SIZE) as u64 <= hi,
                    "{:#x} spills past window end {hi:#x}",
                    r.base()
                );
            }
        }
        // A span wider than the window cannot be placed.
        let (lo, hi) = windows[1];
        let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (lo, hi));
        let too_big = ((hi - lo) / PAGE_SIZE as u64 + 1) as usize;
        assert!(va.reserve(&kernel, too_big).is_none());
    }

    #[test]
    fn dropping_a_reservation_frees_the_range() {
        let kernel = Kernel::new(KernelConfig::default());
        let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (0, layout::MODULE_CEILING));
        let r = va.reserve(&kernel, 4).unwrap();
        assert_eq!(va.reserved.lock().len(), 1);
        drop(r);
        assert!(va.reserved.lock().is_empty());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use adelie_kernel::KernelConfig;
    use adelie_vmem::{Batch, PteFlags};
    use proptest::prelude::*;

    fn overlaps(ab: u64, ae: u64, bb: u64, be: u64) -> bool {
        ab < be && bb < ae
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The allocator's whole contract, under arbitrary interleavings
        /// of reserve / commit-and-map / free: every reservation it
        /// hands out is page-aligned, non-empty, disjoint from every
        /// other outstanding reservation, and disjoint from everything
        /// already mapped — exactly the invariant concurrent loads,
        /// cycles, and stack allocations lean on.
        #[test]
        fn interleaved_placements_stay_aligned_and_disjoint(
            ops in proptest::collection::vec((0u8..3, 1usize..17, 0usize..64), 1..40)
        ) {
            let kernel = Kernel::new(KernelConfig::default());
            let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (0, layout::MODULE_CEILING));
            let mut held: Vec<VaReservation> = Vec::new();
            let mut mapped: Vec<(u64, u64)> = Vec::new();
            for (op, pages, pick) in ops {
                match op {
                    // Reserve: must be aligned and disjoint from both
                    // the outstanding reservations and the mapped set.
                    0 => {
                        let r = va.reserve(&kernel, pages).expect("arena is huge");
                        let (rb, re) = (r.base, r.base + r.span);
                        prop_assert_eq!(rb % PAGE_SIZE as u64, 0, "unaligned base {:#x}", rb);
                        prop_assert_eq!(r.span, (pages * PAGE_SIZE) as u64);
                        for h in &held {
                            prop_assert!(
                                !overlaps(rb, re, h.base, h.base + h.span),
                                "reservation overlaps a held reservation"
                            );
                        }
                        for &(mb, me) in &mapped {
                            prop_assert!(
                                !overlaps(rb, re, mb, me),
                                "reservation overlaps a mapped range"
                            );
                        }
                        held.push(r);
                    }
                    // Commit: map the pages for real (what a finished
                    // load/cycle does), then release the guard — from
                    // here the page tables must keep the range excluded.
                    1 if !held.is_empty() => {
                        let r = held.swap_remove(pick % held.len());
                        let pfns = kernel.phys.alloc_n((r.span / PAGE_SIZE as u64) as usize);
                        kernel
                            .space
                            .apply(Batch::new().map_range(r.base, &pfns, PteFlags::DATA))
                            .expect("reserved range must be mappable");
                        mapped.push((r.base, r.base + r.span));
                    }
                    // Abandon: drop the guard without mapping — the
                    // range is reusable and nothing may leak.
                    _ if !held.is_empty() => {
                        held.swap_remove(pick % held.len());
                    }
                    _ => {}
                }
            }
            // Whatever remains reserved is still pairwise disjoint.
            for (i, a) in held.iter().enumerate() {
                for b in held.iter().skip(i + 1) {
                    prop_assert!(!overlaps(a.base, a.base + a.span, b.base, b.base + b.span));
                }
            }
            drop(held);
            prop_assert!(va.reserved.lock().is_empty(), "guards must drain the table");
        }

        /// The legacy bump window never hands out overlapping spans and
        /// stays inside the 2 GiB window for boot-realistic loads.
        #[test]
        fn legacy_bump_spans_never_overlap(
            sizes in proptest::collection::vec(1u64..64, 1..32)
        ) {
            let va = VaAllocator::new(layout::LEGACY_MODULE_BASE, (0, layout::MODULE_CEILING));
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for s in sizes {
                let bytes = s * PAGE_SIZE as u64;
                let base = va.legacy_bump(bytes);
                for &(b, e) in &spans {
                    prop_assert!(!overlaps(base, base + bytes, b, e));
                }
                prop_assert!(base >= layout::LEGACY_MODULE_BASE);
                prop_assert!(
                    base + bytes <= layout::LEGACY_MODULE_BASE + layout::LEGACY_MODULE_SIZE,
                    "boot-realistic load spilled out of the 2 GiB window"
                );
                spans.push((base, base + bytes));
            }
        }
    }
}
