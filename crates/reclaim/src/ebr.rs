//! Classic three-epoch reclamation (EBR) — the baseline scheme.
//!
//! The paper notes Hyaline's performance is "very similar to that of
//! EBR" but that Hyaline integrates more easily because it is
//! context-agnostic (§3.4). This implementation lets the kernel's `mr_*`
//! domain run either scheme, and it guards the lifetime of page-table
//! snapshots, whose pins are short symmetric brackets (DESIGN.md §11.3).
//!
//! Standard scheme: a global epoch, a per-slot `(active, local epoch)`
//! word, and three limbo buckets. Objects retired in epoch *e* are freed
//! once the global epoch has advanced twice past *e*, which requires all
//! active slots to have observed each intermediate epoch.

use crate::{Deferred, Reclaimer, SmrStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

const ACTIVE: u64 = 1 << 63;
const EPOCH_MASK: u64 = ACTIVE - 1;

/// How many `leave()`s a slot performs between epoch-advance attempts
/// while garbage is pending. `try_advance` scans *every* slot word with
/// SeqCst loads — letting each reader exit attempt it turns the hot
/// read path into an all-slots cacheline crawl. Amortizing over 32
/// exits bounds reclamation lag (a retire and a flush still advance
/// eagerly) while making the common exit a single store.
const ADVANCE_PERIOD: u64 = 32;

/// Cache-line-padded per-slot exit counter: each slot has exactly one
/// writer (the thread occupying it), so padding keeps two readers
/// leaving on adjacent slots from bouncing a shared line.
#[repr(align(64))]
struct PaddedTick(AtomicU64);

/// Epoch-based reclamation domain. See module docs.
pub struct Ebr {
    global: AtomicU64,
    /// Per-slot word: `ACTIVE | epoch` when inside an operation, 0 when idle.
    slot_words: Box<[AtomicU64]>,
    /// Per-slot `leave()` counters driving deferred epoch advancement.
    leave_ticks: Box<[PaddedTick]>,
    limbo: [Mutex<Vec<Deferred>>; 3],
    retired: AtomicU64,
    freed: AtomicU64,
}

impl Ebr {
    /// Create a domain with `nslots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `nslots` is zero.
    pub fn new(nslots: usize) -> Ebr {
        assert!(nslots > 0, "need at least one slot");
        Ebr {
            global: AtomicU64::new(0),
            slot_words: (0..nslots).map(|_| AtomicU64::new(0)).collect(),
            leave_ticks: (0..nslots).map(|_| PaddedTick(AtomicU64::new(0))).collect(),
            limbo: [
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
            ],
            retired: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    /// Try to advance the global epoch once; on success, drain the bucket
    /// that two-epochs-old garbage sits in.
    fn try_advance(&self) {
        let e = self.global.load(Ordering::SeqCst);
        for w in self.slot_words.iter() {
            let v = w.load(Ordering::SeqCst);
            if v & ACTIVE != 0 && v & EPOCH_MASK != e {
                return; // a straggler pins the epoch
            }
        }
        // Bucket ((e+1) % 3) holds garbage retired in epoch e-2: every
        // operation from that epoch has since left. Lock it *before*
        // publishing epoch e+1, so a `retire` that reads e+1 waits for
        // the drain instead of landing in the bucket being drained (and
        // being freed while operations of its own epoch still run).
        let mut bucket = self.limbo[((e + 1) % 3) as usize].lock();
        if self
            .global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // someone else advanced
        }
        let drained: Vec<Deferred> = std::mem::take(&mut *bucket);
        drop(bucket);
        let n = drained.len() as u64;
        for action in drained {
            action();
        }
        self.freed.fetch_add(n, Ordering::Relaxed);
    }
}

impl Reclaimer for Ebr {
    fn enter(&self, slot: usize) {
        let w = &self.slot_words[slot];
        debug_assert_eq!(
            w.load(Ordering::Relaxed) & ACTIVE,
            0,
            "EBR slots admit one operation at a time (not context-agnostic)"
        );
        // Announce, then re-check the epoch to close the store-load race.
        loop {
            let e = self.global.load(Ordering::SeqCst);
            w.store(ACTIVE | e, Ordering::SeqCst);
            if self.global.load(Ordering::SeqCst) == e {
                return;
            }
        }
    }

    fn leave(&self, slot: usize) {
        self.slot_words[slot].store(0, Ordering::SeqCst);
        // Fast path for read-mostly domains (the page-table snapshot
        // domain leaves once per TLB miss): with no outstanding
        // garbage, advancing the epoch buys nothing — skip the
        // all-slots scan. Counter skew at worst delays one advance;
        // the next retire/leave/flush picks it up.
        if self.retired.load(Ordering::Relaxed) == self.freed.load(Ordering::Relaxed) {
            return;
        }
        // Garbage pending: still don't advance on every exit — that
        // makes each reader scan all slot words and fight over the
        // global epoch's cacheline. Tick a slot-local counter (single
        // writer, Relaxed is enough) and only every ADVANCE_PERIOD-th
        // exit pays for the scan.
        let t = self.leave_ticks[slot].0.fetch_add(1, Ordering::Relaxed);
        if t.is_multiple_of(ADVANCE_PERIOD) {
            self.try_advance();
        }
    }

    fn retire(&self, action: Deferred) {
        self.retired.fetch_add(1, Ordering::Relaxed);
        let e = self.global.load(Ordering::SeqCst);
        self.limbo[(e % 3) as usize].lock().push(action);
        self.try_advance();
    }

    fn flush(&self) {
        for _ in 0..3 {
            self.try_advance();
        }
    }

    fn slots(&self) -> usize {
        self.slot_words.len()
    }

    fn stats(&self) -> SmrStats {
        SmrStats {
            retired: self.retired.load(Ordering::Relaxed),
            freed: self.freed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Ebr {
    fn drop(&mut self) {
        // Run everything left; nothing can be active at teardown.
        let mut n = 0u64;
        for bucket in &self.limbo {
            for action in std::mem::take(&mut *bucket.lock()) {
                action();
                n += 1;
            }
        }
        self.freed.fetch_add(n, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Ebr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ebr")
            .field("slots", &self.slot_words.len())
            .field("epoch", &self.global.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn straggler_pins_everything() {
        // EBR's weakness vs Hyaline: a long-running op on ANY slot pins
        // even garbage retired while it was idle-epoch-equal. Contrast
        // with Hyaline's per-slot lists.
        let dom = Ebr::new(2);
        dom.enter(0); // straggler at epoch 0
        let freed = Arc::new(AtomicBool::new(false));
        let f = freed.clone();
        dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
        // One advance is possible (straggler is at the current epoch)…
        dom.flush();
        // …but the second advance is pinned, so the object stays.
        assert!(!freed.load(Ordering::SeqCst));
        dom.leave(0);
        dom.flush();
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn leave_amortizes_epoch_advancement() {
        let dom = Ebr::new(2);
        dom.enter(0);
        let freed = Arc::new(AtomicBool::new(false));
        let f = freed.clone();
        dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
        // retire advanced once (0→1); this exit is tick 0 and advances
        // again (1→2). The epoch-0 garbage sits one advance away.
        dom.leave(0);
        assert!(!freed.load(Ordering::SeqCst));
        // The next ADVANCE_PERIOD-1 exits are deferred: no slot scan,
        // no advance — the garbage stays put even though nothing pins
        // the epoch any more.
        for _ in 0..ADVANCE_PERIOD - 1 {
            dom.enter(0);
            dom.leave(0);
            assert!(!freed.load(Ordering::SeqCst));
        }
        // The ADVANCE_PERIOD-th exit pays for the scan and frees.
        dom.enter(0);
        dom.leave(0);
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_drains_limbo() {
        let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let dom = Ebr::new(2);
            for _ in 0..10 {
                let c = count.clone();
                dom.retire(Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_stress_no_premature_free() {
        use std::sync::atomic::AtomicUsize;
        const THREADS: usize = 4;
        const OBJS: usize = 1000;
        let dom = Arc::new(Ebr::new(THREADS));
        let live = Arc::new((0..OBJS).map(|_| AtomicBool::new(true)).collect::<Vec<_>>());
        let current = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for t in 0..THREADS - 1 {
            let dom = dom.clone();
            let live = live.clone();
            let current = current.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    dom.enter(t);
                    let idx = current.load(Ordering::Acquire);
                    std::hint::spin_loop();
                    assert!(
                        live[idx].load(Ordering::Acquire),
                        "object {idx} freed while reader inside critical section"
                    );
                    dom.leave(t);
                }
            }));
        }
        for next in 1..OBJS {
            let prev = current.swap(next, Ordering::AcqRel);
            let live2 = live.clone();
            dom.retire(Box::new(move || {
                live2[prev].store(false, Ordering::Release);
            }));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        dom.flush();
        dom.flush();
        assert_eq!(dom.stats().delta(), 0);
    }

    /// Regression: `try_advance` used to CAS the global epoch to `e+1`
    /// and only then lock bucket `(e+1) % 3` to drain it. A `retire`
    /// that read the new epoch in that gap pushed its object into the
    /// bucket being drained, which freed it at once — while operations
    /// that could still reach it were active. Here the retiring thread
    /// stays pinned across its own retire, so its object must survive
    /// until it leaves, however the other thread's advances interleave.
    #[test]
    fn retire_racing_an_advance_waits_for_its_own_pin() {
        let dom = Arc::new(Ebr::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let advancer = {
            let (dom, stop) = (dom.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    dom.flush();
                }
            })
        };
        let mut early = 0u64;
        for _ in 0..20_000 {
            dom.enter(0);
            let freed = Arc::new(AtomicBool::new(false));
            let f = freed.clone();
            dom.retire(Box::new(move || f.store(true, Ordering::SeqCst)));
            for _ in 0..64 {
                std::hint::spin_loop();
            }
            early += u64::from(freed.load(Ordering::SeqCst));
            dom.leave(0);
        }
        stop.store(true, Ordering::Relaxed);
        advancer.join().expect("advancer thread panicked");
        assert_eq!(
            early, 0,
            "objects freed while their retirer was still pinned"
        );
    }
}
