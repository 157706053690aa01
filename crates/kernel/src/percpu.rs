//! Per-CPU bookkeeping: thread→CPU assignment and CPU-time accounting.
//!
//! Like Linux, any thread may enter the kernel; each OS thread is pinned
//! to a simulated CPU on first entry (round-robin). Busy time is
//! accumulated per CPU so benchmarks can report utilization over a
//! modeled `cpus`-core machine, the way the paper's figures report "CPU
//! usage across all 20 cores".

use adelie_vmem::TlbStats;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

thread_local! {
    static CPU_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Shared accumulators for one CPU's TLB counters. Each `Vm` owns a
/// private `Tlb` whose stats die with it; CPUs publish deltas here at
/// outermost call exit so benches and the fleet can report hit rates
/// without keeping every `Vm` alive.
#[derive(Default)]
struct TlbCounters {
    hits: AtomicU64,
    micro_hits: AtomicU64,
    misses: AtomicU64,
    flushes: AtomicU64,
    switches: AtomicU64,
    switch_flushes: AtomicU64,
    horizon_flushes: AtomicU64,
    partial_flushes: AtomicU64,
    entries_invalidated: AtomicU64,
    evictions: AtomicU64,
}

/// Per-CPU state holder.
pub struct PerCpu {
    cpus: usize,
    next: AtomicUsize,
    busy_ns: Vec<AtomicU64>,
    tlb: Vec<TlbCounters>,
    boot: Instant,
}

impl PerCpu {
    /// Create state for a machine with `cpus` simulated CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: usize) -> PerCpu {
        assert!(cpus > 0);
        PerCpu {
            cpus,
            next: AtomicUsize::new(0),
            busy_ns: (0..cpus).map(|_| AtomicU64::new(0)).collect(),
            tlb: (0..cpus).map(|_| TlbCounters::default()).collect(),
            boot: Instant::now(),
        }
    }

    /// Number of simulated CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// The calling thread's CPU id, assigned round-robin on first use.
    ///
    /// The sticky thread→CPU assignment is process-wide (one thread is
    /// one "hardware thread" no matter how many simulated kernels it
    /// enters), so the raw id may come from a kernel with *more* CPUs
    /// than this one — fleet shards are routinely booted smaller than
    /// the machine that spawned them. The id is therefore folded into
    /// this kernel's CPU count, like `pop_stack_this_cpu` folds pool
    /// indices, instead of handing out an index that would overflow
    /// [`PerCpu::account`].
    pub fn current(&self) -> usize {
        CPU_ID.with(|c| {
            if let Some(id) = c.get() {
                return id % self.cpus;
            }
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            c.set(Some(id));
            id % self.cpus
        })
    }

    /// Pin the calling thread to a specific CPU (benchmark setup).
    pub fn pin(&self, cpu: usize) {
        assert!(cpu < self.cpus);
        CPU_ID.with(|c| c.set(Some(cpu)));
    }

    /// Account `busy` time to `cpu`. Out-of-range ids (a sticky thread
    /// id minted by a bigger kernel) fold instead of panicking.
    pub fn account(&self, cpu: usize, busy: Duration) {
        self.busy_ns[cpu % self.cpus].fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total busy nanoseconds across all CPUs.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Publish a TLB-counter delta for `cpu` (ids fold like
    /// [`PerCpu::account`]). Called by the interpreter at outermost
    /// call exit, so counters cover completed ioctls.
    pub fn record_tlb(&self, cpu: usize, delta: &TlbStats) {
        let c = &self.tlb[cpu % self.cpus];
        // A steady call moves two or three of the ten counters: skip
        // the read-modify-writes that would add 0.
        let add = |counter: &AtomicU64, n: u64| {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&c.hits, delta.hits);
        add(&c.micro_hits, delta.micro_hits);
        add(&c.misses, delta.misses);
        add(&c.flushes, delta.flushes);
        add(&c.switches, delta.switches);
        add(&c.switch_flushes, delta.switch_flushes);
        add(&c.horizon_flushes, delta.horizon_flushes);
        add(&c.partial_flushes, delta.partial_flushes);
        add(&c.entries_invalidated, delta.entries_invalidated);
        add(&c.evictions, delta.evictions);
    }

    /// Sum of all published TLB counters across CPUs.
    pub fn tlb_totals(&self) -> TlbStats {
        let mut out = TlbStats::default();
        for c in &self.tlb {
            out.hits += c.hits.load(Ordering::Relaxed);
            out.micro_hits += c.micro_hits.load(Ordering::Relaxed);
            out.misses += c.misses.load(Ordering::Relaxed);
            out.flushes += c.flushes.load(Ordering::Relaxed);
            out.switches += c.switches.load(Ordering::Relaxed);
            out.switch_flushes += c.switch_flushes.load(Ordering::Relaxed);
            out.horizon_flushes += c.horizon_flushes.load(Ordering::Relaxed);
            out.partial_flushes += c.partial_flushes.load(Ordering::Relaxed);
            out.entries_invalidated += c.entries_invalidated.load(Ordering::Relaxed);
            out.evictions += c.evictions.load(Ordering::Relaxed);
        }
        out
    }

    /// Utilization (0..=1 per CPU, so 0..=cpus overall is normalized to
    /// 0..=1) of the modeled machine between `since_busy_ns` (a previous
    /// [`PerCpu::total_busy_ns`] reading) and now, over `wall` seconds.
    pub fn usage_since(&self, since_busy_ns: u64, wall: Duration) -> f64 {
        let busy = self.total_busy_ns().saturating_sub(since_busy_ns) as f64 / 1e9;
        let capacity = wall.as_secs_f64() * self.cpus as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (busy / capacity).min(1.0)
        }
    }

    /// Seconds since boot (jiffies analog).
    pub fn uptime(&self) -> Duration {
        self.boot.elapsed()
    }
}

impl std::fmt::Debug for PerCpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerCpu")
            .field("cpus", &self.cpus)
            .field("total_busy_ns", &self.total_busy_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_sticky() {
        let p = PerCpu::new(4);
        let a = p.current();
        let b = p.current();
        assert_eq!(a, b, "same thread keeps its CPU");
    }

    #[test]
    fn accounting_and_usage() {
        let p = PerCpu::new(2);
        p.account(0, Duration::from_millis(10));
        p.account(1, Duration::from_millis(10));
        // 20ms busy over 10ms wall on 2 CPUs = 100% usage.
        let u = p.usage_since(0, Duration::from_millis(10));
        assert!((u - 1.0).abs() < 1e-9);
        // Over 100ms wall: 10%.
        let u = p.usage_since(0, Duration::from_millis(100));
        assert!((u - 0.1).abs() < 1e-9);
    }

    /// Regression (fleet-style many-kernel churn): the sticky thread id
    /// is process-wide, so a thread whose id was minted by a big kernel
    /// used to index out of bounds in a smaller kernel's `busy_ns` —
    /// both `current` and `account` must fold into the local CPU count.
    #[test]
    fn ids_fold_across_kernels_of_different_sizes() {
        std::thread::spawn(|| {
            let big = PerCpu::new(16);
            // Burn assignments so this thread's sticky id can exceed 2.
            for _ in 0..5 {
                big.next.fetch_add(1, Ordering::Relaxed);
            }
            let raw = big.current();
            let small = PerCpu::new(2);
            let folded = small.current();
            assert!(folded < 2, "id {raw} must fold into a 2-CPU kernel");
            // Accounting with the *big* kernel's id must not panic.
            small.account(raw, Duration::from_millis(1));
            assert!(small.total_busy_ns() > 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn tlb_deltas_accumulate_and_fold() {
        let p = PerCpu::new(2);
        let delta = TlbStats {
            hits: 10,
            micro_hits: 7,
            misses: 3,
            switches: 4,
            switch_flushes: 2,
            horizon_flushes: 1,
            ..TlbStats::default()
        };
        p.record_tlb(0, &delta);
        p.record_tlb(1, &delta);
        p.record_tlb(5, &delta); // big-kernel sticky id folds to CPU 1
        let t = p.tlb_totals();
        assert_eq!(t.hits, 30);
        assert_eq!(t.micro_hits, 21);
        assert_eq!(t.misses, 9);
        assert_eq!(t.flushes, 0);
        assert_eq!(t.switches, 12);
        assert_eq!(t.switch_flushes, 6);
        assert_eq!(t.horizon_flushes, 3);
    }

    #[test]
    fn distinct_threads_get_distinct_cpus() {
        let p = std::sync::Arc::new(PerCpu::new(8));
        let mut ids = Vec::new();
        for _ in 0..4 {
            let p = p.clone();
            ids.push(std::thread::spawn(move || p.current()).join().unwrap());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }
}
