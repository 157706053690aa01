//! Per-module scheduler telemetry: lock-free cycle-latency histograms,
//! missed-deadline and failure counters, and the aggregate
//! [`SchedStats`] snapshot surfaced next to the artifact's dmesg block.

use crate::health::HealthState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets (bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds; 48 buckets cover ~3 days).
const BUCKETS: usize = 48;

/// A concurrent power-of-two latency histogram.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, sample: Duration) {
        let ns = (sample.as_nanos() as u64).max(1);
        let idx = (63 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let percentile = |p: f64| -> Duration {
            if count == 0 {
                return Duration::ZERO;
            }
            let rank = ((count as f64 * p).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of the bucket: pessimistic but stable.
                    return Duration::from_nanos(2u64.saturating_pow(i as u32 + 1));
                }
            }
            Duration::from_nanos(u64::MAX)
        };
        LatencySnapshot {
            count,
            mean: Duration::from_nanos(sum_ns.checked_div(count).unwrap_or(0)),
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
            max: Duration::from_nanos(self.max_ns.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Summary of one histogram.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (bucket upper bound).
    pub p50: Duration,
    /// 90th percentile (bucket upper bound).
    pub p90: Duration,
    /// 99th percentile (bucket upper bound).
    pub p99: Duration,
    /// Largest sample, exact.
    pub max: Duration,
}

/// One module's view in a [`SchedStats`] snapshot.
#[derive(Clone, Debug)]
pub struct ModuleSchedStats {
    /// Module name.
    pub name: String,
    /// Policy label (`fixed`, `jittered`, `adaptive`).
    pub policy: &'static str,
    /// Completed cycles.
    pub cycles: u64,
    /// Failed cycles (module kept running at its old base).
    pub failures: u64,
    /// Cycles that started more than one period late.
    pub missed_deadlines: u64,
    /// Cycles whose `update_pointers` callback failed after the move
    /// committed: the module runs at its new base but may still hold
    /// run-time pointers into the retired layout (previously dropped
    /// silently; see `LoadedModule::pointer_refresh_failures`).
    pub pointer_refresh_failures: u64,
    /// Period the policy currently prescribes.
    pub current_period: Duration,
    /// Outermost calls observed entering this module since the
    /// scheduler started tracking it (cumulative; rates derive from it).
    pub calls: u64,
    /// Last measured call rate.
    pub calls_per_sec: f64,
    /// Gadget density (gadgets/KiB of movable text), scanned at pool
    /// start.
    pub exposure: f64,
    /// Cycle-latency distribution.
    pub latency: LatencySnapshot,
    /// Supervision state (Healthy / Degraded / Quarantined).
    pub health: HealthState,
    /// Consecutive failed cycles right now (0 after any success).
    pub failure_streak: u32,
    /// Times this module entered quarantine.
    pub quarantines: u64,
    /// Un-quarantine probes attempted (budget-exempt cycles).
    pub probes: u64,
    /// Times a success pulled the module back to Healthy.
    pub recoveries: u64,
    /// Cycles whose period was stretched by graceful degradation.
    pub period_stretches: u64,
    /// Rate-limited "cycle failed" lines swallowed for this module.
    pub suppressed_logs: u64,
}

/// Aggregate scheduler counters (the `SchedStats` of the issue): what
/// [`log_stats`](crate::Scheduler::log_stats) prints and what benches
/// assert on.
#[derive(Clone, Debug)]
pub struct SchedStats {
    /// Completed module-cycles, summed over modules.
    pub cycles: u64,
    /// Failed cycles, summed over modules.
    pub failures: u64,
    /// Missed deadlines, summed over modules.
    pub missed_deadlines: u64,
    /// Committed moves whose pointer-refresh callback failed, summed
    /// over modules (0 for a healthy fleet).
    pub pointer_refresh_failures: u64,
    /// Cumulative wall time spent inside cycles (all workers).
    pub busy: Duration,
    /// Budget pressure at snapshot time (0 when uncapped).
    pub cpu_pressure: f64,
    /// Quarantine entries, summed over modules (0 for a healthy fleet).
    pub quarantines: u64,
    /// Un-quarantine probes, summed over modules.
    pub probes: u64,
    /// Recoveries back to Healthy, summed over modules.
    pub recoveries: u64,
    /// Graceful-degradation period stretches, summed over modules.
    pub period_stretches: u64,
    /// Rate-limited failure logs swallowed, summed over modules.
    pub suppressed_logs: u64,
    /// Per-module breakdown.
    pub modules: Vec<ModuleSchedStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 100_000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, Duration::from_micros(100_000));
        assert!(s.p50 >= Duration::from_micros(80) && s.p50 <= Duration::from_micros(300));
        assert!(s.p99 >= Duration::from_micros(100_000));
        assert!(s.mean > Duration::from_micros(100) && s.mean < Duration::from_micros(100_000));
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, Duration::ZERO);
        assert_eq!(s.mean, Duration::ZERO);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 1..=1000u64 {
                        h.record(Duration::from_nanos(i));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }
}
