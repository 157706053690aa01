//! The global CPU-budget controller.
//!
//! Continuous re-randomization trades CPU for security (the paper's
//! Fig. 5–9 overhead story). When many modules cycle aggressively, the
//! randomizer pool can eat a real fraction of the machine. The
//! controller caps the fraction of *modeled* CPU (the `kernel.percpu`
//! machine of `cpus` cores) the pool may spend, and applies two forms
//! of backpressure:
//!
//! * **throttle** — after a cycle, the worker pushes the module's next
//!   deadline out far enough that cumulative spend falls back under the
//!   cap (a hard bound),
//! * **pressure** — the spend/budget ratio is fed into [`Policy::
//!   Adaptive`](crate::Policy::Adaptive), which stretches periods
//!   *before* the hard bound engages (a soft, anticipatory signal).
//!
//! Spend is measured against time on the owning scheduler's
//! [`Clock`]: the wall clock for a threaded pool, the harness's
//! [`SimClock`](crate::SimClock) for a stepped one, so a stepped pool's
//! throttling is as deterministic as the rest of its timeline.

use crate::clock::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Tracks randomizer-pool CPU spend against a budget.
pub struct BudgetController {
    cpus: usize,
    /// Cap as a fraction of total modeled CPU (`cpus` cores);
    /// `f64::INFINITY` disables the budget.
    max_frac: f64,
    /// The timeline whose t = 0 starts the budget.
    clock: Clock,
    spent_ns: AtomicU64,
}

impl BudgetController {
    /// A controller for a `cpus`-core machine capping randomizer spend
    /// at `max_frac` of total CPU (`0.05` = 5% of the machine), with
    /// time measured on `clock` — its scheduler's, so the budget runs
    /// on the same timeline as the deadlines. Pass `f64::INFINITY` (or
    /// anything non-finite / non-positive) for "uncapped".
    pub fn new(cpus: usize, max_frac: f64, clock: Clock) -> BudgetController {
        let max_frac = if max_frac.is_finite() && max_frac > 0.0 {
            max_frac
        } else {
            f64::INFINITY
        };
        BudgetController {
            cpus: cpus.max(1),
            max_frac,
            clock,
            spent_ns: AtomicU64::new(0),
        }
    }

    /// Whether a cap is configured at all.
    pub fn is_capped(&self) -> bool {
        self.max_frac.is_finite()
    }

    /// Account one cycle's CPU time.
    pub fn record(&self, spent: Duration) {
        self.spent_ns
            .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total randomizer CPU spent so far.
    pub fn spent(&self) -> Duration {
        Duration::from_nanos(self.spent_ns.load(Ordering::Relaxed))
    }

    /// Spend/budget ratio at wall-time `wall` (1.0 = exactly at cap;
    /// 0.0 when uncapped).
    pub fn pressure_at(&self, wall: Duration) -> f64 {
        if !self.is_capped() {
            return 0.0;
        }
        let budget = wall.as_secs_f64() * self.cpus as f64 * self.max_frac;
        if budget <= 0.0 {
            // No time has passed: any spend is infinite pressure, none
            // is none.
            return if self.spent_ns.load(Ordering::Relaxed) > 0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.spent().as_secs_f64() / budget
    }

    /// Spend/budget ratio now, on the controller's clock.
    pub fn pressure(&self) -> f64 {
        self.pressure_at(self.now())
    }

    fn now(&self) -> Duration {
        Duration::from_nanos(self.clock.now_ns())
    }

    /// How long the pool must stay idle, measured from wall-time `wall`,
    /// for cumulative spend to drop back to the cap. Zero while under
    /// budget.
    pub fn throttle_at(&self, wall: Duration) -> Duration {
        if !self.is_capped() {
            return Duration::ZERO;
        }
        // Find the wall time at which `spent == wall · cpus · max_frac`.
        let needed_wall = Duration::from_secs_f64(
            self.spent().as_secs_f64() / (self.cpus as f64 * self.max_frac),
        );
        needed_wall.saturating_sub(wall)
    }

    /// How long the pool must stay idle from *now* (on the controller's
    /// clock) to return under the cap.
    pub fn throttle(&self) -> Duration {
        self.throttle_at(self.now())
    }
}

impl std::fmt::Debug for BudgetController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetController")
            .field("cpus", &self.cpus)
            .field("max_frac", &self.max_frac)
            .field("spent", &self.spent())
            .field("pressure", &self.pressure())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_never_pushes_back() {
        let b = BudgetController::new(4, f64::INFINITY, Clock::wall());
        b.record(Duration::from_secs(1000));
        assert_eq!(b.pressure_at(Duration::from_millis(1)), 0.0);
        assert_eq!(b.throttle_at(Duration::from_millis(1)), Duration::ZERO);
        let zero = BudgetController::new(4, 0.0, Clock::wall());
        assert!(!zero.is_capped(), "non-positive caps mean uncapped");
    }

    #[test]
    fn pressure_is_spend_over_budget() {
        // 2 CPUs at a 25% cap: budget = 0.5 CPU-seconds per wall second.
        let b = BudgetController::new(2, 0.25, Clock::wall());
        b.record(Duration::from_millis(250));
        // After 1 s of wall time the budget is 500 ms: half used.
        assert!((b.pressure_at(Duration::from_secs(1)) - 0.5).abs() < 1e-9);
        // After 250 ms of wall time the budget is 125 ms: 2× over.
        assert!((b.pressure_at(Duration::from_millis(250)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn throttle_returns_exactly_to_cap() {
        let b = BudgetController::new(1, 0.5, Clock::wall());
        b.record(Duration::from_millis(400));
        // 400 ms spent at a 0.5 cap needs 800 ms of wall time.
        assert_eq!(
            b.throttle_at(Duration::from_millis(300)),
            Duration::from_millis(500)
        );
        // Already past the break-even point: no throttle.
        assert_eq!(b.throttle_at(Duration::from_secs(1)), Duration::ZERO);
    }

    /// On a virtual clock, pressure and throttle move only when the
    /// clock does.
    #[test]
    fn virtual_clock_drives_pressure_and_throttle() {
        let sim = crate::SimClock::new();
        let b = BudgetController::new(1, 0.5, Clock::Virtual(sim.clone()));
        b.record(Duration::from_millis(400));
        assert_eq!(b.pressure(), f64::INFINITY, "spend at t = 0");
        assert_eq!(b.throttle(), Duration::from_millis(800));
        sim.advance(Duration::from_millis(400));
        assert!((b.pressure() - 2.0).abs() < 1e-9);
        assert_eq!(b.throttle(), Duration::from_millis(400));
        sim.advance(Duration::from_millis(400));
        assert!((b.pressure() - 1.0).abs() < 1e-9);
        assert_eq!(b.throttle(), Duration::ZERO);
    }
}
