//! Per-module supervision: the health state machine behind quarantine.
//!
//! Every module the pool drives carries a [`ModuleHealth`] record.
//! Failed cycles feed a streak counter; the state machine never looks
//! at *why* a cycle failed (that is the report's
//! [`RerandError`](adelie_core::RerandError)). The streak drives
//! Healthy → Degraded → Quarantined transitions with deterministic
//! exponential backoff on the retry period. A quarantined
//! module is *not* cycled on its policy schedule any more: the pool
//! only sends periodic **un-quarantine probes** (cheap, budget-exempt
//! attempts) whose success snaps the module back to Healthy.
//!
//! The transition functions are pure (no clocks, no RNG) so they can be
//! property-tested exhaustively; jitter is applied by the scheduler on
//! top of the deterministic [`backoff_multiplier`], drawn from the
//! kernel's seeded RNG only on failure paths so clean runs consume an
//! unchanged RNG stream (the fleet soak's byte-identity gate).

use std::fmt;

/// Supervision state of one module in the pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Cycling normally on its policy schedule.
    Healthy,
    /// A short failure streak: still cycling, but on exponentially
    /// backed-off periods.
    Degraded,
    /// A sustained failure streak: removed from normal scheduling.
    /// Only budget-exempt probes run, at the maximum backoff period.
    Quarantined,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
        })
    }
}

/// Supervision knobs, carried on `SchedConfig`.
#[derive(Clone, Debug)]
pub struct SupervisionConfig {
    /// Consecutive failures before Healthy → Degraded (and backoff
    /// starts doubling).
    pub degrade_after: u32,
    /// Consecutive failures before Degraded → Quarantined.
    pub quarantine_after: u32,
    /// Cap on the backoff exponent: the retry period multiplier never
    /// exceeds `2^backoff_max_exp`.
    pub backoff_max_exp: u32,
    /// Jitter fraction applied on top of the deterministic backoff
    /// (`period ± period × jitter × u`, `u` drawn from the kernel's
    /// seeded RNG on failure paths only). Decorrelates retry storms of
    /// many modules quarantined by one fault burst.
    pub backoff_jitter: f64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            degrade_after: 2,
            quarantine_after: 5,
            backoff_max_exp: 6,
            backoff_jitter: 0.25,
        }
    }
}

/// Deterministic exponential backoff: the factor the next retry period
/// is stretched by at a failure streak of `streak`.
///
/// Below `degrade_after` the module retries at its normal period
/// (factor 1). From there each further failure doubles the factor,
/// saturating at `2^backoff_max_exp` — monotone non-decreasing in
/// `streak` (property-tested).
pub fn backoff_multiplier(cfg: &SupervisionConfig, streak: u32) -> u64 {
    if streak < cfg.degrade_after {
        return 1;
    }
    let exp = (streak - cfg.degrade_after + 1).min(cfg.backoff_max_exp);
    1u64 << exp.min(63)
}

/// What a health transition did, so the scheduler can log entry/exit
/// edges exactly once instead of re-deriving them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthEvent {
    /// No state change.
    None,
    /// Entered Degraded (first backoff).
    Degraded,
    /// Entered Quarantined.
    Quarantined,
    /// Left Degraded or Quarantined for Healthy on a success.
    Recovered,
}

/// The per-module supervision record (pure state machine — the
/// scheduler holds it under the entry's own mutex).
#[derive(Clone, Debug)]
pub struct ModuleHealth {
    /// Current state.
    pub state: HealthState,
    /// Consecutive failed cycles (0 after any success).
    pub streak: u32,
    /// Times this module entered Quarantined.
    pub quarantines: u64,
    /// Un-quarantine probes attempted.
    pub probes: u64,
    /// Times a success pulled the module out of Degraded/Quarantined.
    pub recoveries: u64,
}

impl Default for ModuleHealth {
    fn default() -> Self {
        ModuleHealth {
            state: HealthState::Healthy,
            streak: 0,
            quarantines: 0,
            probes: 0,
            recoveries: 0,
        }
    }
}

impl ModuleHealth {
    /// Record a successful cycle: any streak resets, and a non-Healthy
    /// module recovers.
    pub fn on_success(&mut self) -> HealthEvent {
        self.streak = 0;
        if self.state == HealthState::Healthy {
            return HealthEvent::None;
        }
        self.state = HealthState::Healthy;
        self.recoveries += 1;
        HealthEvent::Recovered
    }

    /// Record a failed cycle: the streak grows and may cross the
    /// Degraded / Quarantined thresholds.
    pub fn on_failure(&mut self, cfg: &SupervisionConfig) -> HealthEvent {
        self.streak = self.streak.saturating_add(1);
        let next = if self.streak >= cfg.quarantine_after {
            HealthState::Quarantined
        } else if self.streak >= cfg.degrade_after {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        if next == self.state {
            return HealthEvent::None;
        }
        self.state = next;
        match next {
            HealthState::Degraded => HealthEvent::Degraded,
            HealthState::Quarantined => {
                self.quarantines += 1;
                HealthEvent::Quarantined
            }
            HealthState::Healthy => unreachable!("failures never improve health"),
        }
    }

    /// The backoff factor for this module's next deadline, given its
    /// current streak. Quarantined modules always wait the maximum.
    pub fn backoff(&self, cfg: &SupervisionConfig) -> u64 {
        match self.state {
            HealthState::Quarantined => 1u64 << cfg.backoff_max_exp.min(63),
            _ => backoff_multiplier(cfg, self.streak),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_drive_the_state_machine() {
        let cfg = SupervisionConfig::default();
        let mut h = ModuleHealth::default();
        assert_eq!(h.on_failure(&cfg), HealthEvent::None); // streak 1
        assert_eq!(h.state, HealthState::Healthy);
        assert_eq!(h.on_failure(&cfg), HealthEvent::Degraded); // streak 2
        assert_eq!(h.on_failure(&cfg), HealthEvent::None); // streak 3
        assert_eq!(h.on_failure(&cfg), HealthEvent::None); // streak 4
        assert_eq!(h.on_failure(&cfg), HealthEvent::Quarantined); // streak 5
        assert_eq!(h.state, HealthState::Quarantined);
        assert_eq!(h.quarantines, 1);
        assert_eq!(h.on_failure(&cfg), HealthEvent::None); // stays put
        assert_eq!(h.on_success(), HealthEvent::Recovered);
        assert_eq!(h.state, HealthState::Healthy);
        assert_eq!(h.streak, 0);
        assert_eq!(h.recoveries, 1);
    }

    #[test]
    fn success_from_healthy_is_a_noop_event() {
        let mut h = ModuleHealth::default();
        assert_eq!(h.on_success(), HealthEvent::None);
        assert_eq!(h.recoveries, 0);
    }

    #[test]
    fn backoff_doubles_then_saturates() {
        let cfg = SupervisionConfig::default();
        assert_eq!(backoff_multiplier(&cfg, 0), 1);
        assert_eq!(backoff_multiplier(&cfg, 1), 1);
        assert_eq!(backoff_multiplier(&cfg, 2), 2);
        assert_eq!(backoff_multiplier(&cfg, 3), 4);
        assert_eq!(backoff_multiplier(&cfg, 4), 8);
        assert_eq!(backoff_multiplier(&cfg, 5), 16);
        assert_eq!(backoff_multiplier(&cfg, 6), 32);
        assert_eq!(backoff_multiplier(&cfg, 7), 64);
        assert_eq!(backoff_multiplier(&cfg, 100), 64);
    }
}
