//! Deterministic fault injection over the re-randomization pipeline.
//!
//! A [`FaultPlan`] is a set of rules, each naming a module (or any
//! module), a [`CycleStage`], and a 0-based cycle *attempt* index. It
//! installs as [`CycleHooks`] on the registry (usually via
//! [`FleetSim`](crate::FleetSim), one plan per shard chained with the
//! shard's layout oracle) and denies the matching stage of the
//! matching attempt — which makes `rerandomize_module` fail there
//! through its normal typed-error and rollback path, exactly as a real
//! mmap/patch/callback failure would.
//! Every injection that actually fired is recorded so tests can assert
//! the plan ran as written.

use adelie_core::{CycleCommit, CycleHooks, CycleStage};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

/// When a rule fires, expressed over a module's 0-based cycle
/// *attempt* index (failed attempts count — that is what makes retry
/// storms plannable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSchedule {
    /// A single attempt.
    At(u64),
    /// `count` consecutive attempts starting at `from` — a correlated
    /// burst (transient backend outage).
    Burst {
        /// First attempt hit.
        from: u64,
        /// Number of consecutive attempts hit.
        count: u64,
    },
    /// Every `period`-th attempt from `from` onward, forever — a
    /// sustained fault storm (`period = 1` fails every attempt).
    Every {
        /// First attempt hit.
        from: u64,
        /// Stride between hits (0 is treated as 1).
        period: u64,
    },
}

impl FaultSchedule {
    /// Whether `attempt` is on the schedule.
    pub fn matches(&self, attempt: u64) -> bool {
        match *self {
            FaultSchedule::At(at) => attempt == at,
            FaultSchedule::Burst { from, count } => attempt >= from && attempt - from < count,
            FaultSchedule::Every { from, period } => {
                attempt >= from && (attempt - from).is_multiple_of(period.max(1))
            }
        }
    }
}

/// One injection rule.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Target module, or `None` for "any module".
    pub module: Option<String>,
    /// Stage to deny.
    pub stage: CycleStage,
    /// Which cycle attempts of the module to hit.
    pub schedule: FaultSchedule,
}

/// A rule that actually fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiredFault {
    /// Module the cycle belonged to.
    pub module: String,
    /// Stage that was denied.
    pub stage: CycleStage,
    /// The module's attempt index at the time.
    pub attempt: u64,
}

/// A deterministic stage-failure injector (see module docs).
#[derive(Default)]
pub struct FaultPlan {
    rules: Mutex<Vec<FaultRule>>,
    /// Cycle attempts seen per module (bumped when a cycle reaches its
    /// `Reserve` stage).
    attempts: Mutex<HashMap<String, u64>>,
    fired: Mutex<Vec<FiredFault>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until rules are added).
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Add a rule: deny `stage` on `module`'s cycles per `schedule`.
    pub fn fail_on(&self, module: &str, stage: CycleStage, schedule: FaultSchedule) {
        self.rules.lock().unwrap().push(FaultRule {
            module: Some(module.to_string()),
            stage,
            schedule,
        });
    }

    /// Add a rule: deny `stage` on `module`'s `attempt`-th cycle.
    pub fn fail_at(&self, module: &str, stage: CycleStage, attempt: u64) {
        self.fail_on(module, stage, FaultSchedule::At(attempt));
    }

    /// Deny `stage` on `count` consecutive attempts of `module`
    /// starting at `from` — a correlated fault burst.
    pub fn fail_burst(&self, module: &str, stage: CycleStage, from: u64, count: u64) {
        self.fail_on(module, stage, FaultSchedule::Burst { from, count });
    }

    /// Add a rule matching any module.
    pub fn fail_any(&self, stage: CycleStage, attempt: u64) {
        self.rules.lock().unwrap().push(FaultRule {
            module: None,
            stage,
            schedule: FaultSchedule::At(attempt),
        });
    }

    /// Injections that actually fired, in order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().unwrap().clone()
    }

    /// Cycle attempts observed for `module`.
    pub fn attempts(&self, module: &str) -> u64 {
        self.attempts
            .lock()
            .unwrap()
            .get(module)
            .copied()
            .unwrap_or(0)
    }
}

impl CycleHooks for FaultPlan {
    fn allow(&self, module: &str, stage: CycleStage) -> bool {
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap();
            let n = attempts.entry(module.to_string()).or_insert(0);
            if stage == CycleStage::Reserve {
                *n += 1;
            }
            n.saturating_sub(1)
        };
        let denied = self.rules.lock().unwrap().iter().any(|r| {
            r.stage == stage
                && r.schedule.matches(attempt)
                && r.module.as_deref().is_none_or(|m| m == module)
        });
        if denied {
            self.fired.lock().unwrap().push(FiredFault {
                module: module.to_string(),
                stage,
                attempt,
            });
        }
        !denied
    }

    fn committed(&self, _commit: &CycleCommit<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_cover_their_attempts() {
        assert!(FaultSchedule::At(3).matches(3));
        assert!(!FaultSchedule::At(3).matches(4));
        let burst = FaultSchedule::Burst { from: 2, count: 3 };
        let hits: Vec<u64> = (0..8).filter(|&a| burst.matches(a)).collect();
        assert_eq!(hits, vec![2, 3, 4]);
        let storm = FaultSchedule::Every { from: 1, period: 3 };
        let hits: Vec<u64> = (0..10).filter(|&a| storm.matches(a)).collect();
        assert_eq!(hits, vec![1, 4, 7]);
        // period 0 degrades to 1 (every attempt), not a div-by-zero.
        let every = FaultSchedule::Every { from: 5, period: 0 };
        assert!(every.matches(5) && every.matches(6));
        assert!(!every.matches(4));
    }
}
