//! # adelie-testkit — deterministic fault-injection + adversarial
//! attack-window harness
//!
//! Adelie's security claim is *temporal*: a leaked pointer must be
//! weaponized before the next re-randomization cycle retires the
//! layout it points into. Nothing about that claim is visible to unit
//! tests of individual crates — it lives in the interaction of the
//! loader, the VA allocator, the scheduler, the reclaimer, and the
//! kernel patching step. This crate is the standing verification
//! backbone for that interaction:
//!
//! * [`FleetSim`] — the **deterministic simulation harness**: the
//!   full pipeline on seeded RNGs and a virtual clock
//!   ([`SimClock`](adelie_sched::SimClock)), driven one scheduler step
//!   at a time with traffic injected in proportion to virtual time.
//!   Same config ⇒ byte-identical timeline. `shards: 1` is the
//!   single-kernel scenario; with K shards it runs K seeded kernels
//!   (disjoint VA windows, real placement machinery, per-shard
//!   scheduler groups under one global budget) and adds the
//!   cross-shard invariants — window confinement, no cross-shard VA
//!   overlap, symbol/GOT integrity, and a fleet attacker whose
//!   shard-A leaks must never land in shard B.
//! * [`FaultPlan`] — **fault injection**: deny any pipeline stage
//!   ([`adelie_core::CycleStage`]) of any chosen cycle and
//!   watch the typed-rollback invariants hold (or, for the deliberately
//!   leaky `Retire` stage, watch the oracle catch the leak).
//! * [`Attacker`] — the **adversary**: leaks real code/stack addresses
//!   from the live layout at time `t` and fires them at `t + Δ`
//!   against the real page tables.
//! * [`LayoutOracle`] — the **cross-cycle invariant checker**: no
//!   overlapping placements, no stale mappings, no SMR or stack leaks,
//!   no silently dropped pointer-refresh failures — across any
//!   interleaving the explorer produces.
//! * [`window`] — the **attack-window experiment**: survival curves
//!   per scheduling policy, with the acceptance assertion that
//!   `Adaptive` strictly beats `FixedPeriod` on exposure at equal CPU
//!   budget.
//!
//! # Example
//!
//! ```
//! use adelie_testkit::{FleetSim, FleetSimConfig};
//! use std::time::Duration;
//!
//! let mut sim = FleetSim::new(FleetSimConfig {
//!     shards: 1,
//!     ..FleetSimConfig::default()
//! });
//! sim.run_for(Duration::from_millis(50));
//! assert!(!sim.reports().is_empty());
//! sim.assert_modules_work();
//! sim.verify().assert_clean();
//! ```

mod attacker;
mod fault;
mod fleet;
mod harness;
mod oracle;
pub mod window;
mod workload;

pub use attacker::{Attacker, FireOutcome, Leak, LeakKind};
pub use fault::{FaultPlan, FaultRule, FaultSchedule, FiredFault};
pub use fleet::{FleetSim, FleetSimConfig};
pub use harness::{profile_spec, ModuleProfile};
pub use oracle::{CommitRecord, LayoutOracle, OracleReport};
pub use workload::{Workload, WorkloadConfig, ZipfSampler};

use adelie_core::{CycleCommit, CycleHooks, CycleStage};
use std::sync::Arc;

/// Fan one registry hook slot out to several hook consumers (the fault
/// plan and the oracle always ride together). `allow` consults *every*
/// link — side effects like attempt counting must run even when an
/// earlier link already denied the stage — and denies if any link does.
pub struct HookChain {
    links: Vec<Arc<dyn CycleHooks>>,
}

impl HookChain {
    /// A chain over `links`, consulted in order.
    pub fn new(links: Vec<Arc<dyn CycleHooks>>) -> HookChain {
        HookChain { links }
    }
}

impl CycleHooks for HookChain {
    fn allow(&self, module: &str, stage: CycleStage) -> bool {
        let mut ok = true;
        for link in &self.links {
            ok &= link.allow(module, stage);
        }
        ok
    }

    fn committed(&self, commit: &CycleCommit<'_>) {
        for link in &self.links {
            link.committed(commit);
        }
    }
}
