//! Fleet scheduling: one randomizer worker group per kernel shard,
//! every group under **one global CPU budget**.
//!
//! A [`ShardedKernel`](adelie_kernel::ShardedKernel) fleet has no
//! shared deadline heap — sharing one would re-serialize exactly what
//! sharding un-serialized. Instead each shard gets its own
//! [`Scheduler`] (own heap, own workers, own call-rate observer on its
//! own kernel), and the only global object is the
//! [`BudgetController`]: every group records its cycle spend there, so
//! pressure and throttling reflect what the *whole machine* is burning
//! on re-randomization, and a hot shard automatically stretches every
//! shard's adaptive periods.
//!
//! Both scheduler modes compose: [`FleetScheduler::spawn`] runs
//! threaded worker groups on the wall clock (production / bench);
//! [`FleetScheduler::spawn_stepped`] puts every group on one shared
//! [`SimClock`] and lets a harness drive the whole fleet one
//! deterministic step at a time — the earliest due deadline *across
//! shards* runs next, exactly as a machine-global randomizer would
//! interleave.

use crate::budget::BudgetController;
use crate::policy::Policy;
use crate::scheduler::{CycleReport, SchedConfig, Scheduler};
use crate::stats::SchedStats;
use crate::{Clock, SimClock};
use adelie_core::ModuleRegistry;
use adelie_kernel::Kernel;
use std::sync::Arc;
use std::time::Duration;

/// One shard's scheduling description: its kernel, its registry, and
/// the `(module, policy)` pairs its group drives.
pub type ShardSched = (Arc<Kernel>, Arc<ModuleRegistry>, Vec<(String, Policy)>);

/// Per-shard worker groups under one global budget.
pub struct FleetScheduler {
    groups: Vec<Scheduler>,
    budget: Arc<BudgetController>,
}

impl FleetScheduler {
    fn global_budget(
        shards: &[ShardSched],
        config: &SchedConfig,
        clock: Clock,
    ) -> Arc<BudgetController> {
        // The modeled machine is the union of the shards: the global
        // cap is a fraction of *total* fleet CPUs.
        let total_cpus: usize = shards.iter().map(|(k, _, _)| k.config.cpus).sum();
        Arc::new(BudgetController::new(
            total_cpus.max(1),
            config.max_cpu_frac,
            clock,
        ))
    }

    /// Start one threaded worker group per shard (production shape).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, a named module is missing or not
    /// re-randomizable, or `config.workers` is zero.
    pub fn spawn(shards: Vec<ShardSched>, config: SchedConfig) -> FleetScheduler {
        assert!(!shards.is_empty(), "fleet scheduler needs shards");
        let budget = FleetScheduler::global_budget(&shards, &config, Clock::wall());
        let groups = shards
            .into_iter()
            .map(|(kernel, registry, modules)| {
                let with_policies: Vec<(&str, Policy)> = modules
                    .iter()
                    .map(|(n, p)| (n.as_str(), p.clone()))
                    .collect();
                Scheduler::spawn_with_policies_shared(
                    kernel,
                    registry,
                    &with_policies,
                    config.clone(),
                    Some(budget.clone()),
                )
            })
            .collect();
        FleetScheduler { groups, budget }
    }

    /// Start one **stepped** group per shard, all on `clock` — the
    /// deterministic fleet `adelie-testkit` verifies.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, a named module is missing or not
    /// re-randomizable, or `config.workers` is zero.
    pub fn spawn_stepped(
        shards: Vec<ShardSched>,
        config: SchedConfig,
        clock: Arc<SimClock>,
        cycle_cost: Duration,
    ) -> FleetScheduler {
        assert!(!shards.is_empty(), "fleet scheduler needs shards");
        let budget = FleetScheduler::global_budget(&shards, &config, Clock::Virtual(clock.clone()));
        let groups = shards
            .into_iter()
            .map(|(kernel, registry, modules)| {
                let with_policies: Vec<(&str, Policy)> = modules
                    .iter()
                    .map(|(n, p)| (n.as_str(), p.clone()))
                    .collect();
                Scheduler::spawn_stepped_shared(
                    kernel,
                    registry,
                    &with_policies,
                    config.clone(),
                    clock.clone(),
                    cycle_cost,
                    Some(budget.clone()),
                )
            })
            .collect();
        FleetScheduler { groups, budget }
    }

    /// The shared global budget.
    pub fn budget(&self) -> &Arc<BudgetController> {
        &self.budget
    }

    /// Replace shard `shard`'s stepped group with a fresh one over
    /// `modules` — the scheduling half of crash recovery, after the
    /// fleet rebuilt the shard's modules from the install catalog. The
    /// old group is halted *first* (its kernel call observer is a
    /// single slot; the new group re-installs it), its telemetry is
    /// discarded with it, and the replacement joins the same global
    /// budget and the same virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, a named module is missing or
    /// not re-randomizable, or `config.workers` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn replace_group_stepped(
        &mut self,
        shard: usize,
        kernel: Arc<Kernel>,
        registry: Arc<ModuleRegistry>,
        modules: &[(String, Policy)],
        config: SchedConfig,
        clock: Arc<SimClock>,
        cycle_cost: Duration,
    ) {
        self.groups[shard].halt();
        let with_policies: Vec<(&str, Policy)> = modules
            .iter()
            .map(|(n, p)| (n.as_str(), p.clone()))
            .collect();
        self.groups[shard] = Scheduler::spawn_stepped_shared(
            kernel,
            registry,
            &with_policies,
            config,
            clock,
            cycle_cost,
            Some(self.budget.clone()),
        );
    }

    /// Number of shard groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Never true (a fleet scheduler has ≥ 1 group).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Shard `i`'s group.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn group(&self, i: usize) -> &Scheduler {
        &self.groups[i]
    }

    /// The earliest pending deadline across all groups, as
    /// `(shard, deadline_ns)`. Ties go to the lowest shard index
    /// (deterministic).
    pub fn peek_deadline_ns(&self) -> Option<(usize, u64)> {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.peek_deadline_ns().map(|d| (d, i)))
            .min()
            .map(|(d, i)| (i, d))
    }

    /// (Step mode) run the fleet-wide earliest due entry; returns the
    /// shard it belonged to and its report. `None` when every heap is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics when called on a threaded fleet.
    pub fn step(&self) -> Option<(usize, CycleReport)> {
        self.step_choice(0)
    }

    /// (Step mode) like [`step`](FleetScheduler::step), but let the
    /// shard that owns the fleet-wide earliest deadline pick among the
    /// entries its `workers`-wide pool could legally run next
    /// ([`Scheduler::step_choice`]). Shards never reorder against each
    /// other: each group has its own pool.
    ///
    /// # Panics
    ///
    /// Panics when called on a threaded fleet.
    pub fn step_choice(&self, rank: usize) -> Option<(usize, CycleReport)> {
        let (shard, _) = self.peek_deadline_ns()?;
        self.groups[shard].step_choice(rank).map(|r| (shard, r))
    }

    /// Completed cycles, summed over every shard group.
    pub fn cycles(&self) -> u64 {
        self.groups.iter().map(Scheduler::cycles).sum()
    }

    /// Failed cycles, summed over every shard group.
    pub fn failures(&self) -> u64 {
        self.groups.iter().map(Scheduler::failures).sum()
    }

    /// Per-shard telemetry snapshots, indexed by shard.
    pub fn stats(&self) -> Vec<SchedStats> {
        self.groups.iter().map(Scheduler::stats).collect()
    }

    /// Stop every group (waiting out in-flight cycles) and return the
    /// final per-shard snapshots.
    pub fn stop(self) -> Vec<SchedStats> {
        self.groups.into_iter().map(Scheduler::stop).collect()
    }
}

impl std::fmt::Debug for FleetScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetScheduler")
            .field("groups", &self.groups.len())
            .field("cycles", &self.cycles())
            .field("budget", &self.budget)
            .finish()
    }
}
