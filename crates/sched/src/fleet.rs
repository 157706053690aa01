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
//! Both scheduler modes compose through the one [`Clock`] handed to
//! [`FleetScheduler::new`]: a wall clock runs threaded worker groups
//! (production / bench); a [`Clock::Virtual`] puts every group on one
//! shared [`SimClock`](crate::SimClock) and lets a harness drive the
//! whole fleet one deterministic step at a time — the earliest due
//! deadline *across shards* runs next, exactly as a machine-global
//! randomizer would interleave.

use crate::budget::BudgetController;
use crate::scheduler::{CycleReport, SchedConfig, Scheduler};
use crate::stats::SchedStats;
use crate::Clock;
use adelie_core::ModuleRegistry;
use adelie_kernel::Kernel;
use std::sync::Arc;

/// One shard's scheduling description: its kernel, its registry, and
/// the modules its group drives.
pub type ShardSched = (Arc<Kernel>, Arc<ModuleRegistry>, Vec<String>);

/// Per-shard worker groups under one global budget.
pub struct FleetScheduler {
    groups: Vec<Scheduler>,
    budget: Arc<BudgetController>,
    /// Every group's config, kept for [`FleetScheduler::replace_group`].
    config: SchedConfig,
    /// The one timeline every group and the budget run on.
    clock: Clock,
}

impl FleetScheduler {
    /// Start one group per shard on `clock`, all under one global
    /// budget capped at `config.max_cpu_frac` of the fleet's total
    /// CPUs. Each group is a [`Scheduler::new`] pool: a wall clock
    /// starts `config.workers` threads per shard, a [`Clock::Virtual`]
    /// starts none and is driven by [`FleetScheduler::step`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, a named module is missing or not
    /// re-randomizable, or `config.workers` is zero.
    pub fn new(shards: Vec<ShardSched>, config: SchedConfig, clock: Clock) -> FleetScheduler {
        assert!(!shards.is_empty(), "fleet scheduler needs shards");
        // The modeled machine is the union of the shards: the global
        // cap is a fraction of *total* fleet CPUs.
        let total_cpus: usize = shards.iter().map(|(k, _, _)| k.config.cpus).sum();
        let budget = Arc::new(BudgetController::new(
            total_cpus.max(1),
            config.max_cpu_frac,
            clock.clone(),
        ));
        let mut fleet = FleetScheduler {
            groups: Vec::with_capacity(shards.len()),
            budget,
            config,
            clock,
        };
        for (kernel, registry, modules) in shards {
            let names: Vec<&str> = modules.iter().map(String::as_str).collect();
            let group = fleet.build_group(kernel, registry, &names);
            fleet.groups.push(group);
        }
        fleet
    }

    fn build_group(
        &self,
        kernel: Arc<Kernel>,
        registry: Arc<ModuleRegistry>,
        modules: &[&str],
    ) -> Scheduler {
        Scheduler::build(
            kernel,
            registry,
            modules,
            &self.config,
            self.clock.clone(),
            Some(self.budget.clone()),
        )
    }

    /// The shared global budget.
    pub fn budget(&self) -> &Arc<BudgetController> {
        &self.budget
    }

    /// Replace shard `shard`'s group with a fresh one over `modules` —
    /// the scheduling half of crash recovery, after the fleet rebuilt
    /// the shard's modules from the install catalog. The old group is
    /// dropped (stopped, its call observer removed) with its telemetry;
    /// the replacement runs under the fleet's config, on its clock and
    /// its global budget.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or a named module is missing
    /// or not re-randomizable.
    pub fn replace_group(
        &mut self,
        shard: usize,
        kernel: Arc<Kernel>,
        registry: Arc<ModuleRegistry>,
        modules: &[&str],
    ) {
        self.groups[shard] = self.build_group(kernel, registry, modules);
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
