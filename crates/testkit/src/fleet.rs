//! The deterministic simulation harness.
//!
//! [`FleetSim`] assembles the full pipeline — K seeded kernel shards (a
//! real [`Fleet`] over a [`ShardedKernel`](adelie_kernel::ShardedKernel),
//! modules placed through the pluggable
//! [`ShardPlacement`](adelie_core::ShardPlacement) machinery), loader,
//! VA allocator, scheduler, reclaimer, kernel patching — on **one
//! virtual clock** with seeded RNGs, and drives it one fleet-wide
//! scheduler step at a time. Traffic (real interpreted calls through
//! module wrappers) is injected per shard in proportion to virtual
//! time, so the adaptive policy's call-rate telemetry sees a
//! deterministic load. Same config ⇒ byte-identical timeline, which is
//! what lets the fault-injection and attack-window suites assert exact
//! properties instead of sleeping and hoping. A single-kernel scenario
//! is `FleetSimConfig { shards: 1, .. }`, with one module named
//! `{profile}_s0` per profile. [`FleetSim::run_explored`] reorders the
//! cycles each shard's modeled worker pool could legally run together.
//!
//! Verification adds the cross-shard layer on top of the per-shard
//! [`LayoutOracle`]s (each with its own stale-translation witness TLB,
//! probing only its shard's timeline):
//!
//! * **window confinement** — every committed placement of shard `i`
//!   lands inside shard `i`'s VA window, checked at every step;
//! * **no cross-shard VA overlap** — live spans of distinct shards are
//!   pairwise disjoint at quiescence (windows are disjoint, so a
//!   violation means a placement escaped its window);
//! * **symbol integrity** — every module's exports and fixed-GOT slots
//!   resolve in exactly its owning shard;
//! * **cross-shard leak isolation** — the fleet attacker's leaks from
//!   shard A must *never* land in shard B, at any point in the run,
//!   even while they still land in A ([`FleetSim::attack_cross_shard`]).

use crate::oracle::{LayoutOracle, OracleReport};
use crate::{Attacker, FaultPlan, HookChain};
use adelie_core::{CycleStage, Fleet, LoadedModule, Pinned, RecoveryReport};
use adelie_kernel::{FleetConfig, KernelConfig, ShardedKernel};
use adelie_sched::{
    Clock, CycleReport, FleetScheduler, HealthState, Policy, SchedConfig, SimClock,
    SupervisionConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::harness::{profile_spec, ModuleProfile};

/// A fleet scenario description.
#[derive(Clone, Debug)]
pub struct FleetSimConfig {
    /// Fleet seed (shard seeds derive from it).
    pub seed: u64,
    /// Number of kernel shards.
    pub shards: usize,
    /// Scheduling policy for every module in every shard.
    pub policy: Policy,
    /// Modeled randomizer-pool width *per shard group*.
    pub workers: usize,
    /// Modeled CPU cost charged per cycle on the virtual timeline.
    pub cycle_cost: Duration,
    /// Global (whole-fleet) CPU-budget cap.
    pub max_cpu_frac: f64,
    /// Module profiles replicated into each shard (module `p` of shard
    /// `i` is named `{p.name}_s{i}` and pinned there).
    pub modules_per_shard: Vec<ModuleProfile>,
    /// Health state machine thresholds for every shard group.
    pub supervision: SupervisionConfig,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            seed: 1,
            shards: 2,
            policy: Policy::FixedPeriod(Duration::from_millis(10)),
            workers: 1,
            cycle_cost: Duration::from_micros(100),
            max_cpu_frac: f64::INFINITY,
            modules_per_shard: vec![ModuleProfile::hot("hot"), ModuleProfile::cold("cold")],
            supervision: SupervisionConfig::default(),
        }
    }
}

/// The assembled fleet scenario.
pub struct FleetSim {
    /// The fleet (shard kernels + registries + placement catalog).
    pub fleet: Fleet,
    /// The shared virtual timeline.
    pub clock: Arc<SimClock>,
    /// Per-shard stepped scheduler groups under one global budget.
    pub sched: FleetScheduler,
    /// Per-shard layout oracles (own witness TLB each).
    pub oracles: Vec<Arc<LayoutOracle>>,
    /// Per-shard fault injectors, chained ahead of each oracle.
    pub faults: Vec<Arc<FaultPlan>>,
    /// Per-shard profiles (names already shard-suffixed).
    profiles: Vec<Vec<ModuleProfile>>,
    /// Per-shard module handles, profile order.
    modules: Vec<Vec<Arc<LoadedModule>>>,
    /// Per-shard `(entry va, traffic cursor ns)`, profile order.
    traffic: Vec<Vec<(u64, u64)>>,
    /// Cross-shard violations observed during the run.
    violations: Vec<String>,
    /// Every `(shard, report)` the run stepped, in step order — the
    /// raw material for quarantine/probe invariants and recovery
    /// timing.
    reports: Vec<(usize, CycleReport)>,
    /// `(reports.len() at rebuild, shard)` for every crash recovery:
    /// a rebuilt shard's modules restart Healthy in a fresh group, so
    /// health state observed before the mark must not carry across it.
    recoveries: Vec<(usize, usize)>,
    /// Seeded reorder ranks for [`FleetSim::run_explored`].
    rng: SmallRng,
}

impl FleetSim {
    /// Assemble the fleet: boot K seeded shards, install each profile
    /// into its pinned shard through the real placement machinery,
    /// hook a [`LayoutOracle`] per shard, start one stepped scheduler
    /// group per shard under one global budget.
    ///
    /// # Panics
    ///
    /// Panics if a profile fails to transform, load, or land on its
    /// pinned shard.
    pub fn new(cfg: FleetSimConfig) -> FleetSim {
        assert!(cfg.shards > 0);
        let sharded = ShardedKernel::new(FleetConfig {
            shards: cfg.shards,
            base: KernelConfig {
                seed: cfg.seed,
                ..KernelConfig::default()
            },
        });
        let clock = SimClock::new();

        // Shard-suffixed profiles, pinned placement.
        let profiles: Vec<Vec<ModuleProfile>> = (0..cfg.shards)
            .map(|i| {
                cfg.modules_per_shard
                    .iter()
                    .map(|p| ModuleProfile {
                        name: format!("{}_s{i}", p.name),
                        ..p.clone()
                    })
                    .collect()
            })
            .collect();
        let mut pins = HashMap::new();
        for (i, shard_profiles) in profiles.iter().enumerate() {
            for p in shard_profiles {
                pins.insert(p.name.clone(), i);
            }
        }
        let fleet = Fleet::new(sharded, Box::new(Pinned::new(pins, 0)));

        let opts = adelie_plugin::TransformOptions::rerandomizable(true);
        let mut modules: Vec<Vec<Arc<LoadedModule>>> = Vec::new();
        for (i, shard_profiles) in profiles.iter().enumerate() {
            let mut shard_modules = Vec::new();
            for p in shard_profiles {
                let obj = adelie_plugin::transform(&profile_spec(p), &opts)
                    .expect("transform fleet profile");
                let (shard, module) = fleet.install(&obj, &opts).expect("install fleet profile");
                assert_eq!(shard, i, "pinned placement must honor the shard");
                shard_modules.push(module);
            }
            modules.push(shard_modules);
        }

        // One fault plan + one oracle per shard, chained in that order
        // (the injector denies a stage before the oracle would record
        // the commit that never happens).
        let faults: Vec<Arc<FaultPlan>> = (0..cfg.shards).map(|_| FaultPlan::new()).collect();
        let oracles: Vec<Arc<LayoutOracle>> = (0..cfg.shards)
            .map(|i| {
                let oracle = LayoutOracle::new(fleet.kernel(i).clone(), clock.clone());
                fleet
                    .registry(i)
                    .set_cycle_hooks(Arc::new(HookChain::new(vec![
                        faults[i].clone(),
                        oracle.clone(),
                    ])));
                oracle
            })
            .collect();

        let shard_scheds = (0..cfg.shards)
            .map(|i| {
                let names = profiles[i].iter().map(|p| p.name.clone()).collect();
                (fleet.kernel(i).clone(), fleet.registry(i).clone(), names)
            })
            .collect();
        let config = SchedConfig {
            workers: cfg.workers,
            policy: cfg.policy.clone(),
            max_cpu_frac: cfg.max_cpu_frac,
            supervision: cfg.supervision.clone(),
            step_cost: cfg.cycle_cost,
            ..SchedConfig::default()
        };
        let sched = FleetScheduler::new(shard_scheds, config, Clock::Virtual(clock.clone()));

        let traffic = modules
            .iter()
            .map(|shard_modules| {
                shard_modules
                    .iter()
                    .map(|m| {
                        let entry = m
                            .export(&format!("{}_entry", m.name))
                            .expect("fleet profile entry export");
                        (entry, 0u64)
                    })
                    .collect()
            })
            .collect();
        FleetSim {
            fleet,
            clock,
            sched,
            oracles,
            faults,
            profiles,
            modules,
            traffic,
            violations: Vec::new(),
            reports: Vec::new(),
            recoveries: Vec::new(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x7E57_1D17),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.modules.len()
    }

    /// Every `(shard, report)` stepped so far, in step order.
    pub fn reports(&self) -> &[(usize, CycleReport)] {
        &self.reports
    }

    /// The loaded module `name` (shard-suffixed) wherever it lives.
    ///
    /// # Panics
    ///
    /// Panics for names not in the scenario.
    pub fn module(&self, name: &str) -> &Arc<LoadedModule> {
        self.modules
            .iter()
            .flatten()
            .find(|m| &*m.name == name)
            .expect("module in fleet scenario")
    }

    /// Drive shard `i`'s traffic up to virtual time `to_ns` (the shared
    /// `harness::advance_profile_traffic` pacing, per shard).
    fn advance_traffic(&mut self, shard: usize, to_ns: u64) {
        let kernel = self.fleet.kernel(shard).clone();
        let mut vm = kernel.vm();
        crate::harness::advance_profile_traffic(
            self.clock.now_ns(),
            &self.profiles[shard],
            &mut self.traffic[shard],
            &mut vm,
            to_ns,
        );
    }

    /// Run one fleet-wide step (earliest deadline), injecting every
    /// shard's traffic due before it. `None` when no deadline is
    /// pending.
    pub fn step(&mut self) -> Option<(usize, CycleReport)> {
        self.step_ranked(0)?;
        self.reports.last().cloned()
    }

    /// Run the fleet for `dur` of virtual time, stepping every due
    /// deadline in fleet-wide order.
    pub fn run_for(&mut self, dur: Duration) {
        self.run(dur, false);
    }

    /// Run for `dur` of virtual time exploring worker-pool
    /// interleavings: each step picks a seeded-random entry among those
    /// the stepped shard's `workers`-wide pool could legally run next
    /// ([`FleetScheduler::step_choice`]).
    pub fn run_explored(&mut self, dur: Duration) {
        self.run(dur, true);
    }

    fn run(&mut self, dur: Duration, explore: bool) {
        let end = self.clock.now_ns() + dur.as_nanos() as u64;
        while self
            .sched
            .peek_deadline_ns()
            .is_some_and(|(_, deadline)| deadline <= end)
        {
            let rank = if explore {
                self.rng.gen_range(0..64usize)
            } else {
                0
            };
            self.step_ranked(rank);
        }
        for s in 0..self.shards() {
            self.advance_traffic(s, end);
        }
        self.clock.advance_to(end);
    }

    /// Inject every shard's traffic due before the fleet-wide earliest
    /// deadline, step with reorder `rank`, and check the commit for
    /// window confinement on the spot.
    fn step_ranked(&mut self, rank: usize) -> Option<()> {
        let (_, deadline) = self.sched.peek_deadline_ns()?;
        for s in 0..self.shards() {
            self.advance_traffic(s, deadline);
        }
        let (shard, report) = self.sched.step_choice(rank)?;
        if let Some(new_base) = report.new_base {
            let (lo, hi) = self.fleet.sharded().window(shard);
            if new_base < lo || new_base >= hi {
                self.violations.push(format!(
                    "window escape: shard {shard}'s {} committed \
                     {new_base:#x} outside [{lo:#x}, {hi:#x})",
                    report.module
                ));
            }
        }
        self.reports.push((shard, report));
        Some(())
    }

    /// Crash-recover shard `shard` end to end: rebuild its modules
    /// from the fleet's install catalog ([`Fleet::recover_shard`] —
    /// force-unload, reload, old spans vacated), tell the shard's
    /// oracle each module was rebuilt out-of-band, refresh the
    /// harness's module handles and traffic entry points (keeping
    /// traffic cursors, so the virtual-time pacing is unbroken), and
    /// replace the shard's scheduler group with a fresh one over the
    /// rebuilt modules on the same clock and global budget.
    ///
    /// # Panics
    ///
    /// Panics if the fleet cannot rebuild every module of the shard
    /// (a failed rebuild leaves the harness's handles dangling).
    pub fn recover_shard(&mut self, shard: usize) -> RecoveryReport {
        let report = self.fleet.recover_shard(shard).expect("recover shard");
        assert!(
            report.failed.is_empty(),
            "shard {shard} rebuild left failures: {:?}",
            report.failed
        );
        for name in &report.rebuilt {
            self.oracles[shard].module_rebuilt(name);
        }
        // Fresh handles + entry VAs; traffic cursors survive the crash
        // (virtual time does not rewind for a rebuilt shard).
        let registry = self.fleet.registry(shard).clone();
        self.modules[shard] = self.profiles[shard]
            .iter()
            .map(|p| registry.get(&p.name).expect("rebuilt module"))
            .collect();
        for (j, m) in self.modules[shard].iter().enumerate() {
            let entry = m
                .export(&format!("{}_entry", m.name))
                .expect("rebuilt entry export");
            self.traffic[shard][j].0 = entry;
        }
        let names: Vec<&str> = self.profiles[shard]
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        self.sched
            .replace_group(shard, self.fleet.kernel(shard).clone(), registry, &names);
        // The replacement group starts every module Healthy: mark the
        // epoch so the quarantine-execution checker forgets pre-crash
        // health state for this shard.
        self.recoveries.push((self.reports.len(), shard));
        report
    }

    /// The quarantine-execution invariant: once a report leaves a
    /// module Quarantined, every later cycle of that module must be an
    /// un-quarantine probe (`probe == true`) until a report moves it
    /// out of Quarantined — a full-rate cycle in between means the
    /// state machine kept burning budget on a module it claimed to
    /// have benched. A crash recovery resets the slate for its shard:
    /// the rebuilt group starts every module Healthy, so a module
    /// Quarantined before the rebuild may run full-rate after it.
    /// Returns violations (empty = clean).
    pub fn check_quarantine_execution(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut last: HashMap<(usize, &str), HealthState> = HashMap::new();
        let mut recoveries = self.recoveries.iter().peekable();
        for (i, (shard, report)) in self.reports.iter().enumerate() {
            while let Some(&&(at, rebuilt)) = recoveries.peek() {
                if at > i {
                    break;
                }
                last.retain(|&(s, _), _| s != rebuilt);
                recoveries.next();
            }
            let key = (*shard, report.module.as_str());
            if last.get(&key) == Some(&HealthState::Quarantined) && !report.probe {
                violations.push(format!(
                    "quarantined module executed: shard {shard}'s {} ran a \
                     full-rate cycle while Quarantined (not a probe)",
                    report.module
                ));
            }
            last.insert(key, report.health);
        }
        violations
    }

    /// Check every module in every shard still computes correctly.
    ///
    /// # Panics
    ///
    /// Panics if any module's entry misbehaves.
    pub fn assert_modules_work(&self) {
        for shard in 0..self.shards() {
            let kernel = self.fleet.kernel(shard).clone();
            let mut vm = kernel.vm();
            for (j, m) in self.modules[shard].iter().enumerate() {
                let (entry, _) = self.traffic[shard][j];
                assert_eq!(
                    vm.call(entry, &[41]).expect("entry call"),
                    42,
                    "module {} broken after fleet scenario",
                    m.name
                );
            }
        }
    }

    /// The fleet attacker: leak a code address from every module of
    /// every shard and fire each leak at **every** shard. In the home
    /// shard the verdict depends on timing (that race is the
    /// attack-window suite's subject); in any *other* shard a landed
    /// leak is unconditionally a violation — shard windows are
    /// disjoint, so shard A's layout must never resolve in shard B.
    /// Returns violations (empty = isolated).
    pub fn attack_cross_shard(&self, attacker_seed: u64) -> Vec<String> {
        let mut attacker = Attacker::new(attacker_seed);
        let mut violations = Vec::new();
        for src in 0..self.shards() {
            let src_kernel = self.fleet.kernel(src);
            for m in &self.modules[src] {
                let leak = attacker.leak_code(src_kernel, m, self.clock.now_ns());
                for dst in 0..self.shards() {
                    if dst == src {
                        continue;
                    }
                    let outcome = attacker.fire(self.fleet.kernel(dst), &leak);
                    if outcome.landed() {
                        violations.push(format!(
                            "cross-shard leak landed: {va:#x} leaked from {name} \
                             (shard {src}) resolves in shard {dst}",
                            va = leak.va,
                            name = m.name,
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Force quiescence and check **everything**: each shard's oracle
    /// (stale mappings, witness TLB, SMR and snapshot convergence,
    /// pointer-refresh failures matching the shard's fired
    /// `UpdatePointers` injections), window confinement observed during
    /// the run, cross-shard span disjointness, symbol/GOT integrity, and
    /// cross-shard leak isolation. One combined report.
    pub fn verify(&self) -> OracleReport {
        let mut violations = self.violations.clone();

        // Per-shard oracle verdicts (prefix each with its shard).
        for shard in 0..self.shards() {
            let stats = self.sched.group(shard).stats();
            let planned_refresh_failures = self.faults[shard]
                .fired()
                .iter()
                .filter(|f| f.stage == CycleStage::UpdatePointers)
                .count() as u64;
            let report = self.oracles[shard].verify_quiesced(
                self.fleet.registry(shard),
                Some(&stats),
                planned_refresh_failures,
            );
            violations.extend(
                report
                    .violations
                    .into_iter()
                    .map(|v| format!("shard {shard}: {v}")),
            );
        }

        // Cross-shard: every live span confined to its owner's window,
        // all spans pairwise disjoint (the shared fleet checker).
        violations.extend(self.fleet.verify_layout());

        // Symbol + fixed-GOT integrity per owning shard.
        violations.extend(self.fleet.verify_symbol_integrity());

        // Leak isolation holds at quiescence too.
        violations.extend(self.attack_cross_shard(self.clock.now_ns() ^ 0xF1EE7));

        // Supervision: a quarantined module only ever probed.
        violations.extend(self.check_quarantine_execution());

        OracleReport { violations }
    }
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("shards", &self.shards())
            .field("cycles", &self.sched.cycles())
            .finish()
    }
}
