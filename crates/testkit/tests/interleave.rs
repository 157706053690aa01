//! Seeded scheduler-interleaving exploration: reorder the cycles a
//! multi-worker pool could legally run concurrently and check that no
//! stale pointer, SMR leak, or overlapping VA reservation survives any
//! interleaving.

use adelie_sched::SchedConfig;
use adelie_testkit::{FleetSim, FleetSimConfig, ModuleProfile};
use std::time::Duration;

fn fleet_config(seed: u64, shards: usize) -> FleetSimConfig {
    FleetSimConfig {
        seed,
        shards,
        sched: SchedConfig {
            workers: 3,
            // A cycle cost comparable to the period spread keeps
            // several deadlines inside one pool window, so reordering
            // really happens.
            step_cost: Duration::from_millis(2),
            ..SchedConfig::serial(Duration::from_millis(5))
        },
        modules_per_shard: vec![
            ModuleProfile::hot("alpha"),
            ModuleProfile::hot("beta"),
            ModuleProfile::cold("gamma"),
            ModuleProfile::cold("delta"),
        ],
    }
}

#[test]
fn explored_interleavings_preserve_every_layout_invariant() {
    // One shard is the single-kernel explorer; two shards reorder
    // inside whichever group owns the fleet-wide earliest deadline.
    for shards in [1, 2] {
        for seed in 1..=6u64 {
            let mut sim = FleetSim::new(fleet_config(seed, shards));
            sim.run_explored(Duration::from_millis(250));
            assert!(
                sim.sched.cycles() >= 20,
                "seed {seed}, {shards} shards: pool barely ran ({})",
                sim.sched.cycles()
            );
            sim.assert_modules_work();
            sim.verify().assert_clean();
            assert_eq!(sim.sched.failures(), 0, "seed {seed}, {shards} shards");
        }
    }
}

#[test]
fn exploration_is_seeded_and_reproducible() {
    let run = |seed: u64| {
        let mut sim = FleetSim::new(fleet_config(seed, 1));
        sim.run_explored(Duration::from_millis(120));
        sim.oracles[0]
            .commits()
            .into_iter()
            .map(|c| (c.module, c.new_base, c.at_ns))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(9), run(9), "same seed ⇒ same interleaving");
    assert_ne!(run(9), run(10), "different seed ⇒ different exploration");
}

#[test]
fn reordering_actually_occurs() {
    // With rank exploration on, the commit order must at some point
    // deviate from strict deadline order (otherwise the explorer is a
    // no-op and the invariant test above proves nothing).
    let mut ordered = FleetSim::new(fleet_config(2, 1));
    ordered.run_for(Duration::from_millis(120));
    let mut explored = FleetSim::new(fleet_config(2, 1));
    explored.run_explored(Duration::from_millis(120));
    let seq = |sim: &FleetSim| {
        sim.reports()
            .iter()
            .map(|(_, r)| r.module.clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(
        seq(&ordered),
        seq(&explored),
        "explorer produced the identity interleaving only"
    );
}
