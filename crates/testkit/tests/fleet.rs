//! Fleet-mode verification: K seeded shards on one virtual clock.
//!
//! The cross-shard invariants (window confinement, no cross-shard VA
//! overlap, symbol/GOT integrity per owning shard, leak isolation)
//! plus determinism of the whole fleet timeline.

use adelie_sched::{Policy, SchedConfig};
use adelie_testkit::{FleetSim, FleetSimConfig, ModuleProfile};
use std::time::Duration;

const RUN: Duration = Duration::from_millis(60);

#[test]
fn fleet_runs_clean_under_fixed_period() {
    let mut sim = FleetSim::new(FleetSimConfig {
        seed: 3,
        shards: 3,
        ..FleetSimConfig::default()
    });
    sim.run_for(RUN);
    assert!(sim.sched.cycles() > 0, "fleet must cycle");
    // Every shard's group did work.
    for shard in 0..sim.shards() {
        assert!(
            sim.sched.group(shard).cycles() > 0,
            "shard {shard} group never cycled"
        );
    }
    sim.assert_modules_work();
    sim.verify().assert_clean();
}

#[test]
fn fleet_runs_clean_under_adaptive_pools() {
    let mut sim = FleetSim::new(FleetSimConfig {
        seed: 11,
        shards: 4,
        sched: SchedConfig {
            workers: 2,
            policy: Policy::Adaptive {
                min: Duration::from_millis(2),
                max: Duration::from_millis(20),
                rate_scale: 500.0,
                exposure_scale: 20.0,
            },
            ..SchedConfig::serial(Duration::from_millis(10))
        },
        ..FleetSimConfig::default()
    });
    sim.run_for(RUN);
    assert!(sim.sched.cycles() > 0);
    assert_eq!(sim.sched.failures(), 0);
    sim.assert_modules_work();
    sim.verify().assert_clean();
}

#[test]
fn fleet_timeline_is_deterministic() {
    let run = |seed: u64| {
        let mut sim = FleetSim::new(FleetSimConfig {
            seed,
            shards: 3,
            sched: SchedConfig {
                workers: 2,
                ..SchedConfig::serial(Duration::from_millis(10))
            },
            ..FleetSimConfig::default()
        });
        sim.run_for(RUN);
        // The full observable timeline: per-shard cycle counts plus
        // every commit's (module, old, new, t) tuple.
        let mut dump = String::new();
        for shard in 0..sim.shards() {
            dump.push_str(&format!(
                "shard {shard}: cycles={}\n",
                sim.sched.group(shard).cycles()
            ));
            for c in sim.oracles[shard].commits() {
                dump.push_str(&format!(
                    "  {} {:#x}->{:#x} gen{} @{}\n",
                    c.module, c.old_base, c.new_base, c.generation, c.at_ns
                ));
            }
        }
        sim.verify().assert_clean();
        dump
    };
    let a = run(42);
    let b = run(42);
    assert!(a.contains("->"), "timeline must contain commits:\n{a}");
    assert_eq!(a, b, "same fleet seed must replay byte-identically");
    let c = run(43);
    assert_ne!(a, c, "different seeds must diverge");
}

#[test]
fn cross_shard_leaks_never_land_while_home_leaks_do() {
    let mut sim = FleetSim::new(FleetSimConfig {
        seed: 7,
        shards: 2,
        // Long periods: leaks stay live in their home shard for the
        // whole check, making the asymmetry sharp.
        sched: SchedConfig::serial(Duration::from_millis(500)),
        ..FleetSimConfig::default()
    });
    sim.run_for(Duration::from_millis(5));
    // Positive control: a leak fired at its *home* shard right away
    // lands (the layout is still live).
    let mut attacker = adelie_testkit::Attacker::new(99);
    let m = sim.module("hot_s0").clone();
    let home = sim.fleet.kernel(0);
    let leak = attacker.leak_code(home, &m, 0);
    assert!(
        attacker.fire(home, &leak).landed(),
        "home-shard leak must land before the next cycle"
    );
    // The same leak against the other shard is dead — and the full
    // sweep finds no cross-shard hit anywhere.
    assert!(!attacker.fire(sim.fleet.kernel(1), &leak).landed());
    assert_eq!(sim.attack_cross_shard(1234), Vec::<String>::new());
    // Still true after a burst of re-randomization everywhere.
    sim.run_for(RUN);
    assert_eq!(sim.attack_cross_shard(5678), Vec::<String>::new());
    sim.verify().assert_clean();
}

#[test]
fn global_budget_sees_every_shard() {
    let cycle_cost = Duration::from_micros(100);
    let mut sim = FleetSim::new(FleetSimConfig {
        seed: 5,
        shards: 3,
        sched: SchedConfig {
            step_cost: cycle_cost,
            ..SchedConfig::serial(Duration::from_millis(10))
        },
        ..FleetSimConfig::default()
    });
    sim.run_for(RUN);
    let cycles = sim.sched.cycles();
    assert!(cycles > 0);
    assert_eq!(
        sim.sched.budget().spent(),
        cycle_cost * cycles as u32,
        "one global budget must account every shard's cycles"
    );
    // A group `replace_group` builds joins the same budget and keeps
    // its deadlines on the fleet's clock.
    sim.recover_shard(1);
    let group = sim.sched.group(1);
    assert_eq!(group.now_ns(), sim.clock.now_ns(), "the fleet's clock");
    assert!(group
        .peek_deadline_ns()
        .is_some_and(|d| d > sim.clock.now_ns()));
    sim.run_for(RUN);
    let after = sim.sched.group(1).cycles();
    assert!(after > 0, "the replacement group cycled");
    let charged = sim.reports().iter().filter(|(_, r)| !r.probe).count();
    assert_eq!(sim.sched.failures(), 0);
    assert_eq!(
        sim.sched.budget().spent(),
        cycle_cost * charged as u32,
        "the replacement group's spend lands in the global budget"
    );
}

#[test]
fn capped_fleet_budget_throttles_every_shard() {
    // An aggressive fixed period under a tiny global cap: pressure is
    // global, so *every* shard's group must slow down, not just the
    // one that spent first.
    let run = |max_cpu_frac: f64| {
        let mut sim = FleetSim::new(FleetSimConfig {
            seed: 17,
            shards: 2,
            sched: SchedConfig {
                step_cost: Duration::from_micros(400),
                max_cpu_frac,
                ..SchedConfig::serial(Duration::from_micros(500))
            },
            modules_per_shard: vec![ModuleProfile::hot("hot")],
        });
        sim.run_for(RUN);
        let per_shard: Vec<u64> = (0..sim.shards())
            .map(|s| sim.sched.group(s).cycles())
            .collect();
        sim.verify().assert_clean();
        per_shard
    };
    let uncapped = run(f64::INFINITY);
    let capped = run(0.0001);
    for shard in 0..2 {
        assert!(
            capped[shard] < uncapped[shard],
            "shard {shard}: the global cap must throttle it \
             ({} capped vs {} uncapped)",
            capped[shard],
            uncapped[shard]
        );
    }
}
