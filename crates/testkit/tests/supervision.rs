//! Supervision under fault storms: quarantine entry and exit, zero
//! budget while benched, shard crash recovery, and same-seed
//! byte-identical determinism of the whole storm timeline.

use adelie_core::CycleStage;
use adelie_sched::{HealthState, SchedConfig, SupervisionConfig};
use adelie_testkit::{FleetSim, FleetSimConfig};
use std::time::Duration;

/// Supervision thresholds tight enough that a short virtual run walks
/// the full Healthy → Degraded → Quarantined → Recovered arc.
fn tight_supervision() -> SupervisionConfig {
    SupervisionConfig {
        degrade_after: 1,
        quarantine_after: 3,
        backoff_max_exp: 3,
        ..SupervisionConfig::default()
    }
}

fn storm_sim(seed: u64) -> FleetSim {
    let sim = FleetSim::new(FleetSimConfig {
        seed,
        sched: SchedConfig {
            supervision: tight_supervision(),
            ..SchedConfig::serial(Duration::from_millis(10))
        },
        ..FleetSimConfig::default()
    });
    // A correlated burst on shard 0's hot module: attempts 1..=6 fail
    // at Reserve (attempt 0 seeds a healthy baseline). The streak
    // crosses quarantine_after = 3, the next attempts are failing
    // un-quarantine probes, and the first attempt past the burst is
    // the probe that recovers the module.
    sim.faults[0].fail_burst("hot_s0", CycleStage::Reserve, 1, 6);
    sim
}

/// The storm drives the hot module Quarantined and the supervision
/// machinery back out: the module recovers, never runs a full-rate
/// cycle while benched, and burns zero budget on probes.
#[test]
fn fault_storm_quarantines_then_recovers() {
    let mut sim = storm_sim(7);
    sim.run_for(Duration::from_secs(1));

    // The arc actually happened.
    let quarantined = sim
        .reports()
        .iter()
        .any(|(_, r)| r.module == "hot_s0" && r.health == HealthState::Quarantined);
    assert!(quarantined, "the burst must reach quarantine");
    assert_eq!(
        sim.sched.group(0).health_of("hot_s0"),
        Some(HealthState::Healthy),
        "the probe past the burst must recover the module"
    );
    let stats = sim.sched.group(0).stats();
    assert_eq!(stats.quarantines, 1, "one descent into quarantine");
    assert!(stats.probes >= 1, "at least one un-quarantine probe ran");
    assert_eq!(stats.recoveries, 1, "exactly one recovery");

    // Zero budget while quarantined: only non-probe cycles are
    // charged, so shard 0's busy time is exactly (its non-probe
    // cycles) × modeled cost — the probes ran for free.
    let cost = FleetSimConfig::default().sched.step_cost.as_nanos() as u64;
    let non_probe = sim
        .reports()
        .iter()
        .filter(|(shard, r)| *shard == 0 && !r.probe)
        .count() as u64;
    assert_eq!(
        stats.busy,
        Duration::from_nanos(non_probe * cost),
        "probe cycles must not be charged to the budget"
    );
    assert!(
        sim.reports().iter().any(|(_, r)| r.probe),
        "the run must contain probe cycles"
    );

    // Quarantine-execution invariant + every layout invariant, clean.
    sim.assert_modules_work();
    sim.verify().assert_clean();
}

/// Crash-recover a shard mid-storm: the rebuilt modules serve, no
/// stale mapping survives the rebuild, and the whole fleet quiesces
/// clean — the oracle is told about the out-of-band rebuild and still
/// signs off.
#[test]
fn shard_crash_recovery_converges_clean() {
    let mut sim = storm_sim(11);
    sim.run_for(Duration::from_millis(300));
    let report = sim.recover_shard(1);
    assert_eq!(report.rebuilt.len(), 2, "both shard-1 modules rebuilt");
    assert!(!report.vacated.is_empty(), "old spans were vacated");
    sim.run_for(Duration::from_millis(300));
    sim.assert_modules_work();
    sim.verify().assert_clean();
}

/// Regression: crash-recovering the shard of a *currently quarantined*
/// module must not trip the quarantine-execution invariant — the
/// rebuilt group starts the module Healthy, so its first post-rebuild
/// full-rate cycle is legal, not a violation. (The checker used to
/// carry pre-crash health state across the group replacement.)
#[test]
fn recovery_of_a_quarantined_shard_resets_health_state() {
    let mut sim = storm_sim(5);
    // Step until the storm benches hot_s0.
    let mut waited_ms = 0u64;
    while sim.sched.group(0).health_of("hot_s0") != Some(HealthState::Quarantined) {
        sim.run_for(Duration::from_millis(20));
        waited_ms += 20;
        assert!(waited_ms < 2_000, "storm never quarantined hot_s0");
    }
    let mark = sim.reports().len();
    sim.recover_shard(0);
    assert_eq!(
        sim.sched.group(0).health_of("hot_s0"),
        Some(HealthState::Healthy),
        "the rebuilt group must start the module Healthy"
    );
    sim.run_for(Duration::from_millis(300));
    assert!(
        sim.reports()[mark..]
            .iter()
            .any(|(s, r)| *s == 0 && r.module == "hot_s0" && !r.probe),
        "the rebuilt module must cycle full-rate again"
    );
    sim.assert_modules_work();
    sim.verify().assert_clean();
}

/// The determinism contract survives the supervision layer: the same
/// seed replays the same storm — quarantines, probes, backoff jitter,
/// recoveries, suppressed logs — to byte-identical stats, across three
/// seeds, and every seed's run converges (recovers) and verifies clean.
#[test]
fn same_seed_storms_replay_byte_identically() {
    for seed in [1u64, 42, 0xA77A] {
        let dump = |seed| {
            let mut sim = storm_sim(seed);
            sim.run_for(Duration::from_secs(1));
            assert_eq!(
                sim.sched.group(0).health_of("hot_s0"),
                Some(HealthState::Healthy),
                "seed {seed}: storm must converge to recovery"
            );
            sim.verify().assert_clean();
            format!("{:?}", sim.sched.stats())
        };
        assert_eq!(
            dump(seed),
            dump(seed),
            "seed {seed}: storm not deterministic"
        );
    }
}
