//! Fault-injection suite: every pipeline stage fails on a chosen cycle
//! and the typed-rollback invariants hold — or, for the deliberately
//! leaky stages, the oracle provably catches the damage.

use adelie_core::CycleStage;
use adelie_sched::Policy;
use adelie_testkit::{FleetSim, FleetSimConfig};
use std::time::Duration;

/// The hot + cold scenario at a 5 ms period on `shards` kernels.
fn fast_sim(seed: u64, shards: usize) -> FleetSim {
    FleetSim::new(FleetSimConfig {
        seed,
        shards,
        policy: Policy::FixedPeriod(Duration::from_millis(5)),
        ..FleetSimConfig::default()
    })
}

/// One injected `stage` failure on shard 0's hot module.
fn sim_with_fault(seed: u64, shards: usize, stage: CycleStage, attempt: u64) -> FleetSim {
    let sim = fast_sim(seed, shards);
    sim.faults[0].fail_at("hot_s0", stage, attempt);
    sim
}

/// Pre-publish stages: the failed cycle must roll back completely —
/// the module has not moved, keeps working, and nothing leaks.
#[test]
fn pre_publish_stage_failures_roll_back_completely() {
    let stages = [
        (CycleStage::Reserve, "no free"),
        (CycleStage::AliasMap, "alias remap failed: injected fault"),
        (CycleStage::MovableGot, "local GOT remap failed"),
        (
            CycleStage::ImmovableGotSwap,
            "immovable GOT swap remap failed",
        ),
        (CycleStage::AdjustSlots, "adjust-slots remap failed"),
    ];
    for (stage, want) in stages {
        let mut sim = sim_with_fault(11, 1, stage, 1);
        sim.run_for(Duration::from_millis(60));

        let fired = sim.faults[0].fired();
        assert_eq!(fired.len(), 1, "{stage}: exactly one injection");
        assert_eq!(fired[0].stage, stage);
        assert_eq!(fired[0].attempt, 1);

        // The failed attempt surfaced as a typed error in the report
        // stream, with the stage-specific message.
        let failed: Vec<_> = sim
            .reports()
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.module == "hot_s0" && !r.ok())
            .collect();
        assert_eq!(failed.len(), 1, "{stage}: one failed cycle");
        let err = failed[0].error.as_ref().unwrap();
        let msg = err.to_string();
        assert!(msg.contains(want), "{stage}: `{msg}` lacks `{want}`");

        // Rollback: the failed attempt committed nothing — every other
        // attempt did (the scheduler retried and the module kept its
        // protection cadence).
        let hot_commits = sim.oracles[0].timeline_ns("hot_s0").len() as u64;
        assert_eq!(
            hot_commits,
            sim.faults[0].attempts("hot_s0") - 1,
            "{stage}: exactly the injected attempt must be missing"
        );
        let stats = sim.sched.group(0).stats();
        assert_eq!(stats.failures, 1, "{stage}");
        assert_eq!(stats.pointer_refresh_failures, 0, "{stage}");

        // The module is fully functional and the layout quiesces clean.
        sim.assert_modules_work();
        sim.verify().assert_clean();
    }
}

/// `update_pointers` failure: the move itself has committed (the old
/// layout is retired — no rollback), and the previously-silent drop is
/// now counted in `SchedStats::pointer_refresh_failures`. On two
/// shards the other shard's hot module stays clean, and `verify` still
/// expects exactly the one fired injection.
#[test]
fn update_pointers_failure_is_counted_not_dropped() {
    for shards in [1, 2] {
        let mut sim = sim_with_fault(12, shards, CycleStage::UpdatePointers, 1);
        sim.run_for(Duration::from_millis(60));

        assert_eq!(sim.faults[0].fired().len(), 1, "{shards} shards");
        assert_eq!(sim.sched.failures(), 1, "{shards} shards");
        let stats = sim.sched.group(0).stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(
            stats.pointer_refresh_failures, 1,
            "the silent-drop path must be visible in SchedStats"
        );
        let hot = stats.modules.iter().find(|m| m.name == "hot_s0").unwrap();
        assert_eq!(hot.pointer_refresh_failures, 1);

        // Unlike pre-publish failures, the injected attempt *did* move
        // the module: every attempt has a commit.
        assert_eq!(
            sim.oracles[0].timeline_ns("hot_s0").len() as u64,
            sim.faults[0].attempts("hot_s0"),
            "update_pointers failures commit the move"
        );
        sim.assert_modules_work();
        // `verify` counts the fired refresh injection as planned.
        sim.verify().assert_clean();
    }
}

/// A dropped retirement leaks the vacated range — and the oracle's
/// stale-mapping sweep must catch exactly that.
#[test]
fn oracle_catches_an_injected_retirement_leak() {
    let mut sim = sim_with_fault(13, 1, CycleStage::Retire, 1);
    sim.run_for(Duration::from_millis(60));

    assert_eq!(sim.faults[0].fired().len(), 1);
    sim.assert_modules_work();
    let report = sim.verify();
    assert!(
        !report.is_clean(),
        "a leaked old range must fail verification"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("stale mapping survives")),
        "violations: {:?}",
        report.violations
    );
}

/// Suppressed stack rotation: cycles keep completing but pooled stacks
/// are never retired — observable in the stack counters.
#[test]
fn suppressed_stack_rotation_pins_pooled_stacks() {
    let mut sim = fast_sim(14, 1);
    for attempt in 0..64 {
        sim.faults[0].fail_any(CycleStage::StackRotate, attempt);
    }
    sim.run_for(Duration::from_millis(60));
    assert!(sim.sched.cycles() > 0);
    let st = sim.fleet.registry(0).stacks.stats();
    assert!(st.allocated > 0, "traffic must have pooled stacks");
    assert_eq!(st.freed, 0, "no rotation ⇒ nothing retired");

    // Once the injection plan stops matching (attempts ≥ 64), rotation
    // resumes and the system drains back to a clean quiescent state.
    sim.run_for(Duration::from_millis(400));
    sim.verify().assert_clean();
}

/// The whole fault suite is deterministic: identical plans on identical
/// seeds produce identical failure timelines.
#[test]
fn injection_runs_are_reproducible() {
    let run = || {
        let mut sim = sim_with_fault(15, 1, CycleStage::AliasMap, 2);
        sim.run_for(Duration::from_millis(50));
        sim.reports()
            .iter()
            .map(|(_, r)| (r.module.clone(), r.deadline_ns, r.ok()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
