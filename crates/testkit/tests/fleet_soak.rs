//! The seed-sweep fleet soak: 3 seeds × 4 shards × every paper
//! workload path, on a bounded virtual timeline, with the whole fleet
//! re-randomizing under stepped schedulers — and the determinism
//! regression gate: the same seed must yield **byte-identical**
//! `SpaceStats` / `SchedStats` dumps across independent runs.
//!
//! `#[ignore]` by default (it is a soak, not a unit test): CI runs it
//! as its own job with `cargo test -p adelie-testkit --test fleet_soak
//! -- --ignored`, and locally that same command reproduces exactly
//! what CI saw, seed for seed.

use adelie_plugin::TransformOptions;
use adelie_sched::{Clock, SchedConfig, SimClock};
use adelie_workloads::{run_soak_round, DriverSet, FleetTestbed};
use std::fmt::Write as _;
use std::time::Duration;

const SHARDS: usize = 4;
const SEEDS: [u64; 3] = [1, 42, 0xADE11E];
/// Bounded virtual time per run: 64 rounds × 1 virtual ms.
const ROUNDS: u64 = 64;

/// One soak run: all shards, all workload paths, stepped fleet
/// schedulers on one virtual clock. Returns the canonical stats dump.
fn soak(seed: u64) -> String {
    let ft = FleetTestbed::new(
        TransformOptions::rerandomizable(true),
        DriverSet::full(),
        SHARDS,
        seed,
    );
    let clock = SimClock::new();
    let sched = ft.start_schedulers(SchedConfig::default(), Clock::Virtual(clock.clone()));
    {
        let mut vms: Vec<_> = ft.shards.iter().map(|tb| tb.kernel.vm()).collect();
        for round in 0..ROUNDS {
            // All workloads, all shards, logically concurrent on the
            // virtual timeline (interleaved deterministically).
            for (shard, tb) in ft.shards.iter().enumerate() {
                let ops = run_soak_round(tb, &mut vms[shard], round);
                assert!(ops > 0, "shard {shard} round {round} did no work");
            }
            clock.advance(Duration::from_millis(1));
            while sched
                .peek_deadline_ns()
                .is_some_and(|(_, d)| d <= clock.now_ns())
            {
                sched.step();
            }
        }
    }
    assert!(
        sched.cycles() > 0,
        "the fleet must re-randomize while soaked"
    );
    assert_eq!(sched.failures(), 0, "no cycle may fail during the soak");

    // The canonical dump: per-shard SpaceStats + SchedStats, exactly as
    // Debug renders them. Any nondeterminism anywhere in the pipeline —
    // placement, traffic, scheduling, shootdown accounting, snapshot
    // reclamation — lands in these counters and breaks byte equality.
    let stats = sched.stop();
    let mut dump = String::new();
    for (shard, tb) in ft.shards.iter().enumerate() {
        tb.kernel.reclaim.flush();
        tb.kernel.space.flush_snapshots();
        let _ = writeln!(dump, "=== shard {shard} ===");
        // Placement digest: the KASLR draws make this seed-sensitive,
        // so the byte-equality gate covers layout determinism too (and
        // the seeds-diverge check below cannot pass vacuously).
        let mut names = tb.registry.list();
        names.sort();
        for name in &names {
            let m = tb.registry.get(name).expect("registry entry");
            let _ = writeln!(
                dump,
                "module {name} base {:#x} gen {}",
                m.movable_base.load(std::sync::atomic::Ordering::Acquire),
                m.times_randomized()
            );
        }
        let _ = writeln!(dump, "SpaceStats {:#?}", tb.kernel.space.stats());
        let _ = writeln!(dump, "SchedStats {:#?}", stats[shard]);
        let smr = tb.kernel.reclaim.stats();
        let _ = writeln!(dump, "smr delta {}", smr.delta());
        assert_eq!(smr.delta(), 0, "shard {shard} leaked SMR retirements");
    }
    dump
}

#[test]
#[ignore = "soak job: run explicitly (CI fleet job, or locally with --ignored)"]
fn fleet_soak_same_seed_is_byte_identical() {
    for seed in SEEDS {
        let a = soak(seed);
        let b = soak(seed);
        if a != b {
            let diverge = a
                .lines()
                .zip(b.lines())
                .enumerate()
                .find(|(_, (x, y))| x != y);
            panic!(
                "seed {seed}: soak dumps diverged at {diverge:?} — \
                 determinism regression"
            );
        }
        assert!(a.contains("SchedStats"), "dump must carry stats:\n{a}");
    }
}

#[test]
#[ignore = "soak job: run explicitly (CI fleet job, or locally with --ignored)"]
fn fleet_soak_seeds_diverge() {
    // The gate above would pass vacuously if the dump ignored the seed
    // entirely; different seeds must visibly diverge.
    let a = soak(SEEDS[0]);
    let b = soak(SEEDS[1]);
    assert_ne!(a, b, "distinct seeds must produce distinct timelines");
}
