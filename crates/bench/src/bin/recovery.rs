//! The fault-storm recovery benchmark: time-to-reconverge and
//! fraction-of-traffic-served for a supervised fleet under an injected
//! fault storm plus a shard crash — emitted as `BENCH_recovery.json`
//! (the CI artifact, matrixed over `ADELIE_ARCH`) plus a console table.
//!
//! Per seed the deterministic fleet harness runs three phases on one
//! virtual timeline:
//!
//! 1. **baseline** — a clean warm-up establishing healthy cadence;
//! 2. **fault storm** — a correlated burst of Reserve failures on one
//!    hot module: the supervision layer must walk it Healthy →
//!    Degraded → Quarantined (budget-exempt probes only) and recover
//!    it on the first probe past the storm. *Time-to-reconverge* is
//!    the virtual time from the first injected failure to the
//!    recovering probe's commit;
//! 3. **shard crash** — a [`ShardWatchdog`] stops seeing beats from
//!    shard 1, declares it unhealthy, and the fleet rebuilds the whole
//!    shard from the install catalog
//!    ([`FleetSim::recover_shard`]): modules reload, old spans vacate,
//!    a fresh scheduler group joins the same budget and clock.
//!
//! Throughout, module entry points are probed every virtual slice —
//! the *fraction of traffic served* must stay ≥ 0.99 (a benched or
//! rebuilding module keeps serving at its old base; that is the whole
//! point of quarantine over unload). The run asserts, per seed: the
//! storm reconverges, traffic holds, the quarantined
//! module burned zero budget while benched, and the layout oracle
//! (stale mappings, witness TLB, snapshot SMR, quarantine-execution)
//! finds zero violations.

use adelie_core::{CycleStage, ShardWatchdog};
use adelie_sched::{HealthState, SupervisionConfig};
use adelie_testkit::{FleetSim, FleetSimConfig};
use adelie_vmem::ArchKind;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const SEEDS: [u64; 3] = [1, 42, 0xA77ACC];
/// Virtual slice between traffic probes and watchdog beats.
const SLICE: Duration = Duration::from_millis(10);
/// Burst length: attempts 1..=6 of the hot module fail (attempt 0
/// seeds a healthy baseline; quarantine_after = 3 puts the module in
/// quarantine mid-burst and the first attempt past it recovers).
const BURST: u64 = 6;
/// Watchdog deadline: a shard silent for 5 slices is declared dead.
const WATCHDOG_TIMEOUT: Duration = Duration::from_millis(50);

struct Outcome {
    seed: u64,
    reconverge_ns: u64,
    traffic_frac: f64,
    probed: u64,
    quarantines: u64,
    probes: u64,
    recoveries: u64,
    rebuilt: usize,
    violations: u64,
}

/// Probe every module's entry export once; returns (served, attempted).
fn probe_traffic(sim: &FleetSim) -> (u64, u64) {
    let mut served = 0u64;
    let mut attempted = 0u64;
    for shard in 0..sim.shards() {
        let kernel = sim.fleet.kernel(shard).clone();
        let mut vm = kernel.vm();
        for name in ["hot", "cold"] {
            let m = sim.module(&format!("{name}_s{shard}"));
            let entry = m
                .export(&format!("{}_entry", m.name))
                .expect("entry export");
            attempted += 1;
            if matches!(vm.call(entry, &[41]), Ok(42)) {
                served += 1;
            }
        }
    }
    (served, attempted)
}

fn run(seed: u64) -> Outcome {
    let mut sim = FleetSim::new(FleetSimConfig {
        seed,
        supervision: SupervisionConfig {
            degrade_after: 1,
            quarantine_after: 3,
            backoff_max_exp: 3,
            ..SupervisionConfig::default()
        },
        ..FleetSimConfig::default()
    });
    sim.faults[0].fail_burst("hot_s0", CycleStage::Reserve, 1, BURST);
    let dog = ShardWatchdog::new(sim.shards(), WATCHDOG_TIMEOUT.as_nanos() as u64);

    let mut served = 0u64;
    let mut attempted = 0u64;
    let mut slice = |sim: &mut FleetSim, beat_all: bool| {
        sim.run_for(SLICE);
        let now = sim.clock.now_ns();
        dog.beat(0, now);
        if beat_all {
            dog.beat(1, now);
        }
        let (s, a) = probe_traffic(sim);
        served += s;
        attempted += a;
    };

    // Phase 1+2: baseline cadence, then the burst fires on its own
    // (attempt-indexed) — run until the storm has reconverged, with a
    // hard cap so a broken supervision layer fails loudly instead of
    // spinning. Both shards beat the watchdog.
    let mut reconverged = false;
    for _ in 0..200 {
        slice(&mut sim, true);
        if sim.sched.group(0).stats().recoveries >= 1 {
            reconverged = true;
            break;
        }
    }
    assert!(
        reconverged,
        "[seed {seed}] storm did not reconverge within the cap"
    );
    assert_eq!(
        sim.sched.group(0).health_of("hot_s0"),
        Some(HealthState::Healthy),
        "[seed {seed}] recovered module must be Healthy"
    );

    // Time-to-reconverge on the virtual timeline: first injected
    // failure → the recovering probe's finish.
    let storm_start = sim
        .reports()
        .iter()
        .find(|(_, r)| r.module == "hot_s0" && r.error.is_some())
        .map(|(_, r)| r.finished_ns)
        .expect("storm fired");
    let recovered_at = sim
        .reports()
        .iter()
        .find(|(_, r)| r.module == "hot_s0" && r.probe && r.error.is_none())
        .map(|(_, r)| r.finished_ns)
        .expect("recovering probe in the report stream");
    let reconverge_ns = recovered_at.saturating_sub(storm_start);

    // Zero budget while benched: shard 0's busy time counts exactly
    // its non-probe cycles (the probes ran for free).
    let stats0 = sim.sched.group(0).stats();
    let cost = FleetSimConfig::default().cycle_cost.as_nanos() as u64;
    let non_probe = sim
        .reports()
        .iter()
        .filter(|(shard, r)| *shard == 0 && !r.probe)
        .count() as u64;
    assert_eq!(
        stats0.busy,
        Duration::from_nanos(non_probe * cost),
        "[seed {seed}] quarantined module was charged budget"
    );

    // Phase 3: shard 1 goes silent — only shard 0 beats. The watchdog
    // trips after WATCHDOG_TIMEOUT and the fleet rebuilds the shard.
    let mut declared = Vec::new();
    for _ in 0..20 {
        slice(&mut sim, false);
        declared = dog.scan(sim.clock.now_ns());
        if !declared.is_empty() {
            break;
        }
    }
    assert_eq!(
        declared,
        vec![1],
        "[seed {seed}] watchdog must single out the silent shard"
    );
    let report = sim.recover_shard(1);
    assert_eq!(report.rebuilt.len(), 2, "[seed {seed}] rebuilt");
    dog.beat(1, sim.clock.now_ns()); // the rebuilt shard is alive again
    for _ in 0..10 {
        slice(&mut sim, true);
    }
    assert!(
        dog.scan(sim.clock.now_ns()).is_empty(),
        "[seed {seed}] recovered fleet must be fully live"
    );
    sim.assert_modules_work();

    // Traffic held through storm, quarantine, crash, and rebuild.
    let traffic_frac = served as f64 / attempted as f64;
    assert!(
        traffic_frac >= 0.99,
        "[seed {seed}] only {traffic_frac:.4} of traffic served"
    );

    // Every invariant (stale mappings, witness TLB, snapshot SMR,
    // cross-shard isolation, quarantine-execution) — zero violations.
    let verdict = sim.verify();
    for v in &verdict.violations {
        eprintln!("oracle violation [seed {seed}]: {v}");
    }
    assert!(
        verdict.is_clean(),
        "[seed {seed}] {} oracle violation(s)",
        verdict.violations.len()
    );

    let fleet_stats = sim.sched.stats();
    Outcome {
        seed,
        reconverge_ns,
        traffic_frac,
        probed: attempted,
        quarantines: fleet_stats.iter().map(|s| s.quarantines).sum(),
        probes: fleet_stats.iter().map(|s| s.probes).sum(),
        recoveries: fleet_stats.iter().map(|s| s.recoveries).sum(),
        rebuilt: report.rebuilt.len(),
        violations: verdict.violations.len() as u64,
    }
}

fn outcome_json(o: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"seed\": {}, \"time_to_reconverge_ns\": {}, \
         \"traffic_served_frac\": {:.6}, \"traffic_probes\": {}, \"quarantines\": {}, \
         \"unquarantine_probes\": {}, \"recoveries\": {}, \"modules_rebuilt\": {}, \
         \"oracle_violations\": {}}}",
        o.seed,
        o.reconverge_ns,
        o.traffic_frac,
        o.probed,
        o.quarantines,
        o.probes,
        o.recoveries,
        o.rebuilt,
        o.violations,
    );
    s
}

fn main() {
    let arch = ArchKind::from_env();
    println!("=== fleet recovery under fault storms ({arch:?}) ===");
    println!(
        "{:>10} {:>18} {:>10} {:>12} {:>8} {:>10} {:>10}",
        "seed", "reconverge(ms)", "traffic", "quarantines", "probes", "rebuilt", "violations"
    );
    let t0 = Instant::now();
    let mut rows = Vec::new();
    for seed in SEEDS {
        let o = run(seed);
        println!(
            "{:>10} {:>18.3} {:>10.4} {:>12} {:>8} {:>10} {:>10}",
            o.seed,
            o.reconverge_ns as f64 / 1e6,
            o.traffic_frac,
            o.quarantines,
            o.probes,
            o.rebuilt,
            o.violations,
        );
        rows.push(outcome_json(&o));
    }
    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"arch\": \"{arch:?}\",\n  \
         \"slice_ns\": {},\n  \"burst\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        SLICE.as_nanos(),
        BURST,
        rows.join(",\n"),
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!(
        "wrote BENCH_recovery.json ({} rows) in {:?}",
        rows.len(),
        t0.elapsed()
    );
}
