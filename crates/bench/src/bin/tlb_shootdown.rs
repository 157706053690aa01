//! The TLB-shootdown benchmark: range-based invalidation under the
//! 4-worker adaptive scheduler, on the deterministic stepped harness,
//! emitted as `BENCH_tlb_shootdown.json` (the CI artifact) plus a
//! console table.
//!
//! For each seed a fleet + traffic + step schedule runs; a seeded rank
//! stream explores worker-pool interleavings via `step_choice`, and a
//! [`LayoutOracle`] — including its stale-translation witness TLB —
//! checks every invariant across them.
//!
//! The run *asserts* the headline property — the traffic CPU takes
//! zero full flushes per cycle and resynchronizes through partial
//! flushes, with zero oracle violations — so a regression fails CI
//! rather than shifting a curve nobody reads. The whole-TLB and
//! flush-on-switch baselines this bench used to run beside it are
//! recorded in DESIGN.md §10.4 and §15.6.
//!
//! A **fleet-churn phase** rides along (DESIGN.md §15): it bounces one
//! roaming TLB across the spaces of a 4-shard [`ShardedKernel`] and
//! asserts the ASID win exactly: space-switch full flushes are *zero*
//! under shard churn, and warm entries hit again on every return.
//!
//! Every row is an exact count, identical under both `ADELIE_ARCH`
//! backends, so the committed `BENCH_tlb_shootdown.json` is a baseline
//! CI diffs against.

use adelie_bench::contention;
use adelie_core::ModuleRegistry;
use adelie_kernel::{FleetConfig, Kernel, KernelConfig, ShardedKernel};
use adelie_sched::{Policy, SchedConfig, Scheduler, SimClock};
use adelie_testkit::LayoutOracle;
use adelie_vmem::{Access, PteFlags, Tlb, TlbStats};
use std::fmt::Write as _;
use std::time::Duration;

const SEEDS: [u64; 3] = [1, 42, 0xA77ACC];
const MODULES: usize = 4;
const STEPS: usize = 200;
const CALLS_PER_STEP: u64 = 3;

struct Outcome {
    label: &'static str,
    cycles: u64,
    tlb: TlbStats,
    space_shootdowns: u64,
    coalesced: u64,
    violations: usize,
}

impl Outcome {
    fn full_per_cycle(&self) -> f64 {
        self.tlb.flushes as f64 / self.cycles.max(1) as f64
    }
}

/// One deterministic run: the seed fixes the fleet, the traffic and
/// the step schedule.
fn run(label: &'static str, seed: u64) -> Outcome {
    let kernel = Kernel::new(KernelConfig {
        seed,
        ..KernelConfig::default()
    });
    let registry = ModuleRegistry::new(&kernel);
    let modules = contention::fleet(&registry, MODULES);
    let clock = SimClock::new();
    let oracle = LayoutOracle::new(kernel.clone(), clock.clone());
    registry.set_cycle_hooks(oracle.clone());
    let with_policies: Vec<(&str, Policy)> = modules
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let name: &str = Box::leak(format!("mod{i}").into_boxed_str());
            (name, Policy::default_adaptive())
        })
        .collect();
    let sched = Scheduler::spawn_stepped(
        kernel.clone(),
        registry.clone(),
        &with_policies,
        SchedConfig {
            workers: 4,
            policy: Policy::default_adaptive(),
            ..SchedConfig::default()
        },
        clock.clone(),
        Duration::from_micros(100),
    );
    let entries: Vec<u64> = modules
        .iter()
        .enumerate()
        .map(|(i, m)| m.export(&format!("mod{i}_calc")).unwrap())
        .collect();
    let mut vm = kernel.vm();
    // Seeded rank stream: explores the reorderings a real 4-worker
    // pool could produce.
    let mut rank = seed | 1;
    for _ in 0..STEPS {
        rank = rank
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sched
            .step_choice((rank >> 33) as usize)
            .expect("heap never empties");
        for &e in &entries {
            for _ in 0..CALLS_PER_STEP {
                assert_eq!(vm.call(e, &[16]).unwrap(), 17);
            }
        }
    }
    let cycles = sched.cycles();
    assert_eq!(sched.failures(), 0, "{label}: no cycle may fail");
    drop(sched);
    let report = oracle.verify_quiesced(&registry, None, 0);
    let stats = kernel.space.stats();
    Outcome {
        label,
        cycles,
        tlb: vm.tlb_stats(),
        space_shootdowns: stats.shootdowns,
        coalesced: stats.coalesced_shootdowns,
        violations: report.violations.len(),
    }
}

fn outcome_json(seed: u64, o: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"seed\": {seed}, \"mode\": \"{}\", \"cycles\": {}, \"full_flushes\": {}, \
         \"horizon_flushes\": {}, \"partial_flushes\": {}, \"entries_invalidated\": {}, \
         \"tlb_hits\": {}, \"tlb_misses\": {}, \"space_shootdowns\": {}, \
         \"coalesced_shootdowns\": {}, \"full_flushes_per_cycle\": {:.4}, \
         \"oracle_violations\": {}}}",
        o.label,
        o.cycles,
        o.tlb.flushes,
        o.tlb.horizon_flushes,
        o.tlb.partial_flushes,
        o.tlb.entries_invalidated,
        o.tlb.hits,
        o.tlb.misses,
        o.space_shootdowns,
        o.coalesced,
        o.full_per_cycle(),
        o.violations,
    );
    s
}

const CHURN_SHARDS: usize = 4;
const CHURN_ROUNDS: usize = 200;

/// The fleet-churn phase: one roaming per-CPU TLB serves spaces across
/// a 4-shard fleet round-robin — exactly what a worker thread bouncing
/// between tenant shards does. One probe page is mapped per shard;
/// every round looks it up in the next shard's space and refills on a
/// miss. With ASID tagging, only the first visit to each shard may
/// miss; every switch after that keeps warm tagged entries.
fn churn(label: &'static str, seed: u64) -> TlbStats {
    let fleet = ShardedKernel::new(FleetConfig::seeded(CHURN_SHARDS, seed));
    let mut tlb = Tlb::with_arch(fleet.shard(0).config.arch);
    let vas: Vec<u64> = (0..CHURN_SHARDS)
        .map(|i| {
            let va = fleet.window(i).0;
            let k = fleet.shard(i);
            k.space.map(va, k.phys.alloc(), PteFlags::DATA).unwrap();
            va
        })
        .collect();
    for round in 0..CHURN_ROUNDS {
        let i = round % CHURN_SHARDS;
        let space = &fleet.shard(i).space;
        if tlb.lookup(vas[i], space).is_none() {
            let t = space.translate(vas[i], Access::Read).unwrap();
            tlb.insert(&t);
        }
    }
    let t = tlb.stats();
    assert!(
        t.switches as usize >= CHURN_ROUNDS - CHURN_SHARDS,
        "{label}: churn must actually switch spaces ({} switches)",
        t.switches
    );
    // The acceptance property: zero space-switch full flushes under
    // fleet shard churn — and the warm entries must actually be
    // serving (only the first visit to each shard misses).
    assert_eq!(
        t.switch_flushes, 0,
        "{label}: a tagged switch must never flush"
    );
    assert_eq!(t.flushes, 0, "{label}: nothing else may flush either");
    assert_eq!(
        t.misses as usize, CHURN_SHARDS,
        "{label}: only first-visit misses are allowed"
    );
    assert_eq!(t.hits as usize, CHURN_ROUNDS - CHURN_SHARDS);
    t
}

fn churn_json(seed: u64, label: &str, t: &TlbStats) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"seed\": {seed}, \"mode\": \"{label}\", \"switches\": {}, \
         \"switch_flushes\": {}, \"full_flushes\": {}, \"tlb_hits\": {}, \
         \"tlb_misses\": {}}}",
        t.switches, t.switch_flushes, t.flushes, t.hits, t.misses,
    );
    s
}

fn main() {
    let mut rows = Vec::new();
    println!("=== tlb shootdown: range-based invalidation (4-worker adaptive) ===");
    println!(
        "{:<10} {:<7} {:>7} {:>12} {:>14} {:>12} {:>10} {:>10}",
        "seed",
        "mode",
        "cycles",
        "full-flush",
        "partial-flush",
        "invalidated",
        "full/cyc",
        "coalesced"
    );
    for seed in SEEDS {
        let o = run("range", seed);
        println!(
            "{:<10} {:<7} {:>7} {:>12} {:>14} {:>12} {:>10.3} {:>10}",
            seed,
            o.label,
            o.cycles,
            o.tlb.flushes,
            o.tlb.partial_flushes,
            o.tlb.entries_invalidated,
            o.full_per_cycle(),
            o.coalesced,
        );
        assert_eq!(
            o.violations, 0,
            "seed {seed}/{}: layout-oracle violations (incl. stale translations)",
            o.label
        );
        rows.push(outcome_json(seed, &o));
        // The acceptance property: batching + range invalidation take
        // no full flush at all, and the partial path is exercised.
        assert!(o.cycles > 0, "seed {seed}: the schedule must run cycles");
        assert_eq!(
            o.tlb.flushes,
            0,
            "seed {seed}: range regime must take 0 full flushes per cycle \
             ({:.3})",
            o.full_per_cycle(),
        );
        assert!(
            o.tlb.partial_flushes > 0,
            "seed {seed}: range regime never took the partial-flush path"
        );
    }
    // Fleet-churn phase: the ASID-tagging win, measured and asserted.
    println!("=== fleet churn: ASID-tagged roaming TLB ({CHURN_SHARDS} shards) ===");
    println!(
        "{:<10} {:<16} {:>9} {:>14} {:>8} {:>8}",
        "seed", "mode", "switches", "switch-flush", "hits", "misses"
    );
    let mut churn_rows = Vec::new();
    for seed in SEEDS {
        let label = "churn_tagged";
        let t = churn(label, seed);
        println!(
            "{:<10} {:<16} {:>9} {:>14} {:>8} {:>8}",
            seed,
            label.trim_start_matches("churn_"),
            t.switches,
            t.switch_flushes,
            t.hits,
            t.misses,
        );
        churn_rows.push(churn_json(seed, label, &t));
    }
    let json = format!(
        "{{\n  \"bench\": \"tlb_shootdown\",\n  \"modules\": {MODULES},\n  \
         \"steps\": {STEPS},\n  \"rows\": [\n{}\n  ],\n  \
         \"churn_shards\": {CHURN_SHARDS},\n  \"churn_rounds\": {CHURN_ROUNDS},\n  \
         \"churn_rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        churn_rows.join(",\n")
    );
    std::fs::write("BENCH_tlb_shootdown.json", &json).expect("write BENCH_tlb_shootdown.json");
    println!("wrote BENCH_tlb_shootdown.json ({} rows)", rows.len());
}
