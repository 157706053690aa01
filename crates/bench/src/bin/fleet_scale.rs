//! The cold tier at catalog scale: 10^5 modules registered, a Zipf
//! call stream, and a resident cap two orders of magnitude below the
//! catalog — emitted as `BENCH_fleet_scale.json` (a committed baseline
//! CI diffs against) plus a console table.
//!
//! Modules are *registered* (catalog-only — nothing materializes at
//! registration) and pinned by tenant onto the shards; the seeded
//! permutation scatters the Zipf(1.1) hot set across tenants. Every
//! call faults its module in for real and executes it, and every cold
//! tick really evicts; per-shard [`LayoutOracle`]s audit evicted spans,
//! stale translations, and GOT integrity throughout. A deterministic
//! arrival step is the virtual clock that drives `cold_tick`; nothing
//! here is timed or modeled — wall-clock fleet latency comes from
//! perfbench's `fleet_cold` workload. Assertions per seed:
//!
//! * residents ≤ cap after every cold tick, at 10^5 registered,
//! * zero oracle/layout/symbol violations,
//! * the run replays byte-identically (every tick's evicted names and
//!   the final catalog) when run twice from the same seed.
//!
//! Every row is an exact count or a digest, identical under both
//! `ADELIE_ARCH` backends.

use adelie_core::{AdmissionConfig, ColdTierConfig, Fleet, Pinned};
use adelie_isa::{AluOp, Insn, Reg};
use adelie_kernel::{FleetConfig, KernelConfig, ShardedKernel};
use adelie_obj::ObjectFile;
use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
use adelie_sched::SimClock;
use adelie_testkit::{LayoutOracle, Workload, WorkloadConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const SEEDS: [u64; 3] = [1, 42, 0xA77ACC];
/// Catalog size: the 10^5-registered acceptance point.
const CATALOG: usize = 100_000;
const TENANTS: usize = 32;
const THETA: f64 = 1.1;
const SHARDS: usize = 4;
/// Hot working set the fleet may keep resident — ~0.5% of the catalog.
const MAX_RESIDENT: usize = 512;
const CALLS: usize = 12_000;
/// Virtual time between calls; `CALLS × INTERARRIVAL_NS` spans ten
/// cold ticks.
const INTERARRIVAL_NS: u64 = 420;
/// Cold-tick cadence on the virtual clock.
const TICK_NS: u64 = 500_000;

/// A tiny driver: `{name}_calc(x) = x + 9`. Kept minimal so 10^5 of
/// them transform in seconds and the catalog stays cheap to clone.
fn tiny_spec(name: &str) -> ModuleSpec {
    let mut s = ModuleSpec::new(name);
    s.funcs.push(FuncSpec::exported(
        &format!("{name}_calc"),
        vec![
            MOp::Insn(Insn::MovRR {
                dst: Reg::Rax,
                src: Reg::Rdi,
            }),
            MOp::Insn(Insn::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 9,
            }),
            MOp::Ret,
        ],
    ));
    s
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

struct Outcome {
    seed: u64,
    ticks: u64,
    fault_ins: u64,
    evictions: u64,
    resident_end: u64,
    violations: u64,
    /// FNV-1a over every tick's evicted names + the final catalog —
    /// the determinism fingerprint compared across replayed runs.
    digest: u64,
}

fn run(seed: u64, objs: &[ObjectFile], opts: &TransformOptions) -> Outcome {
    let wl_cfg = WorkloadConfig {
        modules: CATALOG,
        tenants: TENANTS,
        theta: THETA,
        seed,
    };
    let mut wl = Workload::new(wl_cfg);
    let pins: HashMap<String, usize> = (0..CATALOG)
        .map(|i| (wl.names()[i].clone(), wl.tenant(i) % SHARDS))
        .collect();
    let sharded = ShardedKernel::new(FleetConfig {
        shards: SHARDS,
        base: KernelConfig {
            seed,
            ..KernelConfig::default()
        },
    });
    let fleet = Fleet::with_admission(
        sharded,
        Box::new(Pinned::new(pins, 0)),
        AdmissionConfig {
            max_modules_per_shard: 200_000,
        },
    );
    fleet.enable_cold_tier(ColdTierConfig {
        idle_ns: 50_000_000,
        max_resident: MAX_RESIDENT,
    });
    for obj in objs {
        fleet.register(obj, opts).expect("register");
    }
    let oracles: Vec<Arc<LayoutOracle>> = (0..SHARDS)
        .map(|i| {
            let oracle = LayoutOracle::new(fleet.kernel(i).clone(), SimClock::new());
            fleet.registry(i).set_cycle_hooks(oracle.clone());
            oracle
        })
        .collect();
    let kernels: Vec<_> = (0..SHARDS).map(|s| fleet.kernel(s).clone()).collect();
    let mut vms: Vec<_> = kernels.iter().map(|k| k.vm()).collect();

    // `tracked` maps a sampled evicted module to the shard whose oracle
    // is watching its vacated spans.
    let mut tracked: HashMap<String, usize> = HashMap::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut now_ns = 0u64;
    let mut next_tick = TICK_NS;
    let mut ticks = 0u64;
    for _ in 0..CALLS {
        now_ns += INTERARRIVAL_NS;
        while now_ns >= next_tick {
            ticks += 1;
            fnv1a(&mut digest, &next_tick.to_le_bytes());
            for name in fleet.cold_tick(next_tick) {
                fnv1a(&mut digest, name.as_bytes());
                let shard = fleet.shard_of(&name).expect("evicted stays cataloged");
                if tracked.len() < 64 {
                    let spans = fleet.evicted_spans(&name).unwrap_or_default();
                    oracles[shard].module_evicted(&name, &spans);
                    tracked.insert(name, shard);
                }
            }
            let st = fleet.cold_stats();
            assert!(
                st.resident as u64 <= MAX_RESIDENT as u64,
                "seed {seed}: {} resident after a cold tick (cap {MAX_RESIDENT}, \
                 {CATALOG} registered)",
                st.resident
            );
            next_tick += TICK_NS;
        }
        let target = wl.next_index();
        let name = wl.names()[target].clone();
        let owner = fleet.shard_of(&name).expect("registered");
        let was_cold = fleet.registry(owner).get(&name).is_none();
        let (shard, module) = fleet.ensure_resident(&name).expect("fault-in");
        if was_cold {
            if let Some(oracle_shard) = tracked.remove(&name) {
                oracles[oracle_shard].module_faulted_in(&name);
            }
        }
        let entry = module.export(&format!("{name}_calc")).expect("export");
        assert_eq!(
            vms[shard].call(entry, &[33]).expect("call"),
            42,
            "{name} on shard {shard}"
        );
    }

    // Wind down: fault the still-watched evictees back in so their
    // spans stop being asserted-unmapped (the allocator may have reused
    // them for later fault-ins), then run every verifier.
    for (name, oracle_shard) in tracked.drain() {
        fleet.ensure_resident(&name).expect("fault-in at drain");
        oracles[oracle_shard].module_faulted_in(&name);
    }
    let mut violations = 0u64;
    for (i, oracle) in oracles.iter().enumerate() {
        let report = oracle.verify_quiesced(fleet.registry(i), None, 0);
        for v in &report.violations {
            eprintln!("oracle violation [seed {seed}/shard {i}]: {v}");
        }
        violations += report.violations.len() as u64;
    }
    for v in fleet.verify_layout() {
        eprintln!("layout violation [seed {seed}]: {v}");
        violations += 1;
    }
    for v in fleet.verify_symbol_integrity() {
        eprintln!("symbol integrity [seed {seed}]: {v}");
        violations += 1;
    }

    let st = fleet.cold_stats();
    for (name, shard) in fleet.modules() {
        fnv1a(&mut digest, name.as_bytes());
        fnv1a(&mut digest, &(shard as u64).to_le_bytes());
    }
    Outcome {
        seed,
        ticks,
        fault_ins: st.fault_ins,
        evictions: st.evictions,
        resident_end: st.resident as u64,
        violations,
        digest,
    }
}

fn outcome_json(o: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"seed\": {}, \"registered\": {CATALOG}, \"resident_cap\": {MAX_RESIDENT}, \
         \"ticks\": {}, \"resident_end\": {}, \"fault_ins\": {}, \"evictions\": {}, \
         \"oracle_violations\": {}, \"digest\": \"{:016x}\"}}",
        o.seed, o.ticks, o.resident_end, o.fault_ins, o.evictions, o.violations, o.digest,
    );
    s
}

fn main() {
    println!(
        "=== fleet scale: {CATALOG} registered, cap {MAX_RESIDENT} resident, \
         Zipf({THETA}) over {TENANTS} tenants, {SHARDS} shards ==="
    );
    let t0 = Instant::now();
    let opts = TransformOptions::rerandomizable(true);
    // Transform the whole catalog once; every run re-registers the same
    // objects into a fresh fleet.
    let wl = Workload::new(WorkloadConfig {
        modules: CATALOG,
        tenants: TENANTS,
        theta: THETA,
        seed: SEEDS[0],
    });
    let objs: Vec<ObjectFile> = wl
        .names()
        .iter()
        .map(|n| transform(&tiny_spec(n), &opts).expect("transform"))
        .collect();
    println!("transformed {CATALOG} objects in {:?}", t0.elapsed());
    println!(
        "{:<10} {:<7} {:>6} {:>9} {:>9} {:>9} {:>18} {:>5}",
        "seed", "run", "ticks", "fault-ins", "evictions", "resident", "digest", "viol"
    );
    let mut rows = Vec::new();
    for seed in SEEDS {
        let first = run(seed, &objs, &opts);
        let replay = run(seed, &objs, &opts);
        for (label, o) in [("first", &first), ("replay", &replay)] {
            println!(
                "{:<10} {:<7} {:>6} {:>9} {:>9} {:>9} {:>18} {:>5}",
                o.seed,
                label,
                o.ticks,
                o.fault_ins,
                o.evictions,
                o.resident_end,
                format!("{:016x}", o.digest),
                o.violations
            );
            assert_eq!(o.violations, 0, "seed {seed}/{label}: violations");
        }
        // Determinism: same seed, same evictions tick by tick, same
        // final catalog — byte-identical replay.
        assert_eq!(
            first.digest, replay.digest,
            "seed {seed}: run did not replay deterministically"
        );
        assert_eq!(
            (first.fault_ins, first.evictions),
            (replay.fault_ins, replay.evictions)
        );
        rows.push(outcome_json(&first));
    }
    let json = format!(
        "{{\n  \"bench\": \"fleet_scale\",\n  \"registered\": {CATALOG},\n  \
         \"tenants\": {TENANTS},\n  \"theta\": {THETA},\n  \"shards\": {SHARDS},\n  \
         \"resident_cap\": {MAX_RESIDENT},\n  \"calls\": {CALLS},\n  \
         \"interarrival_ns\": {INTERARRIVAL_NS},\n  \"tick_ns\": {TICK_NS},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_fleet_scale.json", &json).expect("write BENCH_fleet_scale.json");
    println!(
        "wrote BENCH_fleet_scale.json ({} rows) in {:?}",
        rows.len(),
        t0.elapsed()
    );
}
