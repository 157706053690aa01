//! Publish cost against the resident count: what one re-randomization
//! cycle and one fault-in copy in the page tables while 0, 256 or 4096
//! other tiny modules sit resident in the same kernel.
//!
//! A write transaction path-copies the nodes it touches and shares the
//! rest with the previous snapshot, so its cost should depend on what
//! it touches, not on how much else is mapped. `SpaceStats::
//! slots_copied` counts exactly the node slots and chunk pointers
//! transactions copy, so each row here is an exact, deterministic
//! count: the same on both `ADELIE_ARCH` backends, and committed as
//! `BENCH_publish_scale.json`, which CI diffs. A publish that grows
//! with the resident count shows up as a diff, with no wall-clock
//! noise in the way.
//!
//! The target (ROADMAP item 1) is that beside 4096 residents a cycle
//! and a fault-in copy at most twice what they copy beside none. It is
//! not met: a cycle copies 21 slots beside none and 278 beside 4096
//! (13×), because the nodes on its path fill up and each copy of a
//! chunked node clones its chunk pointers too; a fault-in copies
//! nothing beside none (an empty root has nothing to share), so no
//! ratio anchors there. The run prints both ratios against the
//! 0-resident row and asserts a weaker regression guard: beside 4096
//! residents, a cycle and a fault-in copy at most twice what they copy
//! beside 256 — sixteen times the residents.
//!
//! It also prints, and does not commit, the same operations timed on
//! the wall clock (median of `REPS`), the cycle-vs-residents table of
//! DESIGN.md §14.6.

use adelie_core::{rerandomize_module, ModuleRegistry};
use adelie_isa::{AluOp, Insn, Reg};
use adelie_kernel::{Kernel, KernelConfig};
use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
use std::fmt::Write as _;
use std::time::Instant;

const RESIDENTS: [usize; 3] = [0, 256, 4096];
/// Cycles and load/unload pairs measured per row.
const REPS: u64 = 256;
const SEED: u64 = 5;

/// `{name}_calc(x) = x + 9`: the tiny module of the `fleet_cold`
/// benchmark.
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

/// Copied slots per operation (totals over [`REPS`]) and the median
/// wall time of one, in µs.
struct Row {
    residents: usize,
    cycle_slots: u64,
    load_slots: u64,
    unload_slots: u64,
    cycle_us: f64,
    fault_in_us: f64,
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e3
}

fn measure(residents: usize) -> Row {
    let kernel = Kernel::new(KernelConfig {
        seed: SEED,
        ..KernelConfig::default()
    });
    let registry = ModuleRegistry::new(&kernel);
    let opts = TransformOptions::rerandomizable(true);
    for i in 0..residents {
        let obj = transform(&tiny_spec(&format!("r{i}")), &opts).expect("transform resident");
        registry.load(&obj, &opts).expect("load resident");
    }
    let copied = || kernel.space.stats().slots_copied;

    // Cycles of one more tiny module.
    let obj = transform(&tiny_spec("probe"), &opts).expect("transform probe");
    let probe = registry.load(&obj, &opts).expect("load probe");
    let mut cycle_ns = Vec::new();
    let before = copied();
    for _ in 0..REPS {
        let t0 = Instant::now();
        rerandomize_module(&kernel, &registry, &probe).expect("cycle");
        cycle_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let cycle_slots = copied() - before;
    drop(probe);
    registry.unload("probe").expect("unload probe");
    kernel.space.flush_snapshots();

    // Fault-ins: load (one map transaction) and unload (one retire
    // transaction) of the same module.
    let (mut load_slots, mut unload_slots) = (0, 0);
    let mut fault_in_ns = Vec::new();
    for _ in 0..REPS {
        let before = copied();
        let t0 = Instant::now();
        registry.load(&obj, &opts).expect("fault-in");
        fault_in_ns.push(t0.elapsed().as_nanos() as u64);
        load_slots += copied() - before;
        let before = copied();
        registry.unload("probe").expect("evict");
        unload_slots += copied() - before;
    }
    Row {
        residents,
        cycle_slots,
        load_slots,
        unload_slots,
        cycle_us: median_us(cycle_ns),
        fault_in_us: median_us(fault_in_ns),
    }
}

fn main() {
    println!("=== publish scale: slots copied per operation ({REPS} each, seed {SEED}) ===");
    println!(
        "{:>9} {:>12} {:>13} {:>15} {:>10} {:>13}",
        "residents", "cycle slots", "fault-in slots", "eviction slots", "cycle µs", "fault-in µs"
    );
    let rows: Vec<Row> = RESIDENTS.iter().map(|&n| measure(n)).collect();
    let per = |total: u64| total as f64 / REPS as f64;
    for r in &rows {
        println!(
            "{:>9} {:>12.2} {:>13.2} {:>15.2} {:>10.1} {:>13.1}",
            r.residents,
            per(r.cycle_slots),
            per(r.load_slots),
            per(r.unload_slots),
            r.cycle_us,
            r.fault_in_us,
        );
    }
    let (empty, first, last) = (&rows[0], &rows[1], &rows[2]);
    let ratio = |hi: u64, lo: u64| {
        if lo == 0 {
            "n/a (nothing copied beside none)".to_string()
        } else {
            format!("{:.1}×", hi as f64 / lo as f64)
        }
    };
    println!(
        "beside {} vs {} residents: cycle {}, fault-in {} (target ≤ 2×)",
        last.residents,
        empty.residents,
        ratio(last.cycle_slots, empty.cycle_slots),
        ratio(last.load_slots, empty.load_slots),
    );
    for (what, lo, hi) in [
        ("cycle", first.cycle_slots, last.cycle_slots),
        ("fault-in", first.load_slots, last.load_slots),
    ] {
        assert!(
            hi <= 2 * lo,
            "a {what} copies {:.2} slots beside {} residents, more than twice the {:.2} \
             beside {}: publish cost grows with what it leaves alone",
            per(hi),
            last.residents,
            per(lo),
            first.residents
        );
    }
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut s = String::new();
            let _ = write!(
                s,
                "    {{\"residents\": {}, \"cycle_slots\": {}, \"fault_in_slots\": {}, \
                 \"eviction_slots\": {}, \"cycle_slots_per_op\": {:.2}, \
                 \"fault_in_slots_per_op\": {:.2}, \"eviction_slots_per_op\": {:.2}}}",
                r.residents,
                r.cycle_slots,
                r.load_slots,
                r.unload_slots,
                per(r.cycle_slots),
                per(r.load_slots),
                per(r.unload_slots),
            );
            s
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"publish_scale\",\n  \"seed\": {SEED},\n  \"reps\": {REPS},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_publish_scale.json", &json).expect("write BENCH_publish_scale.json");
    println!("wrote BENCH_publish_scale.json ({} rows)", rows.len());
}
