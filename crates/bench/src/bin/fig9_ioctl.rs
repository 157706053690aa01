//! Fig. 9 — the CPU-bound null-ioctl benchmark: wrapper cost (~4%) and
//! stack re-randomization cost (~6% more) isolated.
//!
//! The wall-clock rows time this reproduction's interpreter, so their
//! percentages are in interpreter currency: every added instruction
//! costs tens of nanoseconds here, not the fraction of a nanosecond it
//! costs on silicon. What carries over from the paper is the work each
//! configuration adds per call, which the bin counts exactly (a warm
//! CPU, every steady call identical) and writes to `BENCH_fig9.json`:
//! interpreted instructions, TLB lookups, native crossings (kernel
//! functions entered from module code) and GOT/PLT hops (RIP-relative
//! pointer loads: each GOT-routed call, PLT stub and return-address
//! key load makes one). CI diffs the file on both arches.

use adelie_bench::{overhead_pct, point_duration, print_header, print_row, Unit};
use adelie_drivers::specs::DUMMY_MINOR;
use adelie_plugin::TransformOptions;
use adelie_sched::{Clock, SchedConfig};
use adelie_workloads::{run_ioctl, DriverSet, Testbed};
use std::time::Duration;

/// Calls before counting: binds stacks, fills the TLB and decoded runs.
const WARMUP: u64 = 16;
/// Calls counted per configuration.
const CALLS: u64 = 256;

/// Exact per-call work of one transform configuration.
struct Counts {
    label: &'static str,
    insns: u64,
    tlb_lookups: u64,
    native_crossings: u64,
    got_plt_hops: u64,
}

fn count(label: &'static str, opts: TransformOptions) -> Counts {
    let tb = Testbed::new(opts, DriverSet::dummy_only());
    let mut vm = tb.kernel.vm();
    for i in 0..WARMUP {
        assert_eq!(tb.kernel.ioctl(&mut vm, DUMMY_MINOR, 0, i).unwrap(), i);
    }
    let snap = |vm: &adelie_kernel::Vm<'_>| {
        let t = vm.tlb_stats();
        [
            vm.insns_retired(),
            t.hits + t.misses,
            vm.natives_called(),
            vm.rip_loads(),
        ]
    };
    let before = snap(&vm);
    for i in 0..CALLS {
        assert_eq!(tb.kernel.ioctl(&mut vm, DUMMY_MINOR, 0, i).unwrap(), i);
    }
    let after = snap(&vm);
    let per_call: Vec<u64> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| {
            let d = a - b;
            assert_eq!(d % CALLS, 0, "{label}: steady calls differ");
            d / CALLS
        })
        .collect();
    Counts {
        label,
        insns: per_call[0],
        tlb_lookups: per_call[1],
        native_crossings: per_call[2],
        got_plt_hops: per_call[3],
    }
}

fn write_counts(rows: &[Counts]) {
    println!("\nper-call work (exact, warm CPU):");
    println!(
        "  {:<40} {:>6} {:>8} {:>8} {:>8}",
        "configuration", "insns", "lookups", "natives", "got/plt"
    );
    let mut json_rows = Vec::new();
    for c in rows {
        println!(
            "  {:<40} {:>6} {:>8} {:>8} {:>8}",
            c.label, c.insns, c.tlb_lookups, c.native_crossings, c.got_plt_hops
        );
        json_rows.push(format!(
            "    {{\"configuration\": \"{}\", \"insns\": {}, \"tlb_lookups\": {}, \
             \"native_crossings\": {}, \"got_plt_hops\": {}}}",
            c.label, c.insns, c.tlb_lookups, c.native_crossings, c.got_plt_hops
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fig9_ioctl\",\n  \"calls\": {CALLS},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_fig9.json", json).expect("write BENCH_fig9.json");
    println!("wrote BENCH_fig9.json ({} rows)", rows.len());
}

fn main() {
    print_header("Fig. 9", "null-ioctl throughput (Mops/s scale-model)");
    let mut wrappers_only = TransformOptions::rerandomizable(true);
    wrappers_only.stack_rerand = false;
    wrappers_only.encrypt_ret = false;
    let configs = [
        ("linux (vanilla)", TransformOptions::vanilla(true)),
        ("wrappers only", wrappers_only),
        (
            "wrappers + stack rerand + encryption",
            TransformOptions::rerandomizable(true),
        ),
    ];
    let dur = point_duration();
    let mut results: Vec<(String, f64)> = Vec::new();
    let mut run = |label: &str, opts: TransformOptions, period: Option<u64>| {
        let tb = Testbed::new(opts, DriverSet::dummy_only());
        let rr = period.map(|ms| {
            tb.start_scheduler(
                SchedConfig::serial(Duration::from_millis(ms)),
                Clock::wall(),
            )
        });
        let m = run_ioctl(&tb, dur);
        if let Some(rr) = rr {
            rr.stop();
        }
        print_row(label, &m, Unit::MopsPerSec);
        results.push((label.to_string(), m.ops_per_sec()));
    };
    for (label, opts) in configs {
        run(label, opts, None);
    }
    let full = TransformOptions::rerandomizable(true);
    run("  + continuous rerand 5 ms", full, Some(5));
    run("  + continuous rerand 1 ms", full, Some(1));
    let base = results[0].1;
    println!("\noverheads vs vanilla (interpreter currency):");
    for (label, ops) in &results[1..] {
        println!("  {label:<40} {:>5.1}%", overhead_pct(base, *ops));
    }
    println!("paper: wrappers ≈4%, +stack randomization ≈6% more");
    let counts: Vec<Counts> = configs
        .into_iter()
        .map(|(label, opts)| count(label, opts))
        .collect();
    write_counts(&counts);
}
