//! Wall-clock benchmark of the Adelie reproduction.
//!
//! ```text
//! perfbench --workload <ioctl_steady|nvme_rerand|fleet_cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every number is host wall time on the release build; modeled CPU
//! and modeled latency are never reported. The last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The process exits non-zero when any output check or
//! end-of-run verification fails. See `README.md` for the workloads,
//! the metric definitions and which end-to-end metric each layer metric
//! is expected to move.

mod fleet;
mod ioctl;
mod nvme;
mod trace;

use adelie_kernel::{TlbStats, Vm};
use std::time::{Duration, Instant};
use trace::{percentile, Series, SpanBuf, Trace};

/// Slices of an untraced run. Each is a stretch of the window, then
/// the cycle probe's share, then [`Workload::SLICE_SETUPS`] timed
/// set-ups, so every measurement meets the host's quiet and busy
/// periods wherever in the run they fall.
const SLICES: u32 = 10;
/// Untraced/traced slice pairs in a traced run; alternating them keeps
/// state drift (a fleet that keeps getting colder) out of the
/// trace-overhead estimate.
const TRACE_SLICES: u32 = 4;
/// Length of a companion run that supplies the layers the primary
/// workload does not exercise.
const COMPANION: Duration = Duration::from_millis(1500);

/// Cycles per latency chunk (10 samples beyond each chunk's p99).
pub const CYCLE_CHUNK: usize = 1_000;

/// What one measured window produced.
pub struct Window {
    pub wall: Duration,
    /// Client operations attempted, and those that failed or returned
    /// a wrong answer.
    pub calls: u64,
    pub failed_calls: u64,
    /// Per-operation latency.
    pub call_ns: Series,
    /// Re-randomization cycles attempted and failed.
    pub cycles: u64,
    pub failed_cycles: u64,
    /// Per-cycle latency: from the tick's ready time to return under a
    /// schedule, from call to return in a back-to-back probe.
    pub cycle_ns: Series,
}

impl Window {
    pub fn new(call_chunk: usize, start: Instant) -> Window {
        Window {
            wall: Duration::ZERO,
            calls: 0,
            failed_calls: 0,
            call_ns: Series::new(call_chunk, start),
            cycles: 0,
            failed_cycles: 0,
            cycle_ns: Series::new(CYCLE_CHUNK, start),
        }
    }

    fn merge(&mut self, o: Window) {
        self.wall += o.wall;
        self.calls += o.calls;
        self.failed_calls += o.failed_calls;
        self.call_ns.merge(o.call_ns);
        self.cycles += o.cycles;
        self.failed_cycles += o.failed_cycles;
        self.cycle_ns.merge(o.cycle_ns);
    }

    fn calls_per_s(&self) -> f64 {
        self.calls as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Simulated statistics of a fixed number of operations on a freshly
/// built system. Single-threaded and seeded, so every setup of one seed
/// must reproduce them exactly; a simulator-only speed-up must too.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Fingerprint {
    pub ops: u64,
    pub failed: u64,
    pub insns: u64,
    pub tlb_hits: u64,
    pub tlb_micro_hits: u64,
    pub tlb_misses: u64,
    pub fault_ins: u64,
    pub demand_redirects: u64,
    pub evictions: u64,
    pub pages_mapped: u64,
    pub pages_unmapped: u64,
}

/// One benchmark workload over the public API of the layers.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Client calls per latency chunk.
    const CALL_CHUNK: usize = 2_000;
    /// Systems built before measuring (the last one is measured).
    const SETUP_REPS: usize = 3;
    /// Further systems built and dropped after each slice. `setup_s` is
    /// the median build time over all of them.
    const SLICE_SETUPS: usize = 3;
    /// Build the system: boot, load, provision. Timed as `setup_s`.
    fn setup(seed: u64) -> Self;
    /// Run the fixed-length deterministic window (see [`Fingerprint`]).
    fn fingerprint(&self) -> Fingerprint;
    /// Closed-loop client traffic for `dur`, spans recorded into
    /// `trace` when given.
    fn window(&self, dur: Duration, trace: Option<&Trace>) -> Window;
    /// Whether the window re-randomizes nothing, so that cycle latency
    /// comes from [`Workload::cycle_probe`], run for a fifth of the run
    /// in slices between the window's (see [`SLICES`]).
    const PROBES_CYCLES: bool = false;
    /// Back-to-back re-randomization cycles of the workload's own
    /// modules for `dur`, and at least one chunk of them.
    fn cycle_probe(&self, _dur: Duration) -> Window {
        Window::new(Self::CALL_CHUNK, Instant::now())
    }
    /// End-of-run verification; returns every violation found.
    fn verify(&self) -> Vec<String>;
}

/// Deterministic per-operation input derived from the seed (splitmix64).
pub fn input(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 8
}

/// Counter snapshot of one simulated CPU, taken around a traced call.
pub fn cpu_counters(vm: &Vm<'_>) -> (u64, TlbStats) {
    (vm.insns_retired(), vm.tlb_stats())
}

/// Add the instructions and TLB activity of one call (since `before`)
/// to the call-layer counters.
pub fn count_call(buf: &mut SpanBuf<'_>, vm: &Vm<'_>, before: (u64, TlbStats)) {
    let d = vm.tlb_stats().delta_since(&before.1);
    buf.add("calls", 1);
    buf.add("insns", vm.insns_retired() - before.0);
    buf.add("tlb.hits", d.hits);
    buf.add("tlb.micro_hits", d.micro_hits);
    buf.add("tlb.misses", d.misses);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Ordered `(name, value, unit)` metric rows.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    /// `<name>.p50`, `<name>.p99` (µs or ns) and `<name>.n` of ns samples.
    fn timing(&mut self, name: &str, mut ns: Vec<u64>, unit: &'static str) {
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        self.put(
            format!("{name}.p50"),
            percentile(&mut ns, 0.50) as f64 / scale,
            unit,
        );
        self.put(
            format!("{name}.p99"),
            percentile(&mut ns, 0.99) as f64 / scale,
            unit,
        );
        self.put(format!("{name}.n"), ns.len() as f64, "count");
    }

    fn ratio(&mut self, name: &str, num: u64, den: u64, unit: &'static str) {
        self.put(name, num as f64 / den.max(1) as f64, unit);
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tallies behind `correct`, `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn window(&mut self, w: &Window) {
        self.attempted += w.calls + w.cycles;
        self.failed += w.failed_calls + w.failed_cycles;
    }

    fn verify(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        self.problems.extend(problems);
    }
}

/// Build the system [`Workload::SETUP_REPS`] times and keep the last.
/// The last two builds also run the fingerprint window, which must
/// agree. Returns the system, the setup times (ns) and its fingerprint.
fn build<W: Workload>(seed: u64, tally: &mut Tally) -> (W, Vec<u64>, Fingerprint) {
    let mut times = Vec::new();
    let mut prints: Vec<Fingerprint> = Vec::new();
    let mut sys = None;
    for rep in 0..W::SETUP_REPS {
        drop(sys.take());
        let t0 = Instant::now();
        let w = W::setup(seed);
        times.push(t0.elapsed().as_nanos() as u64);
        if rep + 2 >= W::SETUP_REPS {
            prints.push(w.fingerprint());
        }
        sys = Some(w);
    }
    let fp = prints[0];
    tally.attempted += prints.iter().map(|p| p.ops).sum::<u64>();
    tally.failed += prints.iter().map(|p| p.failed).sum::<u64>();
    if prints.iter().any(|p| *p != fp) {
        tally.failed += 1;
        tally.problems.push(format!(
            "simulated counts differ across setups of one seed: {prints:?}"
        ));
    }
    (sys.expect("at least one setup"), times, fp)
}

/// Set up `C` once, bring it to its measured state with the
/// fingerprint window, and run one traced window of it.
fn companion<C: Workload>(seed: u64, tally: &mut Tally) -> Trace {
    let sys = C::setup(seed);
    let fp = sys.fingerprint();
    tally.attempted += fp.ops;
    tally.failed += fp.failed;
    let trace = Trace::new(C::NAME);
    let w = sys.window(COMPANION, Some(&trace));
    tally.window(&w);
    tally.verify(sys.verify());
    trace
}

fn run<W: Workload>(args: &Args) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let (sys, setup_times, fp) = build::<W>(args.seed, &mut tally);
    let dur = Duration::from_secs_f64(args.seconds);
    println!("workload {} seed {} fingerprint {fp:?}", W::NAME, args.seed);
    let mut m = Metrics::default();
    if !args.trace {
        let mut w = Window::new(W::CALL_CHUNK, Instant::now());
        let mut setup = setup_times;
        let probe = if W::PROBES_CYCLES {
            dur / 5
        } else {
            Duration::ZERO
        };
        for _ in 0..SLICES {
            w.merge(sys.window((dur - probe) / SLICES, None));
            if W::PROBES_CYCLES {
                w.merge(sys.cycle_probe(probe / SLICES));
            }
            for _ in 0..W::SLICE_SETUPS {
                let t0 = Instant::now();
                let extra = W::setup(args.seed);
                setup.push(t0.elapsed().as_nanos() as u64);
                drop(extra);
            }
        }
        let whole_run = w.calls_per_s();
        tally.window(&w);
        tally.verify(sys.verify());
        m.put("setup_s", percentile(&mut setup, 0.5) as f64 / 1e9, "s");
        let (calls, cycles) = (&w.call_ns, &w.cycle_ns);
        let (call_p50, call_p99, rate) = calls.fast();
        let (cycle_p50, cycle_p99, _) = cycles.fast();
        m.put("calls_per_s", rate as f64 / 1e3, "1/s");
        m.put("call_p50_us", call_p50 as f64 / 1e3, "us");
        m.put("call_p99_us", call_p99 as f64 / 1e3, "us");
        println!(
            "samples: {} calls in {} chunks over {:.3} s ({whole_run:.0} calls/s whole-run), \
             {} cycles in {} chunks; failed_ops_ratio {}/{}; peak_rss_mb {:.3} MB; \
             cycle_p50_us {:.3} us; cycle_p99_us {:.3} us",
            calls.n,
            calls.p50s.len(),
            w.wall.as_secs_f64(),
            cycles.n,
            cycles.p50s.len(),
            tally.failed,
            tally.attempted,
            peak_rss_mb(),
            cycle_p50 as f64 / 1e3,
            cycle_p99 as f64 / 1e3
        );
        return (tally, m);
    }

    let primary = Trace::new(W::NAME);
    let slice = dur / (2 * TRACE_SLICES);
    let (mut plain, mut traced) = (
        Window::new(W::CALL_CHUNK, Instant::now()),
        Window::new(W::CALL_CHUNK, Instant::now()),
    );
    for _ in 0..TRACE_SLICES {
        plain.merge(sys.window(slice, None));
        traced.merge(sys.window(slice, Some(&primary)));
    }
    tally.window(&plain);
    tally.window(&traced);
    if W::PROBES_CYCLES {
        // Only so the probed modules go through the end-of-run checks.
        tally.window(&sys.cycle_probe(dur / 20));
    }
    tally.verify(sys.verify());
    let nvme =
        (W::NAME != nvme::Nvme::NAME).then(|| companion::<nvme::Nvme>(args.seed, &mut tally));
    let fleet = (W::NAME != fleet::FleetCold::NAME)
        .then(|| companion::<fleet::FleetCold>(args.seed, &mut tally));
    let nvme = nvme.as_ref().unwrap_or(&primary);
    let fleet = fleet.as_ref().unwrap_or(&primary);

    call_layer(&mut m, &primary);
    ioctl::microprobes(args.seed, &mut m);
    rerand_layer(&mut m, nvme);
    nvme::layer(&mut m, nvme);
    fleet::layer(&mut m, fleet);
    let overhead = (plain.calls_per_s() - traced.calls_per_s()) / plain.calls_per_s() * 100.0;
    m.put("bench.trace_overhead_pct", overhead, "%");
    for (name, v) in [
        ("insns", fp.insns),
        ("tlb_hits", fp.tlb_hits),
        ("tlb_micro_hits", fp.tlb_micro_hits),
        ("tlb_misses", fp.tlb_misses),
        ("fault_ins", fp.fault_ins),
        ("demand_redirects", fp.demand_redirects),
        ("evictions", fp.evictions),
        ("pages_mapped", fp.pages_mapped),
        ("pages_unmapped", fp.pages_unmapped),
    ] {
        m.put(format!("sim.{name}"), v as f64, "count");
    }

    let mut traces = vec![&primary];
    traces.extend(
        [nvme, fleet]
            .into_iter()
            .filter(|t| !std::ptr::eq(*t, &primary)),
    );
    let spans: usize = traces.iter().map(|t| t.span_count()).sum();
    m.put("bench.spans", spans as f64, "count");
    let path = std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-seed{}.tsv",
        W::NAME,
        args.seed
    ));
    match trace::write_spans(&path, &traces) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => tally.verify(vec![format!("writing {}: {e}", path.display())]),
    }
    (tally, m)
}

/// Per-call cost of the client's call into the kernel: `Kernel::ioctl`,
/// `Vfs::pread` or a resident `Vm::call`.
fn call_layer(m: &mut Metrics, t: &Trace) {
    let ns = t.durations(&[
        "kernel.ioctl",
        "kernel.fs.pread_idle",
        "kernel.fs.pread_during_cycle",
        "kernel.vm_call",
    ]);
    let total_ns: u64 = ns.iter().sum();
    m.timing("kernel.call_us", ns, "us");
    let (calls, insns) = (t.counter("calls"), t.counter("insns"));
    let (hits, misses) = (t.counter("tlb.hits"), t.counter("tlb.misses"));
    m.ratio("kernel.insns_per_call", insns, calls, "insns");
    m.ratio("kernel.ns_per_insn", total_ns, insns, "ns");
    m.ratio(
        "vmem.tlb.micro_hit_ratio",
        t.counter("tlb.micro_hits"),
        hits + misses,
        "ratio",
    );
    m.put("vmem.tlb.lookups", (hits + misses) as f64, "count");
    m.ratio("vmem.tlb.misses_per_call", misses, calls, "count");
}

/// Stage span names, in cycle order.
pub const STAGES: [(adelie_core::CycleStage, &str); 8] = {
    use adelie_core::CycleStage::*;
    [
        (Reserve, "core.rerand.stage.reserve_us"),
        (AliasMap, "core.rerand.stage.alias_us"),
        (MovableGot, "core.rerand.stage.movable-got_us"),
        (ImmovableGotSwap, "core.rerand.stage.immovable-got-swap_us"),
        (AdjustSlots, "core.rerand.stage.adjust-slots_us"),
        (UpdatePointers, "core.rerand.stage.update-pointers_us"),
        (Retire, "core.rerand.stage.retire_us"),
        (StackRotate, "core.rerand.stage.stack-rotate_us"),
    ]
};

/// Re-randomization cycle cost, split by stage, with the page-table,
/// frame, SMR and shootdown work each cycle causes.
fn rerand_layer(m: &mut Metrics, t: &Trace) {
    m.timing(
        "core.rerand.cycle_us",
        t.durations(&["core.rerand.cycle"]),
        "us",
    );
    for (stage, name) in STAGES {
        // No storage module has an `update_pointers` callback, so that
        // stage never runs on the measured path.
        if stage != adelie_core::CycleStage::UpdatePointers {
            m.timing(name, t.durations(&[name]), "us");
        }
    }
    let cycles = t.counter("cycles");
    m.ratio(
        "vmem.batches_per_cycle",
        t.counter("cycle.batches"),
        cycles,
        "count",
    );
    m.ratio(
        "vmem.snapshot_publishes_per_cycle",
        t.counter("cycle.snapshot_publishes"),
        cycles,
        "count",
    );
    m.ratio(
        "vmem.phys.frames_allocated_per_cycle",
        t.counter("cycle.frames_allocated"),
        cycles,
        "count",
    );
    m.ratio(
        "reclaim.retired_per_cycle",
        t.counter("cycle.retired"),
        cycles,
        "count",
    );
    let mut outstanding = t.samples("reclaim.outstanding");
    m.put(
        "reclaim.outstanding_p99",
        percentile(&mut outstanding, 0.99) as f64,
        "count",
    );
    m.put("reclaim.outstanding.n", outstanding.len() as f64, "count");
    m.ratio(
        "vmem.tlb.partial_flushes_per_cycle",
        t.counter("reader.tlb.partial_flushes"),
        cycles,
        "count",
    );
    m.ratio(
        "vmem.tlb.full_flushes_per_cycle",
        t.counter("reader.tlb.full_flushes"),
        cycles,
        "count",
    );
    m.ratio(
        "vmem.tlb.entries_invalidated_per_cycle",
        t.counter("reader.tlb.entries_invalidated"),
        cycles,
        "count",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (tally, m) = match args.workload.as_str() {
        ioctl::Ioctl::NAME => run::<ioctl::Ioctl>(&args),
        nvme::Nvme::NAME => run::<nvme::Nvme>(&args),
        fleet::FleetCold::NAME => run::<fleet::FleetCold>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for p in &tally.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let mut json = String::new();
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        println!("{name:<48} {value:>16} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
