//! # adelie-bench — benchmark harness shared helpers
//!
//! The Criterion benches (`benches/`) time the paper's workloads; the
//! figure binaries (`src/bin/fig*.rs`, `table2_chains`, `scalability`,
//! `security_analysis`) regenerate each table and figure of the
//! evaluation section as text tables, recorded in EXPERIMENTS.md.

use adelie_workloads::Measurement;
use std::time::Duration;

/// Measurement window for figure binaries; override with
/// `ADELIE_SECS=<float>` (default 0.5 s per data point).
pub fn point_duration() -> Duration {
    let secs: f64 = std::env::var("ADELIE_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    Duration::from_secs_f64(secs)
}

/// Concurrency scale for the macro workloads; override with
/// `ADELIE_CONC` (default 8 — the interpreter is ~100× slower than
/// silicon, so the paper's 25–100 clients are scaled down; shapes, not
/// absolutes, carry over).
pub fn concurrency_levels() -> Vec<usize> {
    if let Ok(v) = std::env::var("ADELIE_CONC") {
        if let Ok(n) = v.parse::<usize>() {
            return vec![n];
        }
    }
    vec![2, 4, 8]
}

/// A formatted figure row.
pub fn print_row(label: &str, m: &Measurement, unit: Unit) {
    let value = match unit {
        Unit::OpsPerSec => format!("{:>12.0} ops/s", m.ops_per_sec()),
        Unit::MopsPerSec => format!("{:>12.3} Mops/s", m.ops_per_sec() / 1e6),
        Unit::MbPerSec => format!("{:>12.2} MB/s", m.mb_per_sec()),
        Unit::Seconds => format!("{:>12.3} s", m.wall.as_secs_f64()),
    };
    println!("{label:<44} {value}   cpu {:>5.1}%", m.cpu_percent());
}

/// Throughput unit for a row.
#[derive(Copy, Clone, Debug)]
pub enum Unit {
    /// Operations per second.
    OpsPerSec,
    /// Millions of operations per second (Fig. 9).
    MopsPerSec,
    /// Megabytes per second (Fig. 8).
    MbPerSec,
    /// Elapsed seconds (Fig. 5d).
    Seconds,
}

/// Print a figure header.
pub fn print_header(figure: &str, caption: &str) {
    println!("\n=== {figure}: {caption} ===");
}

/// Relative delta of `new` vs `base` in percent (positive = slower /
/// fewer ops).
pub fn overhead_pct(base: f64, new: f64) -> f64 {
    (base - new) / base * 100.0
}

/// Shared read-contention harness: `readers` simulated CPUs hammer a
/// module fleet's exports while a writer thread re-randomizes the
/// whole fleet back-to-back for the window. Used by the
/// `translate_throughput` bin, which attaches a `LayoutOracle` and
/// asserts.
pub mod contention {
    use adelie_core::{rerandomize_module, LoadedModule, ModuleRegistry};
    use adelie_isa::{AluOp, Insn, Reg};
    use adelie_kernel::Kernel;
    use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Argument the reader threads pass to every export.
    pub const CALC_ARG: u64 = 16;
    /// Expected return (`modN_calc(x) = x + 1`); anything else counts
    /// as a reader error.
    pub const CALC_RET: u64 = CALC_ARG + 1;

    /// What one contention window produced.
    #[derive(Clone, Copy, Debug)]
    pub struct Outcome {
        /// Total reader calls completed across all reader threads.
        pub calls: u64,
        /// Re-randomization cycles the writer completed meanwhile.
        pub cycles: u64,
        /// Cycles that failed (0 in a healthy run).
        pub failed_cycles: u64,
        /// Reader calls that faulted or returned the wrong value.
        pub reader_errors: u64,
        /// Reader threads actually spawned — consumers must report this
        /// next to whatever count they *asked* for, so a constrained
        /// host can never mislabel a 1-reader run as a 4-reader row.
        pub readers_spawned: usize,
        /// Kernel-wide TLB counter delta over the window (hits, misses,
        /// micro-TLB hits, flushes) summed across the reader CPUs.
        pub tlb: adelie_kernel::TlbStats,
    }

    /// Load `count` re-randomizable one-export modules
    /// (`mod{i}_calc(x) = x + 1`) — the fleet both consumers hammer.
    pub fn fleet(registry: &Arc<ModuleRegistry>, count: usize) -> Vec<Arc<LoadedModule>> {
        let opts = TransformOptions::rerandomizable(true);
        (0..count)
            .map(|i| {
                let mut spec = ModuleSpec::new(&format!("mod{i}"));
                spec.funcs.push(FuncSpec::exported(
                    &format!("mod{i}_calc"),
                    vec![
                        MOp::Insn(Insn::MovRR {
                            dst: Reg::Rax,
                            src: Reg::Rdi,
                        }),
                        MOp::Insn(Insn::AluImm {
                            op: AluOp::Add,
                            dst: Reg::Rax,
                            imm: 1,
                        }),
                        MOp::Ret,
                    ],
                ));
                let obj = transform(&spec, &opts).unwrap();
                registry.load(&obj, &opts).unwrap()
            })
            .collect()
    }

    /// Run one window: a nonstop re-randomization writer vs `readers`
    /// interpreter CPUs calling every export of `modules` in a loop.
    pub fn run(
        kernel: &Arc<Kernel>,
        registry: &Arc<ModuleRegistry>,
        modules: &[Arc<LoadedModule>],
        readers: usize,
        window: Duration,
    ) -> Outcome {
        run_window(kernel, registry, modules, readers, window, true)
    }

    /// Run one window of **steady** traffic: the same reader loop with
    /// no re-randomization writer, so generations stand still. This is
    /// the regime the micro-TLB hit-rate assertion measures — under
    /// steady ioctl-style traffic the hot path should be almost
    /// entirely micro-TLB hits.
    pub fn run_steady(
        kernel: &Arc<Kernel>,
        registry: &Arc<ModuleRegistry>,
        modules: &[Arc<LoadedModule>],
        readers: usize,
        window: Duration,
    ) -> Outcome {
        run_window(kernel, registry, modules, readers, window, false)
    }

    fn run_window(
        kernel: &Arc<Kernel>,
        registry: &Arc<ModuleRegistry>,
        modules: &[Arc<LoadedModule>],
        readers: usize,
        window: Duration,
        with_writer: bool,
    ) -> Outcome {
        let entries: Vec<u64> = modules
            .iter()
            .enumerate()
            .map(|(i, m)| m.export(&format!("mod{i}_calc")).unwrap())
            .collect();
        let stop = AtomicBool::new(false);
        let calls = AtomicU64::new(0);
        let reader_errors = AtomicU64::new(0);
        let cycles = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        let tlb_before = kernel.tlb_totals();
        std::thread::scope(|s| {
            if with_writer {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        for m in modules {
                            match rerandomize_module(kernel, registry, m) {
                                Ok(_) => cycles.fetch_add(1, Ordering::Relaxed),
                                Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                    }
                });
            }
            for _ in 0..readers {
                s.spawn(|| {
                    let mut vm = kernel.vm();
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for &e in &entries {
                            match vm.call(e, &[CALC_ARG]) {
                                Ok(CALC_RET) => done += 1,
                                _ => {
                                    reader_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    calls.fetch_add(done, Ordering::Relaxed);
                });
            }
            std::thread::sleep(window);
            stop.store(true, Ordering::Relaxed);
        });
        Outcome {
            calls: calls.load(Ordering::Relaxed),
            cycles: cycles.load(Ordering::Relaxed),
            failed_cycles: failed.load(Ordering::Relaxed),
            reader_errors: reader_errors.load(Ordering::Relaxed),
            readers_spawned: readers,
            tlb: kernel.tlb_totals().delta_since(&tlb_before),
        }
    }
}
