//! ELF-ingestion differential suite: a module loaded from the
//! `ObjectBuilder` pipeline directly and the *same* module serialized
//! to an ELF64 relocatable object and parsed back must be
//! **indistinguishable** — byte-identical `PartImage`s at load (same
//! layout metadata, same frame contents), and identical observable
//! behavior (ioctl results, re-randomization commit timeline, oracle
//! verdict) across seeds.
//!
//! Any divergence means the ELF emitter/parser pair dropped or
//! reordered something the loader consumes — exactly the bug class a
//! byte-level diff catches and unit tests don't.

use adelie_core::{LoadedModule, PartImage};
use adelie_drivers::specs::DUMMY_MINOR;
use adelie_kernel::{Kernel, KernelConfig};
use adelie_plugin::TransformOptions;
use adelie_sched::{Clock, SchedConfig, SimClock};
use adelie_testkit::LayoutOracle;
use adelie_vmem::PAGE_SIZE;
use adelie_workloads::{DriverSet, Testbed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Layout metadata plus a full byte dump of every frame of a part.
fn image_fingerprint(kernel: &Arc<Kernel>, img: &PartImage) -> String {
    let mut out = format!(
        "base={:#x} pages={} lgot@{:#x}x{} fgot@{:#x}x{} plt@{:#x}x{} fgot_names={:?} groups={}\n",
        img.base,
        img.total_pages,
        img.lgot_off,
        img.lgot_slots,
        img.fgot_off,
        img.fgot_slots,
        img.plt_off,
        img.plt_stubs,
        img.fgot_names,
        img.groups.len(),
    );
    let mut page = [0u8; PAGE_SIZE];
    for (i, &pfn) in img.frames.iter().enumerate() {
        kernel.phys.read(pfn, 0, &mut page);
        let _ = writeln!(out, "page {i}: {:?}", &page[..]);
    }
    out
}

fn module_fingerprint(kernel: &Arc<Kernel>, m: &LoadedModule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "stats {:?}", m.stats);
    let _ = writeln!(out, "movable:\n{}", image_fingerprint(kernel, &m.movable));
    if let Some(imm) = &m.immovable {
        let _ = writeln!(out, "immovable:\n{}", image_fingerprint(kernel, imm));
    }
    let _ = writeln!(
        out,
        "lazy_plt: {:?}",
        m.lazy_plt
            .iter()
            .map(|s| (&s.symbol, s.part, s.local, s.idx, s.target_off))
            .collect::<Vec<_>>()
    );
    out
}

/// Provision a dummy-driver testbed under `opts` with a fixed seed and
/// replay a seeded ioctl + re-randomization trace; return the
/// load-time module fingerprint and the behavior transcript.
fn run(opts: TransformOptions, seed: u64) -> (String, String) {
    let tb = Testbed::with_kernel_config(
        opts,
        DriverSet::dummy_only(),
        KernelConfig {
            seed,
            retpoline: opts.retpoline,
            ..KernelConfig::default()
        },
    );
    let module = tb.registry.get("dummy").expect("dummy module");
    let fingerprint = module_fingerprint(&tb.kernel, &module);

    let clock = SimClock::new();
    let oracle = LayoutOracle::new(tb.kernel.clone(), clock.clone());
    tb.registry.set_cycle_hooks(oracle.clone());
    let sched = tb.start_scheduler(SchedConfig::default(), Clock::Virtual(clock.clone()));
    let mut vm = tb.kernel.vm();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE1F);
    let mut out = String::new();
    for step in 0..120u64 {
        let arg = rng.gen::<u64>() & 0xFFFF;
        let got = tb
            .kernel
            .ioctl(&mut vm, DUMMY_MINOR, 0, arg)
            .expect("trace ioctl");
        let _ = writeln!(out, "ioctl[{step}] {arg} -> {got}");
        clock.advance(Duration::from_millis(1));
        while sched
            .peek_deadline_ns()
            .is_some_and(|d| d <= clock.now_ns())
        {
            if let Some(report) = sched.step() {
                let _ = writeln!(
                    out,
                    "cycle {} @{} -> {:?}",
                    report.module, report.deadline_ns, report.new_base
                );
            }
        }
    }
    let stats = sched.stop();
    let _ = writeln!(out, "cycles {} failures {}", stats.cycles, stats.failures);
    for c in oracle.commits() {
        let _ = writeln!(
            out,
            "commit {} {:#x}->{:#x} gen{}",
            c.module, c.old_base, c.new_base, c.generation
        );
    }
    let _ = writeln!(
        out,
        "binds {} reswings {}",
        module.plt_binds.load(std::sync::atomic::Ordering::Relaxed),
        module
            .plt_reswings
            .load(std::sync::atomic::Ordering::Relaxed)
    );
    let report = oracle.verify_quiesced(&tb.registry, Some(&stats), 0);
    let _ = writeln!(out, "oracle {:?}", report.violations);
    report.assert_clean();
    (fingerprint, out)
}

fn assert_identical(opts: TransformOptions, seed: u64) {
    let (fp_direct, trace_direct) = run(opts, seed);
    let (fp_elf, trace_elf) = run(opts.with_elf_ingest(), seed);
    assert!(
        trace_direct.contains("cycle "),
        "trace must contain re-randomization cycles:\n{trace_direct}"
    );
    assert_eq!(
        fp_direct, fp_elf,
        "seed {seed}: PartImages must be byte-identical across ingestion paths"
    );
    assert_eq!(
        trace_direct, trace_elf,
        "seed {seed}: load/rerand/ioctl behavior must be identical across ingestion paths"
    );
}

#[test]
fn elf_ingested_modules_are_byte_identical_across_seeds() {
    for seed in [3u64, 77, 0xE1F0] {
        assert_identical(TransformOptions::rerandomizable(true), seed);
    }
}

#[test]
fn elf_ingested_lazy_plt_modules_are_byte_identical() {
    for seed in [3u64, 0xBEE] {
        assert_identical(TransformOptions::rerandomizable(true).with_lazy_plt(), seed);
    }
}
