//! Integration tests for the randomizer pool: concurrency, resilience,
//! budget, and the adaptive-vs-serial throughput claim.

use adelie_core::{LoadedModule, ModuleRegistry};
use adelie_isa::{AluOp, Insn, Reg};
use adelie_kernel::{Kernel, KernelConfig};
use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
use adelie_sched::{
    Clock, CycleError, HealthState, Policy, SchedConfig, SchedStats, Scheduler, SimClock,
};
use adelie_vmem::PAGE_SIZE;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `mod{i}_calc(x) = x + 26`.
fn calc_spec(i: usize) -> ModuleSpec {
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
                imm: 26,
            }),
            MOp::Ret,
        ],
    ));
    spec
}

fn boot_n(n: usize) -> (Arc<Kernel>, Arc<ModuleRegistry>, Vec<Arc<LoadedModule>>) {
    let kernel = Kernel::new(KernelConfig::default());
    let registry = ModuleRegistry::new(&kernel);
    let opts = TransformOptions::rerandomizable(true);
    let modules = (0..n)
        .map(|i| {
            let obj = transform(&calc_spec(i), &opts).unwrap();
            registry.load(&obj, &opts).unwrap()
        })
        .collect();
    (kernel, registry, modules)
}

/// How long a counter-driven test may run before it is declared hung.
/// Only a hang reaches it: the bounds themselves are counts, so a slow
/// or loaded host takes longer but asserts the same thing.
const HANG_DEADLINE: Duration = Duration::from_secs(60);

/// Call every module's export in a loop until `stop` is raised.
fn traffic(kernel: &Arc<Kernel>, modules: &[Arc<LoadedModule>], stop: &AtomicBool) -> u64 {
    let mut vm = kernel.vm();
    let entries: Vec<u64> = modules
        .iter()
        .enumerate()
        .map(|(i, m)| m.export(&format!("mod{i}_calc")).unwrap())
        .collect();
    let mut calls = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for &e in &entries {
            assert_eq!(vm.call(e, &[16]).unwrap(), 42);
            calls += 1;
        }
    }
    calls
}

#[test]
fn scheduler_drives_cycles_and_logs_stats() {
    let (kernel, registry, modules) = boot_n(1);
    let (stats, calls) = stepped_window(
        &kernel,
        &registry,
        &modules,
        SchedConfig::serial(Duration::from_millis(1)),
        Duration::from_millis(100),
    );
    assert!(stats.cycles >= 5, "cycles: {}", stats.cycles);
    assert_eq!(stats.failures, 0);
    assert!(calls > 100, "driver kept serving during rerand: {calls}");
    assert_eq!(kernel.reclaim.stats().delta(), 0, "all old ranges freed");
    assert!(!kernel.printk.grep("Randomized").is_empty());
    assert!(!kernel.printk.grep("sched: mod0 policy=fixed").is_empty());
    // Telemetry populated: the module saw traffic and cycle latencies.
    let m = &stats.modules[0];
    assert!(m.latency.count >= stats.cycles);
    // The cumulative counter, not the last-window rate: a final rate
    // sample taken after traffic stopped legitimately reads 0.
    assert!(m.calls >= calls, "call hook saw every call: {m:?}");
}

#[test]
fn concurrent_callers_survive_scheduling() {
    let (kernel, registry, modules) = boot_n(2);
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &["mod0", "mod1"],
        SchedConfig {
            workers: 2,
            policy: Policy::Jittered {
                base: Duration::from_millis(1),
                jitter: 0.5,
            },
            ..SchedConfig::default()
        },
        Clock::wall(),
    );
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| traffic(&kernel, &modules, &stop));
        }
        // Traffic runs until the pool has cycled as often as the bound
        // asks with every module under calls, not for a fixed window.
        let done = || sched.cycles() >= 10 && sched.stats().modules.iter().all(|m| m.calls > 0);
        while !done() && t0.elapsed() < HANG_DEADLINE {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });
    // A wall-clock pool is driven by its threads alone: `step` panics.
    let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.step()));
    assert!(stepped.is_err(), "step() on a wall-clock pool must panic");
    let stats = sched.stop();
    assert!(
        stats.cycles >= 10,
        "cycles: {} in {:?}",
        stats.cycles,
        t0.elapsed()
    );
    for m in &stats.modules {
        assert!(m.calls > 0, "callers reached every module: {m:?}");
    }
    assert_eq!(stats.failures, 0);
    kernel.reclaim.flush();
    assert_eq!(kernel.reclaim.stats().delta(), 0);
}

/// The issue's stress scenario: vm.call traffic on 3 modules while a
/// 4-worker pool re-randomizes them concurrently. Asserts no
/// cross-module VA-range overlap at any sampled instant, and SMR/stack
/// deltas of 0 after drain.
#[test]
fn stress_four_workers_three_modules_under_traffic() {
    let (kernel, registry, modules) = boot_n(3);
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &["mod0", "mod1", "mod2"],
        SchedConfig {
            workers: 4,
            policy: Policy::Adaptive {
                min: Duration::from_micros(500),
                max: Duration::from_millis(20),
                rate_scale: 100.0,
                exposure_scale: 20.0,
            },
            ..SchedConfig::default()
        },
        Clock::wall(),
    );
    let stop = AtomicBool::new(false);
    let (validated, overlap) = std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| traffic(&kernel, &modules, &stop));
        }
        // Sampler: no two modules' current movable ranges may ever
        // overlap. A module may move between two reads, so a snapshot
        // only counts when no generation changed while taking it. It
        // samples until the counts the test asserts are met — clean
        // snapshots, pool cycles, every module cycled — not for a fixed
        // window.
        let t0 = Instant::now();
        let mut validated = 0u32;
        let mut overlap = None;
        let done = |validated: u32| {
            validated > 100
                && sched.cycles() >= 30
                && sched.stats().modules.iter().all(|m| m.cycles > 0)
        };
        while overlap.is_none() && !done(validated) && t0.elapsed() < HANG_DEADLINE {
            let gens: Vec<u64> = modules
                .iter()
                .map(|m| m.generation.load(Ordering::Acquire))
                .collect();
            let ranges: Vec<(u64, u64)> = modules
                .iter()
                .map(|m| {
                    let b = m.movable_base.load(Ordering::Acquire);
                    (b, b + (m.movable.total_pages * PAGE_SIZE) as u64)
                })
                .collect();
            let stable = modules
                .iter()
                .zip(&gens)
                .all(|(m, &g)| m.generation.load(Ordering::Acquire) == g);
            if stable {
                validated += 1;
                for (i, &(ab, ae)) in ranges.iter().enumerate() {
                    for &(bb, be) in ranges.iter().skip(i + 1) {
                        if !(ae <= bb || be <= ab) {
                            overlap = Some(format!(
                                "modules overlap: {ab:#x}..{ae:#x} vs {bb:#x}..{be:#x}"
                            ));
                        }
                    }
                }
            }
        }
        // Stop the callers before asserting, so a failure reports
        // instead of waiting on the traffic threads forever.
        stop.store(true, Ordering::Relaxed);
        (validated, overlap)
    });
    assert_eq!(overlap, None);
    assert!(validated > 100, "got {validated} clean snapshots");
    let stats = sched.stop();
    assert_eq!(stats.failures, 0, "{stats:?}");
    assert!(stats.cycles >= 30, "4-worker pool cycled: {}", stats.cycles);
    for m in &stats.modules {
        assert!(m.cycles > 0, "every module cycled: {m:?}");
        assert!(m.exposure > 0.0, "gadget exposure measured: {m:?}");
    }
    // Drain: rotate the last stacks out, flush retirements.
    registry.stacks.rotate(&kernel);
    kernel.reclaim.flush();
    assert_eq!(kernel.reclaim.stats().delta(), 0, "SMR delta");
    assert_eq!(registry.stacks.stats().delta(), 0, "stack delta");
}

/// A failing cycle must be counted and retried, never fatal — and other
/// modules keep cycling (the old kthread died on first error).
#[test]
fn failed_cycles_are_counted_not_fatal() {
    let kernel = Kernel::new(KernelConfig::default());
    let registry = ModuleRegistry::new(&kernel);
    let opts = TransformOptions::rerandomizable(true);
    // `bad` (mis)declares a *local, movable* function as its
    // update_pointers callback. Its resolved address is the load-time
    // one, so from the second cycle on the callback faults on the
    // unmapped old range — every later cycle fails in step (5), after
    // the move has committed.
    let mut bad = calc_spec(0);
    bad.name = "bad".into();
    bad.funcs
        .push(FuncSpec::local("bad_update", vec![MOp::Ret]));
    bad.update_pointers = Some("bad_update".into());
    let obj = transform(&bad, &opts).unwrap();
    let bad_module = registry.load(&obj, &opts).unwrap();
    let good_obj = transform(&calc_spec(1), &opts).unwrap();
    registry.load(&good_obj, &opts).unwrap();

    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &["bad", "mod1"],
        SchedConfig::serial(Duration::from_millis(1)),
        Clock::wall(),
    );
    std::thread::sleep(Duration::from_millis(80));
    let stats = sched.stop();
    let bad_stats = stats.modules.iter().find(|m| m.name == "bad").unwrap();
    let good_stats = stats.modules.iter().find(|m| m.name == "mod1").unwrap();
    assert!(bad_stats.failures >= 2, "failures counted: {bad_stats:?}");
    assert!(
        good_stats.cycles >= 2,
        "healthy module kept cycling despite its neighbor failing: {good_stats:?}"
    );
    assert!(
        !kernel.printk.grep("cycle failed").is_empty(),
        "failure logged"
    );
    // Failing cycles must not leak: an UpdatePointers failure commits
    // the move and *still* retires the old range and the replaced GOT
    // frames.
    registry.stacks.rotate(&kernel);
    kernel.reclaim.flush();
    assert_eq!(kernel.reclaim.stats().delta(), 0, "SMR delta after drain");
    let frames_before = kernel.phys.stats().frames_live;
    for _ in 0..10 {
        let before = bad_module.movable_base.load(Ordering::Acquire);
        let err = adelie_core::rerandomize_module(&kernel, &registry, &bad_module).unwrap_err();
        assert!(matches!(
            err,
            adelie_core::RerandError::UpdatePointers { .. }
        ));
        kernel.reclaim.flush();
        assert!(
            kernel
                .space
                .translate(before, adelie_vmem::Access::Read)
                .is_err(),
            "old range retired despite the callback failure"
        );
    }
    registry.stacks.rotate(&kernel);
    kernel.reclaim.flush();
    assert_eq!(kernel.reclaim.stats().delta(), 0, "SMR drained");
    // Each cycle pays one 8-page Vm stack for the callback attempt
    // (never freed — the kernel.vm() contract); any growth beyond that
    // would be leaked module pages or GOT frames.
    let growth = kernel.phys.stats().frames_live - frames_before;
    assert!(
        growth <= 10 * 8,
        "failed cycles leaked frames beyond the vm stacks: {growth}"
    );
    // The failing module is still fully functional.
    let calc = bad_module.export("mod0_calc").unwrap();
    let mut vm = kernel.vm();
    assert_eq!(vm.call(calc, &[16]).unwrap(), 42);
}

/// The CPU budget caps pool spend: an aggressive policy under a tiny
/// budget must cycle far less than the same policy uncapped, and
/// pressure must register. Stepped on a virtual clock through the same
/// 300 ms window, with every cycle charged a modeled 50 µs, so both
/// counts are exact rather than what a real-time window happened to
/// fit on a loaded host.
#[test]
fn budget_applies_backpressure() {
    const WINDOW: Duration = Duration::from_millis(300);
    let run = |max_cpu_frac: f64| {
        let (kernel, registry, _modules) = boot_n(2);
        let sched = Scheduler::new(
            kernel,
            registry,
            &["mod0", "mod1"],
            SchedConfig {
                workers: 2,
                policy: Policy::FixedPeriod(Duration::from_micros(200)),
                max_cpu_frac,
                step_cost: Duration::from_micros(50),
                ..SchedConfig::default()
            },
            Clock::Virtual(SimClock::new()),
        );
        while sched
            .peek_deadline_ns()
            .is_some_and(|d| d <= WINDOW.as_nanos() as u64)
        {
            sched.step();
        }
        sched.stop()
    };
    let uncapped = run(f64::INFINITY);
    // 0.01% of a 20-CPU machine: a few hundred µs of cycle work per
    // second.
    let capped = run(0.0001);
    assert!(
        capped.cycles * 4 <= uncapped.cycles.max(4),
        "budget throttled the pool: capped={} uncapped={}",
        capped.cycles,
        uncapped.cycles
    );
    assert_eq!(uncapped.cpu_pressure, 0.0, "no cap, no pressure");
}

/// Drive busy modules under a stepped pool for `window` of virtual
/// time: one call into every module each `TRAFFIC_STEP`, then every
/// cycle that has come due. Logs the pool's stats and stops it;
/// returns its final stats and the calls made.
fn stepped_window(
    kernel: &Arc<Kernel>,
    registry: &Arc<ModuleRegistry>,
    modules: &[Arc<LoadedModule>],
    config: SchedConfig,
    window: Duration,
) -> (SchedStats, u64) {
    const TRAFFIC_STEP: Duration = Duration::from_micros(50);
    let names: Vec<&str> = modules.iter().map(|m| &*m.name).collect();
    let clock = SimClock::new();
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &names,
        SchedConfig {
            step_cost: Duration::from_micros(50),
            ..config
        },
        Clock::Virtual(clock.clone()),
    );
    let mut vm = kernel.vm();
    let entries: Vec<u64> = modules
        .iter()
        .enumerate()
        .map(|(i, m)| m.export(&format!("mod{i}_calc")).unwrap())
        .collect();
    let mut calls = 0u64;
    while clock.now_ns() < window.as_nanos() as u64 {
        for &e in &entries {
            assert_eq!(vm.call(e, &[16]).unwrap(), 42);
            calls += 1;
        }
        clock.advance(TRAFFIC_STEP);
        while sched
            .peek_deadline_ns()
            .is_some_and(|d| d <= clock.now_ns())
        {
            sched.step();
        }
    }
    sched.log_stats();
    (sched.stop(), calls)
}

/// The acceptance claim: a 4-worker Adaptive scheduler over 3 busy
/// modules completes ≥ 2× the module-cycles of the serial fixed-period
/// configuration (`SchedConfig::serial`, the artifact's one kthread, at
/// its default 20 ms period) in the same time — because it tightens
/// periods where call rate and gadget exposure demand it instead of
/// sleeping a fixed schedule. Both arms run stepped on a virtual clock
/// under the same driven traffic, so the cycle counts are exact.
#[test]
fn adaptive_four_workers_doubles_serial_shim_cycles() {
    let serial = {
        let (kernel, registry, modules) = boot_n(3);
        let (stats, _) = stepped_window(
            &kernel,
            &registry,
            &modules,
            SchedConfig::serial(Duration::from_millis(20)),
            Duration::from_millis(500),
        );
        kernel.reclaim.flush();
        assert_eq!(kernel.reclaim.stats().delta(), 0);
        stats.cycles
    };

    let adaptive = {
        let (kernel, registry, modules) = boot_n(3);
        let (stats, _) = stepped_window(
            &kernel,
            &registry,
            &modules,
            SchedConfig {
                workers: 4,
                policy: Policy::Adaptive {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(50),
                    rate_scale: 100.0,
                    exposure_scale: 20.0,
                },
                ..SchedConfig::default()
            },
            Duration::from_millis(500),
        );
        registry.stacks.rotate(&kernel);
        kernel.reclaim.flush();
        assert_eq!(kernel.reclaim.stats().delta(), 0, "SMR delta");
        assert_eq!(registry.stacks.stats().delta(), 0, "stack delta");
        assert_eq!(stats.failures, 0);
        stats.cycles
    };

    assert!(
        adaptive >= serial * 2,
        "adaptive pool should at least double the serial shim: {adaptive} vs {serial}"
    );
}

/// Same-deadline cycles share a shootdown epoch: their retire/GOT
/// batches coalesce invalidation-log slots, measurably (the vmem
/// `coalesced_shootdowns` counter), and the pool stays correct.
#[test]
fn same_deadline_cycles_coalesce_shootdown_epochs() {
    let (kernel, registry, modules) = boot_n(4);
    let names: Vec<&str> = modules.iter().map(|m| &*m.name).collect();
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &names,
        SchedConfig {
            workers: 4,
            policy: Policy::FixedPeriod(Duration::from_millis(10)),
            // Identical fixed periods stagger within one period; a
            // window that wide makes each wave one shared epoch.
            shootdown_epoch: Duration::from_millis(10),
            step_cost: Duration::from_micros(10),
            ..SchedConfig::default()
        },
        Clock::Virtual(SimClock::new()),
    );
    let before = kernel.space.stats().coalesced_shootdowns;
    for _ in 0..16 {
        sched.step().expect("heap never empties");
    }
    assert_eq!(sched.cycles(), 16);
    assert_eq!(sched.failures(), 0);
    let after = kernel.space.stats().coalesced_shootdowns;
    assert!(
        after > before,
        "same-epoch cycles must coalesce invalidation slots ({before} → {after})"
    );
    // Every module still works after coalesced cycling.
    let mut vm = kernel.vm();
    for (i, m) in modules.iter().enumerate() {
        let e = m.export(&format!("mod{i}_calc")).unwrap();
        assert_eq!(vm.call(e, &[16]).unwrap(), 42);
    }
    drop(sched);
}

/// Two pools on one kernel each keep their own call observer: dropping
/// pool A removes A's hook only, so pool B goes on counting the calls
/// into its module.
#[test]
fn dropping_one_pool_keeps_another_pools_call_counts() {
    let (kernel, registry, modules) = boot_n(2);
    let sim = SimClock::new();
    let clock = Clock::Virtual(sim.clone());
    let pool = |name: &str| {
        Scheduler::new(
            kernel.clone(),
            registry.clone(),
            &[name],
            SchedConfig {
                policy: Policy::FixedPeriod(Duration::from_millis(10)),
                step_cost: Duration::from_micros(10),
                ..SchedConfig::default()
            },
            clock.clone(),
        )
    };
    let a = pool("mod0");
    let b = pool("mod1");
    drop(a);
    let mut vm = kernel.vm();
    let entry = modules[1].export("mod1_calc").unwrap();
    for _ in 0..25 {
        assert_eq!(vm.call(entry, &[16]).unwrap(), 42);
    }
    // A virtual-clock pool starts no worker thread: with every deadline
    // long past, nothing cycles until the caller steps.
    assert!(format!("{b:?}").contains("workers: 0"), "{b:?}");
    sim.advance(Duration::from_secs(1));
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(b.cycles() + b.failures(), 0, "only step() runs a cycle");
    let stats = b.stop();
    assert_eq!(stats.modules.len(), 1);
    assert_eq!(stats.modules[0].calls, 25, "pool B's hook saw every call");
}

/// A pool whose module was unloaded under it must not move the dead
/// copy: the cycle fails typed, before it reserves or maps anything
/// (the copy's movable frames are already freed), and the entry stays
/// under supervision.
#[test]
fn unloaded_module_is_never_cycled() {
    let (kernel, registry, modules) = boot_n(1);
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &["mod0"],
        SchedConfig::serial(Duration::from_millis(1)),
        Clock::Virtual(SimClock::new()),
    );
    registry.unload("mod0").unwrap();
    let mapped = kernel.space.stats().pages_mapped;
    for _ in 0..3 {
        let report = sched.step().expect("the entry stays in the heap");
        assert!(
            matches!(report.error, Some(CycleError::Unloaded { .. })),
            "{report:?}"
        );
    }
    let err = adelie_core::rerandomize_module(&kernel, &registry, &modules[0]).unwrap_err();
    assert!(
        matches!(err, adelie_core::RerandError::Unloaded { .. }),
        "{err}"
    );
    assert_eq!(
        kernel.space.stats().pages_mapped,
        mapped,
        "no page may be mapped for an unloaded copy"
    );
    assert_eq!(sched.failures(), 3);
    assert_ne!(sched.health_of("mod0"), Some(HealthState::Healthy));
}
