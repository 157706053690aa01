//! Edge-case suite over the stepped scheduler: heap behavior at equal
//! deadlines, budget throttle release, and mid-flight policy swaps.

use adelie_core::{LoadedModule, ModuleRegistry};
use adelie_isa::{AluOp, Insn, Reg};
use adelie_kernel::{Kernel, KernelConfig};
use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
use adelie_sched::{Clock, Policy, SchedConfig, Scheduler, SimClock};
use std::sync::Arc;
use std::time::Duration;

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

fn stepped(
    kernel: &Arc<Kernel>,
    registry: &Arc<ModuleRegistry>,
    n: usize,
    policy: Policy,
    max_cpu_frac: f64,
    cycle_cost: Duration,
) -> (Scheduler, Arc<SimClock>) {
    let names: Vec<String> = (0..n).map(|i| format!("mod{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let clock = SimClock::new();
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &names,
        SchedConfig {
            workers: 1,
            policy,
            max_cpu_frac,
            exposure_refresh: 0,
            step_cost: cycle_cost,
            ..SchedConfig::default()
        },
        Clock::Virtual(clock.clone()),
    );
    (sched, clock)
}

/// A zero-period fleet makes every deadline *equal* (the staggered
/// start collapses to one instant). The heap must resolve the tie
/// deterministically by entry index and stay fair — every module keeps
/// cycling, none is starved by a lower-indexed twin.
#[test]
fn equal_deadlines_round_robin_in_index_order_without_starvation() {
    let (kernel, registry, _modules) = boot_n(3);
    let (sched, _clock) = stepped(
        &kernel,
        &registry,
        3,
        Policy::FixedPeriod(Duration::ZERO),
        f64::INFINITY,
        Duration::from_micros(10),
    );
    let first: Vec<String> = (0..3).map(|_| sched.step().unwrap().module).collect();
    assert_eq!(
        first,
        vec!["mod0", "mod1", "mod2"],
        "equal deadlines must pop in stable index order"
    );
    for _ in 0..30 {
        sched.step().unwrap();
    }
    let stats = sched.stop();
    assert_eq!(stats.failures, 0);
    for m in &stats.modules {
        assert!(
            (10..=12).contains(&m.cycles),
            "{}: {} cycles — zero-period fleet must stay fair",
            m.name,
            m.cycles
        );
    }
}

/// Over-budget cycling throttles deadlines out; once the fleet idles
/// and wall time amortizes the spend, pressure falls below 1 and the
/// throttle releases — deadlines return to the bare policy period.
#[test]
fn budget_throttle_releases_after_pressure_drops() {
    let (kernel, registry, _modules) = boot_n(1);
    let period = Duration::from_millis(1);
    // 1 ms of modeled cost per 1 ms period on a 20-CPU machine capped at
    // 0.1% ⇒ pressure far above 1 immediately.
    let (sched, clock) = stepped(
        &kernel,
        &registry,
        1,
        Policy::FixedPeriod(period),
        0.001,
        Duration::from_millis(1),
    );
    let report = sched.step().unwrap();
    let stats = sched.stats();
    assert!(
        stats.cpu_pressure > 1.0,
        "one 1ms cycle under a 0.1% cap must over-pressure: {}",
        stats.cpu_pressure
    );
    let throttled_gap = report.next_deadline_ns - report.finished_ns;
    assert!(
        throttled_gap > 10 * period.as_nanos() as u64,
        "throttle must push the deadline well past the period: {throttled_gap}ns"
    );

    // Let virtual wall time amortize the spend (no cycles run).
    clock.advance(Duration::from_secs(100));
    let stats = sched.stats();
    assert!(
        stats.cpu_pressure < 1.0,
        "pressure must decay with idle wall time: {}",
        stats.cpu_pressure
    );
    // The next cycle reschedules at the bare period again.
    let report = sched.step().unwrap();
    let released_gap = report.next_deadline_ns - report.finished_ns;
    assert_eq!(
        released_gap,
        period.as_nanos() as u64,
        "throttle must fully release once spend is back under the cap"
    );
}

/// Swapping FixedPeriod → Adaptive mid-flight takes effect on the next
/// completed cycle: the prescribed period leaves the fixed value and
/// lands in the adaptive range (an idle module relaxes toward `max`).
#[test]
fn policy_transition_fixed_to_adaptive_mid_flight() {
    let (kernel, registry, _modules) = boot_n(2);
    let fixed = Duration::from_millis(10);
    let (sched, _clock) = stepped(
        &kernel,
        &registry,
        2,
        Policy::FixedPeriod(fixed),
        f64::INFINITY,
        Duration::from_micros(100),
    );
    for _ in 0..4 {
        let r = sched.step().unwrap();
        assert_eq!(r.period_ns, fixed.as_nanos() as u64, "still fixed");
    }
    let adaptive = Policy::Adaptive {
        min: Duration::from_millis(1),
        max: Duration::from_millis(40),
        rate_scale: 1_000.0,
        exposure_scale: 1e12,
    };
    assert!(sched.set_policy("mod0", adaptive));
    assert!(
        !sched.set_policy("nonexistent", Policy::default_fixed()),
        "unknown modules are rejected"
    );
    let mut saw_mod0 = false;
    for _ in 0..6 {
        let r = sched.step().unwrap();
        if r.module == "mod0" {
            saw_mod0 = true;
            assert_eq!(
                r.period_ns,
                Duration::from_millis(40).as_nanos() as u64,
                "idle module under the new adaptive policy must relax to max"
            );
        } else {
            assert_eq!(r.period_ns, fixed.as_nanos() as u64, "mod1 keeps fixed");
        }
    }
    assert!(saw_mod0, "mod0 must have cycled after the swap");
    let stats = sched.stop();
    let m0 = stats.modules.iter().find(|m| m.name == "mod0").unwrap();
    assert_eq!(m0.policy, "adaptive", "stats must reflect the live policy");
    assert_eq!(stats.failures, 0);
}

/// Satellite regression: zero-copy moves never change module text, so
/// the Adaptive exposure refresh must stop rescanning unchanged bytes.
/// With `exposure_refresh: 1` (refresh after every completed cycle),
/// the content-hash cache must answer every post-initial refresh — a
/// no-op cycle costs **zero** rescans.
#[test]
fn noop_cycles_cost_zero_gadget_rescans() {
    let (kernel, registry, _modules) = boot_n(1);
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &["mod0"],
        SchedConfig {
            workers: 1,
            policy: Policy::default_adaptive(),
            exposure_refresh: 1, // re-scan after every cycle
            step_cost: Duration::from_micros(50),
            ..SchedConfig::default()
        },
        Clock::Virtual(SimClock::new()),
    );
    // The boot-time scan is the only decode this fleet ever pays.
    let s0 = sched.stats();
    assert_eq!(s0.exposure_scan_misses, 1, "one distinct text, one scan");
    for _ in 0..6 {
        sched.step().expect("heap never empties");
    }
    let s1 = sched.stats();
    assert_eq!(
        s1.exposure_scan_misses, s0.exposure_scan_misses,
        "re-randomizing unchanged text must not rescan it"
    );
    assert!(
        s1.exposure_scan_hits >= 6,
        "every per-cycle refresh must be a cache hit (got {})",
        s1.exposure_scan_hits
    );
    // The exposure signal itself still updates (non-zero for code with
    // rets in it), so the Adaptive policy loses nothing.
    assert!(s1.modules[0].exposure > 0.0);
}
