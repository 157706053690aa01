//! The adversarial attack-window experiment.
//!
//! The MARDU/Shuffler-era critique of re-randomization designs is that
//! their security lives in the *leak-to-use race*: a fixed period gives
//! the attacker a predictable window, and CPU spent re-randomizing
//! idle modules is CPU not spent shrinking the window where leaks
//! actually happen. This module measures that race end-to-end on the
//! deterministic harness:
//!
//! * a **hot** module takes all the traffic (where an info leak would
//!   realistically occur) and is gadget-rich;
//! * a **cold** module idles (the fleet ballast every real system has);
//! * the attacker leaks a hot-module address on a fixed virtual-time
//!   grid; each leak's **exposure window** is the distance to the hot
//!   module's next re-randomization (ground truth from the layout
//!   oracle's commit timeline);
//! * per policy, the run yields a survival curve (`P[window > Δ]`), its
//!   mean, and the CPU budget spent (cycles × modeled cycle cost).
//!
//! [`assert_adaptive_beats_fixed`] is the acceptance property: at equal
//! (in fact strictly smaller) budget, `Adaptive` must yield a strictly
//! smaller mean exposure window on the hot module than `FixedPeriod`.

use crate::harness::ModuleProfile;
use crate::{FleetSim, FleetSimConfig};
use adelie_gadget::attack::{exposure_windows, mean_exposure_ns, survival_curve};
use adelie_sched::Policy;
use std::time::Duration;

/// Experiment shape.
#[derive(Clone, Debug)]
pub struct WindowConfig {
    /// Kernel seed (shared by every policy run for a fair comparison).
    pub seed: u64,
    /// Baseline fixed period `P`.
    pub fixed_period: Duration,
    /// Virtual run length.
    pub window: Duration,
    /// Leak-sampling warm-up (skip the fleet's staggered start-up).
    pub warmup: Duration,
    /// Leak-sampling interval on the hot module.
    pub leak_every: Duration,
    /// Attack-duration grid for the survival curve.
    pub deltas: Vec<Duration>,
    /// Modeled CPU cost per cycle.
    pub cycle_cost: Duration,
}

impl Default for WindowConfig {
    fn default() -> Self {
        let p = Duration::from_millis(10);
        WindowConfig {
            seed: 1,
            fixed_period: p,
            window: Duration::from_millis(400),
            warmup: Duration::from_millis(60),
            leak_every: Duration::from_millis(1),
            deltas: (1..=20).map(Duration::from_millis).collect(),
            cycle_cost: Duration::from_micros(100),
        }
    }
}

/// One policy's measured outcome.
#[derive(Clone, Debug)]
pub struct PolicyOutcome {
    /// Policy label (`fixed`, `jittered`, `adaptive`).
    pub label: &'static str,
    /// Total completed cycles (hot + cold) — the CPU budget proxy.
    pub cycles: u64,
    /// Hot-module cycles.
    pub hot_cycles: u64,
    /// Modeled CPU spent (cycles × cycle cost).
    pub busy: Duration,
    /// Exposure window of every sampled leak, ns.
    pub windows_ns: Vec<u64>,
    /// Attack-duration grid, ns (mirrors `WindowConfig::deltas`).
    pub deltas_ns: Vec<u64>,
    /// Survival fraction per grid point.
    pub survival: Vec<f64>,
    /// Mean exposure window, ns.
    pub mean_exposure_ns: f64,
}

/// The three policies under test, budget-calibrated against `P`:
/// `Adaptive` is tuned so the hot module saturates at `2P/3` and the
/// cold module relaxes to `4P` — strictly *less* total budget than
/// `FixedPeriod(P)` over the same fleet (1.75 vs 2 cycles per `P`).
pub fn policies_under_test(p: Duration) -> Vec<(&'static str, Policy)> {
    vec![
        ("fixed", Policy::FixedPeriod(p)),
        (
            "jittered",
            Policy::Jittered {
                base: p,
                jitter: 0.5,
            },
        ),
        (
            "adaptive",
            Policy::Adaptive {
                min: p * 2 / 3,
                max: p * 4,
                rate_scale: 5_000.0,
                // Effectively disable the exposure term so the budget
                // calibration above is exact (the call-rate term alone
                // already saturates the hot module at `min`).
                exposure_scale: 1e12,
            },
        ),
    ]
}

/// Run one policy through the scenario and measure its survival curve.
///
/// # Panics
///
/// Panics if the scenario violates a layout invariant (oracle check) or
/// produces no hot-module cycles to measure against.
pub fn run_policy(label: &'static str, policy: Policy, cfg: &WindowConfig) -> PolicyOutcome {
    let mut sim = FleetSim::new(FleetSimConfig {
        seed: cfg.seed,
        shards: 1,
        policy,
        cycle_cost: cfg.cycle_cost,
        modules_per_shard: vec![ModuleProfile::hot("hot"), ModuleProfile::cold("cold")],
        ..FleetSimConfig::default()
    });
    sim.run_for(cfg.window);
    sim.assert_modules_work();
    sim.verify().assert_clean();

    let timeline = sim.oracles[0].timeline_ns("hot_s0");
    assert!(
        !timeline.is_empty(),
        "{label}: no hot-module cycles in the window"
    );
    let warmup_ns = cfg.warmup.as_nanos() as u64;
    let end_ns = cfg.window.as_nanos() as u64;
    let step_ns = cfg.leak_every.as_nanos() as u64;
    let leak_times: Vec<u64> = (0..)
        .map(|k| warmup_ns + k * step_ns)
        .take_while(|&t| t < end_ns)
        .collect();
    let windows_ns = exposure_windows(&leak_times, &timeline);
    let deltas_ns: Vec<u64> = cfg.deltas.iter().map(|d| d.as_nanos() as u64).collect();
    let survival = survival_curve(&windows_ns, &deltas_ns);
    let stats = sim.sched.group(0).stats();
    let hot_cycles = stats
        .modules
        .iter()
        .find(|m| m.name == "hot_s0")
        .map_or(0, |m| m.cycles);
    PolicyOutcome {
        label,
        cycles: stats.cycles,
        hot_cycles,
        busy: stats.busy,
        mean_exposure_ns: mean_exposure_ns(&windows_ns),
        windows_ns,
        deltas_ns,
        survival,
    }
}

/// Run every policy under the same seed and scenario.
pub fn run_all(cfg: &WindowConfig) -> Vec<PolicyOutcome> {
    policies_under_test(cfg.fixed_period)
        .into_iter()
        .map(|(label, policy)| run_policy(label, policy, cfg))
        .collect()
}

/// The acceptance property: adaptive spends **no more** CPU budget than
/// fixed yet leaves a **strictly smaller** mean exposure window on the
/// module where leaks happen.
///
/// # Panics
///
/// Panics (with the numbers) when the property does not hold.
pub fn assert_adaptive_beats_fixed(fixed: &PolicyOutcome, adaptive: &PolicyOutcome) {
    assert!(
        adaptive.busy <= fixed.busy,
        "adaptive must not exceed fixed's CPU budget: {:?} vs {:?} ({} vs {} cycles)",
        adaptive.busy,
        fixed.busy,
        adaptive.cycles,
        fixed.cycles,
    );
    assert!(
        adaptive.mean_exposure_ns < fixed.mean_exposure_ns,
        "adaptive must strictly shrink the hot-module exposure window: \
         adaptive {:.0}ns vs fixed {:.0}ns (hot cycles {} vs {})",
        adaptive.mean_exposure_ns,
        fixed.mean_exposure_ns,
        adaptive.hot_cycles,
        fixed.hot_cycles,
    );
}
