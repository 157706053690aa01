//! Harness smoke suite: determinism of the virtual-clock pipeline and
//! the attacker's leak-and-fire ground truth.

use adelie_testkit::{Attacker, FireOutcome, FleetSim, FleetSimConfig};
use adelie_vmem::Fault;
use std::time::Duration;

const SEEDS: [u64; 3] = [1, 7, 0xADE1];

/// The default hot + cold scenario on one kernel.
fn one_kernel(seed: u64) -> FleetSim {
    FleetSim::new(FleetSimConfig {
        seed,
        shards: 1,
        ..FleetSimConfig::default()
    })
}

/// Step until the hot module commits a move.
fn step_past_a_hot_move(sim: &mut FleetSim) {
    loop {
        let (_, report) = sim.step().expect("deadline pending");
        if report.module == "hot_s0" && report.ok() {
            break;
        }
    }
}

fn timeline(seed: u64) -> Vec<(String, u64, u64, u64)> {
    let mut sim = one_kernel(seed);
    sim.run_for(Duration::from_millis(120));
    sim.assert_modules_work();
    sim.verify().assert_clean();
    sim.oracles[0]
        .commits()
        .into_iter()
        .map(|c| (c.module, c.old_base, c.new_base, c.at_ns))
        .collect()
}

#[test]
fn same_seed_same_timeline_different_seed_different_layout() {
    for seed in SEEDS {
        let a = timeline(seed);
        let b = timeline(seed);
        assert!(!a.is_empty(), "seed {seed}: no cycles in the window");
        assert_eq!(a, b, "seed {seed}: timeline must be reproducible");
    }
    // Distinct seeds place distinctly (the KASLR story).
    let bases: std::collections::HashSet<u64> = SEEDS
        .iter()
        .flat_map(|&s| timeline(s))
        .map(|c| c.2)
        .collect();
    assert!(
        bases.len() >= 2 * SEEDS.len(),
        "layouts must differ per seed"
    );
}

#[test]
fn virtual_clock_runs_are_instant_in_wall_time() {
    // 2 virtual seconds of fixed-period cycling — on the wall clock
    // this must be bounded by interpretation cost, not by sleeping.
    let t0 = std::time::Instant::now();
    let mut sim = one_kernel(1);
    sim.run_for(Duration::from_secs(2));
    assert!(sim.reports().len() >= 300, "{}", sim.reports().len());
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "virtual time must not be wall time"
    );
    sim.verify().assert_clean();
}

#[test]
fn leaked_code_pointer_dies_with_the_next_hot_cycle() {
    for seed in SEEDS {
        let mut sim = one_kernel(seed);
        let kernel = sim.fleet.kernel(0).clone();
        let mut attacker = Attacker::new(seed);
        let leak = attacker.leak_code(&kernel, sim.module("hot_s0"), sim.clock.now_ns());
        // Fired immediately (Δ ≈ 0): the layout is still live.
        assert!(attacker.fire(&kernel, &leak).landed(), "seed {seed}");
        // Step until the hot module commits a move, then fire again.
        step_past_a_hot_move(&mut sim);
        kernel.reclaim.flush();
        match attacker.fire(&kernel, &leak) {
            FireOutcome::Dead(Fault::Unmapped { .. }) => {}
            other => panic!("seed {seed}: stale code leak must fault, got {other:?}"),
        }
    }
}

#[test]
fn leaked_stack_pointer_dies_with_rotation() {
    let sim = one_kernel(1);
    let (kernel, registry) = (sim.fleet.kernel(0), sim.fleet.registry(0));
    let mut attacker = Attacker::new(3);
    let leak = attacker
        .leak_stack(kernel, registry, 0, 0)
        .expect("stack leak");
    assert!(attacker.fire(kernel, &leak).landed());
    registry.stacks.rotate(kernel);
    kernel.reclaim.flush();
    match attacker.fire(kernel, &leak) {
        FireOutcome::Dead(Fault::Unmapped { .. }) => {}
        other => panic!("stale stack leak must fault, got {other:?}"),
    }
}

#[test]
fn leaked_chain_first_hop_faults_after_move() {
    // The §6 JIT-ROP scenario driven through the harness: scan the hot
    // module's gadget farm, build the NX-disable chain, move the
    // module, fire — the first hop must hit unmapped memory.
    let mut sim = one_kernel(1);
    let kernel = sim.fleet.kernel(0).clone();
    let chain = Attacker::build_leaked_chain(&kernel, sim.module("hot_s0"))
        .expect("hot module's gadget farm supports a chain");
    step_past_a_hot_move(&mut sim);
    kernel.reclaim.flush();
    let mut vm = kernel.vm();
    match vm.call(chain.words[0], &[]) {
        Err(adelie_kernel::VmError::Fault(Fault::Unmapped { .. })) => {}
        other => panic!("chain should die on unmapped code, got {other:?}"),
    }
}
