//! §5.4 — scalability: re-randomizer CPU cost vs module count at a
//! 20 ms period (with the paper's extrapolation to >950 modules), plus
//! the scheduler's worker-count axis: module-cycles completed by 1, 2,
//! and 4 workers over the same fleet in the same window.

use adelie_bench::print_header;
use adelie_core::ModuleRegistry;
use adelie_gadget::synth_module;
use adelie_kernel::{Kernel, KernelConfig};
use adelie_plugin::{transform, TransformOptions};
use adelie_sched::{Clock, Policy, SchedConfig, Scheduler};
use std::sync::Arc;
use std::time::Duration;

fn fleet(count: usize) -> (Arc<Kernel>, Arc<ModuleRegistry>, Vec<String>) {
    let opts = TransformOptions::rerandomizable(true);
    let kernel = Kernel::new(KernelConfig::default());
    let registry = ModuleRegistry::new(&kernel);
    let mut names = Vec::new();
    for i in 0..count {
        let spec = synth_module(&format!("mod{i}"), 16 * 1024, i as u64);
        let obj = transform(&spec, &opts).expect("transform");
        registry.load(&obj, &opts).expect("load");
        names.push(format!("mod{i}"));
    }
    (kernel, registry, names)
}

fn main() {
    print_header("§5.4", "re-randomizer CPU vs module count @ 20 ms");
    let window = Duration::from_secs_f64(
        std::env::var("ADELIE_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0),
    );
    println!("{:>8} {:>14} {:>12}", "modules", "cycles", "thread CPU%");
    let mut per_module = 0.0;
    for count in [1usize, 5, 10, 20] {
        let (kernel, registry, names) = fleet(count);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let sched = Scheduler::new(
            kernel.clone(),
            registry.clone(),
            &refs,
            SchedConfig::serial(Duration::from_millis(20)),
            Clock::wall(),
        );
        std::thread::sleep(window);
        let stats = sched.stop();
        let cpu_pct = stats.busy.as_secs_f64() / window.as_secs_f64() * 100.0;
        per_module = cpu_pct / count as f64;
        println!("{:>8} {:>14} {:>11.2}%", count, stats.cycles, cpu_pct);
    }
    // Paper: 0.4% thread CPU at 20 ms; ~0.36% per 5 extra modules;
    // comfortably >950 modules. Extrapolate from our per-module cost
    // against a 100%-of-one-core randomizer budget.
    let supportable = (100.0 / per_module) as u64;
    println!("\nper-module randomizer cost: {per_module:.3}% of one core");
    println!("extrapolated capacity at one dedicated core: ~{supportable} modules (paper: >950)");

    // Worker-count axis: the same 10-module fleet under an aggressive
    // fixed period, cycled by pools of different widths.
    println!("\nworker-count axis (10 modules @ 1 ms, {window:?} window):");
    println!("{:>8} {:>14} {:>14}", "workers", "cycles", "missed");
    for workers in [1usize, 2, 4] {
        let (kernel, registry, names) = fleet(10);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let sched = Scheduler::new(
            kernel.clone(),
            registry.clone(),
            &refs,
            SchedConfig {
                workers,
                policy: Policy::FixedPeriod(Duration::from_millis(1)),
                ..SchedConfig::default()
            },
            Clock::wall(),
        );
        std::thread::sleep(window);
        let stats = sched.stop();
        println!(
            "{:>8} {:>14} {:>14}",
            workers, stats.cycles, stats.missed_deadlines
        );
    }
}
