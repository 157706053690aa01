//! Quickstart: boot the simulated kernel, load a re-randomizable
//! driver, run it under continuous re-randomization, and read the
//! dmesg statistics block (the same output the paper's artifact shows).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use adelie::core::ModuleRegistry;
use adelie::drivers::{install_dummy, specs::DUMMY_MINOR};
use adelie::kernel::{Kernel, KernelConfig};
use adelie::plugin::TransformOptions;
use adelie::sched::{Clock, Policy, SchedConfig, Scheduler};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn main() {
    // 1. Boot (20 simulated CPUs, Hyaline reclamation — Table 1-ish).
    let kernel = Kernel::new(KernelConfig::default());
    let registry = ModuleRegistry::new(&kernel);

    // 2. Build + load the dummy ioctl driver as a re-randomizable
    //    module: the plugin wraps its exported functions, injects
    //    return-address encryption, and splits movable/immovable parts.
    let opts = TransformOptions::rerandomizable(true);
    let driver = install_dummy(&registry, &opts).expect("insmod dummy");
    println!(
        "loaded `dummy`: movable base {:#x}, immovable base {:#x}",
        driver.module.movable_base.load(Ordering::Relaxed),
        driver.module.immovable.as_ref().unwrap().base,
    );
    println!(
        "  {} local / {} fixed GOT entries, {} PLT stubs, {} Fig.4 patches",
        driver.module.stats.local_got_entries,
        driver.module.stats.fixed_got_entries,
        driver.module.stats.plt_stubs,
        driver.module.stats.patched_calls + driver.module.stats.patched_movs,
    );

    // 3. Start the re-randomization scheduler. Where the paper's
    //    artifact ran one kthread at a fixed period (`modprobe randmod
    //    module_names=dummy rand_period=5`), the scheduler adapts the
    //    period to the driver's call rate and gadget exposure.
    let sched = Scheduler::new(
        kernel.clone(),
        registry.clone(),
        &["dummy"],
        SchedConfig {
            workers: 2,
            policy: Policy::Adaptive {
                min: Duration::from_millis(1),
                max: Duration::from_millis(25),
                rate_scale: 1_000.0,
                exposure_scale: 20.0,
            },
            ..SchedConfig::default()
        },
        Clock::wall(),
    );

    // 4. Hammer the driver while it moves underneath us.
    let mut vm = kernel.vm();
    let t0 = std::time::Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < Duration::from_millis(500) {
        let arg = calls;
        let ret = kernel.ioctl(&mut vm, DUMMY_MINOR, 0, arg).expect("ioctl");
        assert_eq!(ret, arg);
        calls += 1;
    }
    // 5. The artifact-appendix dmesg block plus per-module scheduler
    //    telemetry (policy, period, call rate, latency percentiles).
    sched.log_stats();
    let stats = sched.stop();
    println!(
        "\n{} ioctls served while the module re-randomized {} times \
         ({} failures, {} missed deadlines)",
        calls, stats.cycles, stats.failures, stats.missed_deadlines
    );
    println!(
        "module moved to {:#x} (generation {})",
        driver.module.movable_base.load(Ordering::Relaxed),
        driver.module.times_randomized(),
    );
    println!("\n--- dmesg ---");
    print!("{}", kernel.printk.dmesg());
}
