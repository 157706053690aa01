//! Cross-crate integration tests: the full Adelie stack from plugin
//! transformation through loading, execution, continuous
//! re-randomization, and attack defeat.

use adelie::core::{rerandomize_module, ModuleRegistry};
use adelie::drivers::{install_dummy, install_nic, install_nvme, specs, NicFlavor};
use adelie::gadget::{build_chain, scan};
use adelie::kernel::{Kernel, KernelConfig, VmError, SECTOR_SIZE};
use adelie::plugin::{transform, TransformOptions};
use adelie::sched::{SchedConfig, Scheduler, SimClock};
use adelie::vmem::{Access, Fault, PAGE_SIZE};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn boot() -> (Arc<Kernel>, Arc<ModuleRegistry>) {
    let kernel = Kernel::new(KernelConfig::default());
    let registry = ModuleRegistry::new(&kernel);
    (kernel, registry)
}

#[test]
fn full_stack_ioctl_under_1ms_rerand_with_hyaline() {
    // Stepped scheduler on a virtual clock: each ioctl "takes" 5 µs of
    // virtual time and every due 1 ms deadline cycles the module — the
    // cycle count is exact, not a function of machine speed. The `mr_*`
    // domain is Hyaline; the EBR comparison is recorded in DESIGN.md
    // §8.1.
    let (kernel, registry) = boot();
    let opts = TransformOptions::rerandomizable(true);
    install_dummy(&registry, &opts).unwrap();
    let clock = SimClock::new();
    let sched = Scheduler::spawn_stepped(
        kernel.clone(),
        registry.clone(),
        &[(
            "dummy",
            adelie::sched::Policy::FixedPeriod(Duration::from_millis(1)),
        )],
        SchedConfig::serial(Duration::from_millis(1)),
        clock.clone(),
        Duration::from_micros(50),
    );
    let mut vm = kernel.vm();
    for i in 0..2000u64 {
        assert_eq!(kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, i).unwrap(), i);
        clock.advance(Duration::from_micros(5));
        while sched
            .peek_deadline_ns()
            .is_some_and(|d| d <= clock.now_ns())
        {
            sched.step();
        }
    }
    let stats = sched.stop();
    // 2000 ioctls × 5 µs ≈ 10 ms of virtual time at a 1 ms period
    // (cycle cost stretches the spacing slightly).
    assert!(
        (8..=11).contains(&stats.cycles),
        "{} cycles — virtual time makes this exact-ish",
        stats.cycles
    );
    assert_eq!(stats.failures, 0);
    kernel.reclaim.flush();
    assert_eq!(kernel.reclaim.stats().delta(), 0, "drained everything");
}

#[test]
fn leaked_gadget_chain_dies_with_the_next_period() {
    // The §6 JIT-ROP scenario as an assertion.
    let (kernel, registry) = boot();
    let spec = adelie::gadget::synth_module("vuln", 16 * 1024, 0xA77ACC);
    let opts = TransformOptions::rerandomizable(true);
    let obj = transform(&spec, &opts).unwrap();
    let module = registry.load(&obj, &opts).unwrap();

    // Leak + scan + build.
    let base = module.movable_base.load(Ordering::Relaxed);
    let text_pages = module.movable.groups[0].pages;
    let mut text = vec![0u8; text_pages * PAGE_SIZE];
    kernel
        .space
        .read_bytes(&kernel.phys, base, &mut text)
        .unwrap();
    let gadgets = scan(&text);
    let chain = build_chain(
        &gadgets,
        base,
        [0x4000_0000, 1, 0],
        adelie::kernel::layout::NATIVE_BASE,
    );
    let Some(chain) = chain else {
        // Gadget-poor module: still fine for this test's purpose.
        return;
    };
    // Fire after one period: first hop must fault.
    rerandomize_module(&kernel, &registry, &module).unwrap();
    let mut vm = kernel.vm();
    match vm.call(chain.words[0], &[]) {
        Err(VmError::Fault(Fault::Unmapped { .. })) => {}
        other => panic!("chain should die on unmapped code, got {other:?}"),
    }
}

#[test]
fn return_address_encryption_defeats_in_window_hijack() {
    // Within a single period, a forged (plaintext) return address is
    // decrypted with the key before `ret`, landing at garbage.
    let (kernel, registry) = boot();
    let opts = TransformOptions::rerandomizable(true);
    let drv = install_dummy(&registry, &opts).unwrap();
    let key = drv.module.current_key.load(Ordering::Relaxed);
    assert_ne!(key, 0, "key must be generated at load");
    // The real function's prologue encrypts [rsp]; calling it directly
    // with a sentinel return address must NOT return cleanly (the
    // sentinel gets encrypted, then decrypted — but a *forged* hijack
    // skips the prologue: emulate by entering at the epilogue side).
    // Direct wrapper call still works:
    let mut vm = kernel.vm();
    assert_eq!(kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, 5).unwrap(), 5);
    // An attacker jumping straight to the real function *body past the
    // prologue* (skipping encryption) has their return address XORed at
    // the epilogue — control lands at sentinel^key, which faults.
    let real = drv.module.symbol_va("dummy_ioctl__real").unwrap();
    // Skip the 13-byte prologue (7-byte GOT load + 4-byte xor + 3-byte
    // clear — Fig. 3b).
    let past_prologue = real + 14;
    match vm.call(past_prologue, &[0, 0, 7]) {
        Err(_) => {} // fault: decrypted sentinel is garbage
        Ok(v) => panic!("hijack skipped encryption and returned {v:#x}"),
    }
}

#[test]
fn mixed_fleet_of_configurations_coexists() {
    // PIC, legacy, and re-randomizable modules in one kernel.
    let (kernel, registry) = boot();
    install_dummy(&registry, &TransformOptions::rerandomizable(true)).unwrap();
    let nvme = install_nvme(&registry, &TransformOptions::pic(true)).unwrap();
    let nic = install_nic(
        &registry,
        &TransformOptions::vanilla(true),
        NicFlavor::E1000,
    )
    .unwrap();
    assert!(!nvme.module.rerandomizable);
    assert!(!nic.module.rerandomizable);
    let mut vm = kernel.vm();
    assert_eq!(kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, 3).unwrap(), 3);
    kernel.devices.set_rx_handler(Box::new(|_| {}));
    kernel.net_xmit(&mut vm, b"frame").unwrap();
    // Storage path through the PIC nvme module.
    kernel.vfs.create("mix.bin", 1 << 16);
    let fd = kernel.vfs.open("mix.bin", true).unwrap();
    let buf = kernel
        .heap
        .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE);
    assert_eq!(
        kernel.vfs.pread(&mut vm, fd, buf, SECTOR_SIZE, 0).unwrap(),
        SECTOR_SIZE
    );
}

#[test]
fn rerand_stress_many_threads_many_modules() {
    // Real pending calls from six racing threads, but the cycles are
    // driven deterministically from the main thread on a virtual clock:
    // exactly 60 cycles happen, no matter how fast the machine is. The
    // memory-level races (pending calls pinning retired ranges) stay
    // real — only the schedule is pinned down.
    let (kernel, registry) = boot();
    let opts = TransformOptions::rerandomizable(true);
    install_dummy(&registry, &opts).unwrap();
    let nvme = install_nvme(&registry, &opts).unwrap();
    kernel.vfs.create("stress.bin", 1 << 20);
    let clock = SimClock::new();
    let period = adelie::sched::Policy::FixedPeriod(Duration::from_millis(1));
    let sched = Scheduler::spawn_stepped(
        kernel.clone(),
        registry.clone(),
        &[("dummy", period.clone()), ("nvme", period)],
        SchedConfig {
            workers: 2,
            ..SchedConfig::default()
        },
        clock.clone(),
        Duration::from_micros(100),
    );
    std::thread::scope(|s| {
        for t in 0..6 {
            let kernel = kernel.clone();
            s.spawn(move || {
                let mut vm = kernel.vm();
                let buf = kernel
                    .heap
                    .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE);
                let fd = kernel.vfs.open("stress.bin", true).unwrap();
                for i in 0..400u64 {
                    if t % 2 == 0 {
                        assert_eq!(kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, i).unwrap(), i);
                    } else {
                        kernel
                            .vfs
                            .pread(&mut vm, fd, buf, SECTOR_SIZE, (i % 64) * 512)
                            .unwrap();
                    }
                }
            });
        }
        // Drive exactly 60 cycles (30 virtual ms over both modules)
        // while the traffic threads hammer the wrappers.
        for _ in 0..60 {
            sched.step();
        }
    });
    let stats = sched.stop();
    assert_eq!(stats.cycles, 60, "virtual clock makes the count exact");
    assert_eq!(stats.failures, 0);
    kernel.reclaim.flush();
    assert_eq!(kernel.reclaim.stats().delta(), 0);
    assert!(nvme.device.completed() > 0);
}

#[test]
fn testkit_oracle_holds_over_a_long_deterministic_run() {
    // The standing verification backbone, from the facade level: half a
    // virtual second of hot+cold cycling, then the oracle sweeps for
    // stale mappings, SMR/stack leaks, overlapping placements, and
    // silent pointer-refresh drops.
    use adelie_testkit::{Sim, SimConfig};
    let mut sim = Sim::new(SimConfig {
        seed: 0xE2E,
        ..SimConfig::default()
    });
    sim.run_for(Duration::from_millis(500));
    assert!(sim.reports().len() >= 60, "{}", sim.reports().len());
    sim.assert_modules_work();
    sim.verify(0).assert_clean();
}

#[test]
fn long_blocking_call_delays_unmap_but_not_forever() {
    // §6 "Delayed Unmapping": a pending call pins the old range; the
    // moment it completes, reclamation proceeds.
    let (kernel, registry) = boot();
    let opts = TransformOptions::rerandomizable(true);
    let drv = install_dummy(&registry, &opts).unwrap();
    let base0 = drv.module.movable_base.load(Ordering::Relaxed);
    // A "blocked" call: mr_start held open on another CPU.
    kernel.reclaim.enter(7);
    for _ in 0..3 {
        rerandomize_module(&kernel, &registry, &drv.module).unwrap();
    }
    assert!(
        kernel.space.translate(base0, Access::Read).is_ok(),
        "oldest range pinned by the blocked call"
    );
    // Three module ranges plus any rotated stack batches stay pinned.
    assert!(kernel.reclaim.stats().delta() >= 3);
    kernel.reclaim.leave(7);
    kernel.reclaim.flush();
    assert_eq!(kernel.reclaim.stats().delta(), 0);
    assert!(kernel.space.translate(base0, Access::Read).is_err());
}

#[test]
fn physical_frames_do_not_leak_across_cycles() {
    let (kernel, registry) = boot();
    let opts = TransformOptions::rerandomizable(true);
    let drv = install_dummy(&registry, &opts).unwrap();
    // Let the first cycle flush the install-time stack out of the pool,
    // then require steady state: zero-copy cycles reuse frames.
    rerandomize_module(&kernel, &registry, &drv.module).unwrap();
    let live0 = kernel.phys.stats().frames_live;
    for _ in 0..50 {
        rerandomize_module(&kernel, &registry, &drv.module).unwrap();
    }
    let live1 = kernel.phys.stats().frames_live;
    assert_eq!(
        live0, live1,
        "zero-copy cycles must not grow physical memory"
    );
}

#[test]
fn kaslr_bases_are_unpredictable_across_boots() {
    let mut bases = std::collections::HashSet::new();
    for seed in 0..8u64 {
        let kernel = Kernel::new(KernelConfig {
            seed,
            ..KernelConfig::default()
        });
        let registry = ModuleRegistry::new(&kernel);
        let opts = TransformOptions::pic(true);
        let drv = install_dummy(&registry, &opts).unwrap();
        bases.insert(drv.module.movable_base.load(Ordering::Relaxed));
    }
    assert_eq!(bases.len(), 8, "distinct base per boot seed");
}

#[test]
fn dmesg_shape_matches_artifact_appendix() {
    let (kernel, registry) = boot();
    let opts = TransformOptions::rerandomizable(true);
    install_dummy(&registry, &opts).unwrap();
    // The artifact's single `randmod` kthread is the serial scheduler
    // configuration; its dmesg shape must survive the scheduler rewrite.
    let rr = adelie::sched::Scheduler::spawn(
        kernel.clone(),
        registry.clone(),
        &["dummy"],
        adelie::sched::SchedConfig::serial(Duration::from_millis(2)),
    );
    let mut vm = kernel.vm();
    for i in 0..200u64 {
        kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, i).unwrap();
    }
    let stats = rr.stop();
    adelie::core::log_stats(&kernel, stats.cycles, &registry.stacks);
    assert!(!kernel.printk.grep("Randomize: kthread started").is_empty());
    assert!(!kernel.printk.grep("Randomized").is_empty());
    assert!(!kernel.printk.grep("SMR Retire").is_empty());
    assert!(!kernel.printk.grep("Stack Alloc").is_empty());
    // The artifact's invariant: deltas drain to zero at quiescence.
    assert!(
        kernel
            .printk
            .grep("SMR Delta: 0")
            .len()
            .max(usize::from(kernel.reclaim.stats().delta() == 0))
            >= 1
    );
}
