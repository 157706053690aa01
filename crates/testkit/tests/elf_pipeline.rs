//! The ELF-ingestion acceptance pipeline, end to end: a module that
//! arrived as a real ELF64 relocatable object (emitted by
//! `adelie_elf::emit`, parsed back by `adelie_elf::parse`) must survive
//!
//!   load → lazy PLT first-call bind → ≥3 re-randomization cycles →
//!   fleet eviction + reload from the catalog → unload
//!
//! with zero [`LayoutOracle`] violations, and the oracle's bound-slot
//! staleness audit (invariant #7) must stay green at every commit. A
//! companion test tampers a recorded binding to prove the audit
//! actually catches the bug class it exists for.

use adelie_core::{rerandomize_module, Fleet, ModuleRegistry, Pinned};
use adelie_isa::{Insn, Reg};
use adelie_kernel::{FleetConfig, Kernel, KernelConfig, ShardedKernel};
use adelie_plugin::{transform, DataInit, DataSpec, FuncSpec, MOp, ModuleSpec, TransformOptions};
use adelie_sched::SimClock;
use adelie_testkit::LayoutOracle;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

const ELFMOD_MINOR: u32 = 51;

/// A chardev driver whose *ioctl path* calls kernel imports: init binds
/// `register_chrdev` eagerly (it runs at load), but `kmalloc`/`kfree`
/// stay unbound until the first ioctl arrives — the lazy first-call
/// bind the pipeline must exercise.
fn elfmod_spec() -> ModuleSpec {
    let mut spec = ModuleSpec::new("elfmod");
    spec.funcs.push(FuncSpec::exported(
        "elfmod_ioctl",
        vec![
            MOp::Insn(Insn::MovImm32(Reg::Rdi, 64)),
            MOp::CallKernel("kmalloc".into()),
            MOp::Insn(Insn::MovRR {
                dst: Reg::Rdi,
                src: Reg::Rax,
            }),
            MOp::CallKernel("kfree".into()),
            MOp::Insn(Insn::MovImm32(Reg::Rax, 1234)),
            MOp::Ret,
        ],
    ));
    spec.funcs.push(FuncSpec::exported(
        "elfmod_init",
        vec![
            MOp::Insn(Insn::MovImm32(Reg::Rdi, ELFMOD_MINOR as i32)),
            MOp::LoadLocalSym(Reg::Rsi, "elfmod_ioctl".into()),
            MOp::Insn(Insn::MovImm32(Reg::Rdx, 0)),
            MOp::Insn(Insn::MovImm32(Reg::Rcx, 0)),
            MOp::LoadLocalSym(Reg::R8, "elfmod_name".into()),
            MOp::CallKernel("register_chrdev".into()),
            MOp::Ret,
        ],
    ));
    spec.funcs.push(FuncSpec::exported(
        "elfmod_exit",
        vec![
            MOp::Insn(Insn::MovImm32(Reg::Rdi, ELFMOD_MINOR as i32)),
            MOp::CallKernel("unregister_chrdev".into()),
            MOp::Ret,
        ],
    ));
    spec.data.push(DataSpec {
        name: "elfmod_name".into(),
        readonly: true,
        init: DataInit::Bytes(b"elfmod\0".to_vec()),
    });
    spec.init = Some("elfmod_init".into());
    spec.exit = Some("elfmod_exit".into());
    spec
}

/// Transform to the PIC object, serialize to ELF64, parse back — the
/// ingestion path under test.
fn elf_ingested_object(opts: &TransformOptions) -> adelie_obj::ObjectFile {
    let direct = transform(&elfmod_spec(), opts).expect("transform");
    let bytes = adelie_elf::emit(&direct);
    assert_eq!(&bytes[..4], b"\x7fELF");
    adelie_elf::parse(&bytes).expect("emitted object parses back")
}

#[test]
fn elf_module_survives_bind_rerand_reload_unload_with_clean_oracle() {
    let opts = TransformOptions::rerandomizable(true).with_lazy_plt();
    let obj = elf_ingested_object(&opts);

    let sharded = ShardedKernel::new(FleetConfig {
        shards: 2,
        base: KernelConfig {
            seed: 0xE1F6,
            retpoline: true,
            ..KernelConfig::default()
        },
    });
    let fleet = Fleet::new(sharded, Box::new(Pinned::new(HashMap::new(), 0)));
    let clock = SimClock::new();
    let oracle = LayoutOracle::new(fleet.kernel(0).clone(), clock.clone());
    fleet.registry(0).set_cycle_hooks(oracle.clone());
    oracle.track_modules(fleet.registry(0));

    // Load. Init ran (chardev registered), so init-path slots are
    // bound, but the ioctl path's `kmalloc`/`kfree` must still be lazy.
    let (shard, module) = fleet.install(&obj, &opts).expect("install");
    assert_eq!(shard, 0);
    assert!(!module.lazy_plt.is_empty(), "lazy PLT slots expected");
    let unbound_at_load = module
        .lazy_plt
        .iter()
        .filter(|s| s.bound.load(Ordering::Acquire) == 0)
        .count();
    assert!(
        unbound_at_load > 0,
        "ioctl-path slots must still be unbound after load"
    );

    // First call: the ioctl traverses the PLT, the binder fires, and
    // the slots record their targets.
    let binds_before = module.plt_binds.load(Ordering::Relaxed);
    let mut vm = fleet.kernel(0).vm();
    assert_eq!(
        fleet
            .kernel(0)
            .ioctl(&mut vm, ELFMOD_MINOR, 0, 7)
            .expect("first ioctl"),
        1234
    );
    assert!(
        module.plt_binds.load(Ordering::Relaxed) > binds_before,
        "first call must bind lazily"
    );
    assert!(adelie_core::verify_plt_bindings(fleet.kernel(0), &module).is_empty());

    // ≥3 re-randomization cycles, each audited by the oracle at commit
    // (invariant #7) and each followed by a live call through the
    // re-swung bindings.
    for cycle in 0..3 {
        clock.advance(std::time::Duration::from_millis(10));
        rerandomize_module(fleet.kernel(0), fleet.registry(0), &module)
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        let mut vm = fleet.kernel(0).vm();
        assert_eq!(
            fleet
                .kernel(0)
                .ioctl(&mut vm, ELFMOD_MINOR, 0, cycle)
                .expect("post-cycle ioctl"),
            1234
        );
    }
    assert!(
        module.plt_reswings.load(Ordering::Relaxed) > 0,
        "bound slots must have been re-swung across cycles"
    );
    assert_eq!(oracle.commits().len(), 3);
    oracle
        .verify_quiesced(fleet.registry(0), None, 0)
        .assert_clean();

    // Evict, then reload: the catalog replays the *ELF-ingested* object
    // at fresh VAs in the same shard. The vacated spans must be gone and
    // the rebuilt copy's bindings must resolve afresh.
    let vacated: Vec<(u64, u64)> = fleet
        .live_spans()
        .into_iter()
        .map(|(_, _, base, span)| (base, span))
        .collect();
    fleet.evict("elfmod").expect("evict");
    oracle.module_evicted("elfmod", &vacated);
    let (shard, reloaded) = fleet.ensure_resident("elfmod").expect("reload");
    assert_eq!(shard, 0);
    oracle.module_faulted_in("elfmod");
    let mut vm = fleet.kernel(0).vm();
    assert_eq!(
        fleet
            .kernel(0)
            .ioctl(&mut vm, ELFMOD_MINOR, 0, 9)
            .expect("post-reload ioctl"),
        1234
    );
    assert!(adelie_core::verify_plt_bindings(fleet.kernel(0), &reloaded).is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
    assert!(fleet.verify_layout().is_empty());

    // One more audited cycle on the reloaded copy, then unload.
    clock.advance(std::time::Duration::from_millis(10));
    rerandomize_module(fleet.kernel(0), fleet.registry(0), &reloaded).expect("reload cycle");
    let mut vm = fleet.kernel(0).vm();
    assert_eq!(
        fleet
            .kernel(0)
            .ioctl(&mut vm, ELFMOD_MINOR, 0, 11)
            .expect("post-reload-cycle ioctl"),
        1234
    );
    assert_eq!(oracle.commits().len(), 4);
    oracle
        .verify_quiesced(fleet.registry(0), None, 0)
        .assert_clean();
    fleet.unload("elfmod").expect("unload");
    assert!(fleet.live_spans().is_empty());
    assert!(fleet.verify_symbol_integrity().is_empty());
}

/// Invariant #7 must have teeth: plant a binding that points into a
/// vacated range and the oracle has to report it — a stale bound slot
/// is exactly "callable into a retired range".
#[test]
fn oracle_flags_a_bound_slot_left_pointing_into_a_vacated_range() {
    let opts = TransformOptions::rerandomizable(true).with_lazy_plt();
    let obj = elf_ingested_object(&opts);
    let kernel = Kernel::new(KernelConfig {
        seed: 0xDEAD,
        retpoline: true,
        ..KernelConfig::default()
    });
    let registry = ModuleRegistry::new(&kernel);
    let clock = SimClock::new();
    let oracle = LayoutOracle::new(kernel.clone(), clock.clone());
    registry.set_cycle_hooks(oracle.clone());
    oracle.track_modules(&registry);

    let module = registry.load(&obj, &opts).expect("load");
    let mut vm = kernel.vm();
    assert_eq!(kernel.ioctl(&mut vm, ELFMOD_MINOR, 0, 1).unwrap(), 1234);
    rerandomize_module(&kernel, &registry, &module).expect("cycle");

    let slot = module
        .lazy_plt
        .iter()
        .find(|s| s.bound.load(Ordering::Acquire) != 0)
        .expect("a bound slot");
    let good = slot.bound.load(Ordering::Acquire);
    let vacated = oracle.commits()[0].old_base + 0x40;
    slot.bound.store(vacated, Ordering::Release);
    let report = oracle.verify_quiesced(&registry, None, 0);
    assert!(
        report.violations.iter().any(|v| v.contains("PLT")),
        "oracle must flag the stale binding, got: {:?}",
        report.violations
    );
    slot.bound.store(good, Ordering::Release);
    oracle.verify_quiesced(&registry, None, 0).assert_clean();
}
