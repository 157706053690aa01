//! Property suite for fleet placement and the cold tier: arbitrary
//! install / evict-and-reload / unload / re-randomize interleavings
//! must never produce cross-shard VA overlap, a resident without a
//! catalog record naming its shard, a dangling fixed-GOT entry, or a
//! module unreachable from its owning shard's symbol table.

use adelie_core::{ColdTierConfig, Fleet, LoadWeighted, Pinned, RoundRobin, ShardPlacement};
use adelie_isa::{AluOp, Insn, Reg};
use adelie_kernel::{FleetConfig, ShardedKernel};
use adelie_plugin::{transform, DataInit, DataSpec, FuncSpec, MOp, ModuleSpec, TransformOptions};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// A small, fast driver: `{name}_calc(x) = x + 9` plus a pointer table
/// (adjust slots) and a kernel import (fixed-GOT entry to audit).
fn spec(name: &str) -> ModuleSpec {
    let mut s = ModuleSpec::new(name);
    s.funcs.push(FuncSpec::exported(
        &format!("{name}_calc"),
        vec![
            MOp::Insn(Insn::MovRR {
                dst: Reg::Rax,
                src: Reg::Rdi,
            }),
            MOp::Insn(Insn::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 9,
            }),
            MOp::Ret,
        ],
    ));
    s.funcs.push(FuncSpec::exported(
        &format!("{name}_touch"),
        vec![
            MOp::Insn(Insn::MovImm32(Reg::Rdi, 32)),
            MOp::CallKernel("kmalloc".into()),
            MOp::Insn(Insn::MovRR {
                dst: Reg::Rdi,
                src: Reg::Rax,
            }),
            MOp::CallKernel("kfree".into()),
            MOp::Ret,
        ],
    ));
    s.data.push(DataSpec {
        name: format!("{name}_ops"),
        readonly: false,
        init: DataInit::PtrTable(vec![format!("{name}_calc")]),
    });
    s
}

/// Check every fleet invariant, where a catalog entry may legitimately
/// be cold. The shared `Fleet::verify_layout` checker (registry/catalog
/// agreement, window confinement, pairwise disjointness of all live
/// spans, the occupancy counters) and the symbol audit come first.
/// Resident modules get the full treatment (visibility confined to the
/// owner, real execution); cold modules must be *gone* — resident
/// nowhere, visible in no shard's symbol table — while staying in the
/// catalog. No module may be resident in two registries at once
/// (lost/duplicated check). Returns a violation description or `None`.
fn check_invariants(fleet: &Fleet, names: &[String]) -> Option<String> {
    if let Some(v) = fleet.verify_layout().into_iter().next() {
        return Some(v);
    }
    if let Some(v) = fleet.verify_symbol_integrity().first() {
        return Some(v.clone());
    }
    for name in names {
        let Some(owner) = fleet.shard_of(name) else {
            return Some(format!("{name} vanished from the catalog"));
        };
        let export = format!("{name}_calc");
        let resident_in: Vec<usize> = (0..fleet.len())
            .filter(|&s| fleet.registry(s).get(name).is_some())
            .collect();
        if resident_in.len() > 1 {
            return Some(format!("{name} duplicated across shards {resident_in:?}"));
        }
        if resident_in.first() == Some(&owner) {
            for shard in 0..fleet.len() {
                let visible = fleet.kernel(shard).symbols.lookup(&export).is_some();
                if shard == owner && !visible {
                    return Some(format!(
                        "{name} unreachable from owning shard {owner}'s symbol table"
                    ));
                }
                if shard != owner && visible {
                    return Some(format!(
                        "{name} leaked into shard {shard}'s symbol table (owner {owner})"
                    ));
                }
            }
            let module = fleet.registry(owner).get(name).expect("resident entry");
            let entry = module.export(&export).expect("export");
            let kernel = fleet.kernel(owner).clone();
            let mut vm = kernel.vm();
            match vm.call(entry, &[33]) {
                Ok(42) => {}
                other => {
                    return Some(format!(
                        "{name} misbehaves in owning shard {owner}: {other:?}"
                    ))
                }
            }
        } else {
            if let Some(s) = resident_in.first() {
                return Some(format!(
                    "{name} resident in shard {s} but the catalog owner is {owner}"
                ));
            }
            for shard in 0..fleet.len() {
                if fleet.kernel(shard).symbols.lookup(&export).is_some() {
                    return Some(format!(
                        "cold module {name} still visible in shard {shard}'s symbol table"
                    ));
                }
            }
        }
    }
    None
}

/// What calling a cached `(shard, entry)` must do, by what happened to
/// the module since the entry was cached.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Cached {
    /// The cached copy is resident: the call runs it.
    Live,
    /// The cached copy was evicted: the call demand-faults the module
    /// back in.
    Evicted,
    /// The cached copy was unloaded: the call faults.
    Dead,
}

/// Whether `va` lies in a live or evicted span of a module other than
/// `name` — a reused VA, where a stale entry legitimately reaches that
/// module instead. Shard windows are disjoint, so the VA alone names
/// the shard.
fn va_claimed_by_other(fleet: &Fleet, names: &[String], name: &str, va: u64) -> bool {
    let covers = |&(base, span): &(u64, u64)| va >= base && va < base + span;
    fleet
        .live_spans()
        .iter()
        .any(|(_, n, base, span)| n != name && covers(&(*base, *span)))
        || names
            .iter()
            .filter(|n| n.as_str() != name)
            .filter_map(|n| fleet.evicted_spans(n))
            .any(|spans| spans.iter().any(covers))
}

fn placement_for(kind: u8) -> Box<dyn ShardPlacement> {
    match kind % 3 {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(LoadWeighted::new()),
        _ => Box::new(Pinned::new(HashMap::new(), 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The fleet contract under arbitrary op interleavings.
    #[test]
    fn fleet_ops_preserve_layout_and_symbol_invariants(
        placement_kind in 0u8..3,
        shards in 2usize..5,
        ops in proptest::collection::vec((0u8..4, 0usize..8), 1..24)
    ) {
        let sharded = ShardedKernel::new(FleetConfig::seeded(shards, 0xF1EE7));
        let fleet = Fleet::new(sharded, placement_for(placement_kind));
        let opts = TransformOptions::rerandomizable(true);
        let mut installed: Vec<String> = Vec::new();
        let mut minted = 0usize;
        for (op, pick) in ops {
            match op {
                // Install a fresh module wherever placement says.
                0 => {
                    let name = format!("m{minted}");
                    minted += 1;
                    let obj = transform(&spec(&name), &opts).unwrap();
                    let (shard, _) = fleet.install(&obj, &opts).unwrap();
                    prop_assert!(shard < shards);
                    installed.push(name);
                }
                // Evict one and reload it from its catalog record: a
                // rebuild at fresh VAs inside the owner's window.
                1 if !installed.is_empty() => {
                    let name = &installed[pick % installed.len()];
                    let owner = fleet.shard_of(name).unwrap();
                    fleet.evict(name).unwrap();
                    prop_assert!(fleet.registry(owner).get(name).is_none());
                    prop_assert_eq!(fleet.ensure_resident(name).unwrap().0, owner);
                }
                // Unload one.
                2 if !installed.is_empty() => {
                    let name = installed.swap_remove(pick % installed.len());
                    fleet.unload(&name).unwrap();
                }
                // Re-randomize one in place (placement churn inside the
                // owner's window while other shards stay put).
                _ if !installed.is_empty() => {
                    let name = &installed[pick % installed.len()];
                    let owner = fleet.shard_of(name).unwrap();
                    let module = fleet.registry(owner).get(name).unwrap();
                    adelie_core::rerandomize_module(
                        fleet.kernel(owner),
                        fleet.registry(owner),
                        &module,
                    )
                    .unwrap();
                }
                _ => {}
            }
            if let Some(violation) = check_invariants(&fleet, &installed) {
                prop_assert!(false, "invariant violated: {violation}");
            }
            // Every op leaves every installed module resident.
            prop_assert_eq!(fleet.cold_stats().cold, 0);
        }
        // Drain: unload everything; every shard ends empty and clean.
        for name in installed.drain(..) {
            fleet.unload(&name).unwrap();
        }
        prop_assert!(fleet.live_spans().is_empty());
        prop_assert!(fleet.verify_symbol_integrity().is_empty());
    }
}

// More cases than the other properties, so the cached-entry op meets
// every `Cached` state.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cold-tier contract under arbitrary op interleavings:
    /// install / cold-register / call (demand fault-in) / evict /
    /// idle+cap ticks / unload / a call through a cached entry address
    /// (the kernel's demand loader).
    /// No module is ever lost or duplicated,
    /// layout and symbol invariants hold throughout, every faulted-in
    /// module passes the GOT audit and actually executes, and a stale
    /// entry reaches its own module or faults — never another's.
    #[test]
    fn cold_tier_ops_preserve_catalog_and_layout_invariants(
        shards in 2usize..4,
        ops in proptest::collection::vec((0u8..7, 0usize..8), 1..28)
    ) {
        let sharded = ShardedKernel::new(FleetConfig::seeded(shards, 0xC01D));
        let fleet = Fleet::new(sharded, Box::new(RoundRobin::new()));
        fleet.enable_cold_tier(ColdTierConfig {
            idle_ns: 10_000,
            max_resident: 4,
        });
        let opts = TransformOptions::rerandomizable(true);
        let mut names: Vec<String> = Vec::new();
        // Name → the `(shard, entry)` a caller last resolved, and what
        // calling it must do now.
        let mut cache: BTreeMap<String, (usize, u64, Cached)> = BTreeMap::new();
        let mut minted = 0usize;
        let mut now_ns = 0u64;
        for (op, pick) in ops {
            now_ns += 5_000;
            match op {
                // Install resident, wherever placement says.
                0 => {
                    let name = format!("c{minted}");
                    minted += 1;
                    let obj = transform(&spec(&name), &opts).unwrap();
                    let (shard, module) = fleet.install(&obj, &opts).unwrap();
                    let entry = module.export(&format!("{name}_calc")).unwrap();
                    cache.insert(name.clone(), (shard, entry, Cached::Live));
                    names.push(name);
                }
                // Register cold: catalog only, nothing materializes.
                1 => {
                    let name = format!("c{minted}");
                    minted += 1;
                    let obj = transform(&spec(&name), &opts).unwrap();
                    fleet.register(&obj, &opts).unwrap();
                    names.push(name);
                }
                // Call one: demand fault-in if cold, then execute.
                2 if !names.is_empty() => {
                    let name = &names[pick % names.len()];
                    let (shard, module) = fleet.ensure_resident(name).unwrap();
                    let entry = module.export(&format!("{name}_calc")).unwrap();
                    let kernel = fleet.kernel(shard).clone();
                    let mut vm = kernel.vm();
                    prop_assert_eq!(vm.call(entry, &[33]).unwrap(), 42);
                    cache.insert(name.clone(), (shard, entry, Cached::Live));
                }
                // Evict one (idempotent if already cold).
                3 if !names.is_empty() => {
                    let name = &names[pick % names.len()];
                    fleet.evict(name).unwrap();
                    if let Some(c) = cache.get_mut(name).filter(|c| c.2 == Cached::Live) {
                        c.2 = Cached::Evicted;
                    }
                }
                // Unload one, cold or resident.
                4 if !names.is_empty() => {
                    let name = names.swap_remove(pick % names.len());
                    fleet.unload(&name).unwrap();
                    if let Some(c) = cache.get_mut(&name) {
                        c.2 = Cached::Dead;
                    }
                }
                // Call a cached entry directly, as a caller holding a
                // function pointer would: a resident copy runs, an
                // evicted one demand-faults back in (exactly one
                // redirect), and an unloaded one faults.
                5 if !cache.is_empty() => {
                    let (name, &(shard, entry, state)) =
                        cache.iter().nth(pick % cache.len()).unwrap();
                    let name = name.clone();
                    if !va_claimed_by_other(&fleet, &names, &name, entry) {
                        let faults_in = state == Cached::Evicted;
                        let before = fleet.cold_stats().demand_redirects;
                        let kernel = fleet.kernel(shard).clone();
                        let result = kernel.vm().call(entry, &[33]);
                        let redirects = fleet.cold_stats().demand_redirects - before;
                        if state == Cached::Live || faults_in {
                            prop_assert_eq!(result.ok(), Some(42), "{} ({:?})", name, state);
                            prop_assert_eq!(redirects, u64::from(faults_in), "{}", name);
                        } else {
                            prop_assert!(
                                result.is_err(),
                                "stale entry of {} ({:?}) answered {:?}", name, state, result
                            );
                            prop_assert_eq!(redirects, 0, "{}", name);
                        }
                        if faults_in {
                            let module = fleet.registry(shard).get(&name).expect("faulted in");
                            let entry = module.export(&format!("{name}_calc")).unwrap();
                            cache.insert(name, (shard, entry, Cached::Live));
                        }
                    }
                }
                // Let the idle clock bite: evict idle + over-cap
                // residents in deterministic order.
                _ => {
                    for name in fleet.cold_tick(now_ns) {
                        if let Some(c) = cache.get_mut(&name).filter(|c| c.2 == Cached::Live) {
                            c.2 = Cached::Evicted;
                        }
                    }
                }
            }
            if let Some(violation) = check_invariants(&fleet, &names) {
                prop_assert!(false, "invariant violated: {violation}");
            }
        }
        // Accounting closes: every catalog entry is counted exactly
        // once, as resident or cold.
        let stats = fleet.cold_stats();
        prop_assert_eq!(stats.resident + stats.cold, names.len());
        // Drain: every shard ends empty and clean.
        for name in names.drain(..) {
            fleet.unload(&name).unwrap();
        }
        prop_assert!(fleet.live_spans().is_empty());
        prop_assert!(fleet.verify_symbol_integrity().is_empty());
    }
}
