//! Property tests for page-table invariants.

use adelie_vmem::{
    Access, AddressSpace, ArchKind, Asid, Batch, Fault, HwPte, Pfn, PhysMem, Pte, PteDecodeError,
    PteFlags, PteKind, SpaceConfig, Tlb, PAGE_SIZE, VA_MASK,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn arb_page() -> impl Strategy<Value = u64> {
    // Spread pages across the whole canonical space.
    (0u64..(VA_MASK >> 12)).prop_map(|p| p << 12)
}

fn arb_arch() -> impl Strategy<Value = ArchKind> {
    prop_oneof![Just(ArchKind::X86_64), Just(ArchKind::Riscv64Sv48)]
}

/// Every abstract leaf the space can produce: all four permission
/// shapes over either a frame (the modeled 40-bit PFN space) or an
/// MMIO leaf (20-bit device/page halves).
fn arb_pte() -> impl Strategy<Value = Pte> {
    let kind = prop_oneof![
        (0u64..(1 << 40)).prop_map(|p| PteKind::Frame(Pfn(p))),
        (0u32..(1 << 20), 0u32..(1 << 20)).prop_map(|(dev, page)| PteKind::Mmio { dev, page }),
    ];
    (kind, any::<bool>(), any::<bool>()).prop_map(|(kind, writable, executable)| {
        let mut flags = PteFlags::TEXT;
        if writable {
            flags = flags | PteFlags::WRITABLE;
        }
        if !executable {
            flags = flags | PteFlags::NX;
        }
        Pte { kind, flags }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A model-based test: a HashMap mirror of the radix table must
    /// agree with it after arbitrary map/unmap/protect sequences.
    #[test]
    fn matches_model(ops in proptest::collection::vec(
        (arb_page(), 0u8..3), 1..64)) {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let mut model: HashMap<u64, PteFlags> = HashMap::new();
        for (va, op) in ops {
            match op {
                0 => {
                    let outcome = space.map(va, phys.alloc(), PteFlags::DATA);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(va) {
                        prop_assert!(outcome.is_ok());
                        e.insert(PteFlags::DATA);
                    } else {
                        prop_assert_eq!(outcome, Err(Fault::AlreadyMapped { va }));
                    }
                }
                1 => {
                    let outcome = space.unmap(va);
                    prop_assert_eq!(outcome.is_ok(), model.remove(&va).is_some());
                }
                _ => {
                    let outcome = space.protect(va, PteFlags::RO_DATA);
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(va) {
                        prop_assert!(outcome.is_ok());
                        e.insert(PteFlags::RO_DATA);
                    } else {
                        prop_assert!(outcome.is_err());
                    }
                }
            }
        }
        // Final agreement on every address the model knows about.
        for (&va, &flags) in &model {
            let t = space.translate(va, Access::Read);
            prop_assert!(t.is_ok(), "model says {va:#x} mapped");
            prop_assert_eq!(t.unwrap().pte.flags, flags);
        }
    }

    /// Bytes written through one alias read back through another.
    #[test]
    fn aliases_are_coherent(a in arb_page(), b in arb_page(), val in any::<u64>()) {
        prop_assume!(a != b);
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfn = phys.alloc();
        space.map(a, pfn, PteFlags::DATA).unwrap();
        space.map(b, pfn, PteFlags::DATA).unwrap();
        space.write_u64(&phys, a + 40, val).unwrap();
        prop_assert_eq!(space.read_u64(&phys, b + 40).unwrap(), val);
    }

    /// Cross-page reads stitch bytes correctly at every offset.
    #[test]
    fn cross_page_reads(off in 1usize..8) {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let base = 0x42u64 << 13;
        space.map_range(base, &phys.alloc_n(2), PteFlags::DATA).unwrap();
        let va = base + PAGE_SIZE as u64 - off as u64;
        space.write_u64(&phys, va, 0x1122_3344_5566_7788).unwrap();
        prop_assert_eq!(space.read_u64(&phys, va).unwrap(), 0x1122_3344_5566_7788);
    }

    /// The shootdown-semantics contract: after **any** interleaving of
    /// batched ops, no TLB — whether it resynchronizes on every batch
    /// or lags several batches behind — ever serves a translation the
    /// space has retired, and batch failures are fully atomic (the
    /// space still matches the model exactly).
    #[test]
    fn batched_ops_never_serve_stale_translations(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0usize..24, 1usize..5), 1..6),
            1..25,
        ),
        small_log in any::<bool>(),
        small_tlb in any::<bool>(),
    ) {
        const PAGES: usize = 24;
        let base = 0x0031_0000_0000_0000u64;
        let page = |i: usize| base + (i * PAGE_SIZE) as u64;
        let phys = PhysMem::new();
        // A small log forces full-flush fallbacks; a small TLB forces
        // capacity evictions — both paths must stay stale-free.
        let space = AddressSpace::with_inval_log(if small_log { 2 } else { 64 });
        let mut eager = Tlb::new();
        let mut laggard = if small_tlb { Tlb::with_capacity(4) } else { Tlb::new() };
        let mut model: HashMap<u64, Pte> = HashMap::new();
        for (round, ops) in batches.into_iter().enumerate() {
            let mut batch = Batch::new();
            let mut next: HashMap<u64, Pte> = model.clone();
            let mut ok = true;
            for (op, start, len) in ops {
                let start = start % PAGES;
                let len = len.min(PAGES - start);
                match op {
                    0 => {
                        let pfn = phys.alloc();
                        batch.map_page(page(start), pfn, PteFlags::DATA);
                        let pte = Pte { kind: PteKind::Frame(pfn), flags: PteFlags::DATA };
                        ok &= next.insert(page(start), pte).is_none();
                    }
                    1 => {
                        batch.unmap_sparse(page(start), len);
                        for i in start..start + len {
                            next.remove(&page(i));
                        }
                    }
                    2 => {
                        batch.protect_range(page(start), len, PteFlags::RO_DATA);
                        for i in start..start + len {
                            match next.get_mut(&page(i)) {
                                Some(pte) => pte.flags = PteFlags::RO_DATA,
                                None => ok = false,
                            }
                        }
                    }
                    _ => {
                        let pfn = phys.alloc();
                        let pte = Pte { kind: PteKind::Frame(pfn), flags: PteFlags::DATA };
                        batch.swap_frame(page(start), pfn, PteFlags::DATA);
                        ok &= next.insert(page(start), pte).is_some();
                    }
                }
            }
            match space.apply(batch) {
                Ok(_) => {
                    prop_assert!(ok, "batch succeeded but the model predicted a fault");
                    model = next;
                }
                Err(_) => prop_assert!(!ok, "batch failed but the model predicted success"),
            }
            // Whatever the outcome, the space agrees with the model and
            // the eagerly-synced TLB never serves retired state.
            for i in 0..PAGES {
                let va = page(i);
                let cached = eager.lookup(va, &space);
                match model.get(&va) {
                    Some(&pte) => {
                        if let Some(hit) = cached {
                            prop_assert_eq!(hit, pte, "TLB served a stale PTE for {:#x}", va);
                        } else {
                            let t = space.translate(va, Access::Read);
                            prop_assert!(t.is_ok(), "model says {:#x} is mapped", va);
                            eager.insert(&t.unwrap());
                        }
                    }
                    None => {
                        prop_assert!(
                            cached.is_none(),
                            "TLB served a retired translation for {:#x}", va
                        );
                        prop_assert!(space.translate(va, Access::Read).is_err());
                    }
                }
            }
            // The laggard syncs only every third batch — it crosses
            // multiple invalidation sets (or the log horizon) at once.
            if round % 3 == 2 {
                for i in 0..PAGES {
                    let va = page(i);
                    let cached = laggard.lookup(va, &space);
                    match model.get(&va) {
                        Some(&pte) => {
                            if let Some(hit) = cached {
                                prop_assert_eq!(hit, pte, "laggard served stale PTE at {:#x}", va);
                            } else if let Ok(t) = space.translate(va, Access::Read) {
                                laggard.insert(&t);
                            }
                        }
                        None => prop_assert!(
                            cached.is_none(),
                            "laggard served a retired translation for {:#x}", va
                        ),
                    }
                }
            }
        }
    }

    /// Snapshot-lifetime property: concurrent readers interleaved with
    /// batch publishes and snapshot reclamation never observe a retired
    /// root or a half-applied batch.
    ///
    /// Layout: 16 *anchor* pages that are never touched and 16 *toggle*
    /// pages whose frames flip between two known values, one
    /// `swap_frame` batch per flip (plus scratch map/unmap churn to
    /// force deep path copies). All 32 pages share radix interior
    /// nodes, so a torn copy-on-write publish — a snapshot missing
    /// sibling entries — would surface as an anchor transiently
    /// unmapping, and a use-after-retire as a walk of freed nodes. The
    /// readers hammer `translate` (and a private TLB) while the writer
    /// publishes and the reclaimer frees retired roots underneath them;
    /// any observation outside {anchor frame} / {old frame, new frame}
    /// is a violation.
    #[test]
    fn concurrent_readers_never_observe_torn_or_retired_state(
        flips in proptest::collection::vec((0usize..16, any::<bool>()), 16..48),
    ) {
        const N: usize = 16;
        let base = 0x0042_0000_0000_0000u64;
        let anchor_va = move |i: usize| base + (i * PAGE_SIZE) as u64;
        let toggle_va = move |i: usize| base + ((N + i) * PAGE_SIZE) as u64;
        let scratch_va = base + (3 * N * PAGE_SIZE) as u64;

        let phys = PhysMem::new();
        let space = Arc::new(AddressSpace::new());
        let anchors: Vec<_> = (0..N).map(|_| phys.alloc()).collect();
        let v0: Vec<_> = (0..N).map(|_| phys.alloc()).collect();
        let v1: Vec<_> = (0..N).map(|_| phys.alloc()).collect();
        for i in 0..N {
            space.map(anchor_va(i), anchors[i], PteFlags::DATA).unwrap();
            space.map(toggle_va(i), v0[i], PteFlags::DATA).unwrap();
        }

        let stop = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let space = space.clone();
            let stop = stop.clone();
            let violations = violations.clone();
            let anchors = anchors.clone();
            let (v0, v1) = (v0.clone(), v1.clone());
            readers.push(std::thread::spawn(move || {
                let mut tlb = Tlb::new();
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..N {
                        match space.translate(anchor_va(i), Access::Read) {
                            Ok(t) if t.pte.kind == PteKind::Frame(anchors[i]) => {}
                            other => {
                                let _ = other; // anchor torn or retired
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        match space.translate(toggle_va(i), Access::Read) {
                            Ok(t)
                                if t.pte.kind == PteKind::Frame(v0[i])
                                    || t.pte.kind == PteKind::Frame(v1[i]) => {}
                            other => {
                                let _ = other; // invalid frame => torn walk
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // A TLB following the lock-free invalidation
                        // ring must never serve anything else either.
                        if let Some(pte) = tlb.lookup(anchor_va(i), &space) {
                            if pte.kind != PteKind::Frame(anchors[i]) {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if let Ok(t) = space.translate(anchor_va(i), Access::Read) {
                            tlb.insert(&t);
                        }
                    }
                }
            }));
        }

        // Writer: one swap_frame batch per flip, with scratch map/unmap
        // churn and periodic reclamation flushes racing the readers.
        for (round, (i, to_v1)) in flips.iter().enumerate() {
            let frame = if *to_v1 { v1[*i] } else { v0[*i] };
            let mut batch = Batch::new();
            batch.swap_frame(toggle_va(*i), frame, PteFlags::DATA);
            batch.map_page(scratch_va, phys.alloc(), PteFlags::DATA);
            space.apply(batch).expect("writer batch failed");
            space.unmap(scratch_va).unwrap();
            if round % 5 == 4 {
                space.flush_snapshots();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader thread panicked");
        }
        prop_assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "readers observed torn or retired page-table state"
        );

        // Reclaim converges once readers quiesce: every retired root
        // (and replaced log slot) is freed, none early.
        space.flush_snapshots();
        let smr = space.snapshot_smr();
        prop_assert_eq!(smr.delta(), 0, "snapshot SMR leak at quiescence");
        let stats = space.stats();
        prop_assert_eq!(stats.snapshots_reclaimed, stats.snapshot_publishes);
    }

    /// Micro-TLB coherence (DESIGN.md §14): drive the kernel's lookup
    /// protocol — [`Tlb::try_lookup_current`] fast path with
    /// [`Tlb::lookup_pinned`] fallback, exactly as `Vm::translate` does
    /// — against a HashMap mirror under arbitrary interleavings of
    /// batch publishes, unmaps, and space switches. Three hazards are
    /// exercised by construction:
    ///
    /// 1. **Stale hit after publish**: a publish advances the space's
    ///    generation, so lazily-retained micro entries (tagged with the
    ///    old cursor) must never serve again — any hit must equal the
    ///    model's current value.
    /// 2. **Stale generation read** (the torn-read analog): a reader
    ///    that loaded `space.generation()` *before* a publish and
    ///    probes with it *after* must get an answer consistent with the
    ///    pre-publish state, or a refusal — never post-publish state
    ///    under a pre-publish tag, never a mix.
    /// 3. **Cross-space / cross-ASID tag reuse**: entries survive space
    ///    switches under `(asid, generation)` tags (DESIGN.md §15), so
    ///    a numerically equal generation from another space — or the
    ///    *same forced ASID value* on two live spaces — could collide;
    ///    the lazy tag check plus the defensive collision flush must
    ///    make a cross-space serve impossible. Spaces 0 and 2 share a
    ///    forced ASID value to exercise exactly that reuse, while
    ///    space 1 keeps an allocator-assigned tag so ordinary tagged
    ///    retention is interleaved with the collision path.
    #[test]
    fn micro_tlb_serves_only_generation_consistent_translations(
        ops in proptest::collection::vec((0u8..8, 0usize..12), 1..80),
    ) {
        const PAGES: usize = 12;
        let base = 0x0051_0000_0000_0000u64;
        let page = |i: usize| base + ((i % PAGES) * PAGE_SIZE) as u64;
        let phys = PhysMem::new();
        let forced = |value| AddressSpace::with_space_config(SpaceConfig {
            asid: Some(Asid { value, rollover: 0 }),
            ..SpaceConfig::new()
        });
        let spaces = [forced(7), AddressSpace::new(), forced(7)];
        let mut models: [HashMap<u64, Pte>; 3] =
            [HashMap::new(), HashMap::new(), HashMap::new()];
        let mut cur = 0usize; // which space the simulated CPU runs in
        let mut bound = 0u64; // space id the TLB is bound to (0 = none)
        let mut tlb = Tlb::new();

        // One publish in `space`: swap the frame of `va` if mapped,
        // else map it — either way the generation advances.
        let publish = |space: &AddressSpace, model: &mut HashMap<u64, Pte>, va: u64| {
            let pfn = phys.alloc();
            let pte = Pte { kind: PteKind::Frame(pfn), flags: PteFlags::DATA };
            let mut batch = Batch::new();
            if model.contains_key(&va) {
                batch.swap_frame(va, pfn, PteFlags::DATA);
            } else {
                batch.map_page(va, pfn, PteFlags::DATA);
            }
            space.apply(batch).expect("publish batch failed");
            model.insert(va, pte);
        };

        for (op, i) in ops {
            let space = &spaces[cur];
            let model = &mut models[cur];
            let va = page(i);
            match op {
                // Lookup via the exec.rs protocol.
                0..=3 => {
                    // Fast path is only defined for the bound space
                    // (`try_lookup_current` carries no space identity).
                    let cached = if space.id() == bound {
                        tlb.try_lookup_current(va, space.generation())
                    } else {
                        None
                    };
                    let got = match cached {
                        Some(hit) => hit,
                        None => {
                            let mut reader = space.reader();
                            let pin = reader.pin();
                            let got = tlb.lookup_pinned(va, &pin);
                            drop(pin);
                            bound = space.id();
                            got
                        }
                    };
                    match (got, model.get(&va)) {
                        (Some(pte), Some(&want)) => prop_assert_eq!(
                            pte, want,
                            "TLB hit disagrees with the model at {:#x}", va
                        ),
                        (Some(_), None) => prop_assert!(
                            false,
                            "stale hit: {va:#x} was unmapped by a publish \
                             but the TLB still served it"
                        ),
                        (None, _) => {
                            // Miss: walk and refill, as the kernel does.
                            match space.translate(va, Access::Read) {
                                Ok(t) => {
                                    prop_assert!(model.contains_key(&va));
                                    tlb.insert(&t);
                                }
                                Err(_) => prop_assert!(!model.contains_key(&va)),
                            }
                        }
                    }
                }
                // Publish (map or swap_frame): generation advances, all
                // micro entries tagged before it become unreachable.
                4 => publish(space, model, va),
                // Unmap: the retired translation must never serve again.
                5 => {
                    if model.remove(&va).is_some() {
                        let mut batch = Batch::new();
                        batch.unmap_sparse(va, 1);
                        space.apply(batch).expect("unmap batch failed");
                    }
                }
                // Stale generation read: capture the generation, publish
                // underneath it, then probe with the captured value.
                6 => {
                    if space.id() != bound {
                        continue; // fast path undefined across spaces
                    }
                    let stale_gen = space.generation();
                    let before = model.clone();
                    publish(space, model, va);
                    match tlb.try_lookup_current(va, stale_gen) {
                        // The TLB had already synced past the captured
                        // generation, or the page isn't cached: fine.
                        None | Some(None) => {}
                        // An answer must be the *pre-publish* state —
                        // post-publish state under a pre-publish tag
                        // would be a torn (mixed-generation) read.
                        Some(Some(pte)) => prop_assert_eq!(
                            Some(&pte), before.get(&va),
                            "probe at stale generation {} mixed in \
                             post-publish state at {:#x}", stale_gen, va
                        ),
                    }
                }
                // Space switch (fleet-style churn): the next pinned
                // lookup re-binds the TLB — parking the outgoing ASID's
                // cursor and keeping its entries tagged, except when the
                // incoming space collides on a forced ASID value (0→2
                // or 2→0 here), which must flush that one tag.
                _ => cur = (cur + 1) % spaces.len(),
            }
        }
        // Dead-reckoning check: every model entry is still reachable
        // through the protocol in its own space.
        for (s, model) in spaces.iter().zip(&models) {
            for (&va, &want) in model {
                prop_assert_eq!(s.translate(va, Access::Read).unwrap().pte, want);
            }
        }
    }

    /// Hardware PTE round trip (both ISA backends): any abstract leaf
    /// encodes to a bit pattern that decodes back to exactly itself,
    /// the encoding is present + reserved-clean by construction, and
    /// the two backends' layouts genuinely differ (an x86 encoding is
    /// not a riscv one).
    #[test]
    fn hw_pte_roundtrips_on_both_arches(pte in arb_pte(), arch in arb_arch()) {
        let hw = arch.encode(pte);
        prop_assert_eq!(arch.decode(hw), Ok(pte), "decode(encode(p)) != p on {}", arch.name());
        // Canonical re-encode is a fixed point.
        prop_assert_eq!(arch.encode(arch.decode(hw).unwrap()), hw);
    }

    /// Malformed encodings are rejected, never mis-decoded: a cleared
    /// valid bit, garbage in the reserved field, and (riscv) the
    /// architecturally-reserved W-without-R and non-leaf shapes each
    /// produce their specific error. And for *arbitrary* bit patterns,
    /// anything decode does accept re-encodes to a pattern that decodes
    /// to the same leaf (decode is a function of the accepted set, not
    /// of the junk bits around it).
    #[test]
    fn malformed_hw_ptes_are_rejected(
        pte in arb_pte(),
        arch in arb_arch(),
        junk in any::<u64>(),
    ) {
        let bits = arch.encode(pte).bits();
        // Valid bit off → NotPresent, whatever else the pattern says.
        prop_assert_eq!(
            arch.decode(HwPte::from_bits(bits & !1)),
            Err(PteDecodeError::NotPresent)
        );
        // Reserved-field garbage → ReservedBits. (Bit layouts differ:
        // x86 reserves 52..63, riscv Sv48 reserves 54..64.)
        let reserved_bit = match arch {
            ArchKind::X86_64 => 1u64 << 55,
            ArchKind::Riscv64Sv48 => 1u64 << 60,
        };
        prop_assert_eq!(
            arch.decode(HwPte::from_bits(bits | reserved_bit)),
            Err(PteDecodeError::ReservedBits)
        );
        if arch == ArchKind::Riscv64Sv48 {
            // W-without-R is architecturally reserved in the privileged
            // spec; V with RWX=000 is a pointer to the next level, not
            // a leaf.
            prop_assert_eq!(
                arch.decode(HwPte::from_bits(0b0101)),
                Err(PteDecodeError::WriteWithoutRead)
            );
            prop_assert_eq!(
                arch.decode(HwPte::from_bits(0b0001)),
                Err(PteDecodeError::NonLeaf)
            );
        }
        // Fuzz the accepted set: decode(junk) = Ok(p) ⇒ re-encoding p
        // canonically must decode to p again. riscv's PPN field is 44
        // bits but the model's frame space is 40 (pack_kind asserts
        // that), so the top PPN bits are masked off the fuzz input —
        // they are representable on hardware but not in this simulator.
        let junk = match arch {
            ArchKind::X86_64 => junk,
            ArchKind::Riscv64Sv48 => junk & !(0xFu64 << 50),
        };
        if let Ok(p) = arch.decode(HwPte::from_bits(junk)) {
            prop_assert_eq!(arch.decode(arch.encode(p)), Ok(p));
        }
    }

    /// Permissions are enforced for every flag combination.
    #[test]
    fn permission_matrix(writable in any::<bool>(), executable in any::<bool>()) {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let mut flags = PteFlags::TEXT;
        if writable { flags = flags | PteFlags::WRITABLE; }
        if !executable { flags = flags | PteFlags::NX; }
        let va = 0x77u64 << 14;
        space.map(va, phys.alloc(), flags).unwrap();
        prop_assert!(space.translate(va, Access::Read).is_ok());
        prop_assert_eq!(space.translate(va, Access::Write).is_ok(), writable);
        prop_assert_eq!(space.translate(va, Access::Exec).is_ok(), executable);
    }
}

/// 2 MiB prefix of the leaf every sparse-node case starts full.
const FULL_LEAF: u64 = 0x0042_0000_0020_0000;
/// Prefixes whose pages the sparse-node cases cluster on: the full
/// leaf, its neighbour (same upper tables) and a distant one.
const CLUSTERS: [u64; 3] = [FULL_LEAF, FULL_LEAF + (1 << 21), 0x00f0_0000_0000_0000];

/// A sparse-node op target: a page in one of the clustered prefixes,
/// or one of the case's scattered pages.
#[derive(Clone, Copy, Debug)]
enum Target {
    Cluster(usize, u64),
    Scattered(usize),
}

/// Three in four targets are clustered, one per clustered prefix.
fn arb_target() -> impl Strategy<Value = Target> {
    (0..CLUSTERS.len() + 1, 0u64..512, 0usize..8).prop_map(|(c, p, i)| match CLUSTERS.get(c) {
        Some(_) => Target::Cluster(c, p),
        None => Target::Scattered(i),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A mirror model for sparse radix nodes: batches of map,
    /// `unmap_sparse`, protect and swap over pages clustered in a few
    /// 2 MiB prefixes (one starting as a full 512-page leaf) and pages
    /// scattered across the 57-bit arena. After every batch each
    /// modelled page translates to its model PTE, and the unmapped
    /// neighbours of every touched page fault `Unmapped` — a node that
    /// lost, duplicated or misordered a slot, or an interior table
    /// pruned while still holding children, shows up as a mismatch.
    #[test]
    fn sparse_nodes_match_model(
        scattered in proptest::collection::vec(arb_page(), 8..9),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..4, arb_target(), 1usize..4), 1..8),
            1..20,
        ),
    ) {
        const PAGE: u64 = PAGE_SIZE as u64;
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let mut model: HashMap<u64, Pte> = HashMap::new();
        let full = phys.alloc_n(512);
        space.map_range(FULL_LEAF, &full, PteFlags::DATA).unwrap();
        for (i, &pfn) in full.iter().enumerate() {
            let pte = Pte { kind: PteKind::Frame(pfn), flags: PteFlags::DATA };
            model.insert(FULL_LEAF + i as u64 * PAGE, pte);
        }
        let resolve = |t: Target| match t {
            Target::Cluster(c, p) => CLUSTERS[c] + p * PAGE,
            Target::Scattered(i) => scattered[i],
        };
        let flag_set = [PteFlags::TEXT, PteFlags::DATA, PteFlags::RO_DATA];
        for ops in batches {
            let mut batch = Batch::new();
            let mut next = model.clone();
            let mut ok = true;
            let mut touched = Vec::new();
            for (n, (op, target, len)) in ops.into_iter().enumerate() {
                let va = resolve(target);
                let pages: Vec<u64> = (0..len as u64).map(|i| va + i * PAGE).collect();
                // A range running past the arena faults the whole batch.
                ok &= pages.iter().all(|&p| p <= VA_MASK);
                touched.extend(pages.iter().copied());
                let flags = flag_set[n % flag_set.len()];
                match op {
                    0 => {
                        let pfn = phys.alloc();
                        batch.map_page(va, pfn, flags);
                        let pte = Pte { kind: PteKind::Frame(pfn), flags };
                        ok &= next.insert(va, pte).is_none();
                    }
                    1 => {
                        batch.unmap_sparse(va, len);
                        for p in &pages {
                            next.remove(p);
                        }
                    }
                    2 => {
                        batch.protect_range(va, len, flags);
                        for p in &pages {
                            match next.get_mut(p) {
                                Some(pte) => pte.flags = flags,
                                None => ok = false,
                            }
                        }
                    }
                    _ => {
                        let pfn = phys.alloc();
                        batch.swap_frame(va, pfn, flags);
                        let pte = Pte { kind: PteKind::Frame(pfn), flags };
                        ok &= next.insert(va, pte).is_some();
                    }
                }
            }
            match space.apply(batch) {
                Ok(_) => {
                    prop_assert!(ok, "batch succeeded but the model predicted a fault");
                    model = next;
                }
                Err(_) => prop_assert!(!ok, "batch failed but the model predicted success"),
            }
            for (&va, &pte) in &model {
                let t = space.translate(va, Access::Read);
                prop_assert_eq!(t.map(|t| t.pte), Ok(pte), "model page {:#x}", va);
            }
            for va in touched {
                let prefix = va & !((1u64 << 21) - 1);
                for probe in [va.wrapping_sub(PAGE), va, va + PAGE, prefix, prefix + 511 * PAGE] {
                    if probe > VA_MASK || model.contains_key(&probe) {
                        continue;
                    }
                    prop_assert_eq!(
                        space.translate(probe, Access::Read),
                        Err(Fault::Unmapped { va: probe }),
                        "unmapped neighbour {:#x} of {:#x}", probe, va
                    );
                }
            }
        }
    }
}
