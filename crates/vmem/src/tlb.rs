//! A per-CPU TLB model with range-based shootdown and ASID tagging.
//!
//! Re-randomization forces page-table updates, and page-table updates
//! force TLB invalidations — the cost the paper discusses in §4.3. The
//! original model used *generation-based whole-TLB shootdown*: any
//! unmap/protect bumped [`crate::AddressSpace`]'s generation and a
//! lagging [`Tlb`] flushed everything on its next lookup. That makes
//! every cycle pay the worst case.
//!
//! The space now keeps a bounded *invalidation log* of the page spans
//! each generation retired (see [`crate::AddressSpace::plan_sync`]). A
//! lagging TLB consults it and evicts **only the covered entries** — a
//! *partial flush* — falling back to a full flush only when it lagged
//! past the log's horizon or the gap's span set is too large to walk.
//! [`TlbStats::partial_flushes`] / [`TlbStats::entries_invalidated`]
//! make the two regimes measurable.
//!
//! Eviction at capacity is deterministic FIFO (first-inserted entry
//! goes first), and re-inserting an already-cached page never evicts an
//! unrelated entry.
//!
//! Synchronization is **lock-free** end to end: the generation check on
//! the hit path is one atomic load (no epoch pin at all), and the
//! lagging path reads the space's atomically-published invalidation
//! ring under an epoch pin ([`Tlb::lookup_pinned`]) — a lookup never
//! blocks on a concurrent re-randomization writer.
//!
//! # ASID tagging (the space-switch story)
//!
//! L2 entries are stored in the arch's *hardware* encoding
//! ([`crate::HwPte`]) and keyed by `(asid, page_va)`, mirroring
//! PCID-tagged x86 TLBs and `satp.ASID`-tagged riscv ones. Pointing the
//! TLB at a different [`AddressSpace`] — fleet shards each own one — is
//! **not** a flush:
//! the current generation cursor is parked per ASID, the new ASID's
//! cursor is restored, and every cached entry survives under its tag. A
//! probe can only ever see entries whose tag equals the currently bound
//! ASID, so space A's translations are unreachable while space B is
//! bound. Returning to a space whose generation did not move in the
//! interim therefore hits warm entries immediately — the win
//! `BENCH_tlb_shootdown`'s fleet-churn phase measures.
//!
//! Tag trust has two edges, both handled:
//!
//! * **Value recycling** — ASID allocators wrap ([`crate::Asid`]'s
//!   `rollover` generation increments). Binding a space whose rollover
//!   is newer than the TLB's adopted one means any tag may have been
//!   reused by an unrelated space since: full flush, forget all
//!   cursors, adopt the new rollover (the Linux-style ASID-generation
//!   protocol).
//! * **Forced value collisions** — two live spaces sharing one ASID
//!   value (tests force this via `SpaceConfig::asid`). The per-ASID
//!   cursor records *which space id* parked it; a restore for a
//!   different space id flushes that one ASID's entries defensively
//!   instead of trusting them.
//!
//! Tagging is the only switch policy. The flush-on-every-switch
//! baseline it replaced was an ablation until commit fd67120, where a
//! TLB roaming 4 shards for 200 rounds paid 199 switch flushes and 0
//! hits, where the tagged TLB pays 0 flushes and hits 196 times
//! (DESIGN.md §15.6).
//!
//! # The micro-TLB (L1)
//!
//! In front of the hash-map cache sits a small direct-mapped
//! **micro-TLB**: [`Tlb::try_lookup_current`] probes one array slot
//! keyed by the virtual page number, and a hit requires the page match
//! *and* the entry's `(asid, generation)` tag to equal the TLB's
//! current binding. Because every resynchronization that could
//! invalidate anything ([`Tlb::apply_sync`] on `Ranges`/`Full`)
//! advances the generation cursor, and every space switch changes the
//! bound ASID, micro entries are invalidated *lazily* by tag mismatch —
//! no walk over the array on a shootdown **or a space switch** (PR 5
//! cleared it eagerly on every switch; the ASID half of the tag makes
//! that unnecessary). Only an operation that could make old tags
//! readable again — an explicit [`Tlb::flush`], a rollover adoption, an
//! ASID-collision flush — clears slots eagerly. See DESIGN.md §14–§15
//! for the coherence argument.
//!
//! A micro entry holds the *decoded* [`Pte`]: the hardware bits are
//! decoded once, when an L2 hit or a walk fills the slot, so a micro
//! hit is a tag compare and a copy.
//!
//! # Page registers
//!
//! A caller that touches one page many times in a row may keep a copy
//! of its micro entry, a [`PageRegister`], and skip the probe. The TLB
//! bumps a *stamp* on every micro fill and on every flush, bind and
//! resynchronization, so a register whose stamp, page and generation
//! still match is exactly the micro hit the probe would have made, and
//! [`Tlb::register_hit`] counts it as one (DESIGN.md §14.8).

use crate::arch::{ArchKind, Asid};
use crate::hash::BuildPageHasher;
use crate::space::LeafCache;
use crate::{Access, AddressSpace, Fault, HwPte, Pte, SpacePin, TlbSync, Translation};
use std::collections::{HashMap, VecDeque};

/// Slots in the direct-mapped micro-TLB (power of two; 512 × 48-byte
/// entries = 24 KiB, L1-cache resident).
const MICRO_SLOTS: usize = 512;

/// One micro-TLB entry: a decoded translation valid exactly while the
/// owning TLB is bound to ASID `asid` *and* its generation cursor
/// equals `gen`. Both halves of the tag are checked on probe, so
/// neither a shootdown nor a space switch needs to touch the array.
#[derive(Copy, Clone, Debug)]
struct MicroEntry {
    page_va: u64,
    asid: u16,
    gen: u64,
    pte: Pte,
}

/// A copy of one micro-TLB entry held by the caller (DESIGN.md §14.8):
/// the page, the space generation and the TLB stamp it was copied
/// under, and the decoded PTE. Loaded by [`Tlb::load_register`] and
/// served by [`Tlb::register_hit`] while all three still match.
#[derive(Copy, Clone, Debug)]
pub struct PageRegister {
    page_va: u64,
    gen: u64,
    stamp: u64,
    pte: Pte,
}

/// TLB hit/miss/flush counters.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct TlbStats {
    /// Lookups that hit a cached translation (micro-TLB hits included).
    pub hits: u64,
    /// Of [`TlbStats::hits`], how many were served by the direct-mapped
    /// micro-TLB (one array probe, no hash).
    pub micro_hits: u64,
    /// Lookups that missed (caller must walk the page table).
    pub misses: u64,
    /// Flushes of every kind: explicit [`Tlb::flush`], log-horizon
    /// syncs, switch-forced flushes, and single-ASID context
    /// invalidations. Always ≥
    /// `switch_flushes + horizon_flushes`.
    pub flushes: u64,
    /// Space switches observed (the TLB was pointed at a different
    /// [`AddressSpace`] than the one it was bound to).
    pub switches: u64,
    /// Of [`TlbStats::flushes`], those forced by an identity change: an
    /// ASID rollover adoption or a defensive ASID-value-collision flush. The fleet bench
    /// asserts this stays 0 under tagged churn.
    pub switch_flushes: u64,
    /// Of [`TlbStats::flushes`], those forced by a [`TlbSync::Full`]
    /// plan: the TLB lagged past the invalidation log's horizon or the
    /// gap's span set was oversized.
    pub horizon_flushes: u64,
    /// Range-based resynchronizations that evicted only covered
    /// entries instead of flushing.
    pub partial_flushes: u64,
    /// Entries evicted by partial flushes.
    pub entries_invalidated: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

impl std::ops::AddAssign for TlbStats {
    fn add_assign(&mut self, rhs: TlbStats) {
        self.hits += rhs.hits;
        self.micro_hits += rhs.micro_hits;
        self.misses += rhs.misses;
        self.flushes += rhs.flushes;
        self.switches += rhs.switches;
        self.switch_flushes += rhs.switch_flushes;
        self.horizon_flushes += rhs.horizon_flushes;
        self.partial_flushes += rhs.partial_flushes;
        self.entries_invalidated += rhs.entries_invalidated;
        self.evictions += rhs.evictions;
    }
}

impl TlbStats {
    /// Counter-wise `self - earlier` (saturating): the activity between
    /// two snapshots of one TLB's monotonically growing counters. CPUs
    /// use this to publish per-call deltas into shared accumulators.
    pub fn delta_since(&self, earlier: &TlbStats) -> TlbStats {
        TlbStats {
            hits: self.hits.saturating_sub(earlier.hits),
            micro_hits: self.micro_hits.saturating_sub(earlier.micro_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            switches: self.switches.saturating_sub(earlier.switches),
            switch_flushes: self.switch_flushes.saturating_sub(earlier.switch_flushes),
            horizon_flushes: self.horizon_flushes.saturating_sub(earlier.horizon_flushes),
            partial_flushes: self.partial_flushes.saturating_sub(earlier.partial_flushes),
            entries_invalidated: self
                .entries_invalidated
                .saturating_sub(earlier.entries_invalidated),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// A single CPU's translation cache.
///
/// Not thread-safe by design: each simulated CPU owns one.
#[derive(Debug)]
pub struct Tlb {
    /// Direct-mapped, `(asid, generation)`-tagged L1 in front of the
    /// hash map: a hit is one index computation and one tag compare.
    /// Lazily invalidated by generation advance *and* by space
    /// switches (the ASID half of the tag); eagerly cleared only when
    /// old tags could become readable again ([`Tlb::flush`], rollover
    /// adoption, ASID-collision flush).
    micro: Vec<Option<MicroEntry>>,
    /// `(asid, page_va) → (hw pte, insertion seq)`. Entries are stored
    /// arch-encoded — what a hardware TLB holds — and decoded on hit.
    /// The seq validates lazy FIFO queue entries after partial
    /// invalidation removed keys. Keys are trusted page numbers, so
    /// the map uses the cheap deterministic [`BuildPageHasher`].
    entries: HashMap<(u16, u64), (HwPte, u64), BuildPageHasher>,
    /// Bumped on every change that could alter what a micro probe
    /// returns: a micro fill, a flush, a bind, a resynchronization.
    /// A [`PageRegister`] copied under an unchanged stamp is still
    /// the micro entry it copied.
    stamp: u64,
    /// FIFO insertion order, lazily pruned (entries whose seq no longer
    /// matches were invalidated or re-inserted). Capacity is global
    /// across ASIDs, like a real shared TLB.
    order: VecDeque<(u16, u64, u64)>,
    seq: u64,
    generation: u64,
    /// [`AddressSpace::id`] of the space the cache last synchronized
    /// with (0 = never synced). Generations are meaningful only within
    /// one space, so a different id re-binds the TLB: the generation
    /// cursor is parked per ASID and the entries are kept.
    space_id: u64,
    /// ASID value of the currently bound space (0 = unbound). Probes
    /// only ever match entries carrying this tag.
    asid: u16,
    /// The ASID rollover generation this TLB has adopted. A space
    /// carrying a newer one proves tag values may have been recycled
    /// by the allocator since — full flush before trusting tags again.
    rollover: u64,
    /// Parked generation cursors, one per ASID this TLB has been bound
    /// to: `asid → (space id, generation at switch-away)`. The space
    /// id guards against two live spaces sharing a forced ASID value.
    /// Invariant: entries tagged `a` exist only if `a` is the bound
    /// ASID or `cursors` has a parking record for `a` — so a missing
    /// cursor proves there is nothing stale to flush.
    cursors: HashMap<u16, (u64, u64), BuildPageHasher>,
    /// The ISA backend whose encoding cached entries use (must match
    /// the spaces this TLB serves).
    arch: ArchKind,
    /// Leaf-level page-table nodes recent walks reached, tagged and
    /// invalidated like `entries` ([`Tlb::walk`]).
    leaves: LeafCache,
    stats: TlbStats,
    capacity: usize,
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb::new()
    }
}

impl Tlb {
    /// A TLB with the default capacity (1536 entries, Skylake-ish) and
    /// the environment-selected arch.
    pub fn new() -> Tlb {
        Tlb::with_capacity(1536)
    }

    /// A TLB bounded to `capacity` cached pages (environment-selected
    /// arch).
    pub fn with_capacity(capacity: usize) -> Tlb {
        Tlb::build(ArchKind::from_env(), capacity)
    }

    /// A default-capacity TLB for an explicit arch backend — what the
    /// kernel's exec path constructs.
    pub fn with_arch(arch: ArchKind) -> Tlb {
        Tlb::build(arch, 1536)
    }

    fn build(arch: ArchKind, capacity: usize) -> Tlb {
        Tlb {
            micro: vec![None; MICRO_SLOTS],
            entries: HashMap::default(),
            stamp: 0,
            order: VecDeque::new(),
            seq: 0,
            generation: 0,
            space_id: 0,
            asid: 0,
            rollover: 0,
            cursors: HashMap::default(),
            arch,
            leaves: LeafCache::default(),
            stats: TlbStats::default(),
            capacity,
        }
    }

    /// The ISA backend this TLB encodes entries for.
    pub fn arch(&self) -> ArchKind {
        self.arch
    }

    /// Look up the translation for `page_va`, first resynchronizing
    /// with `space`'s invalidation log: evict only the spans retired
    /// since our snapshot when the log still covers the gap, flush
    /// everything when it does not.
    ///
    /// When the TLB is already at the space's current generation this
    /// costs a single atomic load (no epoch pin); only the lagging path
    /// pins an epoch to read the invalidation ring.
    pub fn lookup(&mut self, page_va: u64, space: &AddressSpace) -> Option<Pte> {
        if space.id() == self.space_id && space.generation() == self.generation {
            return self.probe(page_va);
        }
        let pin = space.pin();
        self.lookup_pinned(page_va, &pin)
    }

    /// [`Tlb::lookup`] under a caller-held epoch pin — what the
    /// kernel's per-CPU read handles use so one pin covers both the
    /// resynchronization and the page-table walk on a miss.
    ///
    /// A pin into a *different* space than the one this TLB last synced
    /// with (fleet-style many-space churn) re-binds the TLB to that
    /// space's ASID without dropping a single entry; see the module
    /// docs.
    pub fn lookup_pinned(&mut self, page_va: u64, pin: &SpacePin<'_>) -> Option<Pte> {
        self.sync(pin);
        self.probe(page_va)
    }

    /// Probe a whole run of page base addresses under **one**
    /// resynchronization: the space-binding check and the invalidation
    /// plan are paid once for the batch, then each page costs only a
    /// probe. `out[i]` is the cached PTE for `page_vas[i]` or `None` on
    /// a miss (the caller walks misses against one pinned snapshot —
    /// see `SpacePin::translate_batch`).
    pub fn lookup_batch(&mut self, page_vas: &[u64], pin: &SpacePin<'_>) -> Vec<Option<Pte>> {
        self.sync(pin);
        page_vas.iter().map(|&va| self.probe(va)).collect()
    }

    /// Bind to the pinned space and catch up with its invalidation log.
    fn sync(&mut self, pin: &SpacePin<'_>) {
        self.bind(pin.space().id(), pin.space().asid());
        let (current, plan, spans) = pin.plan_sync_spans(self.generation);
        self.apply_sync(current, plan, spans);
    }

    /// Re-bind the TLB to a (space, ASID) pair. The heart of the
    /// switch protocol — see the module docs for the full argument.
    fn bind(&mut self, space_id: u64, asid: Asid) {
        if space_id == self.space_id {
            return;
        }
        self.stamp += 1;
        if self.space_id == 0 {
            // First bind ever. Entries inserted before any lookup (a
            // warmed but never-bound TLB) carry the null ASID — claim
            // them for the adopting space, preserving the pre-ASID
            // semantics where the first sync simply kept everything.
            self.claim_null_asid(asid.value);
            self.rollover = self.rollover.max(asid.rollover);
            self.space_id = space_id;
            self.asid = asid.value;
            return;
        }
        self.stats.switches += 1;
        if asid.rollover > self.rollover {
            // The allocator wrapped since we last adopted: any tag
            // value may have been recycled by spaces we never saw.
            // Nothing is trustworthy.
            self.flush();
            self.stats.switch_flushes += 1;
            self.rollover = asid.rollover;
            self.generation = 0;
        } else {
            // Park the outgoing ASID's cursor, restore (or initialize)
            // the incoming one.
            if self.asid != 0 {
                self.cursors
                    .insert(self.asid, (self.space_id, self.generation));
            }
            match self.cursors.get(&asid.value).copied() {
                Some((sid, gen)) if sid == space_id => self.generation = gen,
                Some(_) => {
                    // A *different* live space used this tag value
                    // (forced collision): its entries must not serve
                    // ours. Single-context invalidation, then start
                    // from scratch.
                    self.flush_asid(asid.value);
                    self.leaves.flush_asid(asid.value);
                    self.stats.flushes += 1;
                    self.stats.switch_flushes += 1;
                    self.generation = 0;
                }
                // Never bound: by the cursors invariant there are no
                // entries under this tag to distrust.
                None => self.generation = 0,
            }
        }
        self.space_id = space_id;
        self.asid = asid.value;
    }

    /// Re-tag everything inserted while unbound (null ASID) to
    /// `asid` — the first-bind adoption step.
    fn claim_null_asid(&mut self, asid: u16) {
        if self.entries.is_empty() || asid == 0 {
            return;
        }
        self.stamp += 1;
        let claimed: Vec<_> = self
            .entries
            .drain()
            .map(|((_, va), v)| ((asid, va), v))
            .collect();
        self.entries.extend(claimed);
        for e in self.order.iter_mut() {
            e.0 = asid;
        }
        for slot in self.micro.iter_mut().flatten() {
            slot.asid = asid;
        }
    }

    /// Hit-path probe without any synchronization: `Some(result)` only
    /// when the TLB's snapshot is already at `current_gen` (obtained
    /// from [`AddressSpace::generation`]); `None` means the caller must
    /// take an epoch pin and use [`Tlb::lookup_pinned`].
    ///
    /// Only valid for the space this TLB is bound to (a `Vm`'s private
    /// TLB): `current_gen` carries no space identity, so callers that
    /// roam across spaces must go through [`Tlb::lookup`] /
    /// [`Tlb::lookup_pinned`], which detect the switch.
    pub fn try_lookup_current(&mut self, page_va: u64, current_gen: u64) -> Option<Option<Pte>> {
        if current_gen != self.generation {
            return None;
        }
        // L1: one direct-mapped probe — an index computation and a
        // (page, asid, generation) tag compare, no hashing at all. The
        // tag makes every shootdown and every space switch an implicit
        // bulk invalidation: entries filled under another cursor or
        // another ASID can never match.
        if let Some(&Some(e)) = self.micro.get(Self::micro_idx(page_va)) {
            if e.page_va == page_va && e.asid == self.asid && e.gen == current_gen {
                self.stats.hits += 1;
                self.stats.micro_hits += 1;
                return Some(Some(e.pte));
            }
        }
        Some(self.probe(page_va))
    }

    /// The PTE a [`Tlb::try_lookup_current`] of `page_va` at
    /// `current_gen` would serve from the micro-TLB right now, without
    /// counting anything; `None` when that probe would not be a micro
    /// hit.
    fn micro_pte(&self, page_va: u64, current_gen: u64) -> Option<Pte> {
        if current_gen != self.generation {
            return None;
        }
        let e = self.micro[Self::micro_idx(page_va)]?;
        (e.page_va == page_va && e.asid == self.asid && e.gen == current_gen).then_some(e.pte)
    }

    /// Copy the micro-TLB's entry for `page_va` into a register, if a
    /// [`Tlb::try_lookup_current`] at `current_gen` would be a micro
    /// hit now. Call it right after a lookup of `page_va` at
    /// `current_gen`: a hit or a fill leaves the entry in place, a
    /// miss with nothing filled (capacity 0) leaves no register.
    pub fn load_register(&self, page_va: u64, current_gen: u64) -> Option<PageRegister> {
        self.micro_pte(page_va, current_gen)
            .map(|pte| PageRegister {
                page_va,
                gen: current_gen,
                stamp: self.stamp,
                pte,
            })
    }

    /// Serve `page_va` from `reg` when it is still exact: same page,
    /// the space still at the register's generation, and no micro fill,
    /// flush, bind or resynchronization since it was loaded. The hit is
    /// counted as the micro hit it replaces, so [`TlbStats`] match a
    /// probe-every-access run. `None` means the caller must look up.
    #[inline]
    pub fn register_hit(
        &mut self,
        reg: &PageRegister,
        page_va: u64,
        current_gen: u64,
    ) -> Option<Pte> {
        if reg.page_va != page_va || reg.gen != current_gen || reg.stamp != self.stamp {
            return None;
        }
        debug_assert_eq!(
            self.micro_pte(page_va, current_gen),
            Some(reg.pte),
            "a page register served what the micro-TLB would not"
        );
        self.stats.hits += 1;
        self.stats.micro_hits += 1;
        Some(reg.pte)
    }

    #[inline]
    fn micro_idx(page_va: u64) -> usize {
        ((page_va >> crate::PAGE_SHIFT) as usize) & (MICRO_SLOTS - 1)
    }

    /// Install `(page_va, pte)` in the micro-TLB, tagged with the
    /// current (asid, generation) binding. Callers must only pass
    /// translations valid at `self.generation` in the currently-bound
    /// space.
    #[inline]
    fn micro_fill(&mut self, page_va: u64, pte: Pte) {
        self.stamp += 1;
        self.micro[Self::micro_idx(page_va)] = Some(MicroEntry {
            page_va,
            asid: self.asid,
            gen: self.generation,
            pte,
        });
    }

    fn probe(&mut self, page_va: u64) -> Option<Pte> {
        let hit = self.entries.get(&(self.asid, page_va)).map(|&(hw, _)| hw);
        match hit {
            Some(hw) => {
                self.stats.hits += 1;
                // Promote the L2 hit, decoded once, so the next probe
                // of this page is one array access.
                let pte = self.arch.decode_owned(hw);
                self.micro_fill(page_va, pte);
                Some(pte)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Catch up to generation `current` by `plan`. `spans`, when the
    /// log still covered a gap too wide for a partial flush, lets the
    /// leaf-node cache keep every region they did not touch.
    fn apply_sync(&mut self, current: u64, plan: TlbSync, spans: Option<Vec<(u64, u64)>>) {
        self.stamp += 1;
        match plan {
            TlbSync::Current => return,
            TlbSync::Full => {
                if self.asid != 0 {
                    // Tagged hardware flushes one context (x86 invpcid
                    // single-context, riscv sfence.vma with an ASID):
                    // only the bound ASID's entries are stale — the
                    // parked ones answer to their own cursors.
                    self.flush_asid(self.asid);
                    match spans {
                        Some(spans) => self.leaves.invalidate(self.asid, &spans),
                        None => self.leaves.flush_asid(self.asid),
                    }
                } else {
                    self.micro.fill(None);
                    self.entries.clear();
                    self.order.clear();
                    self.cursors.clear();
                    self.leaves.clear();
                }
                self.stats.flushes += 1;
                self.stats.horizon_flushes += 1;
            }
            TlbSync::Ranges(spans) => {
                let before = self.entries.len();
                let asid = self.asid;
                self.entries.retain(|&(a, va), _| {
                    a != asid || !spans.iter().any(|&(s, e)| va >= s && va < e)
                });
                self.leaves.invalidate(asid, &spans);
                self.stats.entries_invalidated += (before - self.entries.len()) as u64;
                self.stats.partial_flushes += 1;
            }
        }
        self.generation = current;
    }

    /// Evict every translation tagged `asid` from both levels — the
    /// single-context invalidation primitive (invpcid type 1 /
    /// `sfence.vma x0, asid`), also forgetting the ASID's cursor. The
    /// leaf-node cache is the caller's to drop: a full sync whose gap
    /// the log still covers keeps the regions it did not touch.
    fn flush_asid(&mut self, asid: u16) {
        self.stamp += 1;
        self.entries.retain(|&(a, _), _| a != asid);
        for slot in self.micro.iter_mut() {
            if slot.is_some_and(|e| e.asid == asid) {
                *slot = None;
            }
        }
        self.cursors.remove(&asid);
    }

    /// Walk the page table for `va` after a miss, under the caller's
    /// pin. When this TLB is bound to the pinned space and at its
    /// current generation, the walk goes through the leaf-node cache
    /// (a paging-structure cache: the leaf-level node of `va`'s 2 MiB
    /// region, kept from an earlier walk and invalidated with the
    /// cached translations — DESIGN.md §14.6); otherwise it walks the
    /// tree. Either way the result is what [`SpacePin::translate`]
    /// would return at this TLB's generation.
    ///
    /// # Errors
    ///
    /// Same as [`SpacePin::translate`].
    pub fn walk(
        &mut self,
        pin: &SpacePin<'_>,
        va: u64,
        access: Access,
    ) -> Result<Translation, Fault> {
        let space = pin.space();
        if space.id() != self.space_id || space.generation() != self.generation {
            return pin.translate(va, access);
        }
        self.leaves.walk(pin, self.asid, va, access)
    }

    /// Install a translation produced by a page-table walk, tagged
    /// with the currently bound ASID and stored arch-encoded.
    ///
    /// Re-inserting an already-cached page refreshes it in place (it
    /// keeps its FIFO position and evicts nothing). A genuinely new
    /// page at capacity evicts the oldest entry — deterministically,
    /// regardless of which ASID owns it (capacity is shared).
    pub fn insert(&mut self, t: &Translation) {
        if self.capacity == 0 {
            return;
        }
        // decode ∘ encode is the identity on valid PTEs (DESIGN.md
        // §15.1), so the micro entry takes the walk's `Pte` as is.
        self.micro_fill(t.page_va, t.pte);
        let hw = self.arch.encode(t.pte);
        debug_assert_eq!(self.arch.decode_owned(hw), t.pte);
        let key = (self.asid, t.page_va);
        if let Some(slot) = self.entries.get_mut(&key) {
            slot.0 = hw;
            return;
        }
        while self.entries.len() >= self.capacity {
            match self.order.pop_front() {
                Some((a, va, seq)) => {
                    if self.entries.get(&(a, va)).is_some_and(|&(_, s)| s == seq) {
                        self.entries.remove(&(a, va));
                        self.stats.evictions += 1;
                    }
                }
                None => break, // only stale queue entries remained
            }
        }
        self.seq += 1;
        self.entries.insert(key, (hw, self.seq));
        self.order.push_back((key.0, key.1, self.seq));
        // Partial invalidation leaves dead queue entries behind; compact
        // before the queue outgrows the cache it mirrors.
        if self.order.len() > self.capacity.saturating_mul(2) + 8 {
            let entries = &self.entries;
            self.order
                .retain(|&(a, va, seq)| entries.get(&(a, va)).is_some_and(|&(_, s)| s == seq));
        }
    }

    /// Explicitly flush everything, every ASID included (e.g. a
    /// simulated `CR3` write with PCIDs disabled).
    ///
    /// Clears the micro-TLB *eagerly* and forgets all parked cursors:
    /// flush callers may reset the generation cursor, and a reused
    /// cursor value would make lazily-retained tags match again — the
    /// one case tag-based invalidation cannot cover.
    pub fn flush(&mut self) {
        self.stamp += 1;
        self.micro.fill(None);
        self.entries.clear();
        self.order.clear();
        self.cursors.clear();
        self.leaves.clear();
        self.stats.flushes += 1;
    }

    /// Cached entry count across all ASIDs (test/diagnostic aid).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, AddressSpace, Batch, PhysMem, PteFlags, SpaceConfig, PAGE_SIZE};

    const VA: u64 = 0x0012_3456_7800_0000;

    /// Map `pages` fresh data frames from `va`, in one batch.
    fn map_fresh(space: &AddressSpace, phys: &PhysMem, va: u64, pages: usize) {
        let pfns = phys.alloc_n(pages);
        space
            .apply(Batch::new().map_range(va, &pfns, PteFlags::DATA))
            .unwrap();
    }

    fn warm(tlb: &mut Tlb, space: &AddressSpace, va: u64) {
        let t = space.translate(va, Access::Read).unwrap();
        tlb.insert(&t);
    }

    /// A space with a forced ASID (for collision/rollover tests).
    fn space_with_asid(value: u16, rollover: u64) -> AddressSpace {
        AddressSpace::with_space_config(SpaceConfig {
            asid: Some(Asid { value, rollover }),
            ..SpaceConfig::new()
        })
    }

    #[test]
    fn hit_after_insert() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 1);
        let mut tlb = Tlb::new();
        assert_eq!(tlb.lookup(VA, &space), None);
        let t = space.translate(VA, Access::Read).unwrap();
        tlb.insert(&t);
        assert_eq!(tlb.lookup(VA, &space), Some(t.pte));
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn unmap_invalidates_only_covered_entries() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let other = VA + 0x40_0000;
        map_fresh(&space, &phys, VA, 1);
        map_fresh(&space, &phys, other, 1);
        let mut tlb = Tlb::new();
        warm(&mut tlb, &space, VA);
        warm(&mut tlb, &space, other);
        space.apply(Batch::new().unmap_range(VA, 1)).unwrap();
        // The retired page is gone, the unrelated one survives — a
        // partial flush, not a whole-TLB flush.
        assert_eq!(tlb.lookup(VA, &space), None);
        assert!(tlb.lookup(other, &space).is_some());
        let s = tlb.stats();
        assert_eq!(s.flushes, 0);
        assert_eq!(s.partial_flushes, 1);
        assert_eq!(s.entries_invalidated, 1);
    }

    #[test]
    fn lagging_past_the_log_forces_full_flush() {
        let phys = PhysMem::new();
        let space = AddressSpace::with_space_config(SpaceConfig {
            inval_log: 4,
            ..SpaceConfig::new()
        });
        let keep = VA + 0x80_0000;
        map_fresh(&space, &phys, keep, 1);
        let mut tlb = Tlb::new();
        warm(&mut tlb, &space, keep);
        // More shootdowns than the log holds, while the TLB sleeps.
        for i in 0..8u64 {
            let va = VA + i * PAGE_SIZE as u64;
            map_fresh(&space, &phys, va, 1);
            space.apply(Batch::new().unmap_range(va, 1)).unwrap();
        }
        // `keep` is still mapped, but the gap is unrecoverable — the
        // sync must flush everything rather than guess.
        assert_eq!(tlb.lookup(keep, &space), None);
        assert_eq!(tlb.stats().flushes, 1);
        assert_eq!(
            tlb.stats().horizon_flushes,
            1,
            "a horizon flush, not a switch"
        );
        assert_eq!(tlb.stats().switch_flushes, 0);
        assert_eq!(tlb.stats().partial_flushes, 0);
        // Re-warmed, it keeps hitting.
        warm(&mut tlb, &space, keep);
        assert!(tlb.lookup(keep, &space).is_some());
    }

    #[test]
    fn batch_invalidation_is_one_partial_flush() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let survivor = VA + 0x100_0000;
        map_fresh(&space, &phys, survivor, 1);
        map_fresh(&space, &phys, VA, 8);
        let mut tlb = Tlb::new();
        warm(&mut tlb, &space, survivor);
        for i in 0..8u64 {
            warm(&mut tlb, &space, VA + i * PAGE_SIZE as u64);
        }
        let mut batch = Batch::new();
        batch.unmap_sparse(VA, 8);
        let outcome = space.apply(&batch).unwrap();
        assert_eq!(outcome.shootdowns, 1);
        assert!(tlb.lookup(survivor, &space).is_some());
        for i in 0..8u64 {
            assert_eq!(tlb.lookup(VA + i * PAGE_SIZE as u64, &space), None);
        }
        let s = tlb.stats();
        assert_eq!(s.partial_flushes, 1, "one sync covers the whole batch");
        assert_eq!(s.entries_invalidated, 8);
        assert_eq!(s.flushes, 0);
    }

    /// Regression: re-inserting an already-cached page at capacity used
    /// to evict an arbitrary unrelated entry.
    #[test]
    fn reinsert_at_capacity_evicts_nothing() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let mut tlb = Tlb::with_capacity(4);
        for i in 0..4u64 {
            let va = VA + i * PAGE_SIZE as u64;
            map_fresh(&space, &phys, va, 1);
            warm(&mut tlb, &space, va);
        }
        assert_eq!(tlb.len(), 4);
        // Re-insert every cached page; nothing may be evicted.
        for i in 0..4u64 {
            warm(&mut tlb, &space, VA + i * PAGE_SIZE as u64);
        }
        assert_eq!(tlb.stats().evictions, 0);
        for i in 0..4u64 {
            assert!(
                tlb.lookup(VA + i * PAGE_SIZE as u64, &space).is_some(),
                "page {i} was evicted by a re-insert"
            );
        }
    }

    /// Eviction order is deterministic FIFO: the same insert sequence
    /// always evicts the same keys, regardless of hash iteration order.
    #[test]
    fn eviction_is_deterministic_fifo() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        for i in 0..8u64 {
            map_fresh(&space, &phys, VA + i * PAGE_SIZE as u64, 1);
        }
        // Seeded (fixed) insertion order, twice over fresh TLBs: the
        // surviving set must be identical.
        let run = || {
            let mut tlb = Tlb::with_capacity(4);
            for &i in &[0u64, 1, 2, 3, 0, 4, 5] {
                warm(&mut tlb, &space, VA + i * PAGE_SIZE as u64);
            }
            let mut alive: Vec<u64> = (0..8u64)
                .filter(|&i| tlb.lookup(VA + i * PAGE_SIZE as u64, &space).is_some())
                .collect();
            alive.sort_unstable();
            alive
        };
        let first = run();
        // FIFO: 0,1,2,3 cached; re-warm of 0 keeps its slot; inserting
        // 4 evicts 0 (oldest), inserting 5 evicts 1.
        assert_eq!(first, vec![2, 3, 4, 5]);
        assert_eq!(first, run(), "eviction must be deterministic");
    }

    /// The ASID-isolation invariant: a TLB that synced with space A
    /// must never serve A's translations against space B — even when
    /// the two generation counters are numerically equal — and under
    /// tagging it must achieve that *without* flushing: A's entries
    /// stay resident under their tag and hit again the moment the TLB
    /// switches back (the fleet-churn win PR 5's eager flush gave up).
    #[test]
    fn switching_spaces_never_serves_foreign_translations() {
        let phys = PhysMem::new();
        let a = AddressSpace::new();
        let b = AddressSpace::new();
        // Identical mutation histories ⇒ identical generation counters.
        map_fresh(&a, &phys, VA, 1);
        map_fresh(&b, &phys, VA + 0x40_0000, 1);
        assert_eq!(a.generation(), b.generation());
        assert_ne!(a.id(), b.id());
        assert_ne!(a.asid(), b.asid());
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(VA, &a).is_none());
        warm(&mut tlb, &a, VA);
        assert!(tlb.lookup(VA, &a).is_some(), "warm hit in the home space");
        // Probing B for A's page must miss (B never mapped it) even
        // though B's generation equals the TLB's sync point…
        assert_eq!(
            tlb.lookup(VA, &b),
            None,
            "a foreign space must never be served another space's PTEs"
        );
        // …but nothing was flushed: A's entry is parked under its tag.
        assert!(!tlb.is_empty(), "tagged entries survive the switch");
        let s = tlb.stats();
        assert_eq!(s.flushes, 0, "a tagged switch is not a flush");
        assert_eq!(s.switches, 1);
        assert_eq!(s.switch_flushes, 0);
        // Switching back hits immediately — no re-warm needed.
        assert!(
            tlb.lookup(VA, &a).is_some(),
            "the parked entry must hit again after the round trip"
        );
        assert_eq!(tlb.stats().switches, 2);
        assert_eq!(tlb.stats().switch_flushes, 0);
    }

    /// Two live spaces forced onto one ASID value: the tag alone can't
    /// tell their entries apart, so the cursor's space-id check must
    /// flush the colliding context instead of serving foreign PTEs.
    #[test]
    fn forced_asid_collision_flushes_defensively() {
        let phys = PhysMem::new();
        let a = space_with_asid(7, 0);
        let b = space_with_asid(7, 0);
        map_fresh(&a, &phys, VA, 1);
        map_fresh(&b, &phys, VA, 1);
        assert_eq!(a.asid(), b.asid());
        let pte_a = a.translate(VA, Access::Read).unwrap().pte;
        let pte_b = b.translate(VA, Access::Read).unwrap().pte;
        assert_ne!(pte_a, pte_b, "distinct frames behind the same va");
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(VA, &a).is_none());
        warm(&mut tlb, &a, VA);
        assert_eq!(tlb.lookup(VA, &a), Some(pte_a));
        // Same tag value, different space: the defensive flush must
        // fire and the probe must miss rather than serve A's frame.
        assert_eq!(tlb.lookup(VA, &b), None, "foreign PTE behind a shared tag");
        let s = tlb.stats();
        assert_eq!(s.switch_flushes, 1, "collision attributed to the switch");
        warm(&mut tlb, &b, VA);
        assert_eq!(tlb.lookup(VA, &b), Some(pte_b));
        // And the return trip collides again — B's entries die too.
        assert_eq!(tlb.lookup(VA, &a), None);
        assert_eq!(tlb.stats().switch_flushes, 2);
    }

    /// A space carrying a newer ASID rollover generation proves the
    /// allocator wrapped: every tag may have been recycled, so the
    /// bind must full-flush and forget all parked cursors.
    #[test]
    fn rollover_adoption_flushes_everything() {
        let phys = PhysMem::new();
        let a = space_with_asid(9, 0);
        let wrapped = space_with_asid(9, 1);
        map_fresh(&a, &phys, VA, 1);
        map_fresh(&wrapped, &phys, VA, 1);
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(VA, &a).is_none());
        warm(&mut tlb, &a, VA);
        assert!(tlb.lookup(VA, &a).is_some());
        // The wrapped space re-uses tag value 9 legitimately (new
        // rollover era). The stale same-tag entry must not serve it.
        assert_eq!(tlb.lookup(VA, &wrapped), None);
        assert!(tlb.is_empty(), "rollover adoption is a full flush");
        let s = tlb.stats();
        assert_eq!(s.switch_flushes, 1);
        assert_eq!(s.flushes, 1);
    }

    /// Many-space churn keeps the FIFO eviction machinery sound: after
    /// arbitrary space switches (which under tagging keep entries
    /// resident) the *global* capacity bound and deterministic FIFO
    /// order still hold across whichever ASIDs are cached.
    #[test]
    fn fifo_eviction_survives_space_churn() {
        let phys = PhysMem::new();
        let spaces: Vec<AddressSpace> = (0..3).map(|_| AddressSpace::new()).collect();
        for s in &spaces {
            for i in 0..8u64 {
                map_fresh(s, &phys, VA + i * PAGE_SIZE as u64, 1);
            }
        }
        let run = || {
            let mut tlb = Tlb::with_capacity(4);
            // Bounce across spaces, warming a deterministic sequence in
            // each; capacity is shared across ASIDs, so the bound holds
            // mid-churn even though switches no longer flush.
            for (round, s) in spaces.iter().cycle().take(7).enumerate() {
                for &i in &[0u64, 1, 2, 3, 0, 4, 5] {
                    let va = VA + ((i + round as u64) % 8) * PAGE_SIZE as u64;
                    if tlb.lookup(va, s).is_none() {
                        warm(&mut tlb, s, va);
                    }
                }
                assert!(tlb.len() <= 4, "capacity bound violated mid-churn");
            }
            let last = &spaces[(7 - 1) % spaces.len()];
            let mut alive: Vec<u64> = (0..8u64)
                .filter(|&i| tlb.lookup(VA + i * PAGE_SIZE as u64, last).is_some())
                .collect();
            alive.sort_unstable();
            alive
        };
        let first = run();
        assert!(!first.is_empty() && first.len() <= 4);
        assert_eq!(first, run(), "churned eviction must stay deterministic");
    }

    #[test]
    fn capacity_bounded() {
        let mut tlb = Tlb::with_capacity(4);
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        for i in 0..8u64 {
            let va = VA + i * 4096;
            map_fresh(&space, &phys, va, 1);
            let t = space.translate(va, Access::Read).unwrap();
            tlb.insert(&t);
        }
        assert!(tlb.len() <= 4);
    }

    /// The second current-generation probe of a page is served by the
    /// direct-mapped micro-TLB (counted in `micro_hits`), and a
    /// shootdown lazily invalidates it via the generation tag — the
    /// stale entry must *miss*, not serve a retired translation.
    #[test]
    fn micro_tlb_hits_then_dies_on_shootdown() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 1);
        let mut tlb = Tlb::new();
        // Bind to the space and warm both levels.
        assert_eq!(tlb.lookup(VA, &space), None);
        warm(&mut tlb, &space, VA);
        let gen = space.generation();
        // First current-gen probe: insert() already promoted the page
        // into the micro-TLB, so this is an L1 hit.
        assert!(matches!(tlb.try_lookup_current(VA, gen), Some(Some(_))));
        assert_eq!(tlb.stats().micro_hits, 1);
        assert!(matches!(tlb.try_lookup_current(VA, gen), Some(Some(_))));
        assert_eq!(tlb.stats().micro_hits, 2);
        // Shootdown: the generation advances, so the fast path refuses
        // to answer at all (caller must resynchronize under a pin).
        space.apply(Batch::new().unmap_range(VA, 1)).unwrap();
        assert_eq!(tlb.try_lookup_current(VA, space.generation()), None);
        // After resyncing, the retired page misses at both levels.
        assert_eq!(tlb.lookup(VA, &space), None);
        let g2 = space.generation();
        assert!(matches!(tlb.try_lookup_current(VA, g2), Some(None)));
        assert_eq!(tlb.stats().micro_hits, 2, "no stale micro serve");
    }

    /// Space switches no longer clear the micro-TLB: the ASID half of
    /// the entry tag makes the stale entry unreachable *lazily* while
    /// a foreign space is bound — and lets it hit again, without any
    /// refill, the moment its owner returns.
    #[test]
    fn micro_tlb_survives_switches_via_lazy_asid_tags() {
        let phys = PhysMem::new();
        let a = AddressSpace::new();
        let b = AddressSpace::new();
        map_fresh(&a, &phys, VA, 1);
        map_fresh(&b, &phys, VA + PAGE_SIZE as u64, 1);
        let mut tlb = Tlb::new();
        assert_eq!(tlb.lookup(VA, &a), None);
        warm(&mut tlb, &a, VA);
        assert!(matches!(
            tlb.try_lookup_current(VA, a.generation()),
            Some(Some(_))
        ));
        let micro_hits_before = tlb.stats().micro_hits;
        // Switch to space B (no flush — the binding changes)…
        assert_eq!(tlb.lookup(VA, &b), None);
        // …then probe A's page at B's numerically-equal generation: the
        // A-tagged micro entry must not resurface while B is bound.
        assert_eq!(b.generation(), a.generation());
        assert!(matches!(
            tlb.try_lookup_current(VA, b.generation()),
            Some(None)
        ));
        assert_eq!(
            tlb.stats().micro_hits,
            micro_hits_before,
            "no cross-ASID micro serve"
        );
        // Switch back to A: the same micro entry hits again — it was
        // never evicted, only masked by the tag.
        assert!(tlb.lookup(VA, &a).is_some());
        assert!(matches!(
            tlb.try_lookup_current(VA, a.generation()),
            Some(Some(_))
        ));
        assert!(tlb.stats().micro_hits > micro_hits_before);
        assert_eq!(tlb.stats().flushes, 0);
    }

    /// A page register serves exactly the micro hits a probe would
    /// make and counts them as such. A fill of its slot by a colliding
    /// page, a shootdown, or a TLB with no capacity (nothing filled)
    /// leaves no register to serve.
    #[test]
    fn page_register_serves_only_what_the_micro_tlb_would() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let twin = VA + (MICRO_SLOTS * PAGE_SIZE) as u64;
        map_fresh(&space, &phys, VA, 1);
        map_fresh(&space, &phys, twin, 1);
        let mut tlb = Tlb::new();
        assert_eq!(tlb.lookup(VA, &space), None);
        warm(&mut tlb, &space, VA);
        let gen = space.generation();
        let reg = tlb
            .load_register(VA, gen)
            .expect("the fill left a micro entry");
        let pte = space.translate(VA, Access::Read).unwrap().pte;
        assert_eq!(tlb.register_hit(&reg, VA, gen), Some(pte));
        assert_eq!((tlb.stats().hits, tlb.stats().micro_hits), (1, 1));
        assert_eq!(tlb.register_hit(&reg, twin, gen), None, "another page");
        // The twin takes the slot: the register dies with the entry.
        warm(&mut tlb, &space, twin);
        assert_eq!(tlb.register_hit(&reg, VA, gen), None);
        assert!(matches!(tlb.try_lookup_current(VA, gen), Some(Some(_))));
        assert_eq!(tlb.stats().micro_hits, 1, "that probe was an L2 hit");
        // A shootdown elsewhere advances the generation.
        let reg = tlb.load_register(VA, gen).unwrap();
        map_fresh(&space, &phys, VA + 0x40_0000, 1);
        space
            .apply(Batch::new().unmap_range(VA + 0x40_0000, 1))
            .unwrap();
        assert_eq!(tlb.register_hit(&reg, VA, space.generation()), None);
        // No capacity: nothing is filled, so nothing can be registered.
        let mut empty = Tlb::with_capacity(0);
        assert_eq!(empty.lookup(VA, &space), None);
        warm(&mut empty, &space, VA);
        assert!(empty.load_register(VA, space.generation()).is_none());
    }

    /// `lookup_batch` pays one resynchronization for N probes and
    /// reports per-page hits/misses positionally.
    #[test]
    fn batch_lookup_syncs_once() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 4);
        let mut tlb = Tlb::new();
        for i in [0u64, 2] {
            warm(&mut tlb, &space, VA + i * PAGE_SIZE as u64);
        }
        // Lag the TLB by one shootdown outside the cached pages.
        map_fresh(&space, &phys, VA + 0x100_0000, 1);
        space
            .apply(Batch::new().unmap_range(VA + 0x100_0000, 1))
            .unwrap();
        let pages: Vec<u64> = (0..4u64).map(|i| VA + i * PAGE_SIZE as u64).collect();
        let mut reader = space.reader();
        let pin = reader.pin();
        let got = tlb.lookup_batch(&pages, &pin);
        drop(pin);
        assert!(got[0].is_some() && got[2].is_some());
        assert!(got[1].is_none() && got[3].is_none());
        let s = tlb.stats();
        assert_eq!(s.partial_flushes, 1, "one sync covered the whole batch");
        assert_eq!(s.flushes, 0);
    }

    /// Stats bookkeeping: `switches`, `switch_flushes`, and
    /// `horizon_flushes` flow through `AddAssign` and `delta_since`
    /// like every other counter, and the flush-attribution invariant
    /// holds across a mixed workload.
    #[test]
    fn split_flush_accounting_stays_consistent() {
        let phys = PhysMem::new();
        let a = AddressSpace::with_space_config(SpaceConfig {
            inval_log: 2,
            ..SpaceConfig::new()
        });
        let b = AddressSpace::new();
        map_fresh(&a, &phys, VA, 1);
        map_fresh(&b, &phys, VA, 1);
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(VA, &a).is_none());
        warm(&mut tlb, &a, VA);
        let before = tlb.stats();
        // A horizon flush (lag past a 2-slot log)…
        for i in 1..=4u64 {
            let va = VA + i * PAGE_SIZE as u64;
            map_fresh(&a, &phys, va, 1);
            a.apply(Batch::new().unmap_range(va, 1)).unwrap();
        }
        assert_eq!(tlb.lookup(VA, &a), None);
        // …then two tagged switches (no flushes; outcomes irrelevant)…
        let _ = tlb.lookup(VA, &b);
        let _ = tlb.lookup(VA, &a);
        // …then one explicit flush (attributed to neither bucket).
        tlb.flush();
        let d = tlb.stats().delta_since(&before);
        assert_eq!(d.horizon_flushes, 1);
        assert_eq!(d.switches, 2);
        assert_eq!(d.switch_flushes, 0);
        assert_eq!(d.flushes, 2, "horizon + explicit");
        assert!(d.flushes >= d.switch_flushes + d.horizon_flushes);
        let mut acc = TlbStats::default();
        acc += before;
        acc += d;
        assert_eq!(acc, tlb.stats(), "AddAssign must mirror delta_since");
    }
}
