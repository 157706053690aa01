//! The address space: a 5-level radix page table with permission bits,
//! aliased (zero-copy) mappings, MMIO leaves, batched mutation
//! ([`Batch`] / [`AddressSpace::apply`], the table's only write path),
//! and a bounded *invalidation log* that lets TLBs do range-based
//! shootdown instead of whole-TLB flushes (see [`crate::Tlb`]).
//!
//! # The RCU-style read path
//!
//! Translation is the hot path: every simulated instruction fetch and
//! memory access walks this table. Readers therefore never take a lock.
//! The table is published as an **immutable snapshot** — a radix tree
//! whose interior nodes are shared via [`Arc`] — reachable through a
//! single atomic pointer. Writers serialize on a mutex, build a new
//! root *copy-on-write* (path-copying only the nodes they touch; all
//! untouched subtrees are shared structurally with the previous
//! snapshot), and publish it with one atomic pointer store. Readers pin
//! a reclamation epoch ([`AddressSpace::pin`], backed by
//! `adelie-reclaim`'s EBR or Hyaline), load the pointer, and walk
//! without ever blocking on a re-randomization cycle; retired roots are
//! dropped only after every reader epoch that could observe them has
//! advanced.
//!
//! The invalidation log is likewise lock-free on the read side: a fixed
//! ring of atomically-published immutable slots
//! ([`AddressSpace::plan_sync`]), read under the same epoch pin. Every
//! batch publishes one generation bump and one log entry; there is no
//! whole-TLB regime and no reader lock. Both were ablation baselines
//! until commit fd67120, where they measured: without the log, 1.000
//! whole-TLB flushes per rerand cycle on the traffic CPU against 0.000
//! with it; with the reader lock, a median 3.2× fewer reader calls under
//! a rerand writer at 1 and at 4 readers (DESIGN.md §10.4, §11.5).

use crate::arch::{ArchKind, Asid, HwPte};
use crate::batch::{Batch, BatchOp};
use crate::hash::BuildPageHasher;
use crate::{
    page_base, page_offset, Access, Fault, Pfn, PhysMem, LEVELS, PAGE_SHIFT, PAGE_SIZE, VA_MASK,
};
use adelie_reclaim::{Ebr, Reclaimer, SmrStats};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default capacity (in generations) of the invalidation log — how far
/// a TLB may lag behind the current generation and still resynchronize
/// with a partial (range-based) invalidation instead of a full flush.
pub const DEFAULT_INVAL_LOG: usize = 64;

/// Above this many spans in one resynchronization, evicting entry by
/// entry stops being cheaper than clearing the TLB outright — the
/// planner falls back to a full flush (mirrors the kernel's
/// `tlb_single_page_flush_ceiling` idea at span granularity).
const MAX_SYNC_SPANS: usize = 64;

/// Reader slots in the default snapshot-reclamation domain: the number
/// of *concurrent* readers (pinned epochs) an address space supports.
/// One slot is claimed per live [`SpaceReader`] / [`SpacePin`]; slots
/// are recycled, so this bounds concurrency, not total readers. Kept
/// modest because EBR's epoch-advance scan is O(slots).
pub const READER_SLOTS: usize = 64;

/// Page permission flags.
///
/// A mapped page is always "present"; the two bits model the x86-64
/// `W` and `NX` bits the paper's defences rely on (write-protected GOTs,
/// non-executable data).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct PteFlags(u8);

impl PteFlags {
    /// Read-only, executable — the protection of text pages.
    pub const TEXT: PteFlags = PteFlags(0);
    /// Writable bit.
    pub const WRITABLE: PteFlags = PteFlags(1);
    /// No-execute bit.
    pub const NX: PteFlags = PteFlags(2);
    /// Writable and no-execute — the protection of data pages.
    pub const DATA: PteFlags = PteFlags(1 | 2);
    /// Read-only, no-execute — the protection of `.rodata` and sealed GOTs.
    pub const RO_DATA: PteFlags = PteFlags(2);

    /// Whether all bits of `other` are set in `self`.
    pub fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// Whether the page can be written.
    pub fn writable(self) -> bool {
        self.contains(PteFlags::WRITABLE)
    }

    /// Whether the page can be executed.
    pub fn executable(self) -> bool {
        !self.contains(PteFlags::NX)
    }
}

impl std::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r{}{}",
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' }
        )
    }
}

/// What a leaf translation points at.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PteKind {
    /// Ordinary memory frame.
    Frame(Pfn),
    /// Device register page: `dev` is the device id in the kernel's MMIO
    /// registry, `page` the page index within the device's BAR.
    Mmio { dev: u32, page: u32 },
}

/// A page-table leaf entry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Pte {
    /// Frame or MMIO target.
    pub kind: PteKind,
    /// Permissions.
    pub flags: PteFlags,
}

impl Pte {
    /// Check this entry against an access kind (used by TLBs re-checking
    /// cached entries — permissions live in the entry, not the cache).
    ///
    /// # Errors
    ///
    /// The same faults [`AddressSpace::translate`] would raise.
    pub fn check(&self, va: u64, access: Access) -> Result<(), Fault> {
        check_access(va, self, access)
    }
}

/// A successful translation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Translation {
    /// The leaf entry.
    pub pte: Pte,
    /// Base virtual address of the page containing the query.
    pub page_va: u64,
}

#[derive(Clone)]
enum Entry {
    Table(Arc<Node>),
    /// A leaf stored in the owning arch's *hardware* bit layout — what
    /// a real page-table walker would see. Mutation sites encode via
    /// [`ArchKind::encode`]; walks decode back to the abstract [`Pte`].
    Leaf(HwPte),
}

/// Occupied slots sorted by slot index (an absent index is an empty
/// slot).
type Slots = Vec<(u16, Entry)>;

/// Slot indices per chunk of a chunked node, and chunks per node.
const CHUNK: usize = 32;
const CHUNKS: usize = 512 / CHUNK;

/// One radix node of an immutable snapshot: its occupied slots only.
/// Interior children are `Arc`-shared: a write transaction path-copies
/// only the nodes it touches and shares every untouched subtree with
/// the previous snapshot. Because only occupied slots are stored, a
/// copy, a prune check and a drop cost O(children), not O(512) — and
/// PIC placement anywhere in the 57-bit space leaves most interior
/// nodes holding one or two children.
///
/// A node with more than [`CHUNK`] occupied slots keeps them in
/// [`CHUNKS`] `Arc`-shared chunks, chunk `c` holding indices
/// `[c·CHUNK, (c+1)·CHUNK)`. Copying it clones the chunk pointers, and
/// a write then copies only the chunk it touches — so the root, which
/// fills with one slot per 2^48-byte region as residents accumulate,
/// costs at most `CHUNKS + CHUNK` slot copies per transaction instead
/// of one per occupied slot (DESIGN.md §11.2).
#[derive(Clone)]
enum Node {
    Small(Slots),
    Chunked {
        len: usize,
        chunks: Box<[Arc<Slots>]>,
    },
}

impl Default for Node {
    fn default() -> Node {
        Node::Small(Vec::new())
    }
}

fn find(slots: &Slots, idx: usize) -> Result<usize, usize> {
    slots.binary_search_by_key(&(idx as u16), |&(i, _)| i)
}

/// Copy-on-write through a shared pointer: mutate in place when this
/// transaction owns `arc` alone, otherwise copy first and add the
/// copy's slot count to `copied`.
fn cow<'a, T: Clone>(
    arc: &'a mut Arc<T>,
    cost: impl FnOnce(&T) -> u64,
    copied: &mut u64,
) -> &'a mut T {
    if Arc::get_mut(arc).is_none() {
        *copied += cost(arc);
    }
    Arc::make_mut(arc)
}

impl Node {
    /// The entry at slot `idx`, if occupied.
    fn get(&self, idx: usize) -> Option<&Entry> {
        let slots = self.slots_of(idx);
        find(slots, idx).ok().map(|pos| &slots[pos].1)
    }

    /// Occupied slots.
    fn len(&self) -> usize {
        match self {
            Node::Small(slots) => slots.len(),
            Node::Chunked { len, .. } => *len,
        }
    }

    /// Whether no slot is occupied (so the node can be pruned).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots a clone of this node copies: its entries, or its chunk
    /// pointers once chunked.
    fn copy_cost(&self) -> u64 {
        match self {
            Node::Small(slots) => slots.len() as u64,
            Node::Chunked { .. } => CHUNKS as u64,
        }
    }

    /// The slot vector holding index `idx`.
    fn slots_of(&self, idx: usize) -> &Slots {
        match self {
            Node::Small(slots) => slots,
            Node::Chunked { chunks, .. } => &chunks[idx / CHUNK],
        }
    }

    /// The slot vector holding index `idx`, mutable, copying a shared
    /// chunk first.
    fn slots_of_mut(&mut self, idx: usize, copied: &mut u64) -> &mut Slots {
        match self {
            Node::Small(slots) => slots,
            Node::Chunked { chunks, .. } => {
                cow(&mut chunks[idx / CHUNK], |c| c.len() as u64, copied)
            }
        }
    }

    /// The entry at `idx`, mutable; copies nothing when `idx` is empty.
    fn get_mut(&mut self, idx: usize, copied: &mut u64) -> Option<&mut Entry> {
        let pos = find(self.slots_of(idx), idx).ok()?;
        Some(&mut self.slots_of_mut(idx, copied)[pos].1)
    }

    /// The entry at `idx`, first filling an empty slot with `make()`.
    fn get_or_insert_with(
        &mut self,
        idx: usize,
        make: impl FnOnce() -> Entry,
        copied: &mut u64,
    ) -> &mut Entry {
        let pos = match find(self.slots_of(idx), idx) {
            Ok(pos) => pos,
            Err(pos) => {
                self.slots_of_mut(idx, copied)
                    .insert(pos, (idx as u16, make()));
                match self {
                    Node::Chunked { len, .. } => *len += 1,
                    Node::Small(slots) if slots.len() > CHUNK => {
                        self.rechunk(copied);
                        return self.get_mut(idx, copied).expect("slot just filled");
                    }
                    Node::Small(_) => {}
                }
                pos
            }
        };
        &mut self.slots_of_mut(idx, copied)[pos].1
    }

    /// Empty slot `idx`, found at `pos` of its slot vector.
    fn remove_at(&mut self, idx: usize, pos: usize, copied: &mut u64) {
        self.slots_of_mut(idx, copied).remove(pos);
        if let Node::Chunked { len, .. } = self {
            *len -= 1;
            // Hysteresis: back to one vector at half the split size,
            // so a node hovering at the threshold does not flip.
            if *len <= CHUNK / 2 {
                self.rechunk(copied);
            }
        }
    }

    /// Every occupied slot with its index, in index order.
    fn slots(&self) -> impl Iterator<Item = &(u16, Entry)> {
        let (small, chunks): (&[(u16, Entry)], &[Arc<Slots>]) = match self {
            Node::Small(slots) => (slots, &[]),
            Node::Chunked { chunks, .. } => (&[], chunks),
        };
        small.iter().chain(chunks.iter().flat_map(|c| c.iter()))
    }

    /// Switch between the two layouts: split a small node past
    /// [`CHUNK`] slots (moving its entries), merge a chunked one that
    /// shrank (copying them, since its chunks may be shared). Runs once
    /// per crossing, on a node this transaction already owns.
    fn rechunk(&mut self, copied: &mut u64) {
        *self = match std::mem::take(self) {
            Node::Small(slots) => {
                let mut chunks: Vec<Slots> = vec![Vec::new(); CHUNKS];
                let len = slots.len();
                for (idx, e) in slots {
                    chunks[idx as usize / CHUNK].push((idx, e));
                }
                Node::Chunked {
                    len,
                    chunks: chunks.into_iter().map(Arc::new).collect(),
                }
            }
            Node::Chunked { chunks, len } => {
                *copied += len as u64;
                Node::Small(chunks.iter().flat_map(|c| c.iter().cloned()).collect())
            }
        };
    }
}

/// What writers publish and readers load: the radix tree and the
/// backend whose leaf encoding it uses.
struct SnapshotRoot {
    /// The 5-level radix tree (what the next write transaction
    /// clones).
    root: Node,
    /// The backend whose bit layout every [`Entry::Leaf`] in this
    /// snapshot uses (walks need it to decode).
    arch: ArchKind,
}

/// Bits below a leaf-node prefix: one prefix names one leaf-level
/// radix node (512 pages = 2 MiB of virtual space).
pub(crate) const LEAF_SHIFT: u32 = PAGE_SHIFT + 9;

/// The leaf-level node covering `va`, by chasing the tree. `None` when
/// the 2 MiB region is entirely unmapped (pruning removed its node).
fn leaf_of(root: &Node, va: u64) -> Option<&Arc<Node>> {
    let mut cur = root;
    for level in 0..LEVELS - 2 {
        cur = match cur.get(level_index(va, level)) {
            Some(Entry::Table(t)) => t,
            _ => return None,
        };
    }
    match cur.get(level_index(va, LEVELS - 2)) {
        Some(Entry::Table(t)) => Some(t),
        _ => None,
    }
}

/// Snapshot of address-space activity counters.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct SpaceStats {
    /// Pages mapped over the lifetime.
    pub pages_mapped: u64,
    /// Pages unmapped over the lifetime.
    pub pages_unmapped: u64,
    /// Permission changes.
    pub protects: u64,
    /// TLB shootdowns (generation bumps).
    pub shootdowns: u64,
    /// Page-table walks performed.
    pub walks: u64,
    /// Batches applied via [`AddressSpace::apply`].
    pub batches: u64,
    /// Shootdowns that were coalesced into an open epoch slot instead
    /// of occupying their own invalidation-log entry.
    pub coalesced_shootdowns: u64,
    /// Immutable page-table snapshots published (one per write
    /// transaction that changed the table).
    pub snapshot_publishes: u64,
    /// Retired snapshot roots actually reclaimed — freed only after
    /// every reader epoch that could observe them advanced.
    pub snapshots_reclaimed: u64,
    /// Node slots write transactions copied: entries of shared nodes
    /// and chunks they path-copied, plus chunk pointers of chunked
    /// nodes. Exact and deterministic — the publish-cost measure that
    /// must not grow with the number of mappings a transaction leaves
    /// alone (`BENCH_publish_scale.json`).
    pub slots_copied: u64,
}

#[derive(Default)]
struct AtomicStats {
    pages_mapped: AtomicU64,
    pages_unmapped: AtomicU64,
    protects: AtomicU64,
    shootdowns: AtomicU64,
    batches: AtomicU64,
    coalesced_shootdowns: AtomicU64,
    snapshot_publishes: AtomicU64,
    slots_copied: AtomicU64,
}

/// A cache-line-padded counter: the walk counter is bumped on every
/// page-table walk by every reader, so it is striped per reader slot to
/// keep the lock-free read path free of cross-CPU cache-line traffic.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// One invalidation-log slot: the page spans retired by the
/// generations in `[gen_lo, gen_hi]` (a range wider than one generation
/// only when batches shared a shootdown epoch). Immutable once
/// published; replaced wholesale (and the old copy epoch-retired) when
/// an epoch merge widens it.
struct LogSlot {
    gen_lo: u64,
    gen_hi: u64,
    epoch: Option<u64>,
    /// `[start, end)` byte ranges, page-aligned.
    spans: Vec<(u64, u64)>,
}

/// The lock-free invalidation log: a fixed ring of atomically-published
/// immutable [`LogSlot`]s. Writers (already serialized by the writer
/// mutex) install slots with pointer swaps and retire replaced copies
/// through the snapshot reclamation domain; readers traverse the ring
/// under an epoch pin with plain atomic loads.
struct InvalRing {
    slots: Box<[AtomicPtr<LogSlot>]>,
    /// Total slots ever published (monotonic; slot `k` lives at
    /// `k % capacity` until overwritten by slot `k + capacity`).
    head: AtomicU64,
}

impl InvalRing {
    fn new(capacity: usize) -> InvalRing {
        InvalRing {
            slots: (0..capacity)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            head: AtomicU64::new(0),
        }
    }
}

impl Drop for InvalRing {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: installed pointers are owned by the ring; the
                // exclusive borrow proves no reader is pinned.
                unsafe { drop(Box::from_raw(p)) };
            }
        }
    }
}

/// What a lagging TLB must do to catch up — computed by
/// [`AddressSpace::plan_sync`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TlbSync {
    /// The snapshot is current; nothing to do.
    Current,
    /// Evict only entries covered by these `[start, end)` spans.
    Ranges(Vec<(u64, u64)>),
    /// The log no longer covers the gap (or covering it would cost more
    /// than starting over) — flush everything.
    Full,
}

/// Construction knobs for [`AddressSpace::with_space_config`].
/// `Default` equals [`SpaceConfig::new`].
#[derive(Debug)]
pub struct SpaceConfig {
    /// Invalidation-log capacity in generations; must be at least 1.
    /// Defaults to [`DEFAULT_INVAL_LOG`].
    pub inval_log: usize,
    /// Reader slots of the space's own EBR domain, which guards
    /// snapshot and log-slot lifetime: the number of concurrent
    /// readers it supports; must be at least 1. Defaults to
    /// [`READER_SLOTS`]. This domain is distinct from the kernel's
    /// `mr_*` domain: reader pins last one walk, not one pending
    /// driver call.
    pub reader_slots: usize,
    /// ISA backend owning PTE encodings and the ASID value space.
    /// Defaults to [`ArchKind::from_env`] (`ADELIE_ARCH`).
    pub arch: ArchKind,
    /// Explicit address-space identifier. `None` (the default)
    /// allocates from the arch's process-wide rollover allocator;
    /// `Some` overrides it — tests use this to force tag-value
    /// collisions between spaces.
    pub asid: Option<Asid>,
}

impl SpaceConfig {
    /// The default configuration: [`DEFAULT_INVAL_LOG`],
    /// [`READER_SLOTS`] reader slots, environment-selected arch,
    /// freshly allocated ASID.
    pub fn new() -> SpaceConfig {
        SpaceConfig {
            inval_log: DEFAULT_INVAL_LOG,
            reader_slots: READER_SLOTS,
            arch: ArchKind::from_env(),
            asid: None,
        }
    }
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig::new()
    }
}

/// Writer-side state, serialized by the writer mutex. Holds the [`Arc`]
/// that owns the currently-published snapshot root.
struct WriterState {
    current: Arc<SnapshotRoot>,
}

/// A single (kernel) address space.
///
/// All methods take `&self`. Translation (the hot path, used by every
/// simulated instruction) is **lock-free**: readers pin a reclamation
/// epoch and walk the currently-published immutable snapshot. Mapping
/// changes serialize on a writer mutex, build the next snapshot
/// copy-on-write, and publish it with one atomic pointer store — so
/// traffic never blocks on a re-randomization cycle.
pub struct AddressSpace {
    /// Process-unique identity of this space (never 0). Generation
    /// counters are meaningful only *within* one space; the id lets a
    /// [`crate::Tlb`] detect that it has been pointed at a different
    /// space — fleet-style many-space churn — and drop everything it
    /// cached instead of trusting a numerically-equal generation from
    /// an unrelated timeline.
    id: u64,
    /// The currently-published snapshot (the radix tree). Readers load
    /// this while epoch-pinned; the pointee is owned by
    /// `writer.current` (or by a pending reclamation closure once
    /// superseded).
    snapshot: AtomicPtr<SnapshotRoot>,
    /// Serializes writers. Readers never touch it.
    writer: Mutex<WriterState>,
    generation: AtomicU64,
    stats: AtomicStats,
    /// Per-reader-slot walk counters (see [`PaddedCounter`]).
    walk_stripes: Box<[PaddedCounter]>,
    /// Bumped by deferred reclamation closures when a retired snapshot
    /// root is actually dropped.
    reclaimed_snapshots: Arc<AtomicU64>,
    /// Recent invalidation sets, one slot per published shootdown.
    inval: InvalRing,
    /// Epoch-based reclamation guarding snapshots and log slots.
    smr: Ebr,
    /// Reader-slot claim flags (one per `smr` slot); a claimed slot is
    /// exclusively owned by one [`SpaceReader`] / [`SpacePin`], which
    /// keeps EBR's one-operation-per-slot contract.
    slot_claims: Box<[AtomicBool]>,
    /// ISA backend owning the leaf encodings of every snapshot this
    /// space publishes and the meaning of its ASID.
    arch: ArchKind,
    /// Hardware address-space identifier ([`crate::Tlb`]s tag cached
    /// entries with `asid.value`; `asid.rollover` disambiguates reuse
    /// of the same value across allocator wrap-arounds).
    asid: Asid,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

fn level_index(va: u64, level: u32) -> usize {
    // level 0 = top. Each level resolves 9 bits.
    let shift = PAGE_SHIFT + 9 * (LEVELS - 1 - level);
    ((va >> shift) & 0x1FF) as usize
}

/// Start-slot hint for reader-slot claims: sticky per thread so
/// distinct threads begin their claim scan at distinct indices.
fn claim_hint() -> usize {
    use std::cell::Cell;
    thread_local! {
        static HINT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    HINT.with(|h| {
        if h.get() == usize::MAX {
            h.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        h.get()
    })
}

impl AddressSpace {
    /// Create an empty address space with the default invalidation-log
    /// capacity ([`DEFAULT_INVAL_LOG`]).
    pub fn new() -> AddressSpace {
        AddressSpace::with_space_config(SpaceConfig::new())
    }

    /// Create an empty address space from explicit [`SpaceConfig`]
    /// knobs (reader slots, log capacity, arch, ASID).
    ///
    /// # Panics
    ///
    /// If `config.inval_log` is 0: range-based shootdown needs at least
    /// one log slot to index into.
    pub fn with_space_config(config: SpaceConfig) -> AddressSpace {
        assert!(
            config.inval_log >= 1,
            "SpaceConfig::inval_log must be at least 1 (got 0): the invalidation log \
             needs a slot for every shootdown"
        );
        let nslots = config.reader_slots;
        let smr = Ebr::new(nslots);
        let arch = config.arch;
        let asid = config.asid.unwrap_or_else(|| arch.allocate_asid());
        let root = Arc::new(SnapshotRoot {
            root: Node::default(),
            arch,
        });
        let snapshot = AtomicPtr::new(Arc::as_ptr(&root) as *mut SnapshotRoot);
        // Ids start at 1 so a fresh TLB's 0 never matches any space.
        static NEXT_SPACE_ID: AtomicU64 = AtomicU64::new(1);
        AddressSpace {
            id: NEXT_SPACE_ID.fetch_add(1, Ordering::Relaxed),
            snapshot,
            writer: Mutex::new(WriterState { current: root }),
            generation: AtomicU64::new(0),
            stats: AtomicStats::default(),
            walk_stripes: (0..nslots).map(|_| PaddedCounter::default()).collect(),
            reclaimed_snapshots: Arc::new(AtomicU64::new(0)),
            inval: InvalRing::new(config.inval_log),
            smr,
            slot_claims: (0..nslots).map(|_| AtomicBool::new(false)).collect(),
            arch,
            asid,
        }
    }

    /// The ISA backend this space encodes its leaves for.
    pub fn arch(&self) -> ArchKind {
        self.arch
    }

    /// This space's hardware address-space identifier. TLBs tag cached
    /// entries with `asid().value`; a larger `rollover` than the TLB
    /// last adopted means tag values may have been reused by unrelated
    /// spaces since, so the TLB must full-flush before trusting tags
    /// again (the Linux-style ASID-generation protocol).
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The current TLB generation. Cached translations from earlier
    /// generations must be discarded (see [`crate::Tlb`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Process-unique identity of this space (never 0). A [`crate::Tlb`]
    /// records the id it last synchronized with and treats a different
    /// id as a context switch: generations from distinct spaces share no
    /// timeline, so nothing cached may survive the move.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Counters of the snapshot reclamation domain (retired vs freed
    /// roots and log slots) — what the testkit oracle asserts converges
    /// at quiescence.
    pub fn snapshot_smr(&self) -> SmrStats {
        self.smr.stats()
    }

    /// Best-effort drain of ripe snapshot/log-slot reclamations
    /// (quiescence aid for tests and the oracle).
    pub fn flush_snapshots(&self) {
        self.smr.flush();
    }

    // ------------------------------------------------------------------
    // Reader side: slot claims, epoch pins, lock-free walks.
    // ------------------------------------------------------------------

    /// Claim a free reader slot, spinning (with yields) while all
    /// slots are momentarily taken. Claims are exclusive, so each slot
    /// hosts at most one concurrent operation — the contract EBR
    /// requires.
    ///
    /// # Panics
    ///
    /// Panics (rather than hanging silently) if no slot frees up after
    /// a generous spin: sustained exhaustion means more *long-lived*
    /// concurrent readers than the domain has slots — a leaked
    /// [`SpaceReader`], or a domain sized below the caller's real
    /// concurrency (see [`SpaceConfig::reader_slots`]).
    fn claim_slot(&self) -> usize {
        // One-shot pins last nanoseconds; ~100k yields is seconds of
        // sustained full occupancy — a leak, not contention.
        const CLAIM_SPIN_ROUNDS: usize = 100_000;
        let n = self.slot_claims.len();
        let start = claim_hint() % n;
        for _ in 0..CLAIM_SPIN_ROUNDS {
            for i in 0..n {
                let idx = (start + i) % n;
                if self.slot_claims[idx]
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return idx;
                }
            }
            std::thread::yield_now();
        }
        panic!(
            "all {n} snapshot reader slots stayed claimed: long-lived readers exceed the \
             reclamation domain (leaked SpaceReader, or size the domain to the reader count)"
        );
    }

    fn release_slot(&self, slot: usize) {
        self.slot_claims[slot].store(false, Ordering::Release);
    }

    /// Claim a long-lived read handle (e.g. one per simulated CPU).
    /// The handle owns a reader slot for its lifetime; each
    /// [`SpaceReader::pin`] then only pays the epoch enter/leave, not a
    /// slot claim.
    pub fn reader(&self) -> SpaceReader<'_> {
        SpaceReader {
            space: self,
            slot: self.claim_slot(),
        }
    }

    /// Pin a reclamation epoch for one read operation: claims a slot
    /// and enters the epoch; both are released on drop. Takes **no
    /// lock**.
    pub fn pin(&self) -> SpacePin<'_> {
        let slot = self.claim_slot();
        self.enter_pin(slot, true)
    }

    fn enter_pin(&self, slot: usize, release_slot: bool) -> SpacePin<'_> {
        self.smr.enter(slot);
        SpacePin {
            space: self,
            slot,
            release_slot,
        }
    }

    /// Translate `va` for the given access kind — lock-free: pins an
    /// epoch and walks the current snapshot.
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`], [`Fault::NotWritable`], [`Fault::NotExecutable`],
    /// [`Fault::MmioExec`], or [`Fault::NonCanonical`].
    pub fn translate(&self, va: u64, access: Access) -> Result<Translation, Fault> {
        self.pin().translate(va, access)
    }

    /// Translate a batch of addresses under **one** epoch pin and one
    /// snapshot-root load. Results are positional. Because every walk
    /// uses the same root, a batch can never observe two different
    /// published generations — see [`SpacePin::translate_batch`].
    pub fn translate_batch(&self, vas: &[u64], access: Access) -> Vec<Result<Translation, Fault>> {
        self.pin().translate_batch(vas, access)
    }

    /// Whether any of the `pages` pages from `va` is mapped in the
    /// current snapshot — one descent, sharing the upper levels across
    /// the range, instead of one walk per page.
    pub fn maps_any(&self, va: u64, pages: usize) -> bool {
        if pages == 0 {
            return false;
        }
        let _pin = self.pin();
        // SAFETY: as in `SpacePin::translate`; the pin above entered
        // before the load.
        let snap = unsafe { &*self.snapshot.load(Ordering::SeqCst) };
        let end = va.saturating_add(pages.saturating_mul(PAGE_SIZE) as u64);
        maps_any(&snap.root, 0, 0, va, end)
    }

    /// Plan how a TLB whose snapshot is `seen_gen` catches up to the
    /// current generation: returns the generation to adopt plus the
    /// cheapest safe action. [`TlbSync::Ranges`] is only returned when
    /// the log still covers *every* generation in the gap; otherwise
    /// the plan degrades to [`TlbSync::Full`]. Lock-free (pins an
    /// epoch to read the log ring).
    pub fn plan_sync(&self, seen_gen: u64) -> (u64, TlbSync) {
        self.pin().plan_sync(seen_gen)
    }

    /// [`AddressSpace::plan_sync`], plus every span retired in the gap
    /// whenever the log covers it — also when there are too many for a
    /// partial flush, so a TLB's leaf-node cache can still drop only
    /// the regions they touch.
    fn plan_sync_pinned(&self, seen_gen: u64) -> (u64, TlbSync, Option<Vec<(u64, u64)>>) {
        let current = self.generation();
        if current == seen_gen {
            return (current, TlbSync::Current, None);
        }
        let ring = &self.inval;
        if current < seen_gen {
            return (current, TlbSync::Full, None);
        }
        let mut covered: Vec<(u64, u64)> = Vec::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let cap = ring.slots.len() as u64;
        let head = ring.head.load(Ordering::SeqCst);
        for k in head.saturating_sub(cap)..head {
            let p = ring.slots[(k % cap) as usize].load(Ordering::SeqCst);
            if p.is_null() {
                continue;
            }
            // SAFETY: slots are immutable once published and their
            // allocations are retired through `smr`; the caller holds
            // an epoch pin, so a slot read here cannot be freed yet.
            let slot = unsafe { &*p };
            if slot.gen_hi <= seen_gen || slot.gen_lo > current {
                // Already seen, or published after our generation
                // read (the next sync picks it up).
                continue;
            }
            covered.push((slot.gen_lo.max(seen_gen + 1), slot.gen_hi.min(current)));
            spans.extend_from_slice(&slot.spans);
        }
        // Every generation in (seen_gen, current] must be accounted
        // for; slots may be out of order or replaced mid-read under a
        // concurrent epoch merge — any gap degrades to a full flush.
        covered.sort_unstable();
        let mut need = seen_gen + 1;
        for (lo, hi) in covered {
            if lo > need {
                return (current, TlbSync::Full, None);
            }
            need = need.max(hi + 1);
        }
        if need <= current {
            return (current, TlbSync::Full, None);
        }
        if spans.len() > MAX_SYNC_SPANS {
            return (current, TlbSync::Full, Some(spans));
        }
        (current, TlbSync::Ranges(spans), None)
    }

    // ------------------------------------------------------------------
    // Writer side: COW transactions, snapshot publication, shootdowns.
    // ------------------------------------------------------------------

    /// Begin a write transaction: take the writer mutex and build a
    /// scratch root sharing every subtree of the current snapshot.
    fn begin(&self) -> (MutexGuard<'_, WriterState>, Scratch) {
        let st = self.writer.lock();
        let root = st.current.root.clone();
        let copied = root.copy_cost();
        (st, Scratch { root, copied })
    }

    /// Publish `scratch` as the new snapshot and retire the old root
    /// through the reclamation domain. Caller holds the writer mutex.
    /// Nothing here depends on how much the table maps: the old root
    /// shares every untouched subtree with the new one, so dropping it
    /// later frees only the nodes this transaction replaced.
    fn publish(&self, st: &mut WriterState, scratch: Scratch) {
        let new = Arc::new(SnapshotRoot {
            root: scratch.root,
            arch: self.arch,
        });
        self.snapshot
            .store(Arc::as_ptr(&new) as *mut SnapshotRoot, Ordering::SeqCst);
        let old = std::mem::replace(&mut st.current, new);
        self.stats
            .snapshot_publishes
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .slots_copied
            .fetch_add(scratch.copied, Ordering::Relaxed);
        let reclaimed = self.reclaimed_snapshots.clone();
        self.smr.retire(Box::new(move || {
            drop(old);
            reclaimed.fetch_add(1, Ordering::Relaxed);
        }));
    }

    /// Bump the generation once and publish `spans` as its invalidation
    /// set. Caller holds the writer mutex (ring installs assume
    /// serialized writers). Consecutive shootdowns carrying the same
    /// `epoch` tag merge into one log slot (the scheduler's shared
    /// shootdown epoch), so a TLB lagging across the whole epoch pays
    /// one partial pass.
    fn shootdown_epoch(&self, mut spans: Vec<(u64, u64)>, epoch: Option<u64>) {
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.stats.shootdowns.fetch_add(1, Ordering::Relaxed);
        let ring = &self.inval;
        coalesce_spans(&mut spans);
        let cap = ring.slots.len() as u64;
        let head = ring.head.load(Ordering::SeqCst);
        if let Some(e) = epoch {
            if head > 0 {
                let idx = ((head - 1) % cap) as usize;
                let last_ptr = ring.slots[idx].load(Ordering::SeqCst);
                // The newest slot is never evicted before `head`
                // advances, so `last_ptr` is always valid here.
                // SAFETY: published slots are immutable; we hold the
                // writer mutex, so no other writer can retire it.
                let last = unsafe { &*last_ptr };
                if last.epoch == Some(e) && last.gen_hi + 1 == gen {
                    // Widen by replacement: build a merged immutable
                    // copy, install it, and epoch-retire the old slot
                    // (a racing reader may still be traversing it).
                    let mut merged_spans = last.spans.clone();
                    merged_spans.extend(spans);
                    // Re-coalesce the merged slot: epoch waves
                    // routinely retire adjacent ranges, and a compact
                    // span list keeps the partial-flush path under
                    // MAX_SYNC_SPANS.
                    coalesce_spans(&mut merged_spans);
                    let merged = Box::into_raw(Box::new(LogSlot {
                        gen_lo: last.gen_lo,
                        gen_hi: gen,
                        epoch,
                        spans: merged_spans,
                    }));
                    // Carried as `usize` so the closure is `Send`; the
                    // closure is the allocation's sole owner.
                    let old = ring.slots[idx].swap(merged, Ordering::SeqCst) as usize;
                    self.smr.retire(Box::new(move || {
                        // SAFETY: sole owner of the replaced slot.
                        unsafe { drop(Box::from_raw(old as *mut LogSlot)) };
                    }));
                    self.stats
                        .coalesced_shootdowns
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        let fresh = Box::into_raw(Box::new(LogSlot {
            gen_lo: gen,
            gen_hi: gen,
            epoch,
            spans,
        }));
        let old = ring.slots[(head % cap) as usize].swap(fresh, Ordering::SeqCst);
        ring.head.store(head + 1, Ordering::SeqCst);
        if !old.is_null() {
            let old = old as usize;
            self.smr.retire(Box::new(move || {
                // SAFETY: sole owner of the evicted slot.
                unsafe { drop(Box::from_raw(old as *mut LogSlot)) };
            }));
        }
    }

    /// Read `buf.len()` bytes starting at `va` (may cross pages).
    ///
    /// # Errors
    ///
    /// Translation faults, or [`Fault::MmioData`] if the range covers an
    /// MMIO page (device access must go through the interpreter).
    pub fn read_bytes(&self, phys: &PhysMem, va: u64, buf: &mut [u8]) -> Result<(), Fault> {
        self.access_bytes(phys, va, Access::Read, buf.len(), |pfn, off, i, n, phys| {
            phys.read(pfn, off, &mut buf[i..i + n]);
        })
    }

    /// Write bytes starting at `va` (may cross pages).
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::read_bytes`], plus [`Fault::NotWritable`].
    pub fn write_bytes(&self, phys: &PhysMem, va: u64, bytes: &[u8]) -> Result<(), Fault> {
        self.access_bytes(
            phys,
            va,
            Access::Write,
            bytes.len(),
            |pfn, off, i, n, phys| {
                phys.write(pfn, off, &bytes[i..i + n]);
            },
        )
    }

    fn access_bytes(
        &self,
        phys: &PhysMem,
        va: u64,
        access: Access,
        len: usize,
        mut f: impl FnMut(Pfn, usize, usize, usize, &PhysMem),
    ) -> Result<(), Fault> {
        let pin = self.pin();
        let mut done = 0usize;
        while done < len {
            let cur = va + done as u64;
            let off = page_offset(cur);
            let n = (PAGE_SIZE - off).min(len - done);
            let t = pin.translate(cur, access)?;
            match t.pte.kind {
                PteKind::Frame(pfn) => f(pfn, off, done, n, phys),
                PteKind::Mmio { .. } => return Err(Fault::MmioData { va: cur }),
            }
            done += n;
        }
        Ok(())
    }

    /// Read a little-endian u64 at `va`.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::read_bytes`].
    pub fn read_u64(&self, phys: &PhysMem, va: u64) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read_bytes(phys, va, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian u64 at `va`.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::write_bytes`].
    pub fn write_u64(&self, phys: &PhysMem, va: u64, v: u64) -> Result<(), Fault> {
        self.write_bytes(phys, va, &v.to_le_bytes())
    }

    /// Apply a [`Batch`] of page-table mutations as **one** copy-on-write
    /// transaction: a single new snapshot is built and published with
    /// one atomic pointer store, carrying a single invalidation set with
    /// one generation bump (the batched-shootdown fast path; see
    /// [`Batch`]'s docs). This is the only way to change the table: a
    /// single page's map, unmap or permission change is a one-op batch.
    ///
    /// Application is atomic by construction: a fault discards the
    /// scratch snapshot, so nothing is published, no generation bump
    /// occurs, and the space is exactly as it was before the call —
    /// concurrent readers only ever observe the pre- or post-batch
    /// snapshot, never an intermediate state. A batch that changes no
    /// leaf (an `unmap_sparse` over holes) publishes no snapshot either;
    /// its ranges are still shot down.
    ///
    /// # Errors
    ///
    /// The first fault any queued operation raises; the batch is
    /// discarded.
    pub fn apply(&self, batch: &Batch) -> Result<BatchOutcome, Fault> {
        for op in &batch.ops {
            let (va, pages) = match op {
                BatchOp::Map { va, .. } | BatchOp::SwapFrame { va, .. } => (*va, 1),
                BatchOp::UnmapRange { va, pages }
                | BatchOp::UnmapSparse { va, pages }
                | BatchOp::ProtectRange { va, pages, .. } => (*va, (*pages).max(1)),
            };
            check_va(va)?;
            // Every page of a range op must be canonical, not just its
            // base: the radix walk masks high bits, so a range running
            // past the boundary would silently alias — and mutate —
            // low canonical addresses outside the published
            // invalidation span. Canonical space is contiguous, so
            // checking the last page covers the whole run.
            let last = (pages as u64 - 1)
                .checked_mul(PAGE_SIZE as u64)
                .and_then(|off| va.checked_add(off))
                .ok_or(Fault::NonCanonical { va })?;
            check_va(last)?;
        }
        let mut removed = Vec::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut mapped = 0u64;
        let mut unmapped = 0u64;
        let mut protects = 0u64;
        let (mut st, mut scratch) = self.begin();
        for op in &batch.ops {
            match *op {
                BatchOp::Map { va, kind, flags } => {
                    scratch.map(va, self.arch.encode(Pte { kind, flags }))?;
                    mapped += 1;
                }
                BatchOp::UnmapRange { va, pages } => {
                    for i in 0..pages {
                        let page_va = va + (i * PAGE_SIZE) as u64;
                        removed.push(self.arch.decode_owned(scratch.unmap(page_va)?));
                        unmapped += 1;
                    }
                    spans.push((va, va + (pages * PAGE_SIZE) as u64));
                }
                BatchOp::UnmapSparse { va, pages } => {
                    let hws = scratch.clear(va, pages);
                    unmapped += hws.len() as u64;
                    removed.extend(hws.into_iter().map(|hw| self.arch.decode_owned(hw)));
                    spans.push((va, va + (pages * PAGE_SIZE) as u64));
                }
                BatchOp::ProtectRange { va, pages, flags } => {
                    for i in 0..pages {
                        let page_va = va + (i * PAGE_SIZE) as u64;
                        scratch.protect(page_va, flags, self.arch)?;
                        protects += 1;
                    }
                    spans.push((va, va + (pages * PAGE_SIZE) as u64));
                }
                BatchOp::SwapFrame { va, pfn, flags } => {
                    let hw = self.arch.encode(Pte {
                        kind: PteKind::Frame(pfn),
                        flags,
                    });
                    removed.push(self.arch.decode_owned(scratch.replace(va, hw)?));
                    spans.push((va, va + PAGE_SIZE as u64));
                }
            }
        }
        if mapped + protects > 0 || !removed.is_empty() {
            self.publish(&mut st, scratch);
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.pages_mapped.fetch_add(mapped, Ordering::Relaxed);
        self.stats
            .pages_unmapped
            .fetch_add(unmapped, Ordering::Relaxed);
        self.stats.protects.fetch_add(protects, Ordering::Relaxed);
        let pages_invalidated = spans.iter().map(|&(s, e)| (e - s) / PAGE_SIZE as u64).sum();
        let shootdowns = if spans.is_empty() {
            0
        } else {
            self.shootdown_epoch(spans, batch.epoch);
            1
        };
        Ok(BatchOutcome {
            removed,
            pages_invalidated,
            shootdowns,
        })
    }

    /// Snapshot of activity counters.
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            pages_mapped: self.stats.pages_mapped.load(Ordering::Relaxed),
            pages_unmapped: self.stats.pages_unmapped.load(Ordering::Relaxed),
            protects: self.stats.protects.load(Ordering::Relaxed),
            shootdowns: self.stats.shootdowns.load(Ordering::Relaxed),
            walks: self
                .walk_stripes
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum(),
            batches: self.stats.batches.load(Ordering::Relaxed),
            coalesced_shootdowns: self.stats.coalesced_shootdowns.load(Ordering::Relaxed),
            snapshot_publishes: self.stats.snapshot_publishes.load(Ordering::Relaxed),
            snapshots_reclaimed: self.reclaimed_snapshots.load(Ordering::Relaxed),
            slots_copied: self.stats.slots_copied.load(Ordering::Relaxed),
        }
    }
}

/// A long-lived read handle owning one reader slot of the snapshot
/// reclamation domain — the per-CPU handle `adelie-kernel` threads
/// through its interpreter. [`SpaceReader::pin`] brackets each read
/// operation with an epoch enter/leave on the owned slot (no slot
/// claim per operation).
pub struct SpaceReader<'a> {
    space: &'a AddressSpace,
    slot: usize,
}

impl SpaceReader<'_> {
    /// Pin a reclamation epoch on this handle's slot for one read
    /// operation. Lock-free.
    ///
    /// Takes `&mut self`: a slot admits **one** operation at a time
    /// (EBR's contract — a second concurrent enter on the same slot
    /// would let either leave un-pin the other's epoch), and the
    /// exclusive borrow makes a double pin unrepresentable.
    pub fn pin(&mut self) -> SpacePin<'_> {
        self.space.enter_pin(self.slot, false)
    }
}

impl Drop for SpaceReader<'_> {
    fn drop(&mut self) {
        self.space.release_slot(self.slot);
    }
}

impl fmt::Debug for SpaceReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceReader")
            .field("slot", &self.slot)
            .finish()
    }
}

/// An active epoch pin: while this guard lives, no snapshot root or
/// invalidation-log slot observable through it can be reclaimed.
/// Obtained from [`AddressSpace::pin`] (one-shot slot claim) or
/// [`SpaceReader::pin`] (pre-claimed slot).
pub struct SpacePin<'a> {
    space: &'a AddressSpace,
    slot: usize,
    release_slot: bool,
}

impl SpacePin<'_> {
    /// The space this pin reads.
    pub fn space(&self) -> &AddressSpace {
        self.space
    }

    /// The current TLB generation (see [`AddressSpace::generation`]).
    pub fn generation(&self) -> u64 {
        self.space.generation()
    }

    /// Translate `va` by walking the currently-published snapshot —
    /// zero locks, no waiting on writers.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::translate`].
    pub fn translate(&self, va: u64, access: Access) -> Result<Translation, Fault> {
        if va & !VA_MASK != 0 {
            return Err(Fault::NonCanonical { va });
        }
        self.space.walk_stripes[self.slot]
            .0
            .fetch_add(1, Ordering::Relaxed);
        // SAFETY: the pointee is the currently-published (or a
        // just-superseded) snapshot root; superseded roots are retired
        // through `smr` and freed only after every epoch pinned at (or
        // before) retire time has left. This pin entered before the
        // load, so the root outlives the walk.
        let snap = unsafe { &*self.space.snapshot.load(Ordering::SeqCst) };
        walk(snap, va, access)
    }

    /// Translate a whole run of addresses against **one** snapshot
    /// load: every result reflects the *same* published generation, so
    /// a batch can never interleave pre- and post-publish views even
    /// if a re-randomization commit lands mid-iteration — the property
    /// the testkit's `LayoutOracle` probes at every commit. One walk
    /// counter bump and one epoch pin (the caller's) cover the batch.
    ///
    /// Results are positional; per-address faults are reported in
    /// place rather than aborting the batch.
    pub fn translate_batch(&self, vas: &[u64], access: Access) -> Vec<Result<Translation, Fault>> {
        self.space.walk_stripes[self.slot]
            .0
            .fetch_add(vas.len() as u64, Ordering::Relaxed);
        // SAFETY: as in `translate`; a single load is the whole point.
        let snap = unsafe { &*self.space.snapshot.load(Ordering::SeqCst) };
        vas.iter()
            .map(|&va| {
                if va & !VA_MASK != 0 {
                    return Err(Fault::NonCanonical { va });
                }
                walk(snap, va, access)
            })
            .collect()
    }

    /// Plan a TLB resynchronization (see [`AddressSpace::plan_sync`])
    /// without claiming another epoch pin.
    pub fn plan_sync(&self, seen_gen: u64) -> (u64, TlbSync) {
        let (current, plan, _) = self.space.plan_sync_pinned(seen_gen);
        (current, plan)
    }

    /// [`SpacePin::plan_sync`], plus the retired spans behind a `Full`
    /// plan the log still covers (see `plan_sync_pinned`).
    pub(crate) fn plan_sync_spans(&self, seen_gen: u64) -> (u64, TlbSync, Option<Vec<(u64, u64)>>) {
        self.space.plan_sync_pinned(seen_gen)
    }
}

impl Drop for SpacePin<'_> {
    fn drop(&mut self) {
        self.space.smr.leave(self.slot);
        if self.release_slot {
            self.space.release_slot(self.slot);
        }
    }
}

impl fmt::Debug for SpacePin<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpacePin")
            .field("slot", &self.slot)
            .finish()
    }
}

/// What [`AddressSpace::apply`] did.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Old leaves removed by `unmap_range`/`unmap_sparse`/`swap_frame`
    /// operations, in application order.
    pub removed: Vec<Pte>,
    /// Pages covered by the published invalidation set.
    pub pages_invalidated: u64,
    /// Generation bumps the batch published: 1, or 0 for a map-only
    /// batch.
    pub shootdowns: u64,
}

/// Walk an immutable snapshot (read-only; the caller holds an epoch
/// pin keeping `snap` alive): chase the tree to the address's
/// leaf-level node, then read its slot.
fn walk(snap: &SnapshotRoot, va: u64, access: Access) -> Result<Translation, Fault> {
    match leaf_of(&snap.root, va) {
        Some(leaf) => pte_in(leaf, snap.arch, va, access),
        None => Err(Fault::Unmapped { va }),
    }
}

/// Read `va`'s slot in its leaf-level node `leaf` and check `access`.
fn pte_in(leaf: &Node, arch: ArchKind, va: u64, access: Access) -> Result<Translation, Fault> {
    let pte = match leaf.get(level_index(va, LEVELS - 1)) {
        Some(Entry::Leaf(hw)) => arch.decode_owned(*hw),
        _ => return Err(Fault::Unmapped { va }),
    };
    check_access(va, &pte, access)?;
    Ok(Translation {
        pte,
        page_va: page_base(va),
    })
}

/// Most leaf nodes one [`LeafCache`] holds; a fill past it starts the
/// cache over.
const LEAF_CACHE_CAP: usize = 4096;

/// A per-TLB paging-structure cache: `(asid, va >> LEAF_SHIFT)` → the
/// leaf-level node a walk last reached for that 2 MiB region, so a
/// walk is one hash probe and one slot search instead of a five-level
/// chase (DESIGN.md §14.6).
///
/// Holding the `Arc` keeps the node alive without a pin. The node may
/// belong to an older snapshot than the current one; it stays exact
/// because the owning [`crate::Tlb`] invalidates it exactly as it
/// invalidates its cached translations:
///
/// * an unmap, protect or frame swap publishes its span in the
///   invalidation log, and the TLB's resynchronization drops every
///   cached leaf whose region the span touches — so a leaf never
///   serves a page changed since the generation the TLB is at;
/// * a map publishes no span, so a cached leaf may lack pages mapped
///   since: a slot the cached leaf does not hold is never trusted as a
///   fault, and the walk falls back to the tree and refreshes the leaf.
#[derive(Default)]
pub(crate) struct LeafCache {
    leaves: HashMap<(u16, u64), Arc<Node>, BuildPageHasher>,
}

impl fmt::Debug for LeafCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeafCache")
            .field("leaves", &self.leaves.len())
            .finish()
    }
}

impl LeafCache {
    /// Translate `va` in `pin`'s space, whose entries this cache tags
    /// `asid`: through the cached leaf of `va`'s region when it holds
    /// the page, else by walking the pinned snapshot and caching the
    /// leaf reached. Counts as one page-table walk. The caller must be
    /// synchronized with the space's current generation.
    pub(crate) fn walk(
        &mut self,
        pin: &SpacePin<'_>,
        asid: u16,
        va: u64,
        access: Access,
    ) -> Result<Translation, Fault> {
        if va & !VA_MASK != 0 {
            return Err(Fault::NonCanonical { va });
        }
        let space = pin.space;
        space.walk_stripes[pin.slot]
            .0
            .fetch_add(1, Ordering::Relaxed);
        let key = (asid, va >> LEAF_SHIFT);
        if let Some(leaf) = self.leaves.get(&key) {
            if leaf.get(level_index(va, LEVELS - 1)).is_some() {
                return pte_in(leaf, space.arch, va, access);
            }
        }
        // SAFETY: as in `SpacePin::translate`: `pin` entered its epoch
        // before this load and outlives the walk, so the root is not
        // reclaimed under it.
        let snap = unsafe { &*space.snapshot.load(Ordering::SeqCst) };
        let Some(leaf) = leaf_of(&snap.root, va) else {
            return Err(Fault::Unmapped { va });
        };
        if self.leaves.len() >= LEAF_CACHE_CAP {
            self.leaves.clear();
        }
        self.leaves.insert(key, leaf.clone());
        pte_in(leaf, snap.arch, va, access)
    }

    /// Drop `asid`'s leaves whose 2 MiB region meets any of the
    /// `[start, end)` `spans`.
    pub(crate) fn invalidate(&mut self, asid: u16, spans: &[(u64, u64)]) {
        if self.leaves.is_empty() {
            return;
        }
        let prefixes = |&(s, e): &(u64, u64)| (s >> LEAF_SHIFT)..=((e - 1) >> LEAF_SHIFT);
        let spans: Vec<(u64, u64)> = spans.iter().copied().filter(|&(s, e)| e > s).collect();
        let count: u64 = spans
            .iter()
            .map(|span| prefixes(span).end() - prefixes(span).start() + 1)
            .sum();
        if count <= self.leaves.len() as u64 {
            for span in &spans {
                for p in prefixes(span) {
                    self.leaves.remove(&(asid, p));
                }
            }
        } else {
            self.leaves
                .retain(|&(a, p), _| a != asid || !spans.iter().any(|s| prefixes(s).contains(&p)));
        }
    }

    /// Drop every leaf tagged `asid`.
    pub(crate) fn flush_asid(&mut self, asid: u16) {
        self.leaves.retain(|&(a, _), _| a != asid);
    }

    /// Drop everything.
    pub(crate) fn clear(&mut self) {
        self.leaves.clear();
    }
}

/// Sort and merge overlapping or adjacent `[start, end)` spans in
/// place. Per-page operations (the GOT swing emits one span per page)
/// collapse to one contiguous span, keeping resynchronization plans
/// compact — and under [`MAX_SYNC_SPANS`], where an uncoalesced list
/// would needlessly degrade lagging TLBs to full flushes.
fn coalesce_spans(spans: &mut Vec<(u64, u64)>) {
    if spans.len() < 2 {
        return;
    }
    spans.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for &(start, end) in spans.iter() {
        match merged.last_mut() {
            Some((_, prev_end)) if start <= *prev_end => *prev_end = (*prev_end).max(end),
            _ => merged.push((start, end)),
        }
    }
    *spans = merged;
}

fn check_va(va: u64) -> Result<(), Fault> {
    if va & !VA_MASK != 0 {
        return Err(Fault::NonCanonical { va });
    }
    debug_assert_eq!(page_offset(va), 0, "page-aligned address required");
    Ok(())
}

/// Bytes of VA one slot covers at `level`.
fn slot_span(level: u32) -> u64 {
    1 << (PAGE_SHIFT + 9 * (LEVELS - 1 - level))
}

/// Append every leaf below `node` to `out`, in VA order.
fn collect_leaves(node: &Node, out: &mut Vec<HwPte>) {
    for (_, e) in node.slots() {
        match e {
            Entry::Leaf(hw) => out.push(*hw),
            Entry::Table(t) => collect_leaves(t, out),
        }
    }
}

/// The slot indices of a node at `level` covering VAs from `base` that
/// meet `[start, end)`.
fn slots_meeting(level: u32, base: u64, start: u64, end: u64) -> std::ops::RangeInclusive<usize> {
    let span = slot_span(level);
    let first = (start.max(base) - base) / span;
    let last = ((end - 1).min(base + 512 * span - 1) - base) / span;
    first as usize..=last as usize
}

/// Whether any leaf below `node` (at `level`, covering VAs from `base`)
/// lies in `[start, end)`.
fn maps_any(node: &Node, level: u32, base: u64, start: u64, end: u64) -> bool {
    slots_meeting(level, base, start, end).any(|idx| match node.get(idx) {
        None => false,
        Some(Entry::Leaf(_)) => true,
        Some(Entry::Table(t)) => {
            let lo = base + idx as u64 * slot_span(level);
            maps_any(t, level + 1, lo, start, end)
        }
    })
}

/// Whether every leaf below `node` (at `level`, covering VAs from
/// `base`) lies in `[start, end)`. Published tables are never empty, so
/// an occupied slot wholly outside the range proves a leaf outside it.
fn maps_only_within(node: &Node, level: u32, base: u64, start: u64, end: u64) -> bool {
    let span = slot_span(level);
    node.slots().all(|(idx, e)| {
        let lo = base + u64::from(*idx) * span;
        if start <= lo && lo + span <= end {
            return true;
        }
        match e {
            Entry::Table(t) if lo < end && start < lo + span => {
                maps_only_within(t, level + 1, lo, start, end)
            }
            _ => false,
        }
    })
}

/// Remove every leaf in `[start, end)` below `node` (at `level`,
/// covering VAs from `base`), appending the removed leaves to `out` in
/// VA order. A table all of whose leaves the range removes leaves its
/// parent whole, uncopied; a table the range only clips is copied only
/// if it maps something there; emptied tables are pruned.
fn clear(
    node: &mut Node,
    level: u32,
    base: u64,
    (start, end): (u64, u64),
    copied: &mut u64,
    out: &mut Vec<HwPte>,
) {
    for idx in slots_meeting(level, base, start, end) {
        let lo = base + idx as u64 * slot_span(level);
        let prune = match node.get(idx) {
            None => continue,
            Some(Entry::Leaf(hw)) => {
                out.push(*hw);
                true
            }
            Some(Entry::Table(t)) if maps_only_within(t, level + 1, lo, start, end) => {
                collect_leaves(t, out);
                true
            }
            Some(Entry::Table(t)) if !maps_any(t, level + 1, lo, start, end) => continue,
            Some(Entry::Table(_)) => {
                let Some(Entry::Table(t)) = node.get_mut(idx, copied) else {
                    unreachable!("slot just read as a table");
                };
                let child = cow(t, Node::copy_cost, copied);
                clear(child, level + 1, lo, (start, end), copied, out);
                child.is_empty()
            }
        };
        if prune {
            let pos = find(node.slots_of(idx), idx).expect("slot just read");
            node.remove_at(idx, pos, copied);
        }
    }
}

/// A write transaction's private tree and the slots copying it has
/// cost so far (see [`SpaceStats::slots_copied`]).
struct Scratch {
    root: Node,
    copied: u64,
}

/// The node at `level` (≥ 1) on `va`'s path in a scratch tree,
/// mutable: shared nodes on the way are copied, missing ones created
/// when `create`.
fn path_mut<'a>(
    root: &'a mut Node,
    copied: &mut u64,
    va: u64,
    level: u32,
    create: bool,
) -> Result<&'a mut Node, Fault> {
    let mut cur = root;
    for l in 0..level {
        let idx = level_index(va, l);
        let entry = if create {
            Some(cur.get_or_insert_with(idx, || Entry::Table(Arc::default()), copied))
        } else {
            cur.get_mut(idx, copied)
        };
        cur = match entry {
            Some(Entry::Table(t)) => cow(t, Node::copy_cost, copied),
            Some(Entry::Leaf(_)) if create => return Err(Fault::AlreadyMapped { va }),
            _ => return Err(Fault::Unmapped { va }),
        };
    }
    Ok(cur)
}

impl Scratch {
    /// Map the arch-encoded leaf `hw` at `va`, creating (or
    /// path-copying) intermediate tables.
    fn map(&mut self, va: u64, hw: HwPte) -> Result<(), Fault> {
        let Scratch { root, copied } = self;
        let leaf = path_mut(root, copied, va, LEVELS - 1, true)?;
        let idx = level_index(va, LEVELS - 1);
        if leaf.get(idx).is_some() {
            return Err(Fault::AlreadyMapped { va });
        }
        leaf.get_or_insert_with(idx, || Entry::Leaf(hw), copied);
        Ok(())
    }

    /// Remove the leaf at `va`, path-copying on the way down and
    /// pruning emptied tables on the way up. A hole copies nothing.
    fn unmap(&mut self, va: u64) -> Result<HwPte, Fault> {
        fn remove(cur: &mut Node, va: u64, level: u32, copied: &mut u64) {
            let idx = level_index(va, level);
            let pos = find(cur.slots_of(idx), idx).expect("path checked before removal");
            let prune = match &mut cur.slots_of_mut(idx, copied)[pos].1 {
                Entry::Table(t) => {
                    let node = cow(t, Node::copy_cost, copied);
                    remove(node, va, level + 1, copied);
                    node.is_empty()
                }
                Entry::Leaf(_) => true,
            };
            if prune {
                cur.remove_at(idx, pos, copied);
            }
        }
        let hw = match leaf_of(&self.root, va).and_then(|l| l.get(level_index(va, LEVELS - 1))) {
            Some(Entry::Leaf(hw)) => *hw,
            _ => return Err(Fault::Unmapped { va }),
        };
        remove(&mut self.root, va, 0, &mut self.copied);
        Ok(hw)
    }

    /// Remove every leaf in the `pages` pages from `va`, skipping
    /// holes (and any page past the canonical range); returns the
    /// removed leaves in VA order. One descent for the whole run.
    fn clear(&mut self, va: u64, pages: usize) -> Vec<HwPte> {
        let end = va
            .saturating_add((pages * PAGE_SIZE) as u64)
            .min(VA_MASK + 1);
        let mut out = Vec::new();
        if va < end {
            clear(&mut self.root, 0, 0, (va, end), &mut self.copied, &mut out);
        }
        out
    }

    /// The mapped leaf at `va`, mutable.
    fn leaf_mut(&mut self, va: u64) -> Result<&mut HwPte, Fault> {
        let Scratch { root, copied } = self;
        let node = path_mut(root, copied, va, LEVELS - 1, false)?;
        match node.get_mut(level_index(va, LEVELS - 1), copied) {
            Some(Entry::Leaf(hw)) => Ok(hw),
            _ => Err(Fault::Unmapped { va }),
        }
    }

    /// Change the permissions of the leaf at `va`: decode the stored
    /// encoding, swap the abstract flags, re-encode under the same arch.
    fn protect(&mut self, va: u64, flags: PteFlags, arch: ArchKind) -> Result<(), Fault> {
        let hw = self.leaf_mut(va)?;
        let mut pte = arch.decode_owned(*hw);
        pte.flags = flags;
        *hw = arch.encode(pte);
        Ok(())
    }

    /// Swap the leaf at `va` for the arch-encoded `new`, returning the
    /// old encoded leaf.
    fn replace(&mut self, va: u64, new: HwPte) -> Result<HwPte, Fault> {
        let hw = self.leaf_mut(va)?;
        Ok(std::mem::replace(hw, new))
    }
}

fn check_access(va: u64, pte: &Pte, access: Access) -> Result<(), Fault> {
    match access {
        Access::Read => Ok(()),
        Access::Write => {
            if pte.flags.writable() {
                Ok(())
            } else {
                Err(Fault::NotWritable { va })
            }
        }
        Access::Exec => {
            if let PteKind::Mmio { .. } = pte.kind {
                return Err(Fault::MmioExec { va });
            }
            if pte.flags.executable() {
                Ok(())
            } else {
                Err(Fault::NotExecutable { va })
            }
        }
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("generation", &self.generation())
            .field("arch", &self.arch)
            .field("asid", &self.asid)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VA: u64 = 0x00ab_cdef_0012_3000;

    /// Map `pages` fresh data frames from `va`, in one batch.
    fn map_fresh(space: &AddressSpace, phys: &PhysMem, va: u64, pages: usize) {
        let pfns = phys.alloc_n(pages);
        space
            .apply(Batch::new().map_range(va, &pfns, PteFlags::DATA))
            .unwrap();
    }

    #[test]
    fn map_translate_unmap() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfn = phys.alloc();
        space
            .apply(Batch::new().map_page(VA, pfn, PteFlags::DATA))
            .unwrap();
        let t = space.translate(VA + 0x123, Access::Read).unwrap();
        assert_eq!(t.pte.kind, PteKind::Frame(pfn));
        assert_eq!(t.page_va, VA);
        assert_eq!(
            space
                .apply(Batch::new().map_page(VA, pfn, PteFlags::DATA))
                .unwrap_err(),
            Fault::AlreadyMapped { va: VA }
        );
        let out = space.apply(Batch::new().unmap_range(VA, 1)).unwrap();
        assert_eq!(out.removed[0].kind, PteKind::Frame(pfn));
        assert_eq!(
            space.translate(VA, Access::Read),
            Err(Fault::Unmapped { va: VA })
        );
    }

    #[test]
    fn permissions_enforced() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfn = phys.alloc();
        space
            .apply(Batch::new().map_page(VA, pfn, PteFlags::RO_DATA))
            .unwrap();
        assert!(space.translate(VA, Access::Read).is_ok());
        assert_eq!(
            space.translate(VA, Access::Write),
            Err(Fault::NotWritable { va: VA })
        );
        assert_eq!(
            space.translate(VA, Access::Exec),
            Err(Fault::NotExecutable { va: VA })
        );
        // Text pages execute but don't write.
        space
            .apply(Batch::new().protect_range(VA, 1, PteFlags::TEXT))
            .unwrap();
        assert!(space.translate(VA, Access::Exec).is_ok());
        assert_eq!(
            space.translate(VA, Access::Write),
            Err(Fault::NotWritable { va: VA })
        );
    }

    #[test]
    fn zero_copy_alias_sees_same_bytes() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfn = phys.alloc();
        space
            .apply(Batch::new().map_page(VA, pfn, PteFlags::DATA))
            .unwrap();
        let alias = 0x0044_0000_0000_0000u64;
        space
            .apply(Batch::new().map_page(alias, pfn, PteFlags::DATA))
            .unwrap();
        space.write_u64(&phys, VA + 8, 77).unwrap();
        assert_eq!(space.read_u64(&phys, alias + 8).unwrap(), 77);
    }

    #[test]
    fn cross_page_rw() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 2);
        let data: Vec<u8> = (0..100).collect();
        let start = VA + PAGE_SIZE as u64 - 50;
        space.write_bytes(&phys, start, &data).unwrap();
        let mut back = vec![0u8; 100];
        space.read_bytes(&phys, start, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn shootdown_generation() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let g0 = space.generation();
        let pfn = phys.alloc();
        space
            .apply(Batch::new().map_page(VA, pfn, PteFlags::DATA))
            .unwrap();
        assert_eq!(space.generation(), g0, "map does not shoot down");
        space
            .apply(Batch::new().protect_range(VA, 1, PteFlags::RO_DATA))
            .unwrap();
        assert!(space.generation() > g0, "protect shoots down");
        let g1 = space.generation();
        space.apply(Batch::new().unmap_range(VA, 1)).unwrap();
        assert!(space.generation() > g1, "unmap shoots down");
    }

    #[test]
    fn unmap_range_batches_shootdown() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 8);
        let g0 = space.generation();
        // A range running into a hole fails whole: no page of it is
        // unmapped and nothing is shot down.
        let err = space.apply(Batch::new().unmap_range(VA + 4 * PAGE_SIZE as u64, 5));
        assert_eq!(
            err.unwrap_err(),
            Fault::Unmapped {
                va: VA + 8 * PAGE_SIZE as u64
            }
        );
        assert_eq!(space.generation(), g0);
        assert!(space.maps_any(VA + 7 * PAGE_SIZE as u64, 1));
        let out = space.apply(Batch::new().unmap_range(VA, 8)).unwrap();
        assert_eq!(out.removed.len(), 8);
        assert_eq!(space.generation(), g0 + 1, "one shootdown for the range");
    }

    #[test]
    fn replace_swaps_frames_atomically() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let a = phys.alloc();
        let b = phys.alloc();
        phys.write_u64(a, 0, 1);
        phys.write_u64(b, 0, 2);
        space
            .apply(Batch::new().map_page(VA, a, PteFlags::RO_DATA))
            .unwrap();
        assert_eq!(space.read_u64(&phys, VA).unwrap(), 1);
        let g0 = space.generation();
        let out = space
            .apply(Batch::new().swap_frame(VA, b, PteFlags::RO_DATA))
            .unwrap();
        assert_eq!(out.removed[0].kind, PteKind::Frame(a));
        assert_eq!(space.read_u64(&phys, VA).unwrap(), 2);
        assert!(space.generation() > g0, "replace shoots down");
        assert_eq!(
            space
                .apply(Batch::new().swap_frame(VA + 0x1000, b, PteFlags::RO_DATA))
                .unwrap_err(),
            Fault::Unmapped { va: VA + 0x1000 }
        );
    }

    #[test]
    fn mmio_leaves() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        space
            .apply(Batch::new().map_mmio(VA, 3, 0, PteFlags::DATA))
            .unwrap();
        let t = space.translate(VA, Access::Write).unwrap();
        assert_eq!(t.pte.kind, PteKind::Mmio { dev: 3, page: 0 });
        assert_eq!(space.read_u64(&phys, VA), Err(Fault::MmioData { va: VA }));
        assert_eq!(
            space.translate(VA, Access::Exec),
            Err(Fault::MmioExec { va: VA })
        );
    }

    #[test]
    fn non_canonical_rejected() {
        let space = AddressSpace::new();
        let phys = PhysMem::new();
        let bad = 1u64 << 60;
        assert_eq!(
            space
                .apply(Batch::new().map_page(bad, phys.alloc(), PteFlags::DATA))
                .unwrap_err(),
            Fault::NonCanonical { va: bad }
        );
        assert_eq!(
            space.translate(bad, Access::Read),
            Err(Fault::NonCanonical { va: bad })
        );
    }

    #[test]
    fn batch_applies_with_one_shootdown() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 4);
        let g0 = space.generation();
        let swap = phys.alloc();
        let mut batch = Batch::new();
        batch
            .map_range(VA + 0x10_0000, &phys.alloc_n(2), PteFlags::TEXT)
            .unmap_range(VA, 2)
            .protect_range(VA + 2 * PAGE_SIZE as u64, 2, PteFlags::RO_DATA)
            .swap_frame(VA + 3 * PAGE_SIZE as u64, swap, PteFlags::RO_DATA);
        let outcome = space.apply(&batch).unwrap();
        assert_eq!(space.generation(), g0 + 1, "one bump for the whole batch");
        assert_eq!(outcome.shootdowns, 1);
        assert_eq!(outcome.removed.len(), 3, "2 unmapped + 1 swapped-out");
        assert_eq!(outcome.pages_invalidated, 2 + 2 + 1);
        assert!(space.translate(VA, Access::Read).is_err());
        assert!(space.translate(VA + 0x10_0000, Access::Exec).is_ok());
        assert_eq!(
            space
                .translate(VA + 2 * PAGE_SIZE as u64, Access::Read)
                .unwrap()
                .pte
                .flags,
            PteFlags::RO_DATA
        );
        assert_eq!(
            space
                .translate(VA + 3 * PAGE_SIZE as u64, Access::Read)
                .unwrap()
                .pte
                .kind,
            PteKind::Frame(swap)
        );
    }

    #[test]
    fn failed_batch_rolls_back_completely() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfns = phys.alloc_n(2);
        space
            .apply(Batch::new().map_range(VA, &pfns, PteFlags::DATA))
            .unwrap();
        let g0 = space.generation();
        let s0 = space.stats();
        let mut batch = Batch::new();
        batch
            .unmap_range(VA, 2)
            .protect_range(VA + 0x20_0000, 1, PteFlags::TEXT) // unmapped → faults
            .map_page(VA + 0x30_0000, phys.alloc(), PteFlags::DATA);
        let err = space.apply(&batch).unwrap_err();
        assert!(matches!(err, Fault::Unmapped { .. }));
        // Atomicity: the scratch snapshot with the applied unmap was
        // discarded, no generation bump was published, and the stats
        // saw nothing.
        assert_eq!(space.generation(), g0);
        assert_eq!(space.stats().pages_unmapped, s0.pages_unmapped);
        assert_eq!(
            space.stats().snapshot_publishes,
            s0.snapshot_publishes,
            "a failed batch publishes no snapshot"
        );
        for (i, &pfn) in pfns.iter().enumerate() {
            let t = space
                .translate(VA + (i * PAGE_SIZE) as u64, Access::Read)
                .unwrap();
            assert_eq!(t.pte.kind, PteKind::Frame(pfn));
        }
        assert!(space.translate(VA + 0x30_0000, Access::Read).is_err());
    }

    #[test]
    fn map_only_batch_publishes_no_shootdown() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let g0 = space.generation();
        let mut batch = Batch::new();
        batch.map_range(VA, &phys.alloc_n(3), PteFlags::DATA);
        let outcome = space.apply(&batch).unwrap();
        assert_eq!(outcome.shootdowns, 0);
        assert_eq!(space.generation(), g0, "pure maps invalidate nothing");
    }

    #[test]
    fn same_epoch_batches_coalesce_into_one_log_slot() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 4);
        let mut a = Batch::with_epoch(Some(7));
        a.unmap_range(VA, 2);
        let mut b = Batch::with_epoch(Some(7));
        b.unmap_range(VA + 2 * PAGE_SIZE as u64, 2);
        let seen = space.generation();
        space.apply(&a).unwrap();
        space.apply(&b).unwrap();
        assert_eq!(space.generation(), seen + 2, "each batch still bumps");
        assert_eq!(space.stats().coalesced_shootdowns, 1, "but slots merged");
        // A TLB that lagged across the whole epoch resynchronizes with
        // one merged partial pass; the two adjacent batch spans have
        // been coalesced into a single contiguous span.
        match space.plan_sync(seen) {
            (cur, TlbSync::Ranges(spans)) => {
                assert_eq!(cur, seen + 2);
                assert_eq!(spans, vec![(VA, VA + 4 * PAGE_SIZE as u64)]);
            }
            other => panic!("expected ranges, got {other:?}"),
        }
    }

    /// Regression: a range op whose *tail* crosses the canonical
    /// boundary used to pass the base-only check and alias low
    /// canonical addresses through the masked radix walk — unmapping a
    /// victim page with no covering invalidation span.
    #[test]
    fn batch_range_crossing_canonical_boundary_is_rejected() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let victim = 0x1000u64;
        map_fresh(&space, &phys, victim, 1);
        let edge = (VA_MASK + 1) - PAGE_SIZE as u64; // last canonical page
        for build in [
            |b: &mut Batch, va: u64| {
                b.unmap_sparse(va, 3);
            },
            |b: &mut Batch, va: u64| {
                b.unmap_range(va, 3);
            },
            |b: &mut Batch, va: u64| {
                b.protect_range(va, 3, PteFlags::RO_DATA);
            },
        ] {
            let mut batch = Batch::new();
            build(&mut batch, edge);
            assert!(matches!(
                space.apply(&batch),
                Err(Fault::NonCanonical { .. })
            ));
        }
        // Overflowing the address space entirely is rejected too.
        let mut batch = Batch::new();
        batch.unmap_sparse(edge, usize::MAX / PAGE_SIZE);
        assert!(matches!(
            space.apply(&batch),
            Err(Fault::NonCanonical { .. })
        ));
        // The victim never lost its mapping.
        assert!(space.translate(victim, Access::Read).is_ok());
    }

    /// A per-page op burst (the GOT-swing shape) must not trip the
    /// span ceiling: adjacent single-page spans coalesce at
    /// publication, so the partial-flush path survives batches far
    /// wider than `MAX_SYNC_SPANS`.
    #[test]
    fn per_page_spans_coalesce_below_the_sync_ceiling() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pages = 128; // 2× MAX_SYNC_SPANS
        map_fresh(&space, &phys, VA, pages);
        let seen = space.generation();
        let mut batch = Batch::new();
        for i in 0..pages {
            batch.swap_frame(VA + (i * PAGE_SIZE) as u64, phys.alloc(), PteFlags::RO_DATA);
        }
        space.apply(&batch).unwrap();
        match space.plan_sync(seen) {
            (_, TlbSync::Ranges(spans)) => {
                assert_eq!(spans, vec![(VA, VA + (pages * PAGE_SIZE) as u64)]);
            }
            other => panic!("128 adjacent page spans must coalesce, got {other:?}"),
        }
    }

    #[test]
    fn plan_sync_degrades_to_full_past_the_horizon() {
        let phys = PhysMem::new();
        let space = AddressSpace::with_space_config(SpaceConfig {
            inval_log: 2,
            ..SpaceConfig::new()
        });
        map_fresh(&space, &phys, VA, 8);
        let seen = space.generation();
        for i in 0..4u64 {
            space
                .apply(Batch::new().unmap_range(VA + i * PAGE_SIZE as u64, 1))
                .unwrap();
        }
        assert!(matches!(space.plan_sync(seen), (_, TlbSync::Full)));
        // A fresh snapshot within the horizon gets ranges.
        let recent = space.generation() - 1;
        assert!(matches!(
            space.plan_sync(recent),
            (_, TlbSync::Ranges(ref s)) if s.len() == 1
        ));
        assert!(matches!(
            space.plan_sync(space.generation()),
            (_, TlbSync::Current)
        ));
    }

    #[test]
    fn stats_track_activity() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 3);
        space.apply(Batch::new().unmap_range(VA, 1)).unwrap();
        let s = space.stats();
        assert_eq!(s.pages_mapped, 3);
        assert_eq!(s.pages_unmapped, 1);
        assert!(s.walks > 0 || s.shootdowns > 0);
    }

    /// Every write transaction publishes exactly one snapshot, retires
    /// exactly one root, and (once readers quiesce) every retired root
    /// is reclaimed.
    #[test]
    fn snapshot_reclaim_accounting() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 1);
        space
            .apply(Batch::new().protect_range(VA, 1, PteFlags::RO_DATA))
            .unwrap();
        space.apply(Batch::new().unmap_range(VA, 1)).unwrap();
        let mut batch = Batch::new();
        batch.map_range(VA, &phys.alloc_n(2), PteFlags::DATA);
        space.apply(&batch).unwrap();
        let s = space.stats();
        assert_eq!(s.snapshot_publishes, 4, "one publication per transaction");
        space.flush_snapshots();
        let smr = space.snapshot_smr();
        assert_eq!(smr.delta(), 0, "all retired roots reclaimed at quiescence");
        assert_eq!(
            space.stats().snapshots_reclaimed,
            s.snapshot_publishes,
            "each publication retired exactly one predecessor root"
        );
    }

    /// A reader pinned across a publication keeps its snapshot alive:
    /// the root it loaded is not reclaimed until the pin drops.
    #[test]
    fn pinned_reader_blocks_snapshot_reclaim() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        map_fresh(&space, &phys, VA, 1);
        let before = space.stats().snapshots_reclaimed;
        let pin = space.pin();
        assert!(pin.translate(VA, Access::Read).is_ok());
        // Publish twice while the reader is pinned.
        space
            .apply(Batch::new().protect_range(VA, 1, PteFlags::RO_DATA))
            .unwrap();
        space
            .apply(Batch::new().protect_range(VA, 1, PteFlags::DATA))
            .unwrap();
        space.flush_snapshots();
        // The pinned epoch blocks at least the roots retired since it
        // entered (EBR: nothing retired after the pin may be freed).
        assert!(
            space.stats().snapshots_reclaimed < before + 2,
            "a pinned reader must hold back retired roots"
        );
        // The old snapshot is still walkable through the live pin.
        assert!(pin.translate(VA, Access::Read).is_ok());
        drop(pin);
        space.flush_snapshots();
        assert_eq!(space.snapshot_smr().delta(), 0);
    }

    /// A zero-slot invalidation log cannot record a shootdown (the ring
    /// index is `k % capacity`), so construction rejects it up front.
    #[test]
    #[should_panic(expected = "inval_log must be at least 1")]
    fn zero_capacity_inval_log_is_rejected() {
        let _ = AddressSpace::with_space_config(SpaceConfig {
            inval_log: 0,
            ..SpaceConfig::new()
        });
    }

    /// `maps_any` answers what a walk per page would: across a 2 MiB
    /// prefix boundary, around holes, and for empty ranges.
    #[test]
    fn maps_any_matches_a_walk_per_page() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let boundary = 0x00ab_cdef_0000_0000u64 + (1 << LEAF_SHIFT);
        let page = |i: i64| boundary.wrapping_add_signed(i * PAGE_SIZE as i64);
        for i in [-2i64, 1, 3] {
            map_fresh(&space, &phys, page(i), 1);
        }
        for start in -6i64..6 {
            for pages in 0..6usize {
                let va = page(start);
                let walked = (0..pages).any(|k| {
                    space
                        .translate(va + (k * PAGE_SIZE) as u64, Access::Read)
                        .is_ok()
                });
                assert_eq!(space.maps_any(va, pages), walked, "{start} + {pages}");
            }
        }
        space.apply(Batch::new().unmap_range(page(3), 1)).unwrap();
        assert!(!space.maps_any(page(2), 4));
        assert!(space.maps_any(page(-3), 2));
    }

    /// A leaf-cache walk must agree with the tree walk after every
    /// kind of mutation — single ops, ranges, sparse unmaps, and
    /// batches that cross 2 MiB prefix boundaries — once the owning
    /// TLB has resynchronized, which is the only state in which
    /// [`crate::Tlb::walk`] consults the cache. Maps publish no
    /// invalidation span, so the remap at the end exercises the
    /// fall-back to the tree for slots a cached leaf lacks.
    #[test]
    fn leaf_cache_matches_tree_walk() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let mut tlb = crate::Tlb::new();
        // 5 pages straddling a 2 MiB prefix boundary: 3 below, 2 above.
        let base = 0x00ab_cdef_0000_0000 + (1u64 << LEAF_SHIFT) - 3 * PAGE_SIZE as u64;
        let pfns: Vec<Pfn> = (0..5).map(|_| phys.alloc()).collect();
        space
            .apply(Batch::new().map_range(base, &pfns[..4], PteFlags::DATA))
            .unwrap();
        let mut probe = |va: u64, access: Access| {
            let mut reader = space.reader();
            let pin = reader.pin();
            tlb.lookup_pinned(va, &pin);
            assert_eq!(
                tlb.walk(&pin, va, access),
                pin.translate(va, access),
                "leaf cache / tree divergence at {va:#x}"
            );
        };
        let pages: Vec<u64> = (0..5).map(|i| base + (i * PAGE_SIZE) as u64).collect();
        for &va in &pages {
            probe(va, Access::Read);
            probe(va, Access::Exec);
        }
        // The fifth page is mapped after both leaves were cached.
        space
            .apply(Batch::new().map_page(pages[4], pfns[4], PteFlags::DATA))
            .unwrap();
        probe(pages[4], Access::Read);
        // Protect one page on each side of the boundary, unmap the
        // middle, and re-check every probe plus never-mapped neighbors.
        space
            .apply(Batch::new().protect_range(pages[0], 1, PteFlags::RO_DATA))
            .unwrap();
        space
            .apply(Batch::new().protect_range(pages[4], 1, PteFlags::TEXT))
            .unwrap();
        space.apply(Batch::new().unmap_range(pages[2], 1)).unwrap();
        space.apply(Batch::new().unmap_sparse(pages[1], 1)).unwrap();
        for &va in &pages {
            probe(va, Access::Read);
            probe(va, Access::Write);
        }
        probe(base - PAGE_SIZE as u64, Access::Read);
        probe(base + (8 * PAGE_SIZE) as u64, Access::Read);
        // Tear the rest down, then map a page back into an emptied
        // region: the walk must find it, not the torn-down leaf.
        space.apply(Batch::new().unmap_range(pages[3], 2)).unwrap();
        space.apply(Batch::new().unmap_range(pages[0], 1)).unwrap();
        for &va in &pages {
            probe(va, Access::Read);
        }
        space
            .apply(Batch::new().map_page(pages[2], pfns[2], PteFlags::DATA))
            .unwrap();
        for &va in &pages {
            probe(va, Access::Read);
        }
    }

    /// Copied slots count what a transaction copies, and no more: a
    /// chunked root costs its chunk pointers plus the one chunk a write
    /// touches however many slots it holds, and an unmap of a hole
    /// copies nothing.
    #[test]
    fn slots_copied_is_bounded_by_the_touched_path() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let copied = |f: &dyn Fn()| {
            let before = space.stats().slots_copied;
            f();
            space.stats().slots_copied - before
        };
        let map = |va: u64| {
            map_fresh(&space, &phys, va, 1);
        };
        // 300 top-level regions: the root chunks.
        for i in 0..300u64 {
            map(i << 48);
        }
        // A fresh region: the root's chunk pointers plus one chunk.
        let n = copied(&|| map(400 << 48));
        assert!(n <= (CHUNKS + CHUNK) as u64, "{n} slots copied");
        // A page beside a mapped one: also one leaf-level path, each
        // node on it holding one slot.
        let n = copied(&|| map((7 << 48) + 0x1000));
        assert!(n <= (CHUNKS + CHUNK + 4) as u64, "{n} slots copied");
        // A hole: nothing to unmap, so the path is left shared and no
        // snapshot is published.
        let publishes = space.stats().snapshot_publishes;
        let n = copied(&|| {
            let out = space.apply(Batch::new().unmap_sparse(3 << 48 | 0x5000, 1));
            assert!(out.unwrap().removed.is_empty());
        });
        assert_eq!(space.stats().snapshot_publishes, publishes);
        assert_eq!(n, 0);
    }

    /// Sparse nodes prune to nothing: tearing down every mapping —
    /// scattered parts, a full 512-page leaf, and holes skipped by
    /// `unmap_sparse` — leaves a root with no children, so no emptied
    /// table lingers in any snapshot.
    #[test]
    fn full_teardown_leaves_an_empty_root() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let full = 0x0012_3440_0000_0000u64;
        map_fresh(&space, &phys, full, 512);
        let scattered = [VA, 0x0100_0000_0000_0000, 0x0000_0000_0020_0000];
        for &va in &scattered {
            space
                .apply(Batch::new().map_range(va, &phys.alloc_n(3), PteFlags::TEXT))
                .unwrap();
        }
        let mut batch = Batch::new();
        batch.unmap_range(full, 256).unmap_sparse(full, 512);
        for &va in &scattered {
            batch.unmap_sparse(va - PAGE_SIZE as u64, 5);
        }
        assert_eq!(space.apply(&batch).unwrap().removed.len(), 512 + 3 * 3);
        let snap = unsafe { &*space.snapshot.load(Ordering::SeqCst) };
        assert!(
            snap.root.is_empty(),
            "root kept {} children",
            snap.root.len()
        );
        for va in [full, full + 511 * PAGE_SIZE as u64, VA] {
            assert_eq!(
                space.translate(va, Access::Read),
                Err(Fault::Unmapped { va })
            );
        }
    }

    /// One batch = one snapshot-root load: results are positional,
    /// identical to N singles against an unchanging space, and a batch
    /// can never mix two published generations.
    #[test]
    fn translate_batch_matches_singles() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfns: Vec<Pfn> = (0..4).map(|_| phys.alloc()).collect();
        space
            .apply(Batch::new().map_range(VA, &pfns[..3], PteFlags::DATA))
            .unwrap();
        let vas = [
            VA + 0x10,
            VA + PAGE_SIZE as u64,
            VA + (3 * PAGE_SIZE) as u64, // unmapped
            0xffff_0000_0000_0000,       // non-canonical
            VA + (2 * PAGE_SIZE) as u64,
        ];
        let batch = space.translate_batch(&vas, Access::Read);
        assert_eq!(batch.len(), vas.len());
        for (i, va) in vas.iter().enumerate() {
            assert_eq!(batch[i], space.translate(*va, Access::Read), "index {i}");
        }
        // The root is loaded once per batch *call*, not per pin: a
        // batch issued after a publish sees the new root even through a
        // pre-existing pin (the pin guards reclamation, not staleness).
        let pin = space.pin();
        space.apply(Batch::new().unmap_range(VA, 1)).unwrap();
        assert!(pin.translate_batch(&vas[..1], Access::Read)[0].is_err());
        drop(pin);
        assert!(space.translate_batch(&vas[..1], Access::Read)[0].is_err());
    }

    /// Long-lived read handles recycle their claimed slots.
    #[test]
    fn reader_slots_recycle() {
        let space = AddressSpace::new();
        let first = {
            let mut r = space.reader();
            let pin = r.pin();
            drop(pin);
            format!("{r:?}")
        };
        // After dropping, claiming again must succeed (and readers far
        // in excess of the slot count work fine sequentially).
        for _ in 0..READER_SLOTS * 2 {
            let mut r = space.reader();
            let _pin = r.pin();
        }
        let _ = first;
    }
}
