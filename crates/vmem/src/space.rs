//! The address space: a 5-level radix page table with permission bits,
//! aliased (zero-copy) mappings, MMIO leaves, batched mutation
//! ([`Batch`] / [`AddressSpace::apply`]), and a bounded *invalidation
//! log* that lets TLBs do range-based shootdown instead of whole-TLB
//! flushes (see [`crate::Tlb`]).
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

/// Bits below the flat-directory prefix: one prefix names one
/// leaf-level radix node (512 pages = 2 MiB of virtual space).
const FLAT_SHIFT: u32 = PAGE_SHIFT + 9;

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

/// One radix node of an immutable snapshot: its occupied slots only,
/// sorted by slot index (an absent index is an empty slot). Interior
/// children are `Arc`-shared: a write transaction path-copies only the
/// nodes it touches and shares every untouched subtree with the
/// previous snapshot. Writers reach a child through `Arc::make_mut`: a
/// node created in this transaction (refcount 1) is mutated in place,
/// one shared with the published snapshot (which stays alive for the
/// whole transaction) is copied first. Because only occupied slots are
/// stored, that copy, a prune check and a drop cost O(children), not
/// O(512) — and PIC placement anywhere in the 57-bit space leaves most
/// interior nodes holding one or two children.
#[derive(Clone, Default)]
struct Node {
    slots: Vec<(u16, Entry)>,
}

impl Node {
    /// Position of slot `idx` in `slots`, or where it would go.
    fn find(&self, idx: usize) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&(idx as u16), |&(i, _)| i)
    }

    fn get(&self, idx: usize) -> Option<&Entry> {
        self.find(idx).ok().map(|pos| &self.slots[pos].1)
    }

    fn get_mut(&mut self, idx: usize) -> Option<&mut Entry> {
        let pos = self.find(idx).ok()?;
        Some(&mut self.slots[pos].1)
    }

    /// The entry at `idx`, first filling an empty slot with `make()`.
    fn get_or_insert_with(&mut self, idx: usize, make: impl FnOnce() -> Entry) -> &mut Entry {
        let pos = self.find(idx).unwrap_or_else(|pos| {
            self.slots.insert(pos, (idx as u16, make()));
            pos
        });
        &mut self.slots[pos].1
    }

    /// Whether no slot is occupied (so the node can be pruned).
    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// What writers publish and readers load: the radix tree plus a
/// **flattened leaf directory** mapping `va >> FLAT_SHIFT` prefixes
/// straight to the `Arc` of the leaf-level node holding that 2 MiB
/// region's PTEs. A translation is then one hash probe plus one slot
/// read — ≤2 pointer chases — instead of a 5-level chase. The tree
/// stays the ground truth (writers path-copy it as before); the
/// directory is re-derived for exactly the prefixes a transaction
/// touched, at publish time, so the two views are equal by
/// construction in every published snapshot.
struct SnapshotRoot {
    /// The 5-level radix tree (ground truth; what the next write
    /// transaction shallow-clones).
    root: Node,
    /// `va >> FLAT_SHIFT` → leaf-level node. Shares the tree's nodes —
    /// an entry is exactly the `Arc` reachable by chasing the tree.
    flat: HashMap<u64, Arc<Node>, BuildPageHasher>,
    /// The backend whose bit layout every [`Entry::Leaf`] in this
    /// snapshot uses (walks need it to decode).
    arch: ArchKind,
}

/// Resolve the leaf-level node for `prefix` by chasing the tree — the
/// publish-time step that keeps the flat directory consistent. `None`
/// when the region is entirely unmapped (interior pruning removed it).
fn leaf_node_of(root: &Node, prefix: u64) -> Option<Arc<Node>> {
    let va = prefix << FLAT_SHIFT;
    let mut cur = root;
    for level in 0..LEVELS - 2 {
        cur = match cur.get(level_index(va, level)) {
            Some(Entry::Table(t)) => t,
            _ => return None,
        };
    }
    match cur.get(level_index(va, LEVELS - 2)) {
        Some(Entry::Table(t)) => Some(t.clone()),
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
pub struct SpaceConfig {
    /// Invalidation-log capacity in generations; must be at least 1.
    /// Defaults to [`DEFAULT_INVAL_LOG`].
    pub inval_log: usize,
    /// Reclamation domain guarding snapshot and log-slot lifetime.
    /// `None` creates a dedicated EBR domain with [`READER_SLOTS`]
    /// slots. This domain is distinct from the kernel's `mr_*` domain:
    /// reader pins last one walk, not one pending driver call.
    pub smr: Option<Arc<dyn Reclaimer>>,
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
    /// The default configuration: [`DEFAULT_INVAL_LOG`], dedicated EBR
    /// domain, environment-selected arch, freshly allocated ASID.
    pub fn new() -> SpaceConfig {
        SpaceConfig {
            inval_log: DEFAULT_INVAL_LOG,
            smr: None,
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

impl fmt::Debug for SpaceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceConfig")
            .field("inval_log", &self.inval_log)
            .field("arch", &self.arch)
            .field("asid", &self.asid)
            .finish()
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
    /// The currently-published snapshot (radix tree + flattened leaf
    /// directory). Readers load this while epoch-pinned; the pointee is
    /// owned by `writer.current` (or by a pending reclamation closure
    /// once superseded).
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
    smr: Arc<dyn Reclaimer>,
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
        AddressSpace::with_inval_log(DEFAULT_INVAL_LOG)
    }

    /// Create an empty address space whose invalidation log holds
    /// `capacity` generations — a small ring lets tests lag a TLB past
    /// the log's horizon cheaply.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0 (see [`AddressSpace::with_space_config`]).
    pub fn with_inval_log(capacity: usize) -> AddressSpace {
        AddressSpace::with_space_config(SpaceConfig {
            inval_log: capacity,
            ..SpaceConfig::new()
        })
    }

    /// Create an empty address space from explicit [`SpaceConfig`]
    /// knobs (reclamation domain, log capacity, arch, ASID).
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
        let smr = config
            .smr
            .unwrap_or_else(|| Arc::new(Ebr::new(READER_SLOTS)));
        let nslots = smr.slots();
        let arch = config.arch;
        let asid = config.asid.unwrap_or_else(|| arch.allocate_asid());
        let root = Arc::new(SnapshotRoot {
            root: Node::default(),
            flat: HashMap::default(),
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

    /// Capacity of the invalidation log in generations.
    pub fn inval_log_capacity(&self) -> usize {
        self.inval.slots.len()
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
    /// concurrency (see [`SpaceConfig::smr`]).
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

    /// Plan how a TLB whose snapshot is `seen_gen` catches up to the
    /// current generation: returns the generation to adopt plus the
    /// cheapest safe action. [`TlbSync::Ranges`] is only returned when
    /// the log still covers *every* generation in the gap; otherwise
    /// the plan degrades to [`TlbSync::Full`]. Lock-free (pins an
    /// epoch to read the log ring).
    pub fn plan_sync(&self, seen_gen: u64) -> (u64, TlbSync) {
        self.pin().plan_sync(seen_gen)
    }

    fn plan_sync_pinned(&self, seen_gen: u64) -> (u64, TlbSync) {
        let current = self.generation();
        if current == seen_gen {
            return (current, TlbSync::Current);
        }
        let ring = &self.inval;
        if current < seen_gen {
            return (current, TlbSync::Full);
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
                return (current, TlbSync::Full);
            }
            need = need.max(hi + 1);
        }
        if need <= current || spans.len() > MAX_SYNC_SPANS {
            return (current, TlbSync::Full);
        }
        (current, TlbSync::Ranges(spans))
    }

    fn check(&self, va: u64) -> Result<(), Fault> {
        check_va(va)
    }

    // ------------------------------------------------------------------
    // Writer side: COW transactions, snapshot publication, shootdowns.
    // ------------------------------------------------------------------

    /// Begin a write transaction: take the writer mutex and build a
    /// scratch root sharing every subtree of the current snapshot.
    fn begin(&self) -> (MutexGuard<'_, WriterState>, Node) {
        let st = self.writer.lock();
        let scratch = st.current.root.clone();
        (st, scratch)
    }

    /// Publish `scratch` as the new snapshot and retire the old root
    /// through the reclamation domain. Caller holds the writer mutex.
    ///
    /// `touched` lists the `va >> FLAT_SHIFT` prefixes this transaction
    /// may have changed (one entry per page *attempted*, duplicates
    /// fine): the flat leaf directory is re-derived from the scratch
    /// tree for exactly those prefixes, so directory and tree stay
    /// equal by construction. A prefix mutated but not listed would
    /// desync the directory — every mutation site below pushes as it
    /// goes.
    fn publish(&self, st: &mut WriterState, scratch: Node, touched: &mut Vec<u64>) {
        touched.sort_unstable();
        touched.dedup();
        let mut flat = st.current.flat.clone();
        for &prefix in touched.iter() {
            match leaf_node_of(&scratch, prefix) {
                Some(node) => flat.insert(prefix, node),
                None => flat.remove(&prefix),
            };
        }
        let new = Arc::new(SnapshotRoot {
            root: scratch,
            flat,
            arch: self.arch,
        });
        self.snapshot
            .store(Arc::as_ptr(&new) as *mut SnapshotRoot, Ordering::SeqCst);
        let old = std::mem::replace(&mut st.current, new);
        self.stats
            .snapshot_publishes
            .fetch_add(1, Ordering::Relaxed);
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

    fn shootdown(&self, spans: Vec<(u64, u64)>) {
        self.shootdown_epoch(spans, None);
    }

    /// Map one page at `va` (page-aligned) to `pfn`.
    ///
    /// Mapping the same frame at several addresses is allowed — that *is*
    /// the paper's zero-copy mechanism.
    ///
    /// # Errors
    ///
    /// [`Fault::AlreadyMapped`] if `va` already has a mapping,
    /// [`Fault::NonCanonical`] for out-of-range addresses.
    pub fn map(&self, va: u64, pfn: Pfn, flags: PteFlags) -> Result<(), Fault> {
        self.map_pte(
            va,
            Pte {
                kind: PteKind::Frame(pfn),
                flags,
            },
        )
    }

    /// Map a device register page.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::map`].
    pub fn map_mmio(&self, va: u64, dev: u32, page: u32, flags: PteFlags) -> Result<(), Fault> {
        self.map_pte(
            va,
            Pte {
                kind: PteKind::Mmio { dev, page },
                flags,
            },
        )
    }

    fn map_pte(&self, va: u64, pte: Pte) -> Result<(), Fault> {
        self.check(va)?;
        let (mut st, mut scratch) = self.begin();
        map_in(&mut scratch, va, self.arch.encode(pte))?;
        self.publish(&mut st, scratch, &mut vec![va >> FLAT_SHIFT]);
        self.stats.pages_mapped.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Map a run of frames contiguously starting at `va` — one snapshot
    /// publication for the whole run.
    ///
    /// # Errors
    ///
    /// Fails on the first conflicting page (earlier pages stay mapped).
    pub fn map_range(&self, va: u64, pfns: &[Pfn], flags: PteFlags) -> Result<(), Fault> {
        let (mut st, mut scratch) = self.begin();
        let mut outcome = Ok(());
        let mut mapped = 0u64;
        let mut touched = Vec::new();
        for (i, &pfn) in pfns.iter().enumerate() {
            let page_va = va + (i * PAGE_SIZE) as u64;
            let hw = self.arch.encode(Pte {
                kind: PteKind::Frame(pfn),
                flags,
            });
            touched.push(page_va >> FLAT_SHIFT);
            if let Err(fault) = check_va(page_va).and_then(|()| map_in(&mut scratch, page_va, hw)) {
                outcome = Err(fault);
                break;
            }
            mapped += 1;
        }
        if mapped > 0 {
            self.publish(&mut st, scratch, &mut touched);
            self.stats.pages_mapped.fetch_add(mapped, Ordering::Relaxed);
        }
        outcome
    }

    /// Remove the mapping at `va`, returning the old leaf.
    ///
    /// Bumps the TLB generation (shootdown).
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`] if nothing is mapped there.
    pub fn unmap(&self, va: u64) -> Result<Pte, Fault> {
        self.check(va)?;
        let (mut st, mut scratch) = self.begin();
        let pte = self.arch.decode_owned(unmap_in(&mut scratch, va)?);
        self.publish(&mut st, scratch, &mut vec![va >> FLAT_SHIFT]);
        self.stats.pages_unmapped.fetch_add(1, Ordering::Relaxed);
        self.shootdown(vec![(va, va + PAGE_SIZE as u64)]);
        Ok(pte)
    }

    /// Unmap `n` consecutive pages, returning their leaves. One shootdown
    /// covers the whole range (batched invalidation, like `flush_tlb_range`).
    ///
    /// # Errors
    ///
    /// Fails on the first unmapped page. Earlier pages stay unmapped,
    /// and the shootdown still covers them — under range-based
    /// invalidation an unpublished removal would let TLBs serve the
    /// retired translations forever.
    pub fn unmap_range(&self, va: u64, n: usize) -> Result<Vec<Pte>, Fault> {
        let (mut st, mut scratch) = self.begin();
        let mut out = Vec::with_capacity(n);
        let mut outcome = Ok(());
        let mut touched = Vec::new();
        for i in 0..n {
            let page_va = va + (i * PAGE_SIZE) as u64;
            touched.push(page_va >> FLAT_SHIFT);
            match check_va(page_va).and_then(|()| unmap_in(&mut scratch, page_va)) {
                Ok(hw) => out.push(self.arch.decode_owned(hw)),
                Err(fault) => {
                    outcome = Err(fault);
                    break;
                }
            }
        }
        if !out.is_empty() {
            self.publish(&mut st, scratch, &mut touched);
            self.stats
                .pages_unmapped
                .fetch_add(out.len() as u64, Ordering::Relaxed);
            self.shootdown(vec![(va, va + (out.len() * PAGE_SIZE) as u64)]);
        }
        outcome.map(|()| out)
    }

    /// Unmap every mapped page in `[va, va + n pages)`, skipping holes;
    /// returns the removed leaves. One shootdown for the whole range —
    /// what the re-randomizer's retire step uses, since alignment-tail
    /// pages were never mapped.
    pub fn unmap_sparse(&self, va: u64, n: usize) -> Vec<Pte> {
        let (mut st, mut scratch) = self.begin();
        let mut out = Vec::new();
        let mut touched = Vec::new();
        for i in 0..n {
            let page_va = va + (i * PAGE_SIZE) as u64;
            if check_va(page_va).is_err() {
                continue;
            }
            if let Ok(hw) = unmap_in(&mut scratch, page_va) {
                out.push(self.arch.decode_owned(hw));
                touched.push(page_va >> FLAT_SHIFT);
            }
        }
        if !out.is_empty() {
            self.publish(&mut st, scratch, &mut touched);
            self.stats
                .pages_unmapped
                .fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        self.shootdown(vec![(va, va + (n * PAGE_SIZE) as u64)]);
        out
    }

    /// Atomically swap the frame behind a mapped page, returning the old
    /// leaf. This is how the re-randomizer swings a GOT page onto a
    /// freshly built table (paper §4.2: "GOT pages … are remapped to
    /// point to the new GOTs") without a window where the page is
    /// unmapped. Bumps the TLB generation.
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`] if the page is not mapped.
    pub fn replace(&self, va: u64, pfn: Pfn, flags: PteFlags) -> Result<Pte, Fault> {
        self.check(va)?;
        let (mut st, mut scratch) = self.begin();
        let old = replace_in(
            &mut scratch,
            va,
            self.arch.encode(Pte {
                kind: PteKind::Frame(pfn),
                flags,
            }),
        )?;
        let old = self.arch.decode_owned(old);
        self.publish(&mut st, scratch, &mut vec![va >> FLAT_SHIFT]);
        self.shootdown(vec![(va, va + PAGE_SIZE as u64)]);
        Ok(old)
    }

    /// Change the permissions of a mapped page (e.g. write-protecting a
    /// GOT after initialization, §4.1). Bumps the TLB generation.
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`] if the page is not mapped.
    pub fn protect(&self, va: u64, flags: PteFlags) -> Result<(), Fault> {
        self.check(va)?;
        let (mut st, mut scratch) = self.begin();
        protect_in(&mut scratch, va, flags, self.arch)?;
        self.publish(&mut st, scratch, &mut vec![va >> FLAT_SHIFT]);
        self.stats.protects.fetch_add(1, Ordering::Relaxed);
        self.shootdown(vec![(va, va + PAGE_SIZE as u64)]);
        Ok(())
    }

    /// [`AddressSpace::protect`] over `n` consecutive pages. One
    /// shootdown covers the whole range (batched invalidation — the
    /// pre-batching code paid one per page).
    ///
    /// # Errors
    ///
    /// Fails on the first unmapped page (earlier pages keep the new
    /// permissions, and the shootdown still covers them).
    pub fn protect_range(&self, va: u64, n: usize, flags: PteFlags) -> Result<(), Fault> {
        let (mut st, mut scratch) = self.begin();
        let mut outcome = Ok(());
        let mut changed = 0usize;
        let mut touched = Vec::new();
        for i in 0..n {
            let page_va = va + (i * PAGE_SIZE) as u64;
            touched.push(page_va >> FLAT_SHIFT);
            if let Err(fault) = check_va(page_va)
                .and_then(|()| protect_in(&mut scratch, page_va, flags, self.arch).map(|_| ()))
            {
                outcome = Err(fault);
                break;
            }
            changed += 1;
        }
        if changed > 0 {
            self.publish(&mut st, scratch, &mut touched);
            self.stats
                .protects
                .fetch_add(changed as u64, Ordering::Relaxed);
            self.shootdown(vec![(va, va + (changed * PAGE_SIZE) as u64)]);
        }
        outcome
    }

    /// Collect the leaves backing `n` consecutive pages — the gather step
    /// of the zero-copy remap.
    ///
    /// # Errors
    ///
    /// Fails if any page in the range is unmapped.
    pub fn leaves_of_range(&self, va: u64, n: usize) -> Result<Vec<Pte>, Fault> {
        let vas: Vec<u64> = (0..n).map(|i| va + (i * PAGE_SIZE) as u64).collect();
        self.pin()
            .translate_batch(&vas, Access::Read)
            .into_iter()
            .map(|r| r.map(|t| t.pte))
            .collect()
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

    /// Fetch up to 16 instruction bytes at `va` with execute permission
    /// checks. Returns how many bytes were fetched (short reads happen at
    /// mapping boundaries, which the decoder reports as `Truncated`).
    ///
    /// # Errors
    ///
    /// [`Fault::NotExecutable`] for NX pages, [`Fault::MmioExec`] for
    /// device pages, [`Fault::Unmapped`] if the *first* page is missing.
    pub fn fetch(&self, phys: &PhysMem, va: u64, buf: &mut [u8; 16]) -> Result<usize, Fault> {
        let pin = self.pin();
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let off = page_offset(cur);
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let t = match pin.translate(cur, Access::Exec) {
                Ok(t) => t,
                Err(Fault::MmioExec { va }) | Err(Fault::MmioData { va }) => {
                    return Err(Fault::MmioExec { va })
                }
                Err(e) if done > 0 => {
                    // Short fetch at a mapping edge: let the decoder decide.
                    let _ = e;
                    return Ok(done);
                }
                Err(e) => return Err(e),
            };
            match t.pte.kind {
                PteKind::Frame(pfn) => phys.read(pfn, off, &mut buf[done..done + n]),
                PteKind::Mmio { .. } => return Err(Fault::MmioExec { va: cur }),
            }
            done += n;
        }
        Ok(done)
    }

    /// Apply a [`Batch`] of page-table mutations as **one** copy-on-write
    /// transaction: a single new snapshot is built and published with
    /// one atomic pointer store, carrying a single invalidation set with
    /// one generation bump (the batched-shootdown fast path; see
    /// [`Batch`]'s docs).
    ///
    /// Application is atomic by construction: a fault discards the
    /// scratch snapshot, so nothing is published, no generation bump
    /// occurs, and the space is exactly as it was before the call —
    /// concurrent readers only ever observe the pre- or post-batch
    /// snapshot, never an intermediate state.
    ///
    /// # Errors
    ///
    /// The first fault any queued operation raises; the batch is
    /// discarded.
    pub fn apply(&self, batch: Batch) -> Result<BatchOutcome, Fault> {
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
        let mut touched = Vec::new();
        let (mut st, mut scratch) = self.begin();
        for op in &batch.ops {
            match *op {
                BatchOp::Map { va, pfn, flags } => {
                    let hw = self.arch.encode(Pte {
                        kind: PteKind::Frame(pfn),
                        flags,
                    });
                    touched.push(va >> FLAT_SHIFT);
                    map_in(&mut scratch, va, hw)?;
                    mapped += 1;
                }
                BatchOp::UnmapRange { va, pages } => {
                    for i in 0..pages {
                        let page_va = va + (i * PAGE_SIZE) as u64;
                        touched.push(page_va >> FLAT_SHIFT);
                        removed.push(self.arch.decode_owned(unmap_in(&mut scratch, page_va)?));
                        unmapped += 1;
                    }
                    spans.push((va, va + (pages * PAGE_SIZE) as u64));
                }
                BatchOp::UnmapSparse { va, pages } => {
                    for i in 0..pages {
                        let page_va = va + (i * PAGE_SIZE) as u64;
                        touched.push(page_va >> FLAT_SHIFT);
                        if let Ok(hw) = unmap_in(&mut scratch, page_va) {
                            removed.push(self.arch.decode_owned(hw));
                            unmapped += 1;
                        }
                    }
                    spans.push((va, va + (pages * PAGE_SIZE) as u64));
                }
                BatchOp::ProtectRange { va, pages, flags } => {
                    for i in 0..pages {
                        let page_va = va + (i * PAGE_SIZE) as u64;
                        touched.push(page_va >> FLAT_SHIFT);
                        protect_in(&mut scratch, page_va, flags, self.arch)?;
                        protects += 1;
                    }
                    spans.push((va, va + (pages * PAGE_SIZE) as u64));
                }
                BatchOp::SwapFrame { va, pfn, flags } => {
                    let hw = self.arch.encode(Pte {
                        kind: PteKind::Frame(pfn),
                        flags,
                    });
                    touched.push(va >> FLAT_SHIFT);
                    removed.push(self.arch.decode_owned(replace_in(&mut scratch, va, hw)?));
                    spans.push((va, va + PAGE_SIZE as u64));
                }
            }
        }
        self.publish(&mut st, scratch, &mut touched);
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
/// pin keeping `snap` alive).
///
/// Uses the flattened leaf directory: one hash probe finds the
/// leaf-level node for the address's 2 MiB region, one slot read finds
/// the PTE — ≤2 pointer chases instead of a 5-level tree descent. The
/// directory is re-derived from the tree at every publish for exactly
/// the touched prefixes, so the two views are interchangeable in any
/// published snapshot.
fn walk(snap: &SnapshotRoot, va: u64, access: Access) -> Result<Translation, Fault> {
    let res = walk_flat(snap, va, access);
    // Debug builds (so the whole deterministic test suite) re-walk the
    // tree and insist the directory agrees — a mutation site that
    // forgot to record a touched prefix fails loudly here, not as a
    // silent wrong translation. Release builds pay nothing.
    #[cfg(debug_assertions)]
    assert_eq!(
        res,
        walk_tree(&snap.root, snap.arch, va, access),
        "flat leaf directory diverged from the radix tree at {va:#x}"
    );
    res
}

fn walk_flat(snap: &SnapshotRoot, va: u64, access: Access) -> Result<Translation, Fault> {
    let pte = match snap.flat.get(&(va >> FLAT_SHIFT)) {
        Some(leaf) => match leaf.get(level_index(va, LEVELS - 1)) {
            Some(Entry::Leaf(hw)) => snap.arch.decode_owned(*hw),
            _ => return Err(Fault::Unmapped { va }),
        },
        None => return Err(Fault::Unmapped { va }),
    };
    check_access(va, &pte, access)?;
    Ok(Translation {
        pte,
        page_va: page_base(va),
    })
}

/// Walk the radix tree itself, ignoring the flat directory — the
/// ground-truth structure writers mutate. The debug-build cross-check
/// in [`walk`] compares the directory against this on every lookup.
#[cfg(debug_assertions)]
fn walk_tree(root: &Node, arch: ArchKind, va: u64, access: Access) -> Result<Translation, Fault> {
    let mut cur: &Node = root;
    for level in 0..LEVELS - 1 {
        cur = match cur.get(level_index(va, level)) {
            Some(Entry::Table(t)) => t,
            _ => return Err(Fault::Unmapped { va }),
        };
    }
    let pte = match cur.get(level_index(va, LEVELS - 1)) {
        Some(Entry::Leaf(hw)) => arch.decode_owned(*hw),
        _ => return Err(Fault::Unmapped { va }),
    };
    check_access(va, &pte, access)?;
    Ok(Translation {
        pte,
        page_va: page_base(va),
    })
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

/// Map the arch-encoded leaf `hw` at `va` in the scratch tree,
/// creating (or path-copying) intermediate tables.
fn map_in(root: &mut Node, va: u64, hw: HwPte) -> Result<(), Fault> {
    let mut cur: &mut Node = root;
    for level in 0..LEVELS - 1 {
        cur = match cur.get_or_insert_with(level_index(va, level), || {
            Entry::Table(Arc::new(Node::default()))
        }) {
            Entry::Table(t) => Arc::make_mut(t),
            Entry::Leaf(_) => return Err(Fault::AlreadyMapped { va }),
        };
    }
    let idx = level_index(va, LEVELS - 1);
    match cur.find(idx) {
        Ok(_) => Err(Fault::AlreadyMapped { va }),
        Err(pos) => {
            cur.slots.insert(pos, (idx as u16, Entry::Leaf(hw)));
            Ok(())
        }
    }
}

/// Remove the leaf at `va` from the scratch tree, path-copying on the
/// way down and pruning empty tables on the way up.
fn unmap_in(root: &mut Node, va: u64) -> Result<HwPte, Fault> {
    fn remove(cur: &mut Node, va: u64, level: u32) -> Result<HwPte, Fault> {
        let pos = cur
            .find(level_index(va, level))
            .map_err(|_| Fault::Unmapped { va })?;
        let hw = match &mut cur.slots[pos].1 {
            Entry::Leaf(hw) if level == LEVELS - 1 => *hw,
            Entry::Table(t) if level < LEVELS - 1 => {
                let node = Arc::make_mut(t);
                let hw = remove(node, va, level + 1)?;
                if !node.is_empty() {
                    return Ok(hw);
                }
                hw
            }
            _ => return Err(Fault::Unmapped { va }),
        };
        cur.slots.remove(pos);
        Ok(hw)
    }
    remove(root, va, 0)
}

fn leaf_mut(root: &mut Node, va: u64) -> Result<&mut HwPte, Fault> {
    let mut cur: &mut Node = root;
    for level in 0..LEVELS - 1 {
        cur = match cur.get_mut(level_index(va, level)) {
            Some(Entry::Table(t)) => Arc::make_mut(t),
            _ => return Err(Fault::Unmapped { va }),
        };
    }
    match cur.get_mut(level_index(va, LEVELS - 1)) {
        Some(Entry::Leaf(hw)) => Ok(hw),
        _ => Err(Fault::Unmapped { va }),
    }
}

/// Change the permissions of the leaf at `va` in the scratch tree,
/// returning the old flags. Decodes the stored encoding, swaps the
/// abstract flags, and re-encodes under the same arch.
fn protect_in(
    root: &mut Node,
    va: u64,
    flags: PteFlags,
    arch: ArchKind,
) -> Result<PteFlags, Fault> {
    let hw = leaf_mut(root, va)?;
    let mut pte = arch.decode_owned(*hw);
    let old = std::mem::replace(&mut pte.flags, flags);
    *hw = arch.encode(pte);
    Ok(old)
}

/// Swap the leaf at `va` for the arch-encoded `new` in the scratch
/// tree, returning the old encoded leaf.
fn replace_in(root: &mut Node, va: u64, new: HwPte) -> Result<HwPte, Fault> {
    let hw = leaf_mut(root, va)?;
    Ok(std::mem::replace(hw, new))
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

    #[test]
    fn map_translate_unmap() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfn = phys.alloc();
        space.map(VA, pfn, PteFlags::DATA).unwrap();
        let t = space.translate(VA + 0x123, Access::Read).unwrap();
        assert_eq!(t.pte.kind, PteKind::Frame(pfn));
        assert_eq!(t.page_va, VA);
        assert_eq!(
            space.map(VA, pfn, PteFlags::DATA),
            Err(Fault::AlreadyMapped { va: VA })
        );
        let pte = space.unmap(VA).unwrap();
        assert_eq!(pte.kind, PteKind::Frame(pfn));
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
        space.map(VA, pfn, PteFlags::RO_DATA).unwrap();
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
        space.protect(VA, PteFlags::TEXT).unwrap();
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
        space.map(VA, pfn, PteFlags::DATA).unwrap();
        let alias = 0x0044_0000_0000_0000u64;
        space.map(alias, pfn, PteFlags::DATA).unwrap();
        space.write_u64(&phys, VA + 8, 77).unwrap();
        assert_eq!(space.read_u64(&phys, alias + 8).unwrap(), 77);
    }

    #[test]
    fn cross_page_rw() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        space
            .map_range(VA, &phys.alloc_n(2), PteFlags::DATA)
            .unwrap();
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
        space.map(VA, pfn, PteFlags::DATA).unwrap();
        assert_eq!(space.generation(), g0, "map does not shoot down");
        space.protect(VA, PteFlags::RO_DATA).unwrap();
        assert!(space.generation() > g0, "protect shoots down");
        let g1 = space.generation();
        space.unmap(VA).unwrap();
        assert!(space.generation() > g1, "unmap shoots down");
    }

    #[test]
    fn unmap_range_batches_shootdown() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        space
            .map_range(VA, &phys.alloc_n(8), PteFlags::DATA)
            .unwrap();
        let g0 = space.generation();
        let leaves = space.unmap_range(VA, 8).unwrap();
        assert_eq!(leaves.len(), 8);
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
        space.map(VA, a, PteFlags::RO_DATA).unwrap();
        assert_eq!(space.read_u64(&phys, VA).unwrap(), 1);
        let g0 = space.generation();
        let old = space.replace(VA, b, PteFlags::RO_DATA).unwrap();
        assert_eq!(old.kind, PteKind::Frame(a));
        assert_eq!(space.read_u64(&phys, VA).unwrap(), 2);
        assert!(space.generation() > g0, "replace shoots down");
        assert_eq!(
            space.replace(VA + 0x1000, b, PteFlags::RO_DATA),
            Err(Fault::Unmapped { va: VA + 0x1000 })
        );
    }

    #[test]
    fn mmio_leaves() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        space.map_mmio(VA, 3, 0, PteFlags::DATA).unwrap();
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
            space.map(bad, phys.alloc(), PteFlags::DATA),
            Err(Fault::NonCanonical { va: bad })
        );
        assert_eq!(
            space.translate(bad, Access::Read),
            Err(Fault::NonCanonical { va: bad })
        );
    }

    #[test]
    fn leaves_of_range_gathers() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfns = phys.alloc_n(4);
        space.map_range(VA, &pfns, PteFlags::TEXT).unwrap();
        let leaves = space.leaves_of_range(VA, 4).unwrap();
        for (l, p) in leaves.iter().zip(&pfns) {
            assert_eq!(l.kind, PteKind::Frame(*p));
        }
    }

    #[test]
    fn fetch_short_read_at_edge() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let pfn = phys.alloc();
        space.map(VA, pfn, PteFlags::TEXT).unwrap();
        let mut buf = [0u8; 16];
        // Fetch 8 bytes before the end of the mapped page → short read.
        let n = space
            .fetch(&phys, VA + PAGE_SIZE as u64 - 8, &mut buf)
            .unwrap();
        assert_eq!(n, 8);
        // Fetch entirely outside → fault.
        assert!(space.fetch(&phys, VA + PAGE_SIZE as u64, &mut buf).is_err());
    }

    #[test]
    fn batch_applies_with_one_shootdown() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        space
            .map_range(VA, &phys.alloc_n(4), PteFlags::DATA)
            .unwrap();
        let g0 = space.generation();
        let swap = phys.alloc();
        let mut batch = Batch::new();
        batch
            .map_range(VA + 0x10_0000, &phys.alloc_n(2), PteFlags::TEXT)
            .unmap_range(VA, 2)
            .protect_range(VA + 2 * PAGE_SIZE as u64, 2, PteFlags::RO_DATA)
            .swap_frame(VA + 3 * PAGE_SIZE as u64, swap, PteFlags::RO_DATA);
        let outcome = space.apply(batch).unwrap();
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
        space.map_range(VA, &pfns, PteFlags::DATA).unwrap();
        let g0 = space.generation();
        let s0 = space.stats();
        let mut batch = Batch::new();
        batch
            .unmap_range(VA, 2)
            .protect_range(VA + 0x20_0000, 1, PteFlags::TEXT) // unmapped → faults
            .map_page(VA + 0x30_0000, phys.alloc(), PteFlags::DATA);
        let err = space.apply(batch).unwrap_err();
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
        let outcome = space.apply(batch).unwrap();
        assert_eq!(outcome.shootdowns, 0);
        assert_eq!(space.generation(), g0, "pure maps invalidate nothing");
    }

    #[test]
    fn same_epoch_batches_coalesce_into_one_log_slot() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        space
            .map_range(VA, &phys.alloc_n(4), PteFlags::DATA)
            .unwrap();
        let mut a = Batch::new().epoch(7);
        a.unmap_range(VA, 2);
        let mut b = Batch::new().epoch(7);
        b.unmap_range(VA + 2 * PAGE_SIZE as u64, 2);
        let seen = space.generation();
        space.apply(a).unwrap();
        space.apply(b).unwrap();
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
        space.map(victim, phys.alloc(), PteFlags::DATA).unwrap();
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
                space.apply(batch),
                Err(Fault::NonCanonical { .. })
            ));
        }
        // Overflowing the address space entirely is rejected too.
        let mut batch = Batch::new();
        batch.unmap_sparse(edge, usize::MAX / PAGE_SIZE);
        assert!(matches!(
            space.apply(batch),
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
        space
            .map_range(VA, &phys.alloc_n(pages), PteFlags::DATA)
            .unwrap();
        let seen = space.generation();
        let mut batch = Batch::new();
        for i in 0..pages {
            batch.swap_frame(VA + (i * PAGE_SIZE) as u64, phys.alloc(), PteFlags::RO_DATA);
        }
        space.apply(batch).unwrap();
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
        let space = AddressSpace::with_inval_log(2);
        space
            .map_range(VA, &phys.alloc_n(8), PteFlags::DATA)
            .unwrap();
        let seen = space.generation();
        for i in 0..4u64 {
            space.unmap(VA + i * PAGE_SIZE as u64).unwrap();
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
        space
            .map_range(VA, &phys.alloc_n(3), PteFlags::DATA)
            .unwrap();
        space.unmap(VA).unwrap();
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
        space.map(VA, phys.alloc(), PteFlags::DATA).unwrap();
        space.protect(VA, PteFlags::RO_DATA).unwrap();
        space.unmap(VA).unwrap();
        let mut batch = Batch::new();
        batch.map_range(VA, &phys.alloc_n(2), PteFlags::DATA);
        space.apply(batch).unwrap();
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
        space.map(VA, phys.alloc(), PteFlags::DATA).unwrap();
        let before = space.stats().snapshots_reclaimed;
        let pin = space.pin();
        assert!(pin.translate(VA, Access::Read).is_ok());
        // Publish twice while the reader is pinned.
        space.protect(VA, PteFlags::RO_DATA).unwrap();
        space.protect(VA, PteFlags::DATA).unwrap();
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

    /// The flat leaf directory must agree with the radix tree after
    /// every kind of mutation — single ops, ranges, sparse unmaps, and
    /// batches that cross 2 MiB prefix boundaries. `walk` cross-checks
    /// both structures on every lookup in debug builds, so translating
    /// here *is* the equivalence assertion; this test just makes sure
    /// the probes cover mapped, remapped, protected, and torn-down
    /// prefixes explicitly. (`walk_tree` only exists in debug builds,
    /// so a `cargo test --release` run skips this one.)
    #[cfg(debug_assertions)]
    #[test]
    fn flat_directory_matches_tree_walk() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        // 5 pages straddling a 2 MiB prefix boundary: 3 below, 2 above.
        let base = 0x00ab_cdef_0000_0000 + (1u64 << FLAT_SHIFT) - 3 * PAGE_SIZE as u64;
        let pfns: Vec<Pfn> = (0..5).map(|_| phys.alloc()).collect();
        space.map_range(base, &pfns, PteFlags::DATA).unwrap();
        let probe = |va: u64, access: Access| {
            let snap = unsafe { &*space.snapshot.load(Ordering::SeqCst) };
            assert_eq!(
                walk_flat(snap, va, access),
                walk_tree(&snap.root, snap.arch, va, access),
                "flat/tree divergence at {va:#x}"
            );
        };
        let pages: Vec<u64> = (0..5).map(|i| base + (i * PAGE_SIZE) as u64).collect();
        for &va in &pages {
            probe(va, Access::Read);
            probe(va, Access::Exec);
        }
        // Protect one page on each side of the boundary, unmap the
        // middle, and re-check every probe plus never-mapped neighbors.
        space.protect(pages[0], PteFlags::RO_DATA).unwrap();
        space.protect(pages[4], PteFlags::TEXT).unwrap();
        space.unmap(pages[2]).unwrap();
        space.unmap_sparse(pages[1], 1);
        for &va in &pages {
            probe(va, Access::Read);
            probe(va, Access::Write);
        }
        probe(base - PAGE_SIZE as u64, Access::Read);
        probe(base + (8 * PAGE_SIZE) as u64, Access::Read);
        // Tear the rest down: the directory must drop emptied prefixes.
        space.unmap_range(pages[3], 2).unwrap();
        space.unmap(pages[0]).unwrap();
        let snap = unsafe { &*space.snapshot.load(Ordering::SeqCst) };
        assert!(
            snap.flat.is_empty(),
            "emptied prefixes must leave the directory"
        );
        for &va in &pages {
            probe(va, Access::Read);
        }
    }

    /// Sparse nodes prune to nothing: tearing down every mapping —
    /// scattered parts, a full 512-page leaf, and holes skipped by
    /// `unmap_sparse` — leaves a root with no children and an empty
    /// flat directory, so no emptied table lingers in any snapshot.
    #[cfg(debug_assertions)]
    #[test]
    fn full_teardown_leaves_an_empty_root() {
        let phys = PhysMem::new();
        let space = AddressSpace::new();
        let full = 0x0012_3440_0000_0000u64;
        space
            .map_range(full, &phys.alloc_n(512), PteFlags::DATA)
            .unwrap();
        let scattered = [VA, 0x0100_0000_0000_0000, 0x0000_0000_0020_0000];
        for &va in &scattered {
            space
                .map_range(va, &phys.alloc_n(3), PteFlags::TEXT)
                .unwrap();
        }
        let mut batch = Batch::new();
        batch.unmap_range(full, 256).unmap_sparse(full, 512);
        for &va in &scattered {
            batch.unmap_sparse(va - PAGE_SIZE as u64, 5);
        }
        assert_eq!(space.apply(batch).unwrap().removed.len(), 512 + 3 * 3);
        let snap = unsafe { &*space.snapshot.load(Ordering::SeqCst) };
        assert!(
            snap.root.is_empty(),
            "root kept {} children",
            snap.root.slots.len()
        );
        assert!(snap.flat.is_empty(), "flat directory kept emptied prefixes");
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
        space.map_range(VA, &pfns[..3], PteFlags::DATA).unwrap();
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
        space.unmap(VA).unwrap();
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
