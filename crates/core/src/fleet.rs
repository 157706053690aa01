//! Fleet-level module management: placement across kernel shards, the
//! install catalog, crash recovery and the cold-module tier.
//!
//! [`ShardedKernel`] partitions the machine into independent kernels
//! over disjoint VA windows; this module decides *which* shard a driver
//! lives in. A module never leaves its shard: it re-randomizes in place
//! there, and every registry resident has a catalog record naming that
//! shard.
//!
//! * [`Fleet`] — one [`ModuleRegistry`] per shard plus the install
//!   catalog (object file + options per module) that makes fault-in
//!   and crash recovery a rebuild, not a guess;
//! * [`ShardPlacement`] — the pluggable placement policy:
//!   [`RoundRobin`] (uniform spread), [`LoadWeighted`] (lightest shard
//!   by mapped bytes), [`Pinned`] (explicit tenancy);
//! * the module lifecycle — [`Fleet::install`] / [`Fleet::register`],
//!   then [`Fleet::evict`] ⇄ fault-in ([`Fleet::ensure_resident`] or a
//!   demand fault), then [`Fleet::unload`]; [`Fleet::recover_shard`]
//!   rebuilds a crashed shard's residents from their catalog records.

use crate::{LinkPlan, LoadError, LoadedModule, ModuleRegistry};
use adelie_kernel::{Kernel, ShardedKernel};
use adelie_obj::ObjectFile;
use adelie_plugin::TransformOptions;
use adelie_vmem::PAGE_SIZE;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a fleet operation failed.
#[derive(Debug)]
pub enum FleetError {
    /// Loading into the target shard failed.
    Load(LoadError),
    /// No module of that name is installed anywhere in the fleet.
    UnknownModule(String),
    /// A module of that name is already installed — install it once,
    /// or unload the existing copy first (silently replacing the
    /// catalog record would strand the old copy in its shard).
    DuplicateModule(String),
    /// Shard index out of range — from a caller, or from a placement
    /// policy returning an index the fleet does not have.
    UnknownShard(usize),
    /// Unloading or evicting a resident failed. A trapping exit leaves
    /// the module resident, cataloged and serving, and the operation
    /// retryable; a failed retire batch withholds the module's frames
    /// (see [`ModuleRegistry::unload_many`]).
    Unload(String),
    /// Admission control refused the target shard: it is at its module
    /// cap. Pick another shard or unload something first.
    Overloaded {
        /// The refused shard.
        shard: usize,
        /// Modules it currently holds.
        modules: usize,
        /// The configured cap ([`AdmissionConfig::max_modules_per_shard`]).
        limit: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Load(e) => write!(f, "fleet load failed: {e}"),
            FleetError::UnknownModule(m) => write!(f, "no module `{m}` in the fleet"),
            FleetError::DuplicateModule(m) => {
                write!(f, "module `{m}` is already installed in the fleet")
            }
            FleetError::UnknownShard(s) => write!(f, "no shard {s}"),
            FleetError::Unload(e) => write!(f, "unload failed: {e}"),
            FleetError::Overloaded {
                shard,
                modules,
                limit,
            } => write!(
                f,
                "shard {shard} overloaded: {modules} modules at cap {limit}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<LoadError> for FleetError {
    fn from(e: LoadError) -> FleetError {
        FleetError::Load(e)
    }
}

/// One shard's placement-relevant load, as seen by a policy.
#[derive(Copy, Clone, Debug)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Modules cataloged on the shard, resident or cold.
    pub modules: usize,
    /// Total bytes mapped by its resident modules (both parts).
    pub mapped_bytes: usize,
}

/// A pluggable shard-placement policy. Policies must be deterministic
/// for a given call sequence — fleet runs replay from a seed, and a
/// placement that consulted wall time or an unseeded RNG would break
/// the soak suite's byte-identical-replay gate.
pub trait ShardPlacement: Send + Sync {
    /// Choose the shard for `module` given the current per-shard loads
    /// (always non-empty, indexed by shard).
    fn place(&self, module: &str, loads: &[ShardLoad]) -> usize;

    /// Policy label (stats, bench output).
    fn name(&self) -> &'static str;
}

/// Uniform spread: shard `k`, `k+1`, … regardless of load.
#[derive(Default)]
pub struct RoundRobin {
    next: AtomicUsize,
}

impl RoundRobin {
    /// A round-robin policy starting at shard 0.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl ShardPlacement for RoundRobin {
    fn place(&self, _module: &str, loads: &[ShardLoad]) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % loads.len()
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Lightest-shard placement: fewest mapped bytes, ties to the lowest
/// index (deterministic).
#[derive(Default)]
pub struct LoadWeighted;

impl LoadWeighted {
    /// A load-weighted policy.
    pub fn new() -> LoadWeighted {
        LoadWeighted
    }
}

impl ShardPlacement for LoadWeighted {
    fn place(&self, _module: &str, loads: &[ShardLoad]) -> usize {
        loads
            .iter()
            .min_by_key(|l| (l.mapped_bytes, l.modules, l.shard))
            .map(|l| l.shard)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "load-weighted"
    }
}

/// Explicit tenancy: named modules go to their pinned shard, everything
/// else to `fallback`.
pub struct Pinned {
    assignments: HashMap<String, usize>,
    fallback: usize,
}

impl Pinned {
    /// Pin each `(module, shard)` pair; unknown modules land on
    /// `fallback`.
    pub fn new(assignments: HashMap<String, usize>, fallback: usize) -> Pinned {
        Pinned {
            assignments,
            fallback,
        }
    }
}

impl ShardPlacement for Pinned {
    fn place(&self, module: &str, _loads: &[ShardLoad]) -> usize {
        // No clamping: a pin outside the fleet is a misconfiguration,
        // and install() surfaces it as `FleetError::UnknownShard`
        // instead of silently relocating the tenant.
        self.assignments
            .get(module)
            .copied()
            .unwrap_or(self.fallback)
    }

    fn name(&self) -> &'static str {
        "pinned"
    }
}

/// How to build a module in any shard: its options and either the
/// object, until the first load links it, or the link plan that load
/// derived from it. Every later load — fault-in, demand fault, shard
/// recovery — instantiates that plan instead of linking again.
/// Registration does not plan: a catalog of 10^4–10^6 cold modules
/// would pay for links most never use. The plan replaces the object,
/// which nothing needs once linked: keeping both held every faulted
/// module twice (DESIGN.md §17.6 has the peak RSS of each).
struct Recipe {
    name: Arc<str>,
    opts: TransformOptions,
    link: Mutex<Link>,
}

/// Where a [`Recipe`] is in its one-way trip from object to plan.
enum Link {
    Object(ObjectFile),
    Planned(Arc<LinkPlan>),
    /// The object cannot be linked; every load reports why.
    Rejected(LoadError),
}

impl Recipe {
    fn new(obj: &ObjectFile, opts: &TransformOptions) -> Arc<Recipe> {
        Arc::new(Recipe {
            name: obj.name.as_str().into(),
            opts: *opts,
            link: Mutex::new(Link::Object(obj.clone())),
        })
    }

    /// The plan, linking the object on first use.
    fn plan(&self) -> Result<Arc<LinkPlan>, LoadError> {
        let mut link = self.link.lock();
        if let Link::Object(obj) = &*link {
            *link = match LinkPlan::new(obj, &self.opts) {
                Ok(plan) => Link::Planned(Arc::new(plan)),
                Err(e) => Link::Rejected(e),
            };
        }
        match &*link {
            Link::Planned(plan) => Ok(plan.clone()),
            Link::Rejected(e) => Err(e.clone()),
            Link::Object(_) => unreachable!("linked above"),
        }
    }

    /// Load into `registry` from the plan.
    fn load(&self, registry: &ModuleRegistry) -> Result<Arc<LoadedModule>, LoadError> {
        registry.load_plan(&*self.plan()?)
    }
}

/// What the catalog remembers about an installed module — enough to
/// rebuild it in any shard.
struct InstallRecord {
    shard: usize,
    /// Shared, so a fault-in takes it out from under the catalog lock
    /// with a reference count, not a copy of the object.
    recipe: Arc<Recipe>,
    /// Whether the shard counters count this module as resident rather
    /// than cold. A fault-in sets it only after its load, under the
    /// catalog lock, so a registry copy whose record still says cold is
    /// a fault-in in flight: [`Fleet::unload`] leaves that copy to the
    /// fault-in, which re-checks the record and unloads it — and
    /// [`Fleet::evict`] and [`Fleet::cold_tick`] never pick it.
    resident: bool,
}

type Catalog = HashMap<Arc<str>, InstallRecord>;

/// Admission-control limits on fleet mutations.
#[derive(Copy, Clone, Debug)]
pub struct AdmissionConfig {
    /// Most modules one shard may hold, resident or cold; installs and
    /// registrations into a fuller shard fail with
    /// [`FleetError::Overloaded`].
    pub max_modules_per_shard: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_modules_per_shard: 4096,
        }
    }
}

/// Cold-module tier limits (ROADMAP item 4's "10^5–10^6 registered
/// modules with only a hot working set resident").
#[derive(Copy, Clone, Debug)]
pub struct ColdTierConfig {
    /// A resident module with no outermost call for this long is
    /// eligible for eviction at the next [`Fleet::cold_tick`].
    pub idle_ns: u64,
    /// Most modules the whole fleet keeps resident; `cold_tick` evicts
    /// least-recently-called modules beyond it even if not yet idle.
    pub max_resident: usize,
}

impl Default for ColdTierConfig {
    fn default() -> Self {
        ColdTierConfig {
            idle_ns: 10_000_000,
            max_resident: 1024,
        }
    }
}

/// Cold-tier counters (monotonic over the fleet's lifetime, except the
/// occupancy snapshots).
#[derive(Copy, Clone, Debug, Default)]
pub struct ColdTierStats {
    /// Modules evicted to the cold tier.
    pub evictions: u64,
    /// Modules faulted back in (demand or explicit `ensure_resident`).
    pub fault_ins: u64,
    /// Fault-ins that came through the VA demand path (a caller held a
    /// stale entry address into an evicted module).
    pub demand_redirects: u64,
    /// Modules currently resident, fleet-wide.
    pub resident: usize,
    /// Catalog records currently without a resident copy, fleet-wide.
    pub cold: usize,
}

/// Where an evicted module's parts used to be mapped — the demand
/// loader resolves stale entry VAs against these spans, and the layout
/// oracle probes them to prove the eviction really unmapped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct EvictedModule {
    shard: usize,
    imm_base: u64,
    imm_span: u64,
    mov_base: u64,
    mov_span: u64,
}

impl EvictedModule {
    /// Where resident module `m` in `shard` is mapped right now.
    fn of(shard: usize, m: &LoadedModule) -> EvictedModule {
        let (imm_base, imm_span) = m
            .immovable
            .as_ref()
            .map(|i| (i.base, (i.total_pages * PAGE_SIZE) as u64))
            .unwrap_or((0, 0));
        EvictedModule {
            shard,
            imm_base,
            imm_span,
            mov_base: m.movable_base.load(Ordering::Acquire),
            mov_span: (m.movable.total_pages * PAGE_SIZE) as u64,
        }
    }

    /// The non-empty part spans as `(base, span_bytes)`, movable first
    /// (a module without an immovable part records an empty one).
    fn spans(&self) -> impl Iterator<Item = (u64, u64)> {
        [
            (self.mov_base, self.mov_span),
            (self.imm_base, self.imm_span),
        ]
        .into_iter()
        .filter(|&(_, span)| span > 0)
    }
}

/// The cold tier's evicted records, in two views kept in step: by name
/// (what evict, fault-in and unload edit) and, per shard, every
/// non-empty part span ordered by `(start, name)` with its end (what
/// the demand loader resolves a faulting VA against).
///
/// [`EvictedIndex::resolve`] is one range query: it walks down from
/// the greatest start `<= va` and stops below `va - max_span`, so it
/// visits only spans that start within one longest span below `va` —
/// an O(log n) descent plus a few steps for the disjoint spans a vmem
/// window hands out. Spans overlap only if a VA
/// was reused after an eviction; then the covering span with the
/// greatest start wins, ties going to the greater name, so the answer
/// never depends on hash order.
struct EvictedIndex {
    by_name: HashMap<Arc<str>, EvictedModule>,
    /// Per shard: `(start, name) → end`.
    by_start: Vec<BTreeMap<(u64, Arc<str>), u64>>,
    /// The longest span ever indexed (never lowered): a span covering
    /// `va` starts above `va - max_span`.
    max_span: u64,
}

impl EvictedIndex {
    fn new(shards: usize) -> EvictedIndex {
        EvictedIndex {
            by_name: HashMap::new(),
            by_start: vec![BTreeMap::new(); shards],
            max_span: 0,
        }
    }

    /// Record `name`'s vacated spans, replacing any older record.
    fn insert(&mut self, name: Arc<str>, rec: EvictedModule) {
        self.remove(&name);
        for (start, span) in rec.spans() {
            self.by_start[rec.shard].insert((start, name.clone()), start + span);
            self.max_span = self.max_span.max(span);
        }
        self.by_name.insert(name, rec);
    }

    /// Forget `name`'s record (fault-in or unload), returning it.
    fn remove(&mut self, name: &str) -> Option<EvictedModule> {
        let (name, rec) = self.by_name.remove_entry(name)?;
        for (start, _) in rec.spans() {
            self.by_start[rec.shard].remove(&(start, name.clone()));
        }
        Some(rec)
    }

    fn get(&self, name: &str) -> Option<&EvictedModule> {
        self.by_name.get(name)
    }

    /// The evicted module in `shard` whose former span covers `va`.
    fn resolve(&self, shard: usize, va: u64) -> Option<(Arc<str>, EvictedModule)> {
        let upper = match va.checked_add(1) {
            Some(next) => Bound::Excluded((next, Arc::<str>::from(""))),
            None => Bound::Unbounded,
        };
        let floor = va.saturating_sub(self.max_span);
        let (_, name) = self.by_start[shard]
            .range((Bound::Unbounded, upper))
            .rev()
            .take_while(|((start, _), _)| *start >= floor)
            .find(|(_, &end)| va < end)?
            .0;
        Some((name.clone(), self.by_name[name]))
    }
}

/// One shard's occupancy, maintained incrementally so admission checks
/// are O(1) at 10^5+ catalog records (the old accounting walked the
/// whole catalog per install). `resident` counts the shard's catalog
/// records with a resident copy and `cold` those without one, so
/// `resident + cold` is the shard's catalog record count.
#[derive(Copy, Clone, Debug, Default)]
struct ShardCounter {
    resident: usize,
    cold: usize,
    mapped_bytes: usize,
}

/// One shard's sorted span index: `(start, end, module)` for the part
/// of every resident module that never moves, resolved by
/// `partition_point`.
type SpanIndex = Vec<(u64, u64, Arc<str>)>;

/// The cold tier's bookkeeping: per-shard resident span indexes (for
/// resolving call VAs to module names), last-call stamps, and the
/// evicted-span index the demand loader consults. All its locks are
/// leaves — never hold one while taking the catalog.
struct ColdTier {
    cfg: ColdTierConfig,
    /// The fleet clock as of the last `cold_tick` — what the call
    /// observer stamps last-call times with.
    now_ns: AtomicU64,
    /// Per shard: one span per resident module, sorted by start (entry
    /// VAs resolve to names by `partition_point`, the scheduler's idiom).
    ranges: Mutex<Vec<SpanIndex>>,
    last_call: Mutex<HashMap<Arc<str>, u64>>,
    evicted: Mutex<EvictedIndex>,
    evictions: AtomicU64,
    fault_ins: AtomicU64,
    demand_redirects: AtomicU64,
}

impl ColdTier {
    fn new(cfg: ColdTierConfig, shards: usize) -> ColdTier {
        ColdTier {
            cfg,
            now_ns: AtomicU64::new(0),
            ranges: Mutex::new(vec![Vec::new(); shards]),
            last_call: Mutex::new(HashMap::new()),
            evicted: Mutex::new(EvictedIndex::new(shards)),
            evictions: AtomicU64::new(0),
            fault_ins: AtomicU64::new(0),
            demand_redirects: AtomicU64::new(0),
        }
    }

    /// Index a freshly resident module and stamp its last-call time
    /// (so it is not instantly idle-evicted). Only the part that never
    /// moves is indexed, so a rerandomization cycle cannot leave a
    /// stale span behind: the immovable part when there is one
    /// (wrappers and exports live there, the scheduler's call-rate
    /// observer's rule), else the movable part — a module without an
    /// immovable part is not rerandomizable, so that part stays put.
    fn insert_module(&self, shard: usize, m: &LoadedModule) {
        let (base, pages) = match &m.immovable {
            Some(imm) => (imm.base, imm.total_pages),
            None => (
                m.movable_base.load(Ordering::Acquire),
                m.movable.total_pages,
            ),
        };
        let end = base + (pages * PAGE_SIZE) as u64;
        let mut ranges = self.ranges.lock();
        let v = &mut ranges[shard];
        let at = v.partition_point(|&(s, _, _)| s < base);
        v.insert(at, (base, end, m.name.clone()));
        drop(ranges);
        self.last_call
            .lock()
            .insert(m.name.clone(), self.now_ns.load(Ordering::Relaxed));
    }

    /// Drop a module's span index entry in `shard`.
    fn remove_module(&self, shard: usize, name: &str) {
        self.ranges.lock()[shard].retain(|(_, _, n)| n.as_ref() != name);
    }

    /// Which resident module (in `shard`) covers `va`, if any.
    fn resolve(&self, shard: usize, va: u64) -> Option<Arc<str>> {
        let ranges = self.ranges.lock();
        let v = &ranges[shard];
        let at = v.partition_point(|&(s, _, _)| s <= va);
        at.checked_sub(1).and_then(|i| {
            let (start, end, ref name) = v[i];
            (va >= start && va < end).then(|| name.clone())
        })
    }
}

/// What [`Fleet::recover_shard`] did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The recovered shard.
    pub shard: usize,
    /// Modules torn down and rebuilt from the install catalog, sorted.
    pub rebuilt: Vec<String>,
    /// Modules that could not be rebuilt, with the error — their
    /// catalog records are dropped (the fleet no longer serves them).
    pub failed: Vec<(String, String)>,
    /// Every `(base, span_bytes)` the rebuild unmapped — the oracle
    /// probes these to prove no stale mapping survived.
    pub vacated: Vec<(u64, u64)>,
}

/// The fleet: per-shard registries + placement + the install catalog.
pub struct Fleet {
    sharded: Arc<ShardedKernel>,
    registries: Vec<Arc<ModuleRegistry>>,
    placement: Box<dyn ShardPlacement>,
    /// Serializes fleet-level mutations (install / register / evict /
    /// unload / recovery) so placement decisions see a consistent
    /// view. Traffic and re-randomization never take it. `Arc` so the
    /// demand loader (which runs inside `Vm::call`) can consult the
    /// recipe without a back-reference to the fleet. Lock order:
    /// `catalog` before any [`ColdTier`] lock, never the reverse.
    catalog: Arc<Mutex<Catalog>>,
    /// Per-shard occupancy, maintained incrementally (see
    /// [`ShardCounter`]).
    counters: Arc<Mutex<Vec<ShardCounter>>>,
    /// The cold-module tier, once [`Fleet::enable_cold_tier`] ran.
    cold: Mutex<Option<Arc<ColdTier>>>,
    admission: AdmissionConfig,
}

impl Fleet {
    /// A fleet over `sharded` placing modules with `placement`, under
    /// default admission limits.
    pub fn new(sharded: Arc<ShardedKernel>, placement: Box<dyn ShardPlacement>) -> Fleet {
        Fleet::with_admission(sharded, placement, AdmissionConfig::default())
    }

    /// [`Fleet::new`] with explicit admission-control limits.
    pub fn with_admission(
        sharded: Arc<ShardedKernel>,
        placement: Box<dyn ShardPlacement>,
        admission: AdmissionConfig,
    ) -> Fleet {
        let registries: Vec<Arc<ModuleRegistry>> =
            sharded.shards().iter().map(ModuleRegistry::new).collect();
        let shards = registries.len();
        Fleet {
            sharded,
            registries,
            placement,
            catalog: Arc::new(Mutex::new(HashMap::new())),
            counters: Arc::new(Mutex::new(vec![ShardCounter::default(); shards])),
            cold: Mutex::new(None),
            admission,
        }
    }

    /// The underlying shard set.
    pub fn sharded(&self) -> &Arc<ShardedKernel> {
        &self.sharded
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.registries.len()
    }

    /// Never true (a fleet has ≥ 1 shard).
    pub fn is_empty(&self) -> bool {
        self.registries.is_empty()
    }

    /// Shard `i`'s kernel.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn kernel(&self, i: usize) -> &Arc<Kernel> {
        self.sharded.shard(i)
    }

    /// Shard `i`'s module registry.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn registry(&self, i: usize) -> &Arc<ModuleRegistry> {
        &self.registries[i]
    }

    /// Which shard currently owns `name`.
    pub fn shard_of(&self, name: &str) -> Option<usize> {
        self.catalog.lock().get(name).map(|r| r.shard)
    }

    /// `(module, shard)` for everything installed, sorted by name
    /// (deterministic iteration for tests and dumps).
    pub fn modules(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .catalog
            .lock()
            .iter()
            .map(|(n, r)| (n.to_string(), r.shard))
            .collect();
        v.sort();
        v
    }

    /// Current per-shard loads (what placement policies consult).
    /// `modules` counts the shard's catalog records, resident or cold.
    /// Read from incrementally maintained counters: O(shards), not
    /// O(catalog), which is what keeps admission cheap at 10^5+
    /// registered modules.
    pub fn loads(&self) -> Vec<ShardLoad> {
        self.counters
            .lock()
            .iter()
            .enumerate()
            .map(|(shard, c)| ShardLoad {
                shard,
                modules: c.resident + c.cold,
                mapped_bytes: c.mapped_bytes,
            })
            .collect()
    }

    /// Admission check against the occupancy of `shard`.
    fn check_occupancy(&self, shard: usize) -> Result<(), FleetError> {
        let c = self.counters.lock()[shard];
        let modules = c.resident + c.cold;
        if modules >= self.admission.max_modules_per_shard {
            return Err(FleetError::Overloaded {
                shard,
                modules,
                limit: self.admission.max_modules_per_shard,
            });
        }
        Ok(())
    }

    /// The installed cold tier, if enabled.
    fn cold_tier(&self) -> Option<Arc<ColdTier>> {
        self.cold.lock().clone()
    }

    /// Every live VA span in the fleet:
    /// `(shard, module, base, span_bytes)` for both parts of every
    /// installed module — the ground truth the cross-shard overlap and
    /// window-confinement invariants are checked against.
    pub fn live_spans(&self) -> Vec<(usize, String, u64, u64)> {
        let catalog = self.catalog.lock();
        let mut spans = Vec::new();
        for (name, rec) in catalog.iter() {
            let Some(m) = self.registries[rec.shard].get(name) else {
                continue;
            };
            let base = m.movable_base.load(Ordering::Acquire);
            spans.push((
                rec.shard,
                name.to_string(),
                base,
                (m.movable.total_pages * PAGE_SIZE) as u64,
            ));
            if let Some(imm) = &m.immovable {
                spans.push((
                    rec.shard,
                    name.to_string(),
                    imm.base,
                    (imm.total_pages * PAGE_SIZE) as u64,
                ));
            }
        }
        spans.sort();
        spans
    }

    /// Audit the fleet's live layout: every registry resident must have
    /// a catalog record naming its shard, every span must sit wholly
    /// inside its owning shard's window, and all spans must be pairwise
    /// disjoint (within a shard *and* across shards — windows tile, so
    /// a cross-shard overlap is also a window escape, but both are
    /// reported by name). The single checker behind `FleetSim::verify`,
    /// the fleet bench, and the placement proptests, so the invariant
    /// cannot drift between its enforcers. Returns human-readable
    /// violations; empty = clean.
    pub fn verify_layout(&self) -> Vec<String> {
        let mut violations = Vec::new();
        {
            let catalog = self.catalog.lock();
            for (shard, registry) in self.registries.iter().enumerate() {
                for name in registry.list() {
                    match catalog.get(name.as_str()).map(|r| r.shard) {
                        Some(owner) if owner == shard => {}
                        owner => violations.push(format!(
                            "uncataloged resident: {name} in shard {shard}, \
                             catalog owner {owner:?}"
                        )),
                    }
                }
            }
        }
        let spans = self.live_spans();
        for (i, &(shard_a, ref a, base_a, span_a)) in spans.iter().enumerate() {
            let (lo, hi) = self.sharded.window(shard_a);
            if base_a < lo || base_a + span_a > hi {
                violations.push(format!(
                    "window escape: {a} (shard {shard_a}) spans \
                     {base_a:#x}+{span_a:#x} outside [{lo:#x}, {hi:#x})"
                ));
            }
            for &(shard_b, ref b, base_b, span_b) in spans.iter().skip(i + 1) {
                if base_a < base_b + span_b && base_b < base_a + span_a {
                    violations.push(format!(
                        "VA overlap: {a} (shard {shard_a}) {base_a:#x}+{span_a:#x} \
                         vs {b} (shard {shard_b}) {base_b:#x}+{span_b:#x}"
                    ));
                }
            }
        }
        violations
    }

    /// Install a module: placement picks the shard, the shard's
    /// registry loads it (init runs in that shard), the catalog records
    /// the recipe for fault-in and crash recovery. Returns
    /// `(shard, module)`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Load`] when the shard's loader rejects the object;
    /// [`FleetError::DuplicateModule`] when the name is already
    /// installed (replacing the record would strand the old copy);
    /// [`FleetError::UnknownShard`] when the placement policy names a
    /// shard the fleet does not have;
    /// [`FleetError::Overloaded`] when the chosen shard is at its
    /// module cap (admission control — see [`AdmissionConfig`]).
    pub fn install(
        &self,
        obj: &ObjectFile,
        opts: &TransformOptions,
    ) -> Result<(usize, Arc<LoadedModule>), FleetError> {
        let mut catalog = self.catalog.lock();
        if catalog.contains_key(obj.name.as_str()) {
            return Err(FleetError::DuplicateModule(obj.name.clone()));
        }
        let loads = self.loads();
        let shard = self.placement.place(&obj.name, &loads);
        if shard >= loads.len() {
            return Err(FleetError::UnknownShard(shard));
        }
        self.check_occupancy(shard)?;
        let recipe = Recipe::new(obj, opts);
        let module = recipe.load(&self.registries[shard])?;
        catalog.insert(
            module.name.clone(),
            InstallRecord {
                shard,
                recipe,
                resident: true,
            },
        );
        {
            let mut counters = self.counters.lock();
            counters[shard].resident += 1;
            counters[shard].mapped_bytes += module.mapped_bytes();
        }
        if let Some(tier) = self.cold_tier() {
            tier.insert_module(shard, &module);
        }
        self.sharded.shard(shard).printk.log(format!(
            "fleet: {} placed on shard {shard} ({})",
            module.name,
            self.placement.name()
        ));
        Ok((shard, module))
    }

    /// Register a module in the catalog *cold*: placement picks the
    /// shard and the recipe is recorded, but nothing is loaded — the
    /// module materializes on first call (demand fault) or via
    /// [`Fleet::ensure_resident`]. This is how a 10^5–10^6-module
    /// catalog stays cheap: a registration is one hash insert, no
    /// mapping, no init. Counts toward the shard's occupancy.
    ///
    /// # Errors
    ///
    /// Same admission errors as [`Fleet::install`], minus `Load` (no
    /// load happens).
    pub fn register(&self, obj: &ObjectFile, opts: &TransformOptions) -> Result<usize, FleetError> {
        let mut catalog = self.catalog.lock();
        if catalog.contains_key(obj.name.as_str()) {
            return Err(FleetError::DuplicateModule(obj.name.clone()));
        }
        let loads = self.loads();
        let shard = self.placement.place(&obj.name, &loads);
        if shard >= loads.len() {
            return Err(FleetError::UnknownShard(shard));
        }
        self.check_occupancy(shard)?;
        catalog.insert(
            Arc::from(obj.name.as_str()),
            InstallRecord {
                shard,
                recipe: Recipe::new(obj, opts),
                resident: false,
            },
        );
        self.counters.lock()[shard].cold += 1;
        self.sharded.shard(shard).printk.log_limited(
            "fleet-register",
            format!(
                "fleet: {} registered cold on shard {shard} ({})",
                obj.name,
                self.placement.name()
            ),
        );
        Ok(shard)
    }

    /// Crash-recover shard `shard`: tear down every module its catalog
    /// records hold resident there (forced — a crashed shard's exits
    /// don't get a vote) and rebuild each from the install catalog's
    /// stored object + options, in name order (deterministic). Callers
    /// drive this from a [`ShardWatchdog`](crate::ShardWatchdog)
    /// verdict, then rebuild the shard's scheduler group.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownShard`]. Per-module rebuild failures are
    /// reported in the [`RecoveryReport`], not as an error — recovery
    /// salvages what it can.
    pub fn recover_shard(&self, shard: usize) -> Result<RecoveryReport, FleetError> {
        if shard >= self.registries.len() {
            return Err(FleetError::UnknownShard(shard));
        }
        let mut catalog = self.catalog.lock();
        let registry = &self.registries[shard];
        let mut names: Vec<Arc<str>> = catalog
            .iter()
            .filter(|(_, rec)| rec.shard == shard)
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        let kernel = self.sharded.shard(shard);
        let mut report = RecoveryReport {
            shard,
            ..RecoveryReport::default()
        };
        let cold_tier = self.cold_tier();
        for name in names {
            let resident = registry.get(&name);
            if cold_tier.is_some() && resident.is_none() {
                // Cold tier enabled: a catalog record without a
                // resident copy is cold *by design* — its spans are
                // already unmapped and its recipe intact, so recovery
                // leaves it to fault back in on first call instead of
                // materializing the whole catalog.
                continue;
            }
            if let Some(m) = resident {
                let base = m.movable_base.load(Ordering::Acquire);
                let mut spans = vec![(base, (m.movable.total_pages * PAGE_SIZE) as u64)];
                if let Some(imm) = &m.immovable {
                    spans.push((imm.base, (imm.total_pages * PAGE_SIZE) as u64));
                }
                if let Err(e) = registry.force_unload(&name) {
                    // Retire batch failed: the old mappings survive and
                    // their frames are withheld, so the spans are NOT
                    // vacated — the oracle must not probe them as
                    // reclaimed. Reloading on top would double-serve
                    // the name, so drop the module from the fleet
                    // entirely.
                    report.failed.push((name.to_string(), e));
                    catalog.remove(&name);
                    continue;
                }
                // Vacated only after the teardown actually unmapped the
                // spans: the layout oracle probes them to prove no
                // stale mapping survives rebuild.
                report.vacated.extend(spans);
            }
            match catalog[&name].recipe.load(registry) {
                Ok(_) => report.rebuilt.push(name.to_string()),
                Err(e) => {
                    report.failed.push((name.to_string(), e.to_string()));
                    catalog.remove(&name);
                }
            }
        }
        // Recompute this shard's occupancy counters from the rebuilt
        // ground truth (teardown/rebuild interleavings are easier to
        // recount than to track), and re-index the cold tier's resident
        // spans for the shard.
        {
            let mut c = ShardCounter::default();
            for (name, rec) in catalog.iter_mut().filter(|(_, rec)| rec.shard == shard) {
                let resident = registry.get(name);
                rec.resident = resident.is_some();
                match resident {
                    Some(m) => {
                        c.resident += 1;
                        c.mapped_bytes += m.mapped_bytes();
                    }
                    None => c.cold += 1,
                }
            }
            self.counters.lock()[shard] = c;
        }
        if let Some(tier) = cold_tier {
            tier.ranges.lock()[shard].clear();
            for name in registry.list() {
                if let Some(m) = registry.get(&name) {
                    tier.insert_module(shard, &m);
                }
            }
        }
        kernel.printk.log(format!(
            "fleet: shard {shard} recovered ({} rebuilt, {} failed)",
            report.rebuilt.len(),
            report.failed.len()
        ));
        Ok(report)
    }

    /// Unload `name` from whichever shard owns it.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModule`] / [`FleetError::Unload`].
    pub fn unload(&self, name: &str) -> Result<(), FleetError> {
        let mut catalog = self.catalog.lock();
        let (shard, counted) = catalog
            .get(name)
            .map(|rec| (rec.shard, rec.resident))
            .ok_or_else(|| FleetError::UnknownModule(name.to_string()))?;
        let resident = counted.then(|| self.registries[shard].get(name)).flatten();
        let Some(module) = resident else {
            // Cold: nothing counted is mapped — deregistering is a
            // catalog edit. A copy a fault-in is loading right now is
            // the fault-in's to unload once it sees the record gone.
            catalog.remove(name);
            let mut counters = self.counters.lock();
            counters[shard].cold = counters[shard].cold.saturating_sub(1);
            drop(counters);
            if let Some(tier) = self.cold_tier() {
                tier.evicted.lock().remove(name);
                tier.last_call.lock().remove(name);
            }
            return Ok(());
        };
        let bytes = module.mapped_bytes();
        drop(module);
        // Registry unload first: if it fails (exit fault, withheld
        // retire), the catalog record survives, so the module stays
        // visible to every fleet audit and the unload is retryable.
        self.registries[shard]
            .unload(name)
            .map_err(FleetError::Unload)?;
        catalog.remove(name);
        {
            let mut counters = self.counters.lock();
            counters[shard].resident -= 1;
            counters[shard].mapped_bytes -= bytes;
        }
        if let Some(tier) = self.cold_tier() {
            tier.remove_module(shard, name);
            tier.last_call.lock().remove(name);
        }
        Ok(())
    }

    /// Audit every installed module's fixed GOTs against its owning
    /// shard's symbol table (and verify each module's exports resolve
    /// there). Returns human-readable violations; empty = clean.
    pub fn verify_symbol_integrity(&self) -> Vec<String> {
        let catalog = self.catalog.lock();
        let cold_enabled = self.cold_tier().is_some();
        let mut violations = Vec::new();
        for (name, rec) in catalog.iter() {
            let kernel = self.sharded.shard(rec.shard);
            let Some(m) = self.registries[rec.shard].get(name) else {
                if cold_enabled {
                    // Cold by design: a record without a resident copy
                    // is the tier working, not a lost module.
                    continue;
                }
                violations.push(format!(
                    "{name}: catalog says shard {} but the registry lost it",
                    rec.shard
                ));
                continue;
            };
            violations.extend(crate::verify_fixed_gots(kernel, &m));
            violations.extend(crate::verify_plt_bindings(kernel, &m));
            for (export, va) in &m.exports {
                match kernel.symbols.lookup(export) {
                    Some(published) if published == *va => {}
                    Some(published) => violations.push(format!(
                        "{name}: export {export} published at {published:#x} \
                         but the module says {va:#x}"
                    )),
                    None => violations.push(format!(
                        "{name}: export {export} unreachable from shard {}'s \
                         symbol table",
                        rec.shard
                    )),
                }
            }
        }
        violations
    }

    /// Enable the cold-module tier: installs a per-shard call observer
    /// (last-call stamps, alongside the scheduler's primary slot) and a
    /// per-shard demand loader (stale entry VAs into evicted modules
    /// fault the module back in from its catalog record). After this, [`Fleet::cold_tick`] evicts idle
    /// and over-cap residents, and [`Fleet::register`] +
    /// [`Fleet::ensure_resident`] give a 10^5–10^6-module catalog a
    /// bounded resident working set.
    pub fn enable_cold_tier(&self, cfg: ColdTierConfig) {
        let tier = Arc::new(ColdTier::new(cfg, self.registries.len()));
        // Seed the span index with what is already resident.
        for (shard, registry) in self.registries.iter().enumerate() {
            for name in registry.list() {
                if let Some(m) = registry.get(&name) {
                    tier.insert_module(shard, &m);
                }
            }
        }
        for (shard, kernel) in self.sharded.shards().iter().enumerate() {
            // Call observer: stamp last-call time. Leaf locks only —
            // safe from inside any Vm::call.
            let t = tier.clone();
            kernel.add_call_observer(Arc::new(move |entry| {
                if let Some(name) = t.resolve(shard, entry) {
                    let now = t.now_ns.load(Ordering::Relaxed);
                    t.last_call.lock().insert(name, now);
                }
            }));
            // Demand loader: resolve the faulting VA against the
            // evicted-span index, rebuild the module from its catalog
            // record, and forward the VA to the rebuilt copy (part
            // images keep their internal layout, so the entry's offset
            // from its part base is invariant across the reload).
            let t = tier.clone();
            let catalog = Arc::clone(&self.catalog);
            let counters = Arc::clone(&self.counters);
            let registry = Arc::clone(&self.registries[shard]);
            kernel.set_demand_loader(Arc::new(move |va| {
                let (name, old) = t.evicted.lock().resolve(shard, va)?;
                // try_lock: install, unload, evict, cold_tick and
                // recover_shard hold the catalog while a module's
                // interpreted init or exit runs; a demand fault from
                // inside that code would deadlock here, so the fault
                // stands and the caller retries.
                let recipe = {
                    let catalog = catalog.try_lock()?;
                    let rec = catalog.get(&name)?;
                    if rec.shard != shard {
                        // Never redirect into another shard's window.
                        return None;
                    }
                    rec.recipe.clone()
                };
                let module =
                    materialize(&catalog, &registry, &counters, Some(&t), shard, &recipe).ok()?;
                let new_va = if va >= old.imm_base && va < old.imm_base + old.imm_span {
                    module.immovable.as_ref()?.base + (va - old.imm_base)
                } else {
                    module.movable_base.load(Ordering::Acquire) + (va - old.mov_base)
                };
                t.demand_redirects.fetch_add(1, Ordering::Relaxed);
                Some(new_va)
            }));
        }
        *self.cold.lock() = Some(tier);
    }

    /// Whether [`Fleet::enable_cold_tier`] has run.
    pub fn cold_tier_enabled(&self) -> bool {
        self.cold.lock().is_some()
    }

    /// Make `name` resident (fault it in from its catalog record if it
    /// is cold). Returns `(shard, module)`. Cheap when already
    /// resident. Works with or without the cold tier enabled — this is
    /// also how a "lost" module (catalog record without a resident
    /// copy) self-heals.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModule`] / [`FleetError::Load`]. A module
    /// unloaded while it was being faulted in is `UnknownModule`, and
    /// the copy the fault-in loaded is unloaded again.
    pub fn ensure_resident(&self, name: &str) -> Result<(usize, Arc<LoadedModule>), FleetError> {
        let (shard, recipe) = {
            let catalog = self.catalog.lock();
            let rec = catalog
                .get(name)
                .ok_or_else(|| FleetError::UnknownModule(name.to_string()))?;
            if let Some(m) = self.registries[rec.shard].get(name) {
                return Ok((rec.shard, m));
            }
            (rec.shard, rec.recipe.clone())
        };
        // The catalog lock is dropped before loading: init runs
        // interpreted code, which must be able to demand-fault.
        let tier = self.cold_tier();
        let module = materialize(
            &self.catalog,
            &self.registries[shard],
            &self.counters,
            tier.as_deref(),
            shard,
            &recipe,
        )?;
        Ok((shard, module))
    }

    /// Evict `name` to the cold tier: graceful unload (exit runs, both
    /// parts retire as one batched shootdown) with the catalog record
    /// kept as the fault-in recipe — a one-element
    /// [`Fleet::cold_tick`] batch. Idempotent for already-cold modules.
    /// On an unload failure (trapping exit) the module stays resident
    /// and serving.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModule`] / [`FleetError::Unload`].
    pub fn evict(&self, name: &str) -> Result<(), FleetError> {
        let mut catalog = self.catalog.lock();
        let rec = catalog
            .get(name)
            .ok_or_else(|| FleetError::UnknownModule(name.to_string()))?;
        // A copy not yet counted resident is a fault-in in flight: it
        // is the fault-in's to finish, and the counters do not count
        // it, so evicting it would underflow them.
        if !rec.resident {
            return Ok(());
        }
        let shard = rec.shard;
        self.evict_batch(&mut catalog, shard, &[name])
            .pop()
            .expect("one result per name")
    }

    /// Evict `names` — residents of `shard`, owned there by the catalog
    /// the caller holds locked, each with a record counted resident —
    /// as one teardown: their exits run in
    /// order, every module that survived its exit retires in one vmem
    /// batch ([`ModuleRegistry::unload_many`]), and the fleet's
    /// bookkeeping runs once for the batch — the counters under one
    /// lock, one pass over the resident span index, then the
    /// last-call stamps and the evicted index. One printk line names
    /// the batch. Returns one result per name, in order.
    fn evict_batch(
        &self,
        catalog: &mut Catalog,
        shard: usize,
        names: &[&str],
    ) -> Vec<Result<(), FleetError>> {
        let registry = &self.registries[shard];
        let records: Vec<Option<(Arc<str>, EvictedModule, usize)>> = names
            .iter()
            .map(|name| {
                let m = registry.get(name)?;
                Some((
                    m.name.clone(),
                    EvictedModule::of(shard, &m),
                    m.mapped_bytes(),
                ))
            })
            .collect();
        let results = registry.unload_many(names, true);
        let evicted: Vec<(Arc<str>, EvictedModule, usize)> = records
            .into_iter()
            .zip(&results)
            .filter_map(|(rec, result)| rec.filter(|_| result.is_ok()))
            .collect();
        if !evicted.is_empty() {
            {
                let mut counters = self.counters.lock();
                for (name, _, bytes) in &evicted {
                    let rec = catalog.get_mut(name).expect("victims have records");
                    debug_assert!(rec.resident, "{name} evicted while not counted resident");
                    rec.resident = false;
                    counters[shard].resident -= 1;
                    counters[shard].cold += 1;
                    counters[shard].mapped_bytes -= bytes;
                }
            }
            if let Some(tier) = self.cold_tier() {
                let gone: HashSet<&str> = evicted.iter().map(|(n, _, _)| &**n).collect();
                tier.ranges.lock()[shard].retain(|(_, _, n)| !gone.contains(&**n));
                {
                    // Only residents carry a stamp; fault-in re-stamps it.
                    let mut last = tier.last_call.lock();
                    for name in &gone {
                        last.remove(*name);
                    }
                }
                let mut index = tier.evicted.lock();
                for (name, rec, _) in &evicted {
                    index.insert(name.clone(), *rec);
                }
                tier.evictions
                    .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            }
            let label = evicted
                .iter()
                .map(|(n, _, _)| &**n)
                .collect::<Vec<_>>()
                .join(", ");
            self.sharded.shard(shard).printk.log_limited(
                "fleet-evict",
                format!("fleet: {label} evicted cold from shard {shard}"),
            );
        }
        results
            .into_iter()
            .map(|r| r.map_err(FleetError::Unload))
            .collect()
    }

    /// Advance the cold tier's clock to `now_ns` (whatever clock the
    /// caller drives — the stepped testkit clock in tests) and evict
    /// idle residents plus least-recently-called residents beyond
    /// `max_resident`. Eviction order is `(last_call, name)` —
    /// deterministic for a deterministic call history. A module whose
    /// exit traps stays resident, and the next candidate is considered
    /// in its place. Returns the evicted names, in that order. No-op
    /// until [`Fleet::enable_cold_tier`].
    ///
    /// Each shard's victims go as one [`Fleet::evict`]-style batch: one
    /// page-table transaction and one shootdown per shard, under one
    /// catalog lock. Victims are chosen assuming every eviction
    /// succeeds; only when an exit traps does the tick choose again
    /// from the next candidate and run a second round of batches, so
    /// the evicted set is exactly what evicting one name at a time
    /// would give. The tick ends by reclaiming the page-table
    /// snapshots it retired, so callers' next fault-ins do not pay for
    /// dropping them.
    pub fn cold_tick(&self, now_ns: u64) -> Vec<String> {
        let Some(tier) = self.cold_tier() else {
            return Vec::new();
        };
        tier.now_ns.store(now_ns, Ordering::Relaxed);
        let mut catalog = self.catalog.lock();
        let mut candidates: Vec<(u64, Arc<str>, usize)> = Vec::new();
        {
            // The span index holds exactly the copies the counters
            // count resident: a fault-in still running (a tick called
            // from an init) is indexed only once it completes, so it
            // is no victim.
            let ranges = tier.ranges.lock();
            let last = tier.last_call.lock();
            for (shard, index) in ranges.iter().enumerate() {
                for (_, _, name) in index {
                    let stamp = last.get(name).copied().unwrap_or(0);
                    candidates.push((stamp, name.clone(), shard));
                }
            }
        }
        // Names are unique across the fleet's residents, so the shard
        // never breaks a tie.
        candidates.sort();
        let mut evicted = vec![false; candidates.len()];
        let mut touched = vec![false; self.registries.len()];
        let mut remaining = candidates.len();
        let mut next = 0;
        loop {
            let start = next;
            let mut assumed = remaining;
            while let Some(&(stamp, _, _)) = candidates.get(next) {
                let idle = stamp.saturating_add(tier.cfg.idle_ns) <= now_ns;
                if !idle && assumed <= tier.cfg.max_resident {
                    break;
                }
                assumed -= 1;
                next += 1;
            }
            if start == next {
                break;
            }
            for (shard, touched) in touched.iter_mut().enumerate() {
                let round: Vec<usize> = (start..next)
                    .filter(|&i| candidates[i].2 == shard)
                    .collect();
                if round.is_empty() {
                    continue;
                }
                *touched = true;
                let names: Vec<&str> = round.iter().map(|&i| &*candidates[i].1).collect();
                let results = self.evict_batch(&mut catalog, shard, &names);
                for (i, result) in round.into_iter().zip(results) {
                    if result.is_ok() {
                        evicted[i] = true;
                        remaining -= 1;
                    }
                }
            }
        }
        drop(catalog);
        for (shard, _) in touched.iter().enumerate().filter(|(_, &t)| t) {
            self.sharded.shard(shard).space.flush_snapshots();
        }
        candidates
            .into_iter()
            .zip(evicted)
            .filter_map(|((_, name, _), gone)| gone.then(|| name.to_string()))
            .collect()
    }

    /// Cold-tier counters plus a current fleet-wide occupancy snapshot
    /// (`resident` / `cold` are live whether or not the tier is on).
    pub fn cold_stats(&self) -> ColdTierStats {
        let (resident, cold) = {
            let counters = self.counters.lock();
            counters
                .iter()
                .fold((0, 0), |(r, k), c| (r + c.resident, k + c.cold))
        };
        match self.cold_tier() {
            Some(t) => ColdTierStats {
                evictions: t.evictions.load(Ordering::Relaxed),
                fault_ins: t.fault_ins.load(Ordering::Relaxed),
                demand_redirects: t.demand_redirects.load(Ordering::Relaxed),
                resident,
                cold,
            },
            None => ColdTierStats {
                resident,
                cold,
                ..ColdTierStats::default()
            },
        }
    }

    /// An evicted module's former `(base, span_bytes)` spans — what the
    /// layout oracle probes to prove the eviction really unmapped, and
    /// `None` once the module is resident (or never evicted).
    pub fn evicted_spans(&self, name: &str) -> Option<Vec<(u64, u64)>> {
        let t = self.cold_tier()?;
        let evicted = t.evicted.lock();
        evicted.get(name).map(|r| r.spans().collect())
    }
}

/// Load `recipe` into `registry`, shard `shard`'s, and do the fault-in
/// bookkeeping (counters, span index, evicted-index cleanup). Shared by
/// [`Fleet::ensure_resident`] and the per-shard demand loaders — the
/// latter run inside `Vm::call` with no `&Fleet` in reach, hence the
/// exploded borrows.
///
/// The caller read the catalog record and dropped the lock, so that
/// init can demand-fault. The record is checked again under the lock
/// after the load: if a [`Fleet::unload`] removed it meanwhile, or it
/// no longer names `shard`, the copy is unloaded and the fault-in
/// fails with [`FleetError::UnknownModule`].
fn materialize(
    catalog: &Mutex<Catalog>,
    registry: &ModuleRegistry,
    counters: &Mutex<Vec<ShardCounter>>,
    tier: Option<&ColdTier>,
    shard: usize,
    recipe: &Recipe,
) -> Result<Arc<LoadedModule>, FleetError> {
    let name = &recipe.name;
    let module = match recipe.load(registry) {
        Ok(m) => m,
        Err(e) => {
            // Lost a fault-in race: another caller materialized it
            // between our catalog read and the load.
            if let Some(m) = registry.get(name) {
                return Ok(m);
            }
            return Err(FleetError::Load(e));
        }
    };
    let mut catalog = catalog.lock();
    match catalog.get_mut(name) {
        Some(rec) if rec.shard == shard => {
            if rec.resident {
                // A shard recovery counted the copy while init ran.
                return Ok(module);
            }
            rec.resident = true;
        }
        _ => {
            if registry.unload(name).is_err() {
                // The copy must not outlive its record: skip the exit.
                let _ = registry.force_unload(name);
            }
            return Err(FleetError::UnknownModule(name.to_string()));
        }
    }
    {
        let mut c = counters.lock();
        c[shard].cold = c[shard].cold.saturating_sub(1);
        c[shard].resident += 1;
        c[shard].mapped_bytes += module.mapped_bytes();
    }
    if let Some(tier) = tier {
        tier.evicted.lock().remove(name);
        tier.insert_module(shard, &module);
        tier.fault_ins.fetch_add(1, Ordering::Relaxed);
    }
    drop(catalog);
    registry.kernel().printk.log_limited(
        "fleet-faultin",
        format!("fleet: {name} faulted in on shard {shard}"),
    );
    Ok(module)
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.registries.len())
            .field("placement", &self.placement.name())
            .field("modules", &self.modules())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_isa::{AluOp, Insn, Mem, Reg};
    use adelie_kernel::{layout, FleetConfig};
    use adelie_plugin::{transform, DataInit, DataSpec, FuncSpec, MOp, ModuleSpec};
    use adelie_vmem::Access;

    /// A stateful driver: `N_bump()` increments a `.bss` counter and
    /// returns it; `N_ops` is a pointer table (adjust slots).
    fn stateful_spec(name: &str) -> ModuleSpec {
        let mut spec = ModuleSpec::new(name);
        spec.funcs.push(FuncSpec::exported(
            &format!("{name}_bump"),
            vec![
                MOp::LoadLocalSym(Reg::Rcx, format!("{name}_counter")),
                MOp::Insn(Insn::MovLoad {
                    dst: Reg::Rax,
                    src: Mem::base(Reg::Rcx),
                }),
                MOp::Insn(Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg::Rax,
                    imm: 1,
                }),
                MOp::Insn(Insn::MovStore {
                    dst: Mem::base(Reg::Rcx),
                    src: Reg::Rax,
                }),
                MOp::Ret,
            ],
        ));
        spec.data.push(DataSpec {
            name: format!("{name}_counter"),
            readonly: false,
            init: DataInit::Zero(8),
        });
        spec.data.push(DataSpec {
            name: format!("{name}_ops"),
            readonly: false,
            init: DataInit::PtrTable(vec![format!("{name}_bump")]),
        });
        spec
    }

    /// [`stateful_spec`] plus an exit entry that traps.
    fn trapping_spec(name: &str) -> ModuleSpec {
        let mut spec = stateful_spec(name);
        spec.funcs.push(FuncSpec::exported(
            &format!("{name}_exit"),
            vec![MOp::Insn(Insn::Ud2)],
        ));
        spec.exit = Some(format!("{name}_exit"));
        spec
    }

    fn fleet(shards: usize, placement: Box<dyn ShardPlacement>) -> Fleet {
        Fleet::new(
            adelie_kernel::ShardedKernel::new(FleetConfig::seeded(shards, 11)),
            placement,
        )
    }

    #[test]
    fn round_robin_spreads_and_windows_confine() {
        let fleet = fleet(3, Box::new(RoundRobin::new()));
        let opts = TransformOptions::rerandomizable(true);
        for i in 0..6 {
            let obj = transform(&stateful_spec(&format!("m{i}")), &opts).unwrap();
            let (shard, module) = fleet.install(&obj, &opts).unwrap();
            assert_eq!(shard, i % 3, "round-robin placement");
            let (lo, hi) = fleet.sharded().window(shard);
            let base = module.movable_base.load(Ordering::Acquire);
            assert!(base >= lo && base < hi, "movable base outside window");
            if let Some(imm) = &module.immovable {
                assert!(imm.base >= lo && imm.base < hi, "immovable outside window");
            }
        }
        assert!(fleet.verify_symbol_integrity().is_empty());
    }

    #[test]
    fn load_weighted_prefers_the_lightest_shard() {
        let fleet = fleet(3, Box::new(LoadWeighted::new()));
        let opts = TransformOptions::rerandomizable(true);
        for i in 0..6 {
            let obj = transform(&stateful_spec(&format!("w{i}")), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        let loads = fleet.loads();
        let max = loads.iter().map(|l| l.modules).max().unwrap();
        let min = loads.iter().map(|l| l.modules).min().unwrap();
        assert!(max - min <= 1, "identical modules must balance: {loads:?}");
    }

    #[test]
    fn pinned_placement_honors_assignments() {
        let mut pins = HashMap::new();
        pins.insert("p0".to_string(), 2);
        let fleet = fleet(3, Box::new(Pinned::new(pins, 1)));
        let opts = TransformOptions::rerandomizable(true);
        let obj = transform(&stateful_spec("p0"), &opts).unwrap();
        assert_eq!(fleet.install(&obj, &opts).unwrap().0, 2);
        let obj = transform(&stateful_spec("p1"), &opts).unwrap();
        assert_eq!(fleet.install(&obj, &opts).unwrap().0, 1, "fallback shard");
    }

    /// Regression: a duplicate install used to silently replace the
    /// catalog record, orphaning the old copy in its shard; and an
    /// out-of-range pin used to be silently clamped onto the last
    /// shard. Both are now hard errors, leaving the fleet untouched.
    #[test]
    fn install_rejects_duplicates_and_out_of_range_pins() {
        let mut pins = HashMap::new();
        pins.insert("lost".to_string(), 7);
        let fleet = fleet(3, Box::new(Pinned::new(pins, 0)));
        let opts = TransformOptions::rerandomizable(true);
        let obj = transform(&stateful_spec("dup"), &opts).unwrap();
        let (shard, _) = fleet.install(&obj, &opts).unwrap();
        match fleet.install(&obj, &opts) {
            Err(FleetError::DuplicateModule(name)) => assert_eq!(name, "dup"),
            other => panic!("duplicate install must be rejected, got {other:?}"),
        }
        // Exactly one copy exists, where it was first placed.
        assert_eq!(fleet.shard_of("dup"), Some(shard));
        assert_eq!(fleet.live_spans().len(), 2, "one movable + one immovable");
        let obj = transform(&stateful_spec("lost"), &opts).unwrap();
        match fleet.install(&obj, &opts) {
            Err(FleetError::UnknownShard(7)) => {}
            other => panic!("out-of-range pin must be rejected, got {other:?}"),
        }
        assert_eq!(fleet.shard_of("lost"), None);
        assert!(fleet.verify_layout().is_empty());
        assert!(fleet.verify_symbol_integrity().is_empty());
    }

    /// Regression: a failed registry unload used to be preceded by the
    /// catalog removal (and the registry removal by the exit call), so
    /// the still-mapped module vanished from every fleet audit and the
    /// unload could never be retried.
    #[test]
    fn failed_unload_keeps_the_module_visible_and_retryable() {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        let opts = TransformOptions::rerandomizable(true);
        // An exit entry that traps: unload must fail closed.
        let obj = transform(&trapping_spec("stuck"), &opts).unwrap();
        let (shard, _) = fleet.install(&obj, &opts).unwrap();
        match fleet.unload("stuck") {
            Err(FleetError::Unload(e)) => assert!(e.contains("exit failed"), "{e}"),
            other => panic!("trapping exit must fail the unload, got {other:?}"),
        }
        // Still cataloged, still in the registry, still audited, still
        // serving — and the unload is retryable (same failure again).
        assert_eq!(fleet.shard_of("stuck"), Some(shard));
        assert!(fleet.registry(shard).get("stuck").is_some());
        assert_eq!(fleet.live_spans().len(), 2);
        assert!(fleet.verify_symbol_integrity().is_empty());
        let kernel = fleet.kernel(shard).clone();
        let mut vm = kernel.vm();
        let entry = fleet
            .registry(shard)
            .get("stuck")
            .unwrap()
            .export("stuck_bump")
            .unwrap();
        assert_eq!(vm.call(entry, &[]).unwrap(), 1);
        assert!(matches!(fleet.unload("stuck"), Err(FleetError::Unload(_))));
    }

    /// Crash recovery rebuilds a shard's modules from the install
    /// catalog: old spans are vacated, fresh copies serve, and the
    /// catalog keeps its tenancy.
    #[test]
    fn recover_shard_rebuilds_from_the_catalog() {
        let mut pins = HashMap::new();
        pins.insert("ra".to_string(), 0);
        pins.insert("rb".to_string(), 0);
        pins.insert("rc".to_string(), 1);
        let fleet = fleet(2, Box::new(Pinned::new(pins, 0)));
        let opts = TransformOptions::rerandomizable(true);
        for name in ["ra", "rb", "rc"] {
            let obj = transform(&stateful_spec(name), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        let kernel = fleet.kernel(0).clone();
        let bump = fleet
            .registry(0)
            .get("ra")
            .unwrap()
            .export("ra_bump")
            .unwrap();
        let mut vm = kernel.vm();
        assert_eq!(vm.call(bump, &[]).unwrap(), 1);
        drop(vm);
        let spans_before = fleet.live_spans();

        let report = fleet.recover_shard(0).unwrap();
        assert_eq!(report.rebuilt, vec!["ra".to_string(), "rb".to_string()]);
        assert!(report.failed.is_empty());
        // One movable + one immovable span per rebuilt module vacated,
        // and none of them still translate.
        assert_eq!(report.vacated.len(), 4);
        for &(base, _) in &report.vacated {
            assert!(
                kernel.space.translate(base, Access::Read).is_err(),
                "stale mapping survived rebuild at {base:#x}"
            );
        }
        // Tenancy unchanged; shard 1 untouched; fresh copies serve
        // (crash recovery rebuilds from the recipe — state restarts).
        assert_eq!(fleet.shard_of("ra"), Some(0));
        assert_eq!(fleet.shard_of("rc"), Some(1));
        let spans_after = fleet.live_spans();
        assert_eq!(spans_after.len(), spans_before.len());
        let bump = fleet
            .registry(0)
            .get("ra")
            .unwrap()
            .export("ra_bump")
            .unwrap();
        let mut vm = kernel.vm();
        assert_eq!(vm.call(bump, &[]).unwrap(), 1, "rebuilt state restarts");
        assert!(fleet.verify_layout().is_empty());
        assert!(fleet.verify_symbol_integrity().is_empty());
        // Recovering an unknown shard is a typed error.
        assert!(matches!(
            fleet.recover_shard(9),
            Err(FleetError::UnknownShard(9))
        ));
    }

    /// Admission control: a shard at its module cap refuses installs
    /// with a typed `Overloaded`.
    #[test]
    fn admission_caps_shard_occupancy() {
        let fleet = Fleet::with_admission(
            adelie_kernel::ShardedKernel::new(FleetConfig::seeded(2, 11)),
            Box::new(RoundRobin::new()),
            AdmissionConfig {
                max_modules_per_shard: 1,
            },
        );
        let opts = TransformOptions::rerandomizable(true);
        for name in ["a0", "a1"] {
            let obj = transform(&stateful_spec(name), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        let obj = transform(&stateful_spec("a2"), &opts).unwrap();
        match fleet.install(&obj, &opts) {
            Err(FleetError::Overloaded {
                shard,
                modules: 1,
                limit: 1,
            }) => assert_eq!(shard, 0, "round-robin wraps to the full shard"),
            other => panic!("cap must refuse the install, got {other:?}"),
        }
        assert!(fleet.verify_layout().is_empty());
    }

    /// Every registry resident has a catalog record naming its shard:
    /// a module loaded straight into a shard's registry, bypassing the
    /// catalog, is exactly one `verify_layout` violation.
    #[test]
    fn verify_layout_flags_a_resident_without_a_catalog_record() {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        let opts = TransformOptions::rerandomizable(true);
        for name in ["ok0", "ok1"] {
            let obj = transform(&stateful_spec(name), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        assert!(fleet.verify_layout().is_empty());
        let stray = transform(&stateful_spec("stray"), &opts).unwrap();
        fleet.registry(1).load(&stray, &opts).unwrap();
        let violations = fleet.verify_layout();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("stray") && violations[0].contains("shard 1"),
            "{violations:?}"
        );
    }

    /// The cold tier end to end: an idle module is evicted (spans
    /// unmapped, catalog record kept), a stale entry VA demand-faults
    /// it back in through the kernel's demand loader, and the redirect
    /// lands on the rebuilt copy.
    #[test]
    fn cold_tier_evicts_idle_and_demand_faults_back_in() {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        fleet.enable_cold_tier(ColdTierConfig {
            idle_ns: 1_000,
            max_resident: 64,
        });
        let opts = TransformOptions::rerandomizable(true);
        let obj = transform(&stateful_spec("cz"), &opts).unwrap();
        let (shard, module) = fleet.install(&obj, &opts).unwrap();
        let entry = module.export("cz_bump").unwrap();
        let old_mov = module.movable_base.load(Ordering::Acquire);
        let old_imm = module.immovable.as_ref().unwrap().base;
        drop(module);
        let kernel = fleet.kernel(shard).clone();
        {
            let mut vm = kernel.vm();
            assert_eq!(vm.call(entry, &[]).unwrap(), 1);
        }
        // Not yet idle: nothing to evict.
        assert!(fleet.cold_tick(500).is_empty());
        assert_eq!(fleet.cold_stats().resident, 1);
        // Idle past the window: evicted, spans unmapped, record kept.
        assert_eq!(fleet.cold_tick(2_000), vec!["cz".to_string()]);
        let stats = fleet.cold_stats();
        assert_eq!((stats.resident, stats.cold, stats.evictions), (0, 1, 1));
        assert!(kernel.space.translate(old_mov, Access::Read).is_err());
        assert!(kernel.space.translate(old_imm, Access::Read).is_err());
        assert_eq!(fleet.shard_of("cz"), Some(shard), "recipe survives");
        let spans = fleet.evicted_spans("cz").unwrap();
        assert!(spans.iter().any(|&(b, _)| b == old_mov));
        assert!(spans.iter().any(|&(b, _)| b == old_imm));
        assert!(fleet.verify_symbol_integrity().is_empty());
        // First call against the stale entry VA demand-faults the
        // module back in; state restarts (rebuild from the recipe).
        {
            let mut vm = kernel.vm();
            assert_eq!(vm.call(entry, &[]).unwrap(), 1, "faulted-in restart");
        }
        let stats = fleet.cold_stats();
        assert_eq!((stats.resident, stats.cold), (1, 0));
        assert_eq!(stats.fault_ins, 1);
        assert_eq!(stats.demand_redirects, 1);
        assert!(fleet.evicted_spans("cz").is_none());
        assert!(fleet.verify_layout().is_empty());
        assert!(fleet.verify_symbol_integrity().is_empty());
    }

    /// A module unloaded while it is being faulted in: its init calls a
    /// native that runs `Fleet::unload` on it, once through
    /// `ensure_resident` and once through the demand loader. The
    /// fault-in must notice the record is gone, unload its copy and
    /// fail, leaving no resident, no record and consistent counters.
    #[test]
    fn unload_during_fault_in_leaves_no_resident() {
        use std::sync::atomic::AtomicBool;
        let fleet = Arc::new(fleet(1, Box::new(RoundRobin::new())));
        fleet.enable_cold_tier(ColdTierConfig::default());
        let armed = Arc::new(AtomicBool::new(false));
        let (weak, gate) = (Arc::downgrade(&fleet), armed.clone());
        fleet
            .kernel(0)
            .symbols
            .register_native("test_unload_victim", move |_| {
                if gate.load(Ordering::Relaxed) {
                    let fleet = weak.upgrade().expect("fleet outlives its kernels' calls");
                    fleet
                        .unload("victim")
                        .map_err(|e| adelie_kernel::VmError::Native(e.to_string()))?;
                }
                Ok(0)
            });
        let mut spec = stateful_spec("victim");
        spec.funcs.push(FuncSpec::exported(
            "victim_init",
            vec![MOp::CallKernel("test_unload_victim".into()), MOp::Ret],
        ));
        spec.init = Some("victim_init".into());
        let opts = TransformOptions::rerandomizable(true);
        let obj = transform(&spec, &opts).unwrap();
        let gone = |fleet: &Fleet| {
            assert!(fleet.registry(0).get("victim").is_none(), "copy survived");
            assert_eq!(fleet.shard_of("victim"), None);
            let stats = fleet.cold_stats();
            assert_eq!((stats.resident, stats.cold), (0, 0));
            let violations = fleet.verify_layout();
            assert!(violations.is_empty(), "{violations:?}");
        };

        // Through ensure_resident.
        fleet.register(&obj, &opts).unwrap();
        armed.store(true, Ordering::Relaxed);
        assert!(matches!(
            fleet.ensure_resident("victim"),
            Err(FleetError::UnknownModule(_))
        ));
        gone(&fleet);

        // Through the demand loader: a stale entry VA into the evicted
        // copy faults it in, the unload runs in init, and the call
        // fails with the original fault instead of being redirected.
        armed.store(false, Ordering::Relaxed);
        let (_, module) = fleet.install(&obj, &opts).unwrap();
        let entry = module.export("victim_bump").unwrap();
        drop(module);
        fleet.evict("victim").unwrap();
        armed.store(true, Ordering::Relaxed);
        assert!(fleet.kernel(0).vm().call(entry, &[]).is_err());
        assert_eq!(fleet.cold_stats().demand_redirects, 0);
        gone(&fleet);
    }

    /// A cold tick and an explicit evict run from inside a module's
    /// init while that module is being faulted in. The copy is in the
    /// registry but its record does not count it resident yet, so it is
    /// no victim of either: the fault-in finishes, and the module is
    /// resident once, with consistent counters.
    #[test]
    fn evict_during_fault_in_leaves_the_copy_to_the_fault_in() {
        use std::sync::atomic::AtomicBool;
        let fleet = Arc::new(fleet(1, Box::new(RoundRobin::new())));
        // Every resident is idle and over the cap at every tick.
        fleet.enable_cold_tier(ColdTierConfig {
            idle_ns: 0,
            max_resident: 0,
        });
        let armed = Arc::new(AtomicBool::new(false));
        let (weak, gate) = (Arc::downgrade(&fleet), armed.clone());
        fleet
            .kernel(0)
            .symbols
            .register_native("test_evict_victim", move |_| {
                if gate.load(Ordering::Relaxed) {
                    let fleet = weak.upgrade().expect("fleet outlives its kernels' calls");
                    let evicted = fleet.cold_tick(1);
                    assert!(evicted.is_empty(), "tick evicted {evicted:?}");
                    fleet
                        .evict("victim")
                        .map_err(|e| adelie_kernel::VmError::Native(e.to_string()))?;
                }
                Ok(0)
            });
        let mut spec = stateful_spec("victim");
        spec.funcs.push(FuncSpec::exported(
            "victim_init",
            vec![MOp::CallKernel("test_evict_victim".into()), MOp::Ret],
        ));
        spec.init = Some("victim_init".into());
        let opts = TransformOptions::rerandomizable(true);
        let obj = transform(&spec, &opts).unwrap();
        let resident_once = |fleet: &Fleet| {
            let stats = fleet.cold_stats();
            assert_eq!((stats.resident, stats.cold), (1, 0));
            let violations = fleet.verify_layout();
            assert!(violations.is_empty(), "{violations:?}");
        };

        // Through ensure_resident.
        fleet.register(&obj, &opts).unwrap();
        armed.store(true, Ordering::Relaxed);
        let (_, module) = fleet.ensure_resident("victim").unwrap();
        resident_once(&fleet);
        let entry = module.export("victim_bump").unwrap();
        drop(module);
        assert_eq!(fleet.kernel(0).vm().call(entry, &[]).unwrap(), 1);

        // Through the demand loader: evict for real (the tick runs
        // outside any init now), then call the stale entry.
        armed.store(false, Ordering::Relaxed);
        assert_eq!(fleet.cold_tick(2), vec!["victim".to_string()]);
        armed.store(true, Ordering::Relaxed);
        assert_eq!(fleet.kernel(0).vm().call(entry, &[]).unwrap(), 1);
        assert_eq!(fleet.cold_stats().demand_redirects, 1);
        resident_once(&fleet);
    }

    /// `register` keeps a module cold (catalog-only) until first use;
    /// `ensure_resident` materializes it; unloading a cold module is a
    /// catalog edit.
    #[test]
    fn register_keeps_modules_cold_until_first_use() {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        fleet.enable_cold_tier(ColdTierConfig::default());
        let opts = TransformOptions::rerandomizable(true);
        for i in 0..10 {
            let obj = transform(&stateful_spec(&format!("r{i}")), &opts).unwrap();
            fleet.register(&obj, &opts).unwrap();
        }
        let stats = fleet.cold_stats();
        assert_eq!((stats.resident, stats.cold), (0, 10));
        assert!(fleet.live_spans().is_empty(), "nothing mapped yet");
        // Duplicate registration is refused like a duplicate install.
        let dup = transform(&stateful_spec("r3"), &opts).unwrap();
        assert!(matches!(
            fleet.register(&dup, &opts),
            Err(FleetError::DuplicateModule(_))
        ));
        let (shard, module) = fleet.ensure_resident("r3").unwrap();
        let entry = module.export("r3_bump").unwrap();
        let mut vm = fleet.kernel(shard).vm();
        assert_eq!(vm.call(entry, &[]).unwrap(), 1);
        drop(vm);
        let stats = fleet.cold_stats();
        assert_eq!((stats.resident, stats.cold), (1, 9));
        // Repeated ensure_resident is cheap and idempotent.
        assert_eq!(fleet.ensure_resident("r3").unwrap().0, shard);
        assert_eq!(fleet.cold_stats().fault_ins, 1);
        // Cold unload: catalog-only.
        fleet.unload("r5").unwrap();
        let stats = fleet.cold_stats();
        assert_eq!((stats.resident, stats.cold), (1, 8));
        assert_eq!(fleet.shard_of("r5"), None);
        assert!(matches!(
            fleet.ensure_resident("r5"),
            Err(FleetError::UnknownModule(_))
        ));
        assert!(fleet.verify_layout().is_empty());
        assert!(fleet.verify_symbol_integrity().is_empty());
    }

    /// The resident cap: `cold_tick` evicts least-recently-called
    /// residents beyond `max_resident`, deterministically.
    #[test]
    fn cold_tick_enforces_the_resident_cap() {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        fleet.enable_cold_tier(ColdTierConfig {
            idle_ns: u64::MAX,
            max_resident: 2,
        });
        let opts = TransformOptions::rerandomizable(true);
        for name in ["ca", "cb", "cc", "cd"] {
            let obj = transform(&stateful_spec(name), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        // All four share last_call = 0, so LRU order falls back to
        // names: the two lexicographically smallest are evicted.
        let evicted = fleet.cold_tick(1);
        assert_eq!(evicted, vec!["ca".to_string(), "cb".to_string()]);
        let stats = fleet.cold_stats();
        assert_eq!((stats.resident, stats.cold), (2, 2));
        // Fault one back in: over cap again, next tick trims again.
        fleet.ensure_resident("ca").unwrap();
        assert_eq!(fleet.cold_stats().resident, 3);
        assert_eq!(fleet.cold_tick(2).len(), 1);
        assert_eq!(fleet.cold_stats().resident, 2);
        assert!(fleet.verify_layout().is_empty());
    }

    /// Eviction drops the module's last-call stamp: the map holds
    /// exactly the residents, not every module ever called.
    #[test]
    fn last_call_stamps_only_residents_after_eviction() {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        fleet.enable_cold_tier(ColdTierConfig {
            idle_ns: u64::MAX,
            max_resident: 2,
        });
        let opts = TransformOptions::rerandomizable(true);
        for name in ["la", "lb", "lc", "ld", "le"] {
            let obj = transform(&stateful_spec(name), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        let stamped = |fleet: &Fleet| {
            let mut names: Vec<String> = fleet
                .cold_tier()
                .unwrap()
                .last_call
                .lock()
                .keys()
                .map(|n| n.to_string())
                .collect();
            names.sort();
            names
        };
        let residents = |fleet: &Fleet| {
            let mut names: Vec<String> = (0..2).flat_map(|s| fleet.registry(s).list()).collect();
            names.sort();
            names
        };
        assert_eq!(fleet.cold_tick(1).len(), 3);
        assert_eq!(stamped(&fleet), residents(&fleet));
        assert_eq!(stamped(&fleet).len(), 2);
        // Fault-in re-stamps; the next tick's evictions un-stamp.
        fleet.ensure_resident("la").unwrap();
        assert_eq!(stamped(&fleet), residents(&fleet));
        assert_eq!(fleet.cold_tick(2).len(), 1);
        assert_eq!(stamped(&fleet), residents(&fleet));
    }

    /// Install `names` round-robin on a 2-shard cold-tier fleet; the
    /// names in `trapping` get an exit that traps.
    fn cold_fleet(cfg: ColdTierConfig, names: &[&str], trapping: &[&str]) -> Fleet {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        fleet.enable_cold_tier(cfg);
        let opts = TransformOptions::rerandomizable(true);
        for &name in names {
            let spec = if trapping.contains(&name) {
                trapping_spec(name)
            } else {
                stateful_spec(name)
            };
            fleet
                .install(&transform(&spec, &opts).unwrap(), &opts)
                .unwrap();
        }
        fleet
    }

    /// Call `name`'s bump export in its shard with the tier clock at
    /// `now_ns`, stamping its last call there.
    fn bump_at(fleet: &Fleet, name: &str, now_ns: u64) -> u64 {
        fleet
            .cold_tier()
            .unwrap()
            .now_ns
            .store(now_ns, Ordering::Relaxed);
        let shard = fleet.shard_of(name).unwrap();
        let entry = fleet
            .registry(shard)
            .get(name)
            .unwrap()
            .export(&format!("{name}_bump"))
            .unwrap();
        fleet.kernel(shard).vm().call(entry, &[]).unwrap()
    }

    /// A batched tick keeps per-module semantics: the victim whose exit
    /// traps stays resident and serving, and the next candidate is
    /// evicted in its place, so the cap still holds.
    #[test]
    fn batched_eviction_skips_a_trapping_exit() {
        let cfg = ColdTierConfig {
            idle_ns: u64::MAX,
            max_resident: 2,
        };
        let fleet = cold_fleet(cfg, &["ta", "tb", "tc", "td"], &["ta"]);
        assert_eq!(bump_at(&fleet, "ta", 0), 1);
        // All stamps tie at 0: name order picks ta and tb, ta's exit
        // traps, and tc fills the gap.
        assert_eq!(fleet.cold_tick(1), vec!["tb".to_string(), "tc".to_string()]);
        let stats = fleet.cold_stats();
        assert_eq!((stats.resident, stats.cold, stats.evictions), (2, 2, 2));
        assert_eq!(
            bump_at(&fleet, "ta", 2),
            2,
            "the trapping module keeps serving"
        );
        assert!(fleet.evicted_spans("ta").is_none());
        assert!(fleet.evicted_spans("tc").is_some());
        assert!(fleet.verify_layout().is_empty());
        assert!(fleet.verify_symbol_integrity().is_empty());
    }

    /// The batched tick evicts exactly the names, in exactly the order,
    /// of a reference fleet evicting one name at a time with
    /// [`Fleet::evict`] — across idle and over-cap victims on both
    /// shards, with two trapping exits forcing a second round.
    #[test]
    fn batched_eviction_matches_one_at_a_time_eviction() {
        let names = ["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];
        let cfg = ColdTierConfig {
            idle_ns: 1_000,
            max_resident: 4,
        };
        let batched = cold_fleet(cfg, &names, &["e1", "e4"]);
        let reference = cold_fleet(cfg, &names, &["e1", "e4"]);
        for fleet in [&batched, &reference] {
            for name in ["e5", "e6", "e7"] {
                bump_at(fleet, name, 500);
            }
            for name in ["e9", "e8", "e2"] {
                bump_at(fleet, name, 1_500);
            }
        }
        let now = 1_600;
        let got = batched.cold_tick(now);
        // The pre-batching tick: candidates in (last_call, name) order,
        // one evict each, the cap re-checked against real successes.
        let tier = reference.cold_tier().unwrap();
        tier.now_ns.store(now, Ordering::Relaxed);
        let mut candidates: Vec<(u64, String)> = {
            let last = tier.last_call.lock();
            (0..2)
                .flat_map(|s| reference.registry(s).list())
                .map(|n| (last[n.as_str()], n))
                .collect()
        };
        candidates.sort();
        let mut remaining = candidates.len();
        let mut want = Vec::new();
        for (stamp, name) in candidates {
            if stamp + cfg.idle_ns > now && remaining <= cfg.max_resident {
                break;
            }
            if reference.evict(&name).is_ok() {
                remaining -= 1;
                want.push(name);
            }
        }
        assert_eq!(want, ["e0", "e3", "e5", "e6", "e7", "e2"]);
        assert_eq!(got, want);
        for fleet in [&batched, &reference] {
            let stats = fleet.cold_stats();
            assert_eq!((stats.resident, stats.cold, stats.evictions), (4, 6, 6));
            assert!(fleet.verify_layout().is_empty());
        }
    }

    /// One tick, one page-table batch and one shootdown per shard, however
    /// many victims each shard has.
    #[test]
    fn batched_eviction_costs_one_batch_per_shard() {
        let cfg = ColdTierConfig {
            idle_ns: u64::MAX,
            max_resident: 0,
        };
        let fleet = cold_fleet(cfg, &["b0", "b1", "b2", "b3", "b4", "b5"], &[]);
        let before: Vec<_> = (0..2).map(|s| fleet.kernel(s).space.stats()).collect();
        assert_eq!(fleet.cold_tick(1).len(), 6);
        for (shard, b) in before.iter().enumerate() {
            let a = fleet.kernel(shard).space.stats();
            assert_eq!(a.batches - b.batches, 1, "shard {shard} batches");
            assert_eq!(a.shootdowns - b.shootdowns, 1, "shard {shard} shootdowns");
        }
        assert!(fleet.verify_layout().is_empty());
    }

    #[test]
    fn live_spans_cover_every_part_and_stay_disjoint() {
        let fleet = fleet(4, Box::new(RoundRobin::new()));
        let opts = TransformOptions::rerandomizable(true);
        for i in 0..4 {
            let obj = transform(&stateful_spec(&format!("s{i}")), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        let spans = fleet.live_spans();
        assert_eq!(spans.len(), 8, "movable + immovable per module");
        for (i, &(shard_a, _, base_a, span_a)) in spans.iter().enumerate() {
            assert_eq!(
                fleet.sharded().shard_of_va(base_a),
                Some(shard_a),
                "span owner must match its window"
            );
            assert!(base_a + span_a <= layout::MODULE_CEILING);
            for &(_, _, base_b, span_b) in spans.iter().skip(i + 1) {
                assert!(
                    base_a + span_a <= base_b || base_b + span_b <= base_a,
                    "cross-shard VA overlap: {base_a:#x}+{span_a:#x} vs {base_b:#x}"
                );
            }
        }
    }

    /// A rerandomization cycle moves a resident module's movable part;
    /// the cold tier's resident span index must hold no span it left.
    #[test]
    fn resident_span_index_holds_only_live_spans_after_rerandomization() {
        let fleet = fleet(2, Box::new(RoundRobin::new()));
        fleet.enable_cold_tier(ColdTierConfig::default());
        let opts = TransformOptions::rerandomizable(true);
        for i in 0..4 {
            let obj = transform(&stateful_spec(&format!("x{i}")), &opts).unwrap();
            fleet.install(&obj, &opts).unwrap();
        }
        let shard = fleet.shard_of("x1").unwrap();
        let module = fleet.registry(shard).get("x1").unwrap();
        crate::rerandomize_module(fleet.kernel(shard), fleet.registry(shard), &module).unwrap();
        let live = fleet.live_spans();
        let tier = fleet.cold_tier().unwrap();
        let ranges = tier.ranges.lock();
        for (shard, spans) in ranges.iter().enumerate() {
            for (start, end, name) in spans {
                let span = (shard, name.to_string(), *start, end - start);
                assert!(live.contains(&span), "stale resident span {span:?}");
            }
        }
        let indexed: usize = ranges.iter().map(Vec::len).sum();
        assert_eq!(indexed, 4, "one span per module");
    }
}

#[cfg(test)]
mod evicted_index_tests {
    use super::*;
    use proptest::prelude::*;

    const PAGE: u64 = PAGE_SIZE as u64;

    fn rec(shard: usize, mov: (u64, u64), imm: (u64, u64)) -> EvictedModule {
        EvictedModule {
            shard,
            mov_base: mov.0,
            mov_span: mov.1,
            imm_base: imm.0,
            imm_span: imm.1,
        }
    }

    fn name_at(idx: &EvictedIndex, shard: usize, va: u64) -> Option<String> {
        idx.resolve(shard, va).map(|(n, _)| n.to_string())
    }

    #[test]
    fn resolves_hits_in_both_parts() {
        let mut idx = EvictedIndex::new(2);
        let a = rec(0, (0x10_0000, 2 * PAGE), (0x80_0000, PAGE));
        idx.insert("a".into(), a);
        for va in [
            0x10_0000,
            0x10_0000 + 2 * PAGE - 1,
            0x80_0000,
            0x80_0000 + PAGE - 1,
        ] {
            let (name, got) = idx.resolve(0, va).expect("covered");
            assert_eq!((name.as_ref(), got), ("a", a), "va {va:#x}");
        }
    }

    #[test]
    fn misses_gaps_and_other_shards() {
        let mut idx = EvictedIndex::new(2);
        idx.insert("a".into(), rec(0, (0x10_0000, 2 * PAGE), (0, 0)));
        idx.insert("b".into(), rec(0, (0x10_0000 + 4 * PAGE, PAGE), (0, 0)));
        // Below the first span, the exclusive end, the gap, past the last.
        for va in [
            0x10_0000 - 1,
            0x10_0000 + 2 * PAGE,
            0x10_0000 + 3 * PAGE,
            0x10_0000 + 5 * PAGE,
        ] {
            assert_eq!(name_at(&idx, 0, va), None, "va {va:#x}");
        }
        assert_eq!(name_at(&idx, 0, 0x10_0000 + 4 * PAGE), Some("b".into()));
        // The same VA in the other shard's index is a different space.
        assert_eq!(name_at(&idx, 1, 0x10_0000), None);
        idx.insert("c".into(), rec(1, (0x10_0000, PAGE), (0, 0)));
        assert_eq!(name_at(&idx, 1, 0x10_0000), Some("c".into()));
        assert_eq!(name_at(&idx, 0, 0x10_0000), Some("a".into()));
    }

    #[test]
    fn removal_by_name_drops_both_spans() {
        let mut idx = EvictedIndex::new(1);
        let a = rec(0, (0x10_0000, PAGE), (0x80_0000, PAGE));
        idx.insert("a".into(), a);
        idx.insert("b".into(), rec(0, (0x20_0000, PAGE), (0, 0)));
        assert_eq!(idx.remove("a"), Some(a));
        assert_eq!(idx.remove("a"), None);
        assert!(idx.get("a").is_none());
        assert_eq!(name_at(&idx, 0, 0x10_0000), None);
        assert_eq!(name_at(&idx, 0, 0x80_0000), None);
        assert_eq!(name_at(&idx, 0, 0x20_0000), Some("b".into()));
        // Re-inserting under a live name replaces the old spans.
        idx.insert("b".into(), rec(0, (0x30_0000, PAGE), (0, 0)));
        assert_eq!(name_at(&idx, 0, 0x20_0000), None);
        assert_eq!(name_at(&idx, 0, 0x30_0000), Some("b".into()));
    }

    #[test]
    fn overlapping_spans_resolve_deterministically() {
        for order in [
            ["big", "small", "tie-a", "tie-b"],
            ["tie-b", "tie-a", "small", "big"],
        ] {
            let mut idx = EvictedIndex::new(1);
            for name in order {
                let r = match name {
                    "big" => rec(0, (0x10_0000, 16 * PAGE), (0, 0)),
                    "small" => rec(0, (0x10_0000 + 2 * PAGE, PAGE), (0, 0)),
                    _ => rec(0, (0x40_0000, PAGE), (0, 0)),
                };
                idx.insert(name.into(), r);
            }
            // The greater start wins where both cover.
            assert_eq!(name_at(&idx, 0, 0x10_0000 + 2 * PAGE), Some("small".into()));
            // Past the nearest span's end, an earlier, longer span still
            // covers.
            assert_eq!(name_at(&idx, 0, 0x10_0000 + 8 * PAGE), Some("big".into()));
            // Equal starts: the greater name wins.
            assert_eq!(name_at(&idx, 0, 0x40_0000), Some("tie-b".into()));
        }
    }

    /// The linear scan the index replaced, with the overlap rule: the
    /// covering span with the greatest `(start, name)`.
    fn reference(model: &HashMap<String, EvictedModule>, shard: usize, va: u64) -> Option<String> {
        model
            .iter()
            .filter(|(_, r)| r.shard == shard)
            .flat_map(|(n, r)| r.spans().map(move |(start, span)| (start, span, n)))
            .filter(|&(start, span, _)| va >= start && va < start + span)
            .max_by(|a, b| (a.0, a.2).cmp(&(b.0, b.2)))
            .map(|(_, _, n)| n.clone())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The index against a mirror model: after every insert,
        /// remove or re-insert, `resolve` agrees with the linear-scan
        /// reference at every span edge. Spans come from a few pages,
        /// so they overlap often.
        #[test]
        fn resolve_matches_a_linear_scan(
            ops in proptest::collection::vec(
                ((0u8..3, 0usize..6, 0usize..2), (0u64..16, 1u64..6, 0u64..16, 0u64..3)),
                1..40,
            )
        ) {
            const MOV: u64 = 0x10_0000;
            const IMM: u64 = 0x20_0000;
            let mut idx = EvictedIndex::new(2);
            let mut model: HashMap<String, EvictedModule> = HashMap::new();
            let mut probes: Vec<u64> = Vec::new();
            for ((op, n, shard), (mov_at, mov_pages, imm_at, imm_pages)) in ops {
                let name = format!("m{n}");
                if op == 0 {
                    prop_assert_eq!(idx.remove(&name), model.remove(&name));
                } else {
                    let r = rec(
                        shard,
                        (MOV + mov_at * PAGE, mov_pages * PAGE),
                        (IMM + imm_at * PAGE, imm_pages * PAGE),
                    );
                    for (start, span) in r.spans() {
                        probes.extend([start.saturating_sub(1), start, start + span / 2, start + span - 1, start + span]);
                    }
                    idx.insert(name.as_str().into(), r);
                    model.insert(name, r);
                }
                for &va in &probes {
                    for s in 0..2 {
                        prop_assert_eq!(
                            name_at(&idx, s, va),
                            reference(&model, s, va),
                            "shard {} va {:#x}", s, va
                        );
                    }
                }
            }
        }
    }
}
