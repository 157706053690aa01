//! The cross-cycle layout oracle.
//!
//! Installed as [`CycleHooks`] (chained after the
//! [`FaultPlan`](crate::FaultPlan)), the oracle records the ground-truth
//! move timeline of every module — who moved, from where, to where,
//! when — and checks the global layout invariants the whole defence
//! rests on:
//!
//! 1. **no overlap** — at no commit did a module's new range overlap
//!    any other module's current range (the reservation allocator's
//!    contract, observed end-to-end rather than unit-tested);
//! 2. **no stale mappings** — once the system quiesces, every address
//!    range a module ever vacated is unmapped (a leaked pointer *must*
//!    fault);
//! 3. **no SMR leak** — retired ≥ freed converges to retired == freed
//!    at quiescence, for module ranges and rotated stacks alike;
//! 4. **no silent pointer-refresh drop** — the scheduler's
//!    `pointer_refresh_failures` matches what the test expected
//!    (usually zero);
//! 5. **no stale translation across a batch** — a *witness TLB*,
//!    deliberately warmed on every module's range at each commit, is
//!    probed against every vacated range: if the witness still serves a
//!    translation the address space has retired, the range-based
//!    shootdown (invalidation log / partial flush) is broken. The
//!    witness resynchronizes exactly like a real per-CPU TLB, so it
//!    exercises partial invalidation, epoch-merged slots, and the
//!    full-flush fallback across whatever interleaving the scenario
//!    produced;
//! 6. **no torn snapshot publication, no snapshot leak** — at every
//!    commit a reader probing *mid-publish* must find the new movable
//!    base already executable (the batch's snapshot swap is atomic: a
//!    concurrent reader sees the whole new layout or the whole old
//!    one, never a hole), and at quiescence the address space's
//!    snapshot-reclamation domain must have freed every retired
//!    page-table root (`snapshots_reclaimed == snapshot_publishes`,
//!    SMR delta 0) — a reader pinned forever or a lost retire would
//!    show up here. A second, batch-shaped probe rides along: a
//!    `translate_batch` spanning the vacated and the fresh base
//!    resolves against one snapshot root, so it may see either side
//!    of the publish (or the overlap while the retire-unmap drains)
//!    but never *both* unmapped — both-unmapped would mean one batch
//!    mixed two generations.
//! 7. **no stale PLT binding** — a lazily-bound PLT slot records the
//!    target it resolved to; after any commit, every bound slot must
//!    hold exactly the target's *current* address (checked by
//!    [`adelie_core::verify_plt_bindings`]), that address must still be
//!    executable, and at quiescence no bound slot may point into any
//!    range the run ever vacated. A slot that kept its pre-move value
//!    would be *callable into a retired range* — the exact bug class
//!    lazy binding introduces on top of eager GOT re-swinging. Enable
//!    with [`LayoutOracle::track_modules`];
//! 8. **no cross-ASID serve** — TLB entries are ASID-tagged and survive
//!    space switches (DESIGN.md §15), so the witness is additionally
//!    probed against a deliberately *empty* foreign address space (same
//!    ISA backend, its own ASID): an entry cached under the kernel
//!    space's ASID must never answer a translation for the foreign
//!    space, and — checked at quiescence, where it is deterministic —
//!    the kernel-space entry must still hit after the ASID round trip
//!    (tagged retention, not a silent flush-on-switch).
//!
//! `verify_quiesced` is deliberately *destructive reading*: it rotates
//! the stack pools and flushes the reclaimer to force quiescence, then
//! checks. Call it at the end of a scenario.

use adelie_core::{CycleCommit, CycleHooks, ModuleRegistry};
use adelie_kernel::Kernel;
use adelie_sched::{SchedStats, SimClock};
use adelie_vmem::{Access, AddressSpace, SpaceConfig, Tlb, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One observed, committed move.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// Module that moved.
    pub module: String,
    /// Base it vacated.
    pub old_base: u64,
    /// Base it now runs at.
    pub new_base: u64,
    /// Movable-part span in bytes.
    pub span: u64,
    /// Module generation after the move.
    pub generation: u64,
    /// Virtual time of the commit.
    pub at_ns: u64,
}

/// Ground-truth recorder + invariant checker (see module docs).
pub struct LayoutOracle {
    kernel: Arc<Kernel>,
    clock: Arc<SimClock>,
    commits: Mutex<Vec<CommitRecord>>,
    /// Current `(base, span)` per module, as of the last commit.
    live: Mutex<HashMap<String, (u64, u64)>>,
    /// Invariant violations detected *during* the run (overlaps, stale
    /// TLB translations).
    violations: Mutex<Vec<String>>,
    /// The stale-translation witness: a TLB warmed on every committed
    /// range and probed against every vacated one (module docs, #5).
    witness: Mutex<Tlb>,
    /// A deliberately empty address space on the kernel's ISA backend
    /// with its own ASID — the probe target of the cross-ASID
    /// isolation invariant (module docs, #8).
    foreign: AddressSpace,
    /// Registry to audit bound PLT slots against at each commit
    /// (module docs, #7). Weak: the registry owns the oracle as its
    /// cycle hooks, so a strong edge here would leak both.
    registry: Mutex<Option<std::sync::Weak<ModuleRegistry>>>,
    /// `(module, base, span)` ranges vacated by out-of-band rebuilds
    /// ([`LayoutOracle::module_rebuilt`]) rather than by cycles — shard
    /// crash recovery tears a module down and reloads it outside the
    /// commit stream. Re-probed at `verify_quiesced`: no stale mapping
    /// may survive a shard rebuild.
    rebuilt_spans: Mutex<Vec<(String, u64, u64)>>,
    /// `(base, span)` ranges vacated by cold-tier eviction
    /// ([`LayoutOracle::module_evicted`]), keyed by module. Unlike
    /// `rebuilt_spans` these are *conditional*: an evicted module's
    /// spans must stay unmapped only until its first call demand-faults
    /// it back in ([`LayoutOracle::module_faulted_in`] clears them).
    /// Probed at eviction and re-probed at `verify_quiesced` for every
    /// module still evicted.
    evicted_spans: Mutex<HashMap<String, Vec<(u64, u64)>>>,
}

impl LayoutOracle {
    /// An oracle timestamping against `clock`.
    pub fn new(kernel: Arc<Kernel>, clock: Arc<SimClock>) -> Arc<LayoutOracle> {
        let arch = kernel.space.arch();
        Arc::new(LayoutOracle {
            clock,
            commits: Mutex::new(Vec::new()),
            live: Mutex::new(HashMap::new()),
            violations: Mutex::new(Vec::new()),
            witness: Mutex::new(Tlb::with_arch(arch)),
            foreign: AddressSpace::with_space_config(SpaceConfig {
                arch,
                ..SpaceConfig::new()
            }),
            registry: Mutex::new(None),
            rebuilt_spans: Mutex::new(Vec::new()),
            evicted_spans: Mutex::new(HashMap::new()),
            kernel,
        })
    }

    /// Tell the oracle `module` was rebuilt out-of-band (shard crash
    /// recovery: force-unloaded and reloaded from the install catalog,
    /// not moved by a cycle). Its last committed range is no longer
    /// live — the oracle probes it for staleness *right now* (witness
    /// TLB + direct translate) and again at `verify_quiesced`, and
    /// stops treating it as the module's current base. Commit history
    /// is kept: vacated-range checks still cover the pre-crash
    /// timeline.
    pub fn module_rebuilt(&self, module: &str) {
        let Some((base, span)) = self.live.lock().unwrap().remove(module) else {
            return; // never committed a move — nothing the oracle tracked
        };
        let mut violations = Vec::new();
        self.probe_vacated(base, span, "after shard rebuild", &mut violations);
        if self.kernel.space.translate(base, Access::Read).is_ok() {
            violations.push(format!(
                "stale mapping survives shard rebuild: {module}'s pre-crash base \
                 {base:#x} is still mapped after recovery"
            ));
        }
        if !violations.is_empty() {
            self.violations.lock().unwrap().append(&mut violations);
        }
        self.rebuilt_spans
            .lock()
            .unwrap()
            .push((module.to_string(), base, span));
    }

    /// Tell the oracle `module` was evicted by the cold tier: `spans`
    /// are the `(base, span)` ranges its parts vacated (from
    /// [`Fleet::evicted_spans`](adelie_core::Fleet::evicted_spans)).
    /// They are probed for staleness *right now* (witness TLB + direct
    /// translate) and at every `verify_quiesced` until
    /// [`LayoutOracle::module_faulted_in`] reports the module resident
    /// again — an evicted module's code must be genuinely gone, not
    /// merely forgotten by the catalog.
    pub fn module_evicted(&self, module: &str, spans: &[(u64, u64)]) {
        self.live.lock().unwrap().remove(module);
        let mut violations = Vec::new();
        for &(base, span) in spans {
            self.probe_vacated(base, span, "after cold-tier eviction", &mut violations);
            if self.kernel.space.translate(base, Access::Read).is_ok() {
                violations.push(format!(
                    "stale mapping survives eviction: {module}'s part base {base:#x} \
                     is still mapped after the cold tier unloaded it"
                ));
            }
        }
        if !violations.is_empty() {
            self.violations.lock().unwrap().append(&mut violations);
        }
        self.evicted_spans
            .lock()
            .unwrap()
            .insert(module.to_string(), spans.to_vec());
    }

    /// Tell the oracle `module` demand-faulted back in: its evicted
    /// spans stop being asserted-unmapped (the allocator is free to
    /// reuse them, including for the reload itself). The witness TLB is
    /// probed one last time — whatever the fault-in path mapped, the
    /// witness must not be serving translations the space has retired.
    pub fn module_faulted_in(&self, module: &str) {
        let Some(spans) = self.evicted_spans.lock().unwrap().remove(module) else {
            return; // never reported evicted — nothing the oracle tracked
        };
        let mut violations = Vec::new();
        for (base, span) in spans {
            self.probe_vacated(base, span, "after demand fault-in", &mut violations);
        }
        if !violations.is_empty() {
            self.violations.lock().unwrap().append(&mut violations);
        }
    }

    /// Audit bound PLT slots (module docs, #7) at every commit of the
    /// modules in `registry`. Without this the per-commit PLT check is
    /// skipped (`verify_quiesced` still audits whatever registry it is
    /// handed).
    pub fn track_modules(&self, registry: &Arc<ModuleRegistry>) {
        *self.registry.lock().unwrap() = Some(Arc::downgrade(registry));
    }

    /// Module docs, #7: every bound lazy-PLT slot of `module` must hold
    /// exactly its target's current address, and that address must be
    /// callable *right now* (`what` names the probe site).
    fn audit_plt(
        &self,
        module: &Arc<adelie_core::LoadedModule>,
        what: &str,
        out: &mut Vec<String>,
    ) {
        for v in adelie_core::verify_plt_bindings(&self.kernel, module) {
            out.push(format!("PLT audit {what}: {v}"));
        }
        for slot in module.lazy_plt.iter() {
            let bound = slot.bound.load(std::sync::atomic::Ordering::Acquire);
            // Kernel natives are dispatched by VA range, not mapped —
            // the translate probe only applies to module-space targets.
            if bound != 0
                && !adelie_kernel::layout::is_native(bound)
                && self.kernel.space.translate(bound, Access::Exec).is_err()
            {
                out.push(format!(
                    "stale PLT binding {what}: {}'s slot for `{}` holds {bound:#x}, \
                     which is not executable — a call through it would land in a \
                     retired range",
                    module.name, slot.symbol
                ));
            }
        }
    }

    /// Probe `[base, base+span)` through the witness TLB: any page the
    /// witness still translates but the address space has retired is a
    /// stale-translation violation (`what` names the probe site).
    ///
    /// Scenarios may retire ranges *concurrently* with this probe (a
    /// reclaimer drains a retire-unmap on another CPU between the two
    /// reads below), so a candidate hit is re-probed: a correct TLB
    /// drops the entry as soon as it resynchronizes against the newly
    /// published invalidation set, while a broken shootdown path keeps
    /// serving it across every resync — only the latter is a violation.
    fn probe_vacated(&self, base: u64, span: u64, what: &str, out: &mut Vec<String>) {
        let mut witness = self.witness.lock().unwrap_or_else(|e| e.into_inner());
        for page in 0..(span as usize / PAGE_SIZE) {
            let va = base + (page * PAGE_SIZE) as u64;
            if let Some(pte) = witness.lookup(va, &self.kernel.space) {
                if self.kernel.space.translate(va, Access::Read).is_err() {
                    if let Some(probes) = self.confirm_stale(&mut witness, va) {
                        out.push(format!(
                            "stale translation served {what}: witness TLB still maps \
                             {va:#x} (pte {pte:?}) but the space has retired it; {probes}"
                        ));
                        return; // one line per stale range is enough
                    }
                }
            }
        }
    }

    /// Re-probe a candidate stale hit (see [`LayoutOracle::probe_vacated`]):
    /// `Some` only if the witness keeps serving a translation the space
    /// rejects across repeated resynchronizations. It reports, after the
    /// first and the last re-probe, the space's generation and the
    /// space id and generation the witness last synchronized at.
    fn confirm_stale(&self, witness: &mut Tlb, va: u64) -> Option<String> {
        const PROBES: usize = 64;
        let space = &self.kernel.space;
        let mut first = String::new();
        let mut last = String::new();
        for i in 1..=PROBES {
            std::thread::yield_now();
            // No entry: a benign race, the resync evicted it.
            witness.lookup(va, space)?;
            if space.translate(va, Access::Read).is_ok() {
                return None; // the page is genuinely mapped again
            }
            let (bound, synced) = witness.synced();
            last = format!(
                "re-probe {i}: space {} at generation {}, witness bound to \
                 space {bound} synced at generation {synced}",
                space.id(),
                space.generation()
            );
            if i == 1 {
                first = last.clone();
            }
        }
        Some(format!("{first}; {last}"))
    }

    /// Module docs, #8: an entry the witness cached under the kernel
    /// space's ASID must never serve a translation for a different
    /// space — probed with the deliberately empty, same-arch `foreign`
    /// space. With `strict` the kernel-space entry must additionally
    /// survive the ASID round trip and hit again (tagged retention);
    /// that half is only deterministic once the run has quiesced, so
    /// per-commit probes pass `strict = false`.
    fn probe_cross_asid(&self, va: u64, what: &str, strict: bool, out: &mut Vec<String>) {
        let mut witness = self.witness.lock().unwrap_or_else(|e| e.into_inner());
        if witness.lookup(va, &self.kernel.space).is_none() {
            return; // nothing cached under the kernel ASID — nothing to leak
        }
        if let Some(pte) = witness.lookup(va, &self.foreign) {
            out.push(format!(
                "cross-ASID serve {what}: witness answered {va:#x} (pte {pte:?}) \
                 for a space that never mapped it — an ASID-tagged entry leaked \
                 across address spaces"
            ));
        }
        if strict && witness.lookup(va, &self.kernel.space).is_none() {
            out.push(format!(
                "tagged retention broke {what}: the witness entry for {va:#x} did \
                 not survive an ASID round trip in a quiesced system"
            ));
        }
    }

    /// Warm the witness TLB over `[base, base+span)` so the *next*
    /// batch that retires any of it has a cached entry to invalidate.
    fn warm_witness(&self, base: u64, span: u64) {
        let mut witness = self.witness.lock().unwrap_or_else(|e| e.into_inner());
        for page in 0..(span as usize / PAGE_SIZE) {
            let va = base + (page * PAGE_SIZE) as u64;
            if witness.lookup(va, &self.kernel.space).is_none() {
                if let Ok(t) = self.kernel.space.translate(va, Access::Read) {
                    witness.insert(&t);
                }
            }
        }
    }

    /// All committed moves, in commit order.
    pub fn commits(&self) -> Vec<CommitRecord> {
        self.commits.lock().unwrap().clone()
    }

    /// Commit times (ns) of one module, ascending — the re-randomization
    /// timeline the attack-window math consumes.
    pub fn timeline_ns(&self, module: &str) -> Vec<u64> {
        self.commits
            .lock()
            .unwrap()
            .iter()
            .filter(|c| c.module == module)
            .map(|c| c.at_ns)
            .collect()
    }

    /// Force quiescence (rotate stack pools, flush the reclaimer) and
    /// check every invariant. `expected_refresh_failures` is the number
    /// of pointer-refresh drops the scenario *planned* (0 for clean
    /// runs).
    pub fn verify_quiesced(
        &self,
        registry: &Arc<ModuleRegistry>,
        stats: Option<&SchedStats>,
        expected_refresh_failures: u64,
    ) -> OracleReport {
        let mut violations = self.violations.lock().unwrap().clone();
        registry.stacks.rotate(&self.kernel);
        self.kernel.reclaim.flush();

        // (3) SMR convergence: everything retired has been freed.
        let smr = self.kernel.reclaim.stats();
        if smr.delta() != 0 {
            violations.push(format!(
                "SMR leak at quiescence: retired {} vs freed {}",
                smr.retired, smr.freed
            ));
        }
        let st = registry.stacks.stats();
        if st.delta() != 0 {
            violations.push(format!(
                "stack leak at quiescence: allocated {} vs freed {}",
                st.allocated, st.freed
            ));
        }

        // (2) Every vacated range is unmapped; every current base is
        // mapped. A vacated page is only exempt if some module's
        // *current* range re-covers it (possible in principle with
        // random placement, never in a seeded test run).
        // (5) And the witness TLB — which followed every invalidation
        // set the run published — must agree: it may not translate
        // anything the space has retired, across any vacated range.
        let live: Vec<(u64, u64)> = self.live.lock().unwrap().values().copied().collect();
        let covered = |va: u64| live.iter().any(|&(b, s)| va >= b && va < b + s);
        for c in self.commits.lock().unwrap().iter() {
            self.probe_vacated(c.old_base, c.span, "at quiescence", &mut violations);
        }
        for c in self.commits.lock().unwrap().iter() {
            for page in 0..(c.span as usize / PAGE_SIZE) {
                let va = c.old_base + (page * PAGE_SIZE) as u64;
                if covered(va) {
                    continue;
                }
                if self.kernel.space.translate(va, Access::Read).is_ok() {
                    violations.push(format!(
                        "stale mapping survives: {} vacated {va:#x} (cycle at t={}ns) \
                         but it is still mapped",
                        c.module, c.at_ns
                    ));
                    break; // one line per stale range is enough
                }
            }
        }
        // Ranges vacated by out-of-band shard rebuilds get the same
        // treatment as cycle-vacated ones: unmapped at quiescence, and
        // the witness must have dropped them.
        for (module, base, span) in self.rebuilt_spans.lock().unwrap().iter() {
            self.probe_vacated(*base, *span, "at quiescence (rebuilt)", &mut violations);
            for page in 0..(*span as usize / PAGE_SIZE) {
                let va = base + (page * PAGE_SIZE) as u64;
                if covered(va) {
                    continue;
                }
                if self.kernel.space.translate(va, Access::Read).is_ok() {
                    violations.push(format!(
                        "stale mapping survives shard rebuild: {module} vacated \
                         {va:#x} at recovery but it is still mapped at quiescence"
                    ));
                    break;
                }
            }
        }
        // A module the cold tier evicted and that has NOT faulted back
        // in must still have every vacated page unmapped — an "evicted"
        // module whose code is still reachable defeats the tier's whole
        // point. Pages re-covered by some module's current range are
        // exempt (the allocator legitimately reuses freed windows).
        for (module, spans) in self.evicted_spans.lock().unwrap().iter() {
            for &(base, span) in spans {
                self.probe_vacated(base, span, "at quiescence (evicted)", &mut violations);
                for page in 0..(span as usize / PAGE_SIZE) {
                    let va = base + (page * PAGE_SIZE) as u64;
                    if covered(va) {
                        continue;
                    }
                    if self.kernel.space.translate(va, Access::Read).is_ok() {
                        violations.push(format!(
                            "evicted module still mapped: {module} vacated {va:#x} \
                             at eviction, never faulted back in, yet the page is \
                             mapped at quiescence"
                        ));
                        break;
                    }
                }
            }
        }
        for (module, &(base, span)) in self.live.lock().unwrap().iter() {
            if self.kernel.space.translate(base, Access::Exec).is_err() {
                violations.push(format!(
                    "current base of {module} ({base:#x}) is not executable"
                ));
                continue;
            }
            // (8) Cross-ASID isolation, strict at quiescence: warm the
            // live base under the kernel ASID, demand it never answers
            // for the foreign space, and demand it still hits after the
            // ASID round trip (tagged retention — nothing else can
            // invalidate it in a quiesced system).
            self.warm_witness(base, span.min(PAGE_SIZE as u64));
            self.probe_cross_asid(base, "at quiescence", true, &mut violations);
        }

        // (7) Bound-PLT staleness at quiescence: beyond the per-commit
        // audit, no bound slot of any still-loaded module may point
        // into any range the run ever vacated (unless a current range
        // legitimately re-covers it).
        for name in registry.list() {
            let Some(module) = registry.get(&name) else {
                continue;
            };
            self.audit_plt(&module, "at quiescence", &mut violations);
            for slot in module.lazy_plt.iter() {
                let bound = slot.bound.load(std::sync::atomic::Ordering::Acquire);
                if bound == 0 || covered(bound) {
                    continue;
                }
                if let Some(c) = self
                    .commits
                    .lock()
                    .unwrap()
                    .iter()
                    .find(|c| bound >= c.old_base && bound < c.old_base + c.span)
                {
                    violations.push(format!(
                        "stale PLT binding at quiescence: {name}'s slot for `{}` \
                         holds {bound:#x}, inside the range {} vacated at t={}ns",
                        slot.symbol, c.module, c.at_ns
                    ));
                }
            }
        }

        // (4) The silent-drop counter matches the plan.
        if let Some(stats) = stats {
            if stats.pointer_refresh_failures != expected_refresh_failures {
                violations.push(format!(
                    "pointer_refresh_failures = {} but the scenario expected {}",
                    stats.pointer_refresh_failures, expected_refresh_failures
                ));
            }
        }

        // (6) Snapshot reclamation converges: every page-table root the
        // run retired has been freed now that readers are quiescent. A
        // nonzero delta means a reader epoch never advanced (leaked
        // pin) or a retire was lost — either would eventually OOM a
        // production kernel under continuous re-randomization.
        self.kernel.space.flush_snapshots();
        let snap = self.kernel.space.snapshot_smr();
        if snap.delta() != 0 {
            violations.push(format!(
                "page-table snapshot leak at quiescence: retired {} vs freed {}",
                snap.retired, snap.freed
            ));
        }
        let sstats = self.kernel.space.stats();
        if sstats.snapshots_reclaimed != sstats.snapshot_publishes {
            violations.push(format!(
                "snapshot accounting skew: {} published but {} reclaimed",
                sstats.snapshot_publishes, sstats.snapshots_reclaimed
            ));
        }

        OracleReport { violations }
    }
}

impl CycleHooks for LayoutOracle {
    fn committed(&self, c: &CycleCommit<'_>) {
        // (5) Stale-translation check at the batch boundary: the range
        // just vacated was warmed into the witness at its own commit —
        // if its retirement (or any batch since) failed to invalidate
        // the witness, that surfaces right here. Then warm the witness
        // on the new range so the *next* cycle is checked the same way.
        // A module's *first* commit vacates its load-time range, which
        // no commit ever warmed: warm it now, before its retirement
        // drains, so even single-cycle scenarios exercise the check.
        if !self.live.lock().unwrap().contains_key(c.module) {
            self.warm_witness(c.old_base, c.span);
        }
        let mut stale = Vec::new();
        self.probe_vacated(c.old_base, c.span, "at commit", &mut stale);
        if !stale.is_empty() {
            self.violations.lock().unwrap().append(&mut stale);
        }
        // (6) Mid-publish torn-walk probe: this runs concurrently with
        // other cycles' batches, and the commit we are observing has
        // already swapped its snapshot in — a lock-free reader must see
        // the new base fully mapped and executable *right now*, not
        // after some settling. A hole here means a snapshot published
        // with missing siblings (torn copy-on-write).
        if self
            .kernel
            .space
            .translate(c.new_base, Access::Exec)
            .is_err()
        {
            self.violations.lock().unwrap().push(format!(
                "torn publication: {}'s new base {:#x} not executable at commit",
                c.module, c.new_base
            ));
        }
        // (6b) Mixed-generation batch probe: `translate_batch` resolves
        // every address against ONE snapshot root, so a batch spanning
        // the vacated and the freshly-published base may legitimately
        // see pre-publish state (old mapped), post-publish state (new
        // mapped), or the overlap where both are mapped (the old
        // range's retire-unmap drains later) — but never *neither*.
        // Both-unmapped would prove the batch stitched a post-retire
        // view of the old range to a pre-publish view of the new one:
        // two generations in one batch.
        let spanning = self
            .kernel
            .space
            .translate_batch(&[c.old_base, c.new_base], Access::Read);
        if spanning.iter().all(std::result::Result::is_err) {
            self.violations.lock().unwrap().push(format!(
                "mixed-generation batch: one translate_batch saw {}'s old base \
                 {:#x} and new base {:#x} both unmapped — no single snapshot \
                 root can produce that layout",
                c.module, c.old_base, c.new_base
            ));
        }
        self.warm_witness(c.new_base, c.span);
        // (8) Cross-ASID isolation at the commit boundary: the entry we
        // just warmed for the new base is tagged with the kernel
        // space's ASID — it must be invisible to any other space.
        let mut leaked = Vec::new();
        self.probe_cross_asid(c.new_base, "at commit", false, &mut leaked);
        if !leaked.is_empty() {
            self.violations.lock().unwrap().append(&mut leaked);
        }

        // (7) Bound-PLT staleness at the commit boundary: the re-swing
        // ran before publication, so *right now* every bound slot must
        // already hold its target's post-move address — an old value
        // surviving into this instant is the lazy-binding bug class.
        let tracked = self
            .registry
            .lock()
            .unwrap()
            .as_ref()
            .and_then(std::sync::Weak::upgrade);
        if let Some(module) = tracked.and_then(|r| r.get(c.module)) {
            let mut stale = Vec::new();
            self.audit_plt(&module, "at commit", &mut stale);
            if !stale.is_empty() {
                self.violations.lock().unwrap().append(&mut stale);
            }
        }

        // (1) Overlap check against every other module's current range,
        // at the moment of commit.
        let mut live = self.live.lock().unwrap();
        for (other, &(b, s)) in live.iter() {
            if other != c.module && c.new_base < b + s && b < c.new_base + c.span {
                self.violations.lock().unwrap().push(format!(
                    "overlap at commit: {} moved to {:#x}..{:#x} over {other}'s {:#x}..{:#x}",
                    c.module,
                    c.new_base,
                    c.new_base + c.span,
                    b,
                    b + s
                ));
            }
        }
        live.insert(c.module.to_string(), (c.new_base, c.span));
        drop(live);
        self.commits.lock().unwrap().push(CommitRecord {
            module: c.module.to_string(),
            old_base: c.old_base,
            new_base: c.new_base,
            span: c.span,
            generation: c.generation,
            at_ns: self.clock.now_ns(),
        });
    }
}

/// The oracle's verdict.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// Human-readable invariant violations (empty = clean).
    pub violations: Vec<String>,
}

impl OracleReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the full violation list unless clean.
    ///
    /// # Panics
    ///
    /// Panics if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "layout oracle found {} violation(s):\n  {}",
            self.violations.len(),
            self.violations.join("\n  ")
        );
    }
}
