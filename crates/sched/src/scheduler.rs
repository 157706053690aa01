//! The multi-worker re-randomization scheduler.
//!
//! A pool of `workers` randomizer threads shares one deadline heap.
//! Each entry is one module; when its deadline comes due, whichever
//! worker is free pops it, runs one [`rerandomize_module`] cycle
//! (placement is reservation-based in `adelie-core`, so cycles of
//! independent modules overlap), records telemetry, asks the module's
//! [`Policy`] for the next period, folds in the
//! [`BudgetController`]'s backpressure, and pushes the entry back.
//!
//! Because an entry is *out of the heap* while its cycle runs, a module
//! is never cycled by two workers at once — `move_lock` never sees pool
//! contention for the same module.
//!
//! Failures are non-fatal: a failed cycle is counted, logged to printk,
//! and the module simply keeps running at its current base until the
//! next deadline (the artifact's single `randmod` kthread died on the
//! first error, taking every other module's protection with it).
//!
//! # Timelines and step mode
//!
//! All deadlines are nanosecond offsets on the [`Clock`] handed to
//! [`Scheduler::new`]. Production pools run on the wall clock with real
//! worker threads. Verification pools run on a [`Clock::Virtual`]
//! [`SimClock`](crate::SimClock) with **no threads at all**: the
//! harness calls [`Scheduler::step`] (or [`Scheduler::step_choice`], to
//! explore worker-pool interleavings) and each call pops one due entry,
//! advances virtual time to its deadline, runs the cycle inline on the
//! calling thread, charges the modeled [`SchedConfig::step_cost`] to
//! the budget, and reschedules. Same heap, same policies, same budget
//! arithmetic — byte-identical timelines for a given seed.

use crate::budget::BudgetController;
use crate::clock::Clock;
use crate::health::{CycleError, HealthEvent, HealthState, ModuleHealth, SupervisionConfig};
use crate::policy::{Policy, PolicyInputs, MAX_PRESSURE_STRETCH};
use crate::stats::{LatencyHistogram, ModuleSchedStats, SchedStats};
use adelie_core::{log_stats, rerandomize_module_epoch, LoadedModule, ModuleRegistry};
use adelie_gadget::ScanCache;
use adelie_kernel::Kernel;
use adelie_vmem::{PteFlags, PAGE_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduler configuration (the `SchedConfig` knob workloads expose).
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Randomizer pool size (concurrent cycles of *distinct* modules).
    /// In step mode this is the *modeled* width: how many due entries
    /// may be reordered against each other by [`Scheduler::step_choice`].
    pub workers: usize,
    /// The policy every module starts under ([`Scheduler::set_policy`]
    /// swaps one module's mid-flight).
    pub policy: Policy,
    /// Cap on the fraction of modeled CPU the pool may consume
    /// (`f64::INFINITY` = uncapped).
    pub max_cpu_frac: f64,
    /// Re-scan gadget exposure every N completed cycles per module
    /// (0 = scan once at startup only).
    pub exposure_refresh: u64,
    /// Width of the *shared shootdown epoch*: cycles whose deadlines
    /// fall into the same window of this length receive the same epoch
    /// tag, so their page-table batches coalesce their TLB invalidation
    /// sets into one merged log slot (`adelie_vmem::Batch::with_epoch`). A
    /// lagging TLB then pays one partial invalidation pass for the
    /// whole group of same-deadline cycles. `Duration::ZERO` coalesces
    /// only exactly-equal deadlines.
    pub shootdown_epoch: Duration,
    /// Supervision thresholds: failure streaks before a module is
    /// degraded (exponential backoff) and then quarantined (probes
    /// only), plus the backoff cap and retry jitter.
    pub supervision: SupervisionConfig,
    /// Modeled CPU cost charged per cycle on a virtual clock, to the
    /// budget and the timeline (wall-clock pools charge measured real
    /// time instead).
    pub step_cost: Duration,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 2,
            policy: Policy::default_fixed(),
            max_cpu_frac: f64::INFINITY,
            exposure_refresh: 64,
            shootdown_epoch: Duration::from_millis(1),
            supervision: SupervisionConfig::default(),
            step_cost: Duration::from_micros(100),
        }
    }
}

impl SchedConfig {
    /// One worker, fixed period — the exact shape of the legacy
    /// randomizer kthread.
    pub fn serial(period: Duration) -> SchedConfig {
        SchedConfig {
            workers: 1,
            policy: Policy::FixedPeriod(period),
            ..SchedConfig::default()
        }
    }

    /// `workers` workers under the default adaptive policy.
    pub fn adaptive(workers: usize) -> SchedConfig {
        SchedConfig {
            workers,
            policy: Policy::default_adaptive(),
            ..SchedConfig::default()
        }
    }
}

/// What one scheduler step (or worker iteration) did — returned by
/// [`Scheduler::step`] so a deterministic harness can follow the cycle
/// timeline without scraping printk.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Module that was cycled.
    pub module: String,
    /// The deadline that triggered the cycle (clock ns).
    pub deadline_ns: u64,
    /// When the cycle actually started (clock ns).
    pub started_ns: u64,
    /// When the cycle finished (clock ns).
    pub finished_ns: u64,
    /// New movable base on success.
    pub new_base: Option<u64>,
    /// Typed error on failure — match on variants, not rendered text.
    pub error: Option<CycleError>,
    /// Period the policy chose for the next cycle, in ns (after any
    /// supervision backoff/stretch).
    pub period_ns: u64,
    /// The rescheduled deadline (clock ns).
    pub next_deadline_ns: u64,
    /// Whether this cycle was an un-quarantine probe (the module was
    /// Quarantined when it ran; probes are budget-exempt).
    pub probe: bool,
    /// The module's health state *after* this cycle's transition.
    pub health: HealthState,
}

impl CycleReport {
    /// Whether the cycle completed.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Per-module scheduling state.
struct ModuleEntry {
    module: Arc<LoadedModule>,
    /// Swappable mid-flight via [`Scheduler::set_policy`].
    policy: Mutex<Policy>,
    /// Outermost calls observed entering this module (bumped by the
    /// kernel call observer via the immovable-part range).
    calls: Arc<AtomicU64>,
    /// `(clock ns, calls)` at the last rate sample.
    rate_anchor: Mutex<(u64, u64)>,
    /// Last computed call rate (f64 bits).
    calls_per_sec: AtomicU64,
    /// Gadgets/KiB of movable text (f64 bits).
    exposure: AtomicU64,
    /// Current period in nanoseconds.
    period_ns: AtomicU64,
    cycles: AtomicU64,
    failures: AtomicU64,
    missed_deadlines: AtomicU64,
    latency: LatencyHistogram,
    /// Supervision record: failure streak, Healthy/Degraded/Quarantined
    /// state, probe/recovery counters. Uncontended in practice — the
    /// entry is out of the heap while its cycle runs.
    health: Mutex<ModuleHealth>,
    /// Cycles whose period was stretched by graceful degradation
    /// (budget pressure on a non-pressure-aware policy, or fault storm).
    period_stretches: AtomicU64,
    /// "cycle failed" printk lines swallowed by the rate limiter.
    suppressed_logs: AtomicU64,
}

impl ModuleEntry {
    fn load_f64(cell: &AtomicU64) -> f64 {
        f64::from_bits(cell.load(Ordering::Relaxed))
    }

    fn store_f64(cell: &AtomicU64, v: f64) {
        cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Scan the movable text for gadgets and update the exposure metric
    /// (gadgets per KiB). Takes `move_lock` so the base can't move
    /// mid-read. Zero-copy re-randomization never changes a byte of the
    /// text, so the scan is memoized by content hash in `cache`: a
    /// no-op cycle (nothing rewrote the module) costs one hash, zero
    /// rescans.
    fn refresh_exposure(&self, kernel: &Arc<Kernel>, cache: &ScanCache) {
        let _guard = self.module.move_lock.lock();
        let base = self.module.movable_base.load(Ordering::Acquire);
        let text_pages: usize = self
            .module
            .movable
            .groups
            .iter()
            .filter(|g| g.flags == PteFlags::TEXT)
            .map(|g| g.pages)
            .sum();
        if text_pages == 0 {
            return;
        }
        let mut text = vec![0u8; text_pages * PAGE_SIZE];
        if kernel
            .space
            .read_bytes(&kernel.phys, base, &mut text)
            .is_err()
        {
            return;
        }
        let gadgets = cache.gadget_count(&text);
        let kib = (text.len() as f64) / 1024.0;
        Self::store_f64(&self.exposure, gadgets as f64 / kib);
    }

    /// Sample call rate since the last cycle and assemble policy inputs.
    fn sample_inputs(&self, kernel: &Arc<Kernel>, now_ns: u64, pressure: f64) -> PolicyInputs {
        let calls_now = self.calls.load(Ordering::Relaxed);
        let mut anchor = self.rate_anchor.lock().unwrap_or_else(|e| e.into_inner());
        let dt_ns = now_ns.saturating_sub(anchor.0);
        if dt_ns >= 100_000 {
            let rate = (calls_now - anchor.1) as f64 / (dt_ns as f64 / 1e9);
            Self::store_f64(&self.calls_per_sec, rate);
            *anchor = (now_ns, calls_now);
        }
        drop(anchor);
        PolicyInputs {
            calls_per_sec: Self::load_f64(&self.calls_per_sec),
            exposure: Self::load_f64(&self.exposure),
            pressure,
            jitter_u: kernel.rng_below(1 << 20) as f64 / (1u64 << 20) as f64,
        }
    }

    fn stats(&self) -> ModuleSchedStats {
        let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        ModuleSchedStats {
            name: self.module.name.to_string(),
            policy: self.policy.lock().unwrap_or_else(|e| e.into_inner()).name(),
            cycles: self.cycles.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            missed_deadlines: self.missed_deadlines.load(Ordering::Relaxed),
            pointer_refresh_failures: self.module.pointer_refresh_failures.load(Ordering::Relaxed),
            current_period: Duration::from_nanos(self.period_ns.load(Ordering::Relaxed)),
            calls: self.calls.load(Ordering::Relaxed),
            calls_per_sec: Self::load_f64(&self.calls_per_sec),
            exposure: Self::load_f64(&self.exposure),
            latency: self.latency.snapshot(),
            health: health.state,
            failure_streak: health.streak,
            quarantines: health.quarantines,
            probes: health.probes,
            recoveries: health.recoveries,
            period_stretches: self.period_stretches.load(Ordering::Relaxed),
            suppressed_logs: self.suppressed_logs.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the handle and the workers.
struct Shared {
    /// Min-heap of `(deadline ns, entry index)`. An entry being cycled
    /// is not in the heap.
    queue: Mutex<BinaryHeap<Reverse<(u64, usize)>>>,
    wakeup: Condvar,
    stop: AtomicBool,
    entries: Vec<Arc<ModuleEntry>>,
    busy_ns: AtomicU64,
    /// The timeline deadlines live on.
    clock: Clock,
    /// Modeled cost charged per cycle in step mode (wall-clock pools
    /// ignore it and charge measured real time instead).
    step_cost_ns: u64,
    /// Modeled pool width (bounds step-mode reordering).
    workers_model: usize,
    /// Shared-shootdown-epoch window in ns (see
    /// [`SchedConfig::shootdown_epoch`]).
    epoch_quantum_ns: u64,
    /// Content-hash memoization of gadget scans: the Adaptive policy's
    /// exposure refresh stops re-decoding unchanged module text every
    /// cycle (hit/miss counters surface in [`SchedStats`]).
    scan_cache: ScanCache,
    /// Supervision thresholds shared by every entry.
    supervision: SupervisionConfig,
    /// Modules currently not Healthy (Degraded or Quarantined). When a
    /// majority of the pool is unhealthy — a fault storm — remaining
    /// periods stretch instead of silently missing deadlines.
    unhealthy: AtomicUsize,
}

impl Shared {
    /// The shared shootdown-epoch tag for a cycle due at `deadline_ns`:
    /// same-deadline cycles (same window) get the same tag and their
    /// invalidation sets coalesce.
    fn epoch_of(&self, deadline_ns: u64) -> u64 {
        // Zero-width window ⇒ coalesce exactly-equal deadlines only.
        deadline_ns
            .checked_div(self.epoch_quantum_ns)
            .unwrap_or(deadline_ns)
    }
}

/// The randomizer pool: the subsystem replacing the paper artifact's
/// single `randmod` kthread.
pub struct Scheduler {
    shared: Arc<Shared>,
    budget: Arc<BudgetController>,
    kernel: Arc<Kernel>,
    registry: Arc<ModuleRegistry>,
    workers: Vec<std::thread::JoinHandle<()>>,
    exposure_refresh: u64,
    /// The token of the kernel call observer this pool installed, which
    /// shutdown removes — never another pool's.
    observer: Option<u64>,
}

impl Scheduler {
    /// Start a pool over `modules` on `clock`, every module under
    /// `config.policy` ([`Scheduler::set_policy`] swaps one later).
    /// Logs the artifact's `Randomize: kthread started` dmesg line
    /// (`SchedConfig::serial(period)` is the artifact's `randmod`
    /// kthread: one worker, one fixed period).
    ///
    /// A wall clock starts `config.workers` randomizer threads. A
    /// [`Clock::Virtual`] starts none: the caller drives cycles with
    /// [`Scheduler::step`] / [`Scheduler::step_choice`], and each cycle
    /// charges the modeled `config.step_cost` (not real time) to the
    /// CPU budget and the virtual timeline, so runs are deterministic
    /// for a given kernel seed.
    ///
    /// # Panics
    ///
    /// Panics if a named module is missing or not re-randomizable, or if
    /// `config.workers` is zero.
    pub fn new(
        kernel: Arc<Kernel>,
        registry: Arc<ModuleRegistry>,
        modules: &[&str],
        config: SchedConfig,
        clock: Clock,
    ) -> Scheduler {
        Scheduler::build(kernel, registry, modules, &config, clock, None)
    }

    /// [`Scheduler::new`] with an optional **shared**
    /// [`BudgetController`]: fleet mode runs one pool per shard, and
    /// every pool records spend into (and feels backpressure from) the
    /// same global budget, so a hot shard's cycles stretch every
    /// shard's adaptive periods. `None` creates a private per-pool
    /// budget.
    pub(crate) fn build(
        kernel: Arc<Kernel>,
        registry: Arc<ModuleRegistry>,
        modules: &[&str],
        config: &SchedConfig,
        clock: Clock,
        budget: Option<Arc<BudgetController>>,
    ) -> Scheduler {
        assert!(config.workers > 0, "scheduler needs at least one worker");
        kernel.printk.log("Randomize: kthread started");
        let initial = config.policy.next_period(&PolicyInputs::default());
        let entries: Vec<Arc<ModuleEntry>> = modules
            .iter()
            .map(|name| {
                let module = registry
                    .get(name)
                    .unwrap_or_else(|| panic!("sched: no module `{name}`"));
                assert!(
                    module.rerandomizable,
                    "sched: `{name}` is not re-randomizable"
                );
                Arc::new(ModuleEntry {
                    module,
                    policy: Mutex::new(config.policy.clone()),
                    calls: Arc::new(AtomicU64::new(0)),
                    rate_anchor: Mutex::new((clock.now_ns(), 0)),
                    calls_per_sec: AtomicU64::new(0f64.to_bits()),
                    exposure: AtomicU64::new(0f64.to_bits()),
                    period_ns: AtomicU64::new(initial.as_nanos() as u64),
                    cycles: AtomicU64::new(0),
                    failures: AtomicU64::new(0),
                    missed_deadlines: AtomicU64::new(0),
                    latency: LatencyHistogram::new(),
                    health: Mutex::new(ModuleHealth::default()),
                    period_stretches: AtomicU64::new(0),
                    suppressed_logs: AtomicU64::new(0),
                })
            })
            .collect();

        // Install the call-rate observer: outermost entries resolve to a
        // module through its immovable part (wrappers and exports live
        // there, and it never moves).
        let mut ranges: Vec<(u64, u64, Arc<AtomicU64>)> = entries
            .iter()
            .filter_map(|e| {
                e.module.immovable.as_ref().map(|imm| {
                    (
                        imm.base,
                        imm.base + (imm.total_pages * PAGE_SIZE) as u64,
                        e.calls.clone(),
                    )
                })
            })
            .collect();
        ranges.sort_by_key(|&(start, _, _)| start);
        let observer = (!ranges.is_empty()).then(|| {
            kernel.add_call_observer(Arc::new(move |entry_va| {
                let i = ranges.partition_point(|&(start, _, _)| start <= entry_va);
                if i > 0 {
                    let (_, end, ref counter) = ranges[i - 1];
                    if entry_va < end {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }))
        });

        // Initial gadget-exposure scan, so the adaptive policy has a
        // signal from the very first deadline. Scans are memoized by
        // content hash from the start — a fleet of identical-text
        // modules pays one decode, not one per module.
        let scan_cache = ScanCache::new();
        for e in &entries {
            e.refresh_exposure(&kernel, &scan_cache);
        }

        let now_ns = clock.now_ns();
        let mut heap = BinaryHeap::new();
        for (i, e) in entries.iter().enumerate() {
            // Stagger initial deadlines so a fresh pool doesn't thundering-
            // herd its first cycles.
            let period = e.period_ns.load(Ordering::Relaxed);
            let frac = (period as u128 * (i + 1) as u128 / entries.len() as u128) as u64;
            heap.push(Reverse((now_ns + frac, i)));
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(heap),
            wakeup: Condvar::new(),
            stop: AtomicBool::new(false),
            entries,
            busy_ns: AtomicU64::new(0),
            clock,
            step_cost_ns: config.step_cost.as_nanos() as u64,
            workers_model: config.workers,
            epoch_quantum_ns: config.shootdown_epoch.as_nanos() as u64,
            scan_cache,
            supervision: config.supervision.clone(),
            unhealthy: AtomicUsize::new(0),
        });
        let budget = budget.unwrap_or_else(|| {
            Arc::new(BudgetController::new(
                kernel.config.cpus,
                config.max_cpu_frac,
                shared.clock.clone(),
            ))
        });
        kernel.printk.log(format!(
            "sched: pool started ({} workers, {} modules, policy={}{})",
            config.workers,
            shared.entries.len(),
            config.policy.name(),
            if shared.clock.is_virtual() {
                ", stepped"
            } else {
                ""
            },
        ));
        let workers = if shared.clock.is_virtual() {
            Vec::new()
        } else {
            (0..config.workers)
                .map(|w| {
                    let shared = shared.clone();
                    let kernel = kernel.clone();
                    let registry = registry.clone();
                    let budget = budget.clone();
                    let refresh = config.exposure_refresh;
                    std::thread::Builder::new()
                        .name(format!("randomizer-{w}"))
                        .spawn(move || worker_loop(shared, kernel, registry, budget, refresh))
                        .expect("spawn randomizer worker")
                })
                .collect()
        };
        Scheduler {
            shared,
            budget,
            kernel,
            registry,
            workers,
            exposure_refresh: config.exposure_refresh,
            observer,
        }
    }

    /// Current time on the scheduler's clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// Deadline of the next pending entry (clock ns), if any.
    pub fn peek_deadline_ns(&self) -> Option<u64> {
        let queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.peek().map(|&Reverse((d, _))| d)
    }

    /// (Step mode) run the next due entry: advance virtual time to its
    /// deadline, cycle it inline, charge the modeled cost, reschedule.
    /// Returns `None` when the heap is empty.
    ///
    /// # Panics
    ///
    /// Panics when called on a wall-clock (threaded) scheduler.
    pub fn step(&self) -> Option<CycleReport> {
        self.step_choice(0)
    }

    /// (Step mode) like [`step`](Scheduler::step), but choose among the
    /// entries a `workers`-wide pool could legally run next: all entries
    /// whose deadline falls within one modeled pool window
    /// (`step_cost × workers`) of the earliest. `rank` indexes that
    /// eligible set (wrapped), so a seeded explorer passing arbitrary
    /// ranks enumerates exactly the reorderings real worker races could
    /// produce.
    ///
    /// # Panics
    ///
    /// Panics when called on a wall-clock (threaded) scheduler.
    pub fn step_choice(&self, rank: usize) -> Option<CycleReport> {
        let sim = match &self.shared.clock {
            Clock::Virtual(sim) => sim.clone(),
            Clock::Wall { .. } => {
                panic!("step() on a wall-clock scheduler; build it on a Clock::Virtual")
            }
        };
        let (deadline_ns, idx) = {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let Reverse((min_d, _)) = *queue.peek()?;
            let slack = self
                .shared
                .step_cost_ns
                .saturating_mul(self.shared.workers_model as u64);
            // Entries a pool of `workers` could have in flight together.
            let mut eligible = Vec::new();
            while let Some(&Reverse((d, i))) = queue.peek() {
                if d > min_d.saturating_add(slack) || eligible.len() >= self.shared.workers_model {
                    break;
                }
                queue.pop();
                eligible.push((d, i));
            }
            let pick = rank % eligible.len();
            let chosen = eligible.swap_remove(pick);
            for (d, i) in eligible {
                queue.push(Reverse((d, i)));
            }
            chosen
        };
        sim.advance_to(deadline_ns);
        let report = execute_cycle(
            &self.shared,
            &self.kernel,
            &self.registry,
            &self.budget,
            self.exposure_refresh,
            idx,
            deadline_ns,
        );
        Some(report)
    }

    /// Swap `module`'s policy mid-flight; takes effect when the module's
    /// current deadline fires. Returns `false` if the module is not in
    /// this pool.
    pub fn set_policy(&self, module: &str, policy: Policy) -> bool {
        for e in &self.shared.entries {
            if &*e.module.name == module {
                *e.policy.lock().unwrap_or_else(|p| p.into_inner()) = policy;
                return true;
            }
        }
        false
    }

    /// Completed module-cycles so far (sum over modules).
    pub fn cycles(&self) -> u64 {
        self.shared
            .entries
            .iter()
            .map(|e| e.cycles.load(Ordering::Relaxed))
            .sum()
    }

    /// Failed cycles so far (sum over modules).
    pub fn failures(&self) -> u64 {
        self.shared
            .entries
            .iter()
            .map(|e| e.failures.load(Ordering::Relaxed))
            .sum()
    }

    /// Full telemetry snapshot.
    pub fn stats(&self) -> SchedStats {
        let modules: Vec<ModuleSchedStats> =
            self.shared.entries.iter().map(|e| e.stats()).collect();
        SchedStats {
            cycles: modules.iter().map(|m| m.cycles).sum(),
            failures: modules.iter().map(|m| m.failures).sum(),
            missed_deadlines: modules.iter().map(|m| m.missed_deadlines).sum(),
            pointer_refresh_failures: modules.iter().map(|m| m.pointer_refresh_failures).sum(),
            busy: Duration::from_nanos(self.shared.busy_ns.load(Ordering::Relaxed)),
            cpu_pressure: self
                .budget
                .pressure_at(Duration::from_nanos(self.shared.clock.now_ns())),
            exposure_scan_hits: self.shared.scan_cache.hits(),
            exposure_scan_misses: self.shared.scan_cache.misses(),
            quarantines: modules.iter().map(|m| m.quarantines).sum(),
            probes: modules.iter().map(|m| m.probes).sum(),
            recoveries: modules.iter().map(|m| m.recoveries).sum(),
            period_stretches: modules.iter().map(|m| m.period_stretches).sum(),
            suppressed_logs: modules.iter().map(|m| m.suppressed_logs).sum(),
            modules,
        }
    }

    /// Health of `module` in this pool, or `None` if it isn't here.
    pub fn health_of(&self, module: &str) -> Option<HealthState> {
        self.shared
            .entries
            .iter()
            .find(|e| &*e.module.name == module)
            .map(|e| e.health.lock().unwrap_or_else(|h| h.into_inner()).state)
    }

    /// Modules currently Degraded or Quarantined.
    pub fn unhealthy(&self) -> usize {
        self.shared.unhealthy.load(Ordering::Relaxed)
    }

    /// Print the artifact-style stats block plus one line per module to
    /// the kernel log.
    pub fn log_stats(&self) {
        let stats = self.stats();
        log_stats(&self.kernel, stats.cycles, &self.registry.stacks);
        for m in &stats.modules {
            self.kernel.printk.log(format!(
                "sched: {} policy={} cycles={} failed={} missed={} stale-ptr={} period={:?} \
                 rate={:.0}/s exposure={:.1}g/KiB p50={:?} p99={:?}",
                m.name,
                m.policy,
                m.cycles,
                m.failures,
                m.missed_deadlines,
                m.pointer_refresh_failures,
                m.current_period,
                m.calls_per_sec,
                m.exposure,
                m.latency.p50,
                m.latency.p99,
            ));
        }
    }

    fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.wakeup.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(token) = self.observer.take() {
            self.kernel.remove_call_observer(token);
        }
    }

    /// Stop all workers, wait for in-flight cycles, and return the final
    /// snapshot.
    pub fn stop(mut self) -> SchedStats {
        self.shutdown();
        self.stats()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .field("stepped", &self.shared.clock.is_virtual())
            .field("cycles", &self.cycles())
            .field("failures", &self.failures())
            .finish()
    }
}

/// Run one cycle of `entries[idx]` (deadline already popped), account
/// it, and push the entry back with its next deadline. Shared between
/// the threaded worker loop and the stepped driver.
fn execute_cycle(
    shared: &Arc<Shared>,
    kernel: &Arc<Kernel>,
    registry: &Arc<ModuleRegistry>,
    budget: &Arc<BudgetController>,
    exposure_refresh: u64,
    idx: usize,
    deadline_ns: u64,
) -> CycleReport {
    let entry = &shared.entries[idx];
    let supervision = &shared.supervision;
    let cpu = kernel.percpu.current();
    let started_ns = shared.clock.now_ns();
    let wall_t0 = Instant::now();
    // A cycle of a Quarantined module is an *un-quarantine probe*: it
    // still runs the real move (success is the only proof of health),
    // but it is budget-exempt — a quarantined module burns zero budget.
    let probe = {
        let mut health = entry.health.lock().unwrap_or_else(|e| e.into_inner());
        let is_probe = health.state == HealthState::Quarantined;
        if is_probe {
            health.probes += 1;
        }
        is_probe
    };
    // Same-deadline cycles share a shootdown epoch: their invalidation
    // sets merge into one log slot, so TLBs pay one partial pass for
    // the whole group instead of one per module.
    let epoch = shared.epoch_of(deadline_ns);
    let outcome = rerandomize_module_epoch(kernel, registry, &entry.module, Some(epoch));
    // Step mode charges the modeled cost (deterministic); wall mode
    // charges what the cycle really took.
    let spent = if shared.clock.is_virtual() {
        let cost = Duration::from_nanos(shared.step_cost_ns);
        if let Clock::Virtual(sim) = &shared.clock {
            sim.advance(cost);
        }
        cost
    } else {
        wall_t0.elapsed()
    };
    if !probe {
        kernel.percpu.account(cpu, spent);
        budget.record(spent);
        shared
            .busy_ns
            .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
        entry.latency.record(spent);
    }
    let period = entry.period_ns.load(Ordering::Relaxed);
    if started_ns.saturating_sub(deadline_ns) > period {
        entry.missed_deadlines.fetch_add(1, Ordering::Relaxed);
    }
    let (new_base, error, health_state, backoff) = match &outcome {
        Ok(base) => {
            let done = entry.cycles.fetch_add(1, Ordering::Relaxed) + 1;
            if exposure_refresh > 0 && done.is_multiple_of(exposure_refresh) {
                entry.refresh_exposure(kernel, &shared.scan_cache);
            }
            let event = {
                let mut health = entry.health.lock().unwrap_or_else(|e| e.into_inner());
                health.on_success()
            };
            if event == HealthEvent::Recovered {
                shared.unhealthy.fetch_sub(1, Ordering::Relaxed);
                let suppressed = entry.suppressed_logs.load(Ordering::Relaxed);
                kernel.printk.log(format!(
                    "sched: {} recovered (healthy again; {suppressed} failure logs suppressed)",
                    entry.module.name
                ));
            }
            (Some(*base), None, HealthState::Healthy, 1u64)
        }
        Err(err) => {
            // Non-fatal: count, feed the health state machine, keep
            // every module cycling (on a backed-off schedule).
            entry.failures.fetch_add(1, Ordering::Relaxed);
            let (event, state, streak, backoff) = {
                let mut health = entry.health.lock().unwrap_or_else(|e| e.into_inner());
                let was_healthy = health.state == HealthState::Healthy;
                let event = health.on_failure(supervision);
                if was_healthy && health.state != HealthState::Healthy {
                    shared.unhealthy.fetch_add(1, Ordering::Relaxed);
                }
                (
                    event,
                    health.state,
                    health.streak,
                    health.backoff(supervision),
                )
            };
            match event {
                HealthEvent::Degraded => kernel.printk.log(format!(
                    "sched: {} degraded after {streak} consecutive failures (backoff x{backoff})",
                    entry.module.name
                )),
                HealthEvent::Quarantined => kernel.printk.log(format!(
                    "sched: {} quarantined after {streak} consecutive failures \
                     (probing at x{backoff} period, budget-exempt)",
                    entry.module.name
                )),
                _ => {}
            }
            // The per-period retry line is rate-limited per module:
            // emit on the 1st, 2nd, 4th, 8th, … repetition, count the
            // rest (a persistently failing module used to log every
            // single period, unbounded).
            let emitted = kernel.printk.log_limited(
                &format!("sched-cycle-failed:{}", entry.module.name),
                format!(
                    "sched: {} cycle failed ({err}); retrying with backoff x{backoff}",
                    entry.module.name
                ),
            );
            if !emitted {
                entry.suppressed_logs.fetch_add(1, Ordering::Relaxed);
            }
            (None, Some(CycleError::from(err)), state, backoff)
        }
    };

    // Next deadline: policy period, stretched by the supervision
    // backoff (failure streaks), decorrelated with jitter on failure
    // paths only (clean runs draw an unchanged RNG stream), then
    // stretched again under graceful degradation, plus any hard budget
    // throttle.
    let finished_ns = shared.clock.now_ns();
    let wall = Duration::from_nanos(finished_ns);
    let pressure = budget.pressure_at(wall);
    let inputs = entry.sample_inputs(kernel, finished_ns, pressure);
    let (next_period, pressure_aware) = {
        let policy = entry.policy.lock().unwrap_or_else(|e| e.into_inner());
        (policy.next_period(&inputs), policy.pressure_aware())
    };
    let mut next_period_ns = next_period.as_nanos() as u64;
    if backoff > 1 {
        next_period_ns = next_period_ns.saturating_mul(backoff);
        let jitter = supervision.backoff_jitter.clamp(0.0, 1.0);
        if jitter > 0.0 {
            let u = kernel.rng_below(1 << 20) as f64 / (1u64 << 20) as f64;
            let factor = 1.0 + jitter * (2.0 * u - 1.0);
            next_period_ns = ((next_period_ns as f64) * factor) as u64;
        }
    }
    // Graceful degradation: instead of silently missing deadlines,
    // stretch the period — under sustained budget pressure (for
    // policies that don't already consume pressure) and under fault
    // storms (a majority of the pool unhealthy).
    let unhealthy = shared.unhealthy.load(Ordering::Relaxed);
    let stretch = degradation_stretch(pressure_aware, pressure, unhealthy, shared.entries.len());
    if stretch > 1.0 {
        entry.period_stretches.fetch_add(1, Ordering::Relaxed);
        next_period_ns = ((next_period_ns as f64) * stretch) as u64;
    }
    entry.period_ns.store(next_period_ns, Ordering::Relaxed);
    let next_deadline_ns =
        finished_ns + next_period_ns + budget.throttle_at(wall).as_nanos() as u64;
    {
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push(Reverse((next_deadline_ns, idx)));
    }
    shared.wakeup.notify_one();
    CycleReport {
        module: entry.module.name.to_string(),
        deadline_ns,
        started_ns,
        finished_ns,
        new_base,
        error,
        period_ns: next_period_ns,
        next_deadline_ns,
        probe,
        health: health_state,
    }
}

/// The graceful-degradation stretch for one reschedule: budget
/// pressure (for policies that don't already consume pressure
/// themselves), doubled under a fault storm (a majority of the pool
/// unhealthy) — with the *total* bounded by [`MAX_PRESSURE_STRETCH`],
/// per `policy.rs`'s contract.
fn degradation_stretch(pressure_aware: bool, pressure: f64, unhealthy: usize, pool: usize) -> f64 {
    let mut stretch = if pressure_aware {
        1.0
    } else {
        pressure.clamp(1.0, MAX_PRESSURE_STRETCH)
    };
    if unhealthy > 0 && unhealthy * 2 >= pool {
        stretch = (stretch * 2.0).min(MAX_PRESSURE_STRETCH);
    }
    stretch
}

fn worker_loop(
    shared: Arc<Shared>,
    kernel: Arc<Kernel>,
    registry: Arc<ModuleRegistry>,
    budget: Arc<BudgetController>,
    exposure_refresh: u64,
) {
    loop {
        // Pop the next due entry, sleeping until its deadline.
        let (deadline_ns, idx) = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                match queue.peek().copied() {
                    Some(Reverse((deadline_ns, idx))) => {
                        let now_ns = shared.clock.now_ns();
                        if deadline_ns <= now_ns {
                            queue.pop();
                            break (deadline_ns, idx);
                        }
                        let (q, _) = shared
                            .wakeup
                            .wait_timeout(queue, Duration::from_nanos(deadline_ns - now_ns))
                            .unwrap_or_else(|e| e.into_inner());
                        queue = q;
                    }
                    None => {
                        let q = shared.wakeup.wait(queue).unwrap_or_else(|e| e.into_inner());
                        queue = q;
                    }
                }
            }
        };
        execute_cycle(
            &shared,
            &kernel,
            &registry,
            &budget,
            exposure_refresh,
            idx,
            deadline_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{degradation_stretch, MAX_PRESSURE_STRETCH};

    /// Regression: the fault-storm doubling used to be applied *after*
    /// the pressure clamp, letting the total stretch reach
    /// 2×MAX_PRESSURE_STRETCH — contradicting the documented bound.
    #[test]
    fn degradation_stretch_is_bounded() {
        // No pressure, no storm: no stretch.
        assert_eq!(degradation_stretch(false, 0.5, 0, 4), 1.0);
        // Pressure alone clamps at the bound.
        assert_eq!(degradation_stretch(false, 1e9, 0, 4), MAX_PRESSURE_STRETCH);
        // The storm doubling applies below the bound...
        assert_eq!(degradation_stretch(false, 3.0, 2, 4), 6.0);
        assert_eq!(degradation_stretch(true, 1e9, 2, 4), 2.0);
        // ...but never pushes the total past it.
        assert_eq!(degradation_stretch(false, 1e9, 4, 4), MAX_PRESSURE_STRETCH);
        assert_eq!(
            degradation_stretch(false, MAX_PRESSURE_STRETCH - 1.0, 2, 4),
            MAX_PRESSURE_STRETCH
        );
        // A minority of unhealthy modules is not a storm.
        assert_eq!(degradation_stretch(false, 0.0, 1, 4), 1.0);
    }
}
