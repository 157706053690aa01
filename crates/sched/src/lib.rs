//! # adelie-sched — adaptive, concurrent re-randomization scheduling
//!
//! The paper's artifact drives re-randomization with one kthread that
//! walks every module serially on a single fixed period (§4.2,
//! `modprobe randmod … rand_period=20`). That shape can't navigate the
//! actual trade-off — re-randomization latency vs. attacker probe rate
//! vs. CPU burned — so this crate replaces it with a real subsystem:
//!
//! * [`Scheduler`] — a **multi-worker randomizer pool** over a shared
//!   deadline heap; cycles of independent modules overlap (placement in
//!   `adelie-core` is reservation-based and per-module `move_lock`s
//!   serialize same-module cycles),
//! * [`Policy`] — **one policy per module** (each starts under
//!   [`SchedConfig::policy`]; [`Scheduler::set_policy`] swaps one
//!   mid-flight): `FixedPeriod` (the paper's
//!   baseline), `Jittered` (unpredictable schedule, same mean cost),
//!   and `Adaptive` (period tightens with observed call rate and with
//!   gadget exposure measured by `adelie-gadget::scan`, loosens under
//!   budget pressure),
//! * [`BudgetController`] — a **global CPU budget**: caps the fraction
//!   of modeled CPU (`kernel.percpu`) the pool may spend and applies
//!   backpressure through deadlines and the adaptive policy,
//! * [`SchedStats`] — **per-module telemetry**: cycle-latency
//!   histograms, missed-deadline counts, pointer-refresh failure
//!   counts, per-policy period/rate/exposure readouts, printed next to
//!   the artifact's dmesg block by [`Scheduler::log_stats`],
//! * [`FleetScheduler`] — **one worker group per kernel shard** of a
//!   fleet, every group under one global [`BudgetController`],
//! * [`Clock`]/[`SimClock`] — an **injectable timeline**: a pool built
//!   on [`Clock::wall`] runs threaded; one built on a
//!   [`Clock::Virtual`] runs threadless, driven one deterministic
//!   [`Scheduler::step`] at a time by `adelie-testkit`.
//!
//! One constructor starts a pool: [`Scheduler::new`] for a kernel and
//! [`FleetScheduler::new`] for a fleet. The artifact's single-kthread
//! shape is `Scheduler::new` with [`SchedConfig::serial`] on the wall
//! clock. See DESIGN.md §6 for the architecture.
//!
//! # Example
//!
//! ```
//! use adelie_core::ModuleRegistry;
//! use adelie_kernel::{Kernel, KernelConfig};
//! use adelie_plugin::{transform, FuncSpec, MOp, ModuleSpec, TransformOptions};
//! use adelie_sched::{Clock, Policy, SchedConfig, Scheduler};
//!
//! let kernel = Kernel::new(KernelConfig::default());
//! let registry = ModuleRegistry::new(&kernel);
//! let mut spec = ModuleSpec::new("noop");
//! spec.funcs.push(FuncSpec::exported("noop_run", vec![MOp::Ret]));
//! let opts = TransformOptions::rerandomizable(true);
//! let obj = transform(&spec, &opts).unwrap();
//! let module = registry.load(&obj, &opts).unwrap();
//!
//! let sched = Scheduler::new(
//!     kernel.clone(),
//!     registry.clone(),
//!     &["noop"],
//!     SchedConfig {
//!         workers: 2,
//!         policy: Policy::default_adaptive(),
//!         ..SchedConfig::default()
//!     },
//!     Clock::wall(),
//! );
//! let entry = module.export("noop_run").unwrap();
//! let mut vm = kernel.vm();
//! vm.call(entry, &[]).unwrap();
//! let stats = sched.stop();
//! assert_eq!(stats.failures, 0);
//! ```

mod budget;
mod clock;
mod fleet;
mod health;
mod policy;
mod scheduler;
mod stats;

pub use budget::BudgetController;
pub use clock::{Clock, SimClock};
pub use fleet::{FleetScheduler, ShardSched};
pub use health::{backoff_multiplier, HealthEvent, HealthState, ModuleHealth, SupervisionConfig};
pub use policy::{Policy, PolicyInputs};
pub use scheduler::{CycleReport, SchedConfig, Scheduler};
pub use stats::{LatencyHistogram, LatencySnapshot, ModuleSchedStats, SchedStats};
