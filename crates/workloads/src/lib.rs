//! # adelie-workloads — the paper's benchmark workloads
//!
//! One runner per evaluation workload, each returning a structured
//! [`Measurement`] (ops, bytes, wall time, modeled CPU usage):
//!
//! | paper workload | runner |
//! |---|---|
//! | `dd` cached reads (Fig. 5b) | [`run_dd`] |
//! | sysbench `file_io` (Fig. 5c) | [`run_fileio`] |
//! | kernbench (Fig. 5d) | [`run_kernbench`] |
//! | NVMe `O_DIRECT` loop (Fig. 6) | [`run_nvme_direct`] |
//! | sysbench OLTP / mySQL (Fig. 7) | [`run_oltp`] |
//! | ApacheBench (Fig. 8) | [`run_apache`] |
//! | null-ioctl loop (Fig. 9) | [`run_ioctl`] |
//!
//! [`Testbed`] assembles the machine: kernel + drivers built under a
//! given [`TransformOptions`] configuration + pre-created files, the
//! way Table 1's server is provisioned before each experiment.

mod apache;
mod fleet;
mod micro;
mod net;
mod oltp;

pub use apache::{run_apache, BLOCK_SIZES};
pub use fleet::{run_soak_round, FleetTestbed, PAPER_WORKLOADS};
pub use micro::{run_dd, run_fileio, run_ioctl, run_kernbench, run_nvme_direct, FileIoMode};
pub use net::{AppFn, NetHarness};
pub use oltp::{run_oltp, TABLES, TABLE_BYTES};

use adelie_core::ModuleRegistry;
use adelie_drivers::{
    install_dummy, install_extfs, install_fuse, install_nic, install_nvme, install_xhci, NicDevice,
    NicFlavor, NvmeDevice,
};
use adelie_kernel::{Kernel, KernelConfig};
use adelie_plugin::TransformOptions;
use adelie_sched::{Policy, SchedConfig, Scheduler, SimClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A throughput/CPU measurement (one data point of one figure).
#[derive(Copy, Clone, Debug)]
pub struct Measurement {
    /// Operations completed (reads, ioctls, transactions, requests…).
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Wall-clock duration of the measurement window.
    pub wall: Duration,
    /// Modeled machine utilization over the window (0..=1).
    pub cpu: f64,
}

impl Measurement {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    /// Megabytes per second.
    pub fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.wall.as_secs_f64()
    }

    /// CPU usage in percent (the unit the paper's figures use).
    pub fn cpu_percent(&self) -> f64 {
        self.cpu * 100.0
    }
}

/// Measures wall time and modeled CPU usage over a window.
pub struct CpuMeter {
    kernel: Arc<Kernel>,
    busy0: u64,
    t0: Instant,
}

impl CpuMeter {
    /// Start measuring.
    pub fn start(kernel: &Arc<Kernel>) -> CpuMeter {
        CpuMeter {
            kernel: kernel.clone(),
            busy0: kernel.percpu.total_busy_ns(),
            t0: Instant::now(),
        }
    }

    /// Stop; returns `(wall, usage)`.
    pub fn stop(self) -> (Duration, f64) {
        let wall = self.t0.elapsed();
        let usage = self.kernel.percpu.usage_since(self.busy0, wall);
        (wall, usage)
    }
}

/// Which driver set to install.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DriverSet {
    /// E1000E-like NIC.
    pub nic: bool,
    /// NVMe-like storage.
    pub nvme: bool,
    /// ext4-analog block mapping.
    pub extfs: bool,
    /// Null-ioctl dummy driver.
    pub dummy: bool,
    /// xHCI + FUSE extra-load modules.
    pub extras: bool,
}

impl DriverSet {
    /// Everything (the Fig. 8 configuration).
    pub fn full() -> DriverSet {
        DriverSet {
            nic: true,
            nvme: true,
            extfs: true,
            dummy: true,
            extras: true,
        }
    }

    /// Storage-only (Fig. 6).
    pub fn storage() -> DriverSet {
        DriverSet {
            nic: false,
            nvme: true,
            extfs: true,
            dummy: false,
            extras: false,
        }
    }

    /// Dummy-only (Fig. 9).
    pub fn dummy_only() -> DriverSet {
        DriverSet {
            nic: false,
            nvme: false,
            extfs: false,
            dummy: true,
            extras: false,
        }
    }
}

/// The provisioned machine for one experiment.
pub struct Testbed {
    /// The simulated kernel.
    pub kernel: Arc<Kernel>,
    /// Module registry (for spawning a re-randomizer).
    pub registry: Arc<ModuleRegistry>,
    /// NIC device handle (when installed).
    pub nic: Option<Arc<NicDevice>>,
    /// NVMe device handle (when installed).
    pub nvme: Option<Arc<NvmeDevice>>,
    /// The module configuration used.
    pub opts: TransformOptions,
    /// Names of installed re-randomizable modules.
    pub module_names: Vec<String>,
    /// Scheduler configuration used by [`Testbed::start_scheduler`] —
    /// the knob that runs any paper workload under any policy/worker
    /// combination.
    pub sched: SchedConfig,
}

impl Testbed {
    /// Provision a testbed: boot, install `drivers` under `opts`, create
    /// and warm the benchmark files.
    pub fn new(opts: TransformOptions, drivers: DriverSet) -> Testbed {
        Testbed::with_kernel_config(
            opts,
            drivers,
            KernelConfig {
                retpoline: opts.retpoline,
                ..KernelConfig::default()
            },
        )
    }

    /// Provision with an explicit kernel configuration (reclaimer
    /// ablations, CPU-count scaling).
    pub fn with_kernel_config(
        opts: TransformOptions,
        drivers: DriverSet,
        config: KernelConfig,
    ) -> Testbed {
        Testbed::with_kernel(Kernel::new(config), opts, drivers)
    }

    /// Provision over an already-booted kernel — the fleet shape, where
    /// [`FleetTestbed`] hands each shard of a
    /// [`ShardedKernel`](adelie_kernel::ShardedKernel) its own testbed.
    pub fn with_kernel(kernel: Arc<Kernel>, opts: TransformOptions, drivers: DriverSet) -> Testbed {
        let registry = ModuleRegistry::new(&kernel);
        let mut names = Vec::new();
        let nic = drivers.nic.then(|| {
            let d = install_nic(&registry, &opts, NicFlavor::E1000e).expect("nic");
            names.push(d.module.name.to_string());
            d.device
        });
        let nvme = drivers.nvme.then(|| {
            let d = install_nvme(&registry, &opts).expect("nvme");
            names.push(d.module.name.to_string());
            d.device
        });
        if drivers.extfs {
            let d = install_extfs(&registry, &opts).expect("extfs");
            names.push(d.module.name.to_string());
        }
        if drivers.dummy {
            let d = install_dummy(&registry, &opts).expect("dummy");
            names.push(d.module.name.to_string());
        }
        if drivers.extras {
            let x = install_xhci(&registry, &opts).expect("xhci");
            names.push(x.module.name.to_string());
            let f = install_fuse(&registry, &opts).expect("fuse");
            names.push(f.module.name.to_string());
        }
        let tb = Testbed {
            kernel,
            registry,
            nic,
            nvme,
            opts,
            module_names: names,
            sched: SchedConfig::default(),
        };
        tb.provision_files();
        tb
    }

    /// Replace the scheduler configuration (builder-style).
    pub fn with_sched(mut self, sched: SchedConfig) -> Testbed {
        self.sched = sched;
        self
    }

    fn provision_files(&self) {
        let mut vm = self.kernel.vm();
        // dd microbenchmark file (cached).
        self.kernel.vfs.create("dd.dat", 4 << 20);
        self.kernel.vfs.warm(&mut vm, "dd.dat").unwrap();
        // sysbench file_io files.
        for i in 0..4 {
            let name = format!("sb_file_{i}");
            self.kernel.vfs.create(&name, 1 << 20);
            self.kernel.vfs.warm(&mut vm, &name).unwrap();
        }
        // kernbench source tree.
        for i in 0..8 {
            let name = format!("src_{i}");
            self.kernel.vfs.create(&name, 128 * 1024);
            self.kernel.vfs.warm(&mut vm, &name).unwrap();
        }
        // NVMe O_DIRECT target.
        self.kernel.vfs.create("nvme.dat", 1 << 20);
        // OLTP tables (warm = the cached fraction).
        for t in 0..TABLES {
            let name = format!("sbtest{t}");
            self.kernel.vfs.create(&name, TABLE_BYTES);
            self.kernel.vfs.warm(&mut vm, &name).unwrap();
        }
        // Apache documents.
        for bs in BLOCK_SIZES {
            let name = format!("www_doc_{bs}");
            self.kernel.vfs.create(&name, bs as u64);
            self.kernel.vfs.warm(&mut vm, &name).unwrap();
        }
    }

    /// Start the re-randomization scheduler over the installed modules
    /// with the testbed's [`SchedConfig`] knob.
    ///
    /// # Panics
    ///
    /// Panics if the installed modules were not built re-randomizable.
    pub fn start_scheduler(&self) -> Scheduler {
        let names: Vec<&str> = self.module_names.iter().map(|s| s.as_str()).collect();
        Scheduler::spawn(
            self.kernel.clone(),
            self.registry.clone(),
            &names,
            self.sched.clone(),
        )
    }

    /// Start a **stepped** scheduler over the installed modules on a
    /// virtual clock — no threads; the caller drives cycles with
    /// `Scheduler::step` between workload operations, which removes
    /// every wall-clock race from scheduler-under-load tests (cycle
    /// counts become a deterministic function of the step schedule).
    /// Each stepped cycle charges `cycle_cost` of modeled CPU.
    ///
    /// # Panics
    ///
    /// Panics if the installed modules were not built re-randomizable.
    pub fn start_stepped_scheduler(&self, clock: Arc<SimClock>, cycle_cost: Duration) -> Scheduler {
        let with_policies: Vec<(&str, Policy)> = self
            .module_names
            .iter()
            .map(|s| (s.as_str(), self.sched.policy.clone()))
            .collect();
        Scheduler::spawn_stepped(
            self.kernel.clone(),
            self.registry.clone(),
            &with_policies,
            self.sched.clone(),
            clock,
            cycle_cost,
        )
    }

    /// Start continuous re-randomization of the installed modules at a
    /// fixed `period` on one worker — the artifact's `randmod` shape
    /// ([`SchedConfig::serial`]), used by the figure benches that sweep
    /// `rand_period`.
    ///
    /// # Panics
    ///
    /// Panics if the installed modules were not built re-randomizable.
    pub fn start_rerand(&self, period: Duration) -> Scheduler {
        let names: Vec<&str> = self.module_names.iter().map(|s| s.as_str()).collect();
        Scheduler::spawn(
            self.kernel.clone(),
            self.registry.clone(),
            &names,
            SchedConfig::serial(period),
        )
    }
}

/// The four Fig. 5 system configurations.
pub fn pic_matrix() -> Vec<(&'static str, TransformOptions)> {
    vec![
        ("linux", TransformOptions::vanilla(false)),
        ("linux+retpoline", TransformOptions::vanilla(true)),
        ("pic", TransformOptions::pic(false)),
        ("pic+retpoline", TransformOptions::pic(true)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_millis(60);

    #[test]
    fn dd_runs_in_every_configuration() {
        for (label, opts) in pic_matrix() {
            let tb = Testbed::new(opts, DriverSet::storage());
            let m = run_dd(&tb, 64 * 1024, SHORT);
            assert!(m.ops > 0, "{label}: no ops");
            assert!(m.mb_per_sec() > 0.0);
        }
    }

    #[test]
    fn fileio_modes_run() {
        let tb = Testbed::new(TransformOptions::pic(true), DriverSet::storage());
        for mode in [FileIoMode::SeqRead, FileIoMode::RndRead] {
            let m = run_fileio(&tb, mode, SHORT);
            assert!(m.ops > 0, "{mode:?}");
        }
    }

    #[test]
    fn kernbench_scales_with_concurrency() {
        let tb = Testbed::new(TransformOptions::pic(true), DriverSet::storage());
        let m = run_kernbench(&tb, 4, 24);
        assert_eq!(m.ops, 24);
        assert!(m.wall > Duration::ZERO);
    }

    #[test]
    fn nvme_direct_loop_hits_the_driver() {
        let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::storage());
        let completed_before = tb.nvme.as_ref().unwrap().completed();
        let m = run_nvme_direct(&tb, SHORT);
        assert!(m.ops > 0);
        assert!(tb.nvme.as_ref().unwrap().completed() > completed_before);
    }

    #[test]
    fn ioctl_loop_under_rerand() {
        let tb = Testbed::new(
            TransformOptions::rerandomizable(true),
            DriverSet::dummy_only(),
        );
        let rr = tb.start_rerand(Duration::from_millis(1));
        let m = run_ioctl(&tb, SHORT);
        let stats = rr.stop();
        assert!(m.ops > 256);
        assert!(stats.cycles > 0);
        assert_eq!(tb.kernel.reclaim.stats().delta(), 0);
    }

    #[test]
    fn oltp_transactions_flow() {
        let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::full());
        let m = run_oltp(&tb, 4, 2, Duration::from_millis(150));
        assert!(m.ops > 0, "no transactions completed");
    }

    #[test]
    fn apache_serves_bytes() {
        let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::full());
        let m = run_apache(&tb, 4096, 4, 2, Duration::from_millis(150));
        assert!(m.ops > 0, "no requests served");
        assert!(m.bytes >= m.ops * 4096, "responses carry the document");
    }

    #[test]
    fn apache_under_full_rerand_fleet() {
        // The Fig. 8 configuration: five modules re-randomizing while
        // serving.
        let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::full());
        let rr = tb.start_rerand(Duration::from_millis(5));
        let m = run_apache(&tb, 1024, 4, 2, Duration::from_millis(200));
        let stats = rr.stop();
        assert!(m.ops > 0);
        assert!(stats.cycles >= 5, "fleet cycled: {}", stats.cycles);
        assert_eq!(tb.kernel.reclaim.stats().delta(), 0);
    }

    #[test]
    fn ioctl_fleet_under_virtual_clock_is_deterministic() {
        // The stepped scheduler removes the wall-clock race from
        // scheduler-under-load tests: the cycle count is a function of
        // the step schedule, not of machine speed.
        let run = || {
            let tb = Testbed::new(
                TransformOptions::rerandomizable(true),
                DriverSet::dummy_only(),
            );
            let clock = SimClock::new();
            let sched = tb.start_stepped_scheduler(clock.clone(), Duration::from_micros(100));
            let mut vm = tb.kernel.vm();
            for i in 0..200u64 {
                assert_eq!(
                    tb.kernel
                        .ioctl(&mut vm, adelie_drivers::specs::DUMMY_MINOR, 0, i)
                        .unwrap(),
                    i
                );
                // One virtual millisecond of "time passes" per ioctl
                // batch; step every deadline that came due.
                clock.advance(Duration::from_millis(1));
                while sched
                    .peek_deadline_ns()
                    .is_some_and(|d| d <= clock.now_ns())
                {
                    sched.step();
                }
            }
            let stats = sched.stop();
            tb.kernel.reclaim.flush();
            assert_eq!(tb.kernel.reclaim.stats().delta(), 0);
            stats.cycles
        };
        let a = run();
        let b = run();
        assert!(a >= 5, "virtual clock drove cycles: {a}");
        assert_eq!(a, b, "stepped runs must be reproducible");
    }

    #[test]
    fn ioctl_fleet_pays_partial_flushes_not_full_flushes() {
        // Range-based shootdown at workload level: an ioctl fleet on a
        // stepped schedule. The driver CPU's TLB resynchronizes after
        // every cycle by evicting only the retired spans — it never
        // whole-flushes.
        let tb = Testbed::with_kernel_config(
            TransformOptions::rerandomizable(true),
            DriverSet::dummy_only(),
            KernelConfig::default(),
        );
        let clock = SimClock::new();
        let sched = tb.start_stepped_scheduler(clock.clone(), Duration::from_micros(100));
        let mut vm = tb.kernel.vm();
        // Warm the TLB before counting.
        for i in 0..10u64 {
            tb.kernel
                .ioctl(&mut vm, adelie_drivers::specs::DUMMY_MINOR, 0, i)
                .unwrap();
        }
        let warm = vm.tlb_stats();
        for i in 0..100u64 {
            assert_eq!(
                tb.kernel
                    .ioctl(&mut vm, adelie_drivers::specs::DUMMY_MINOR, 0, i)
                    .unwrap(),
                i
            );
            clock.advance(Duration::from_millis(1));
            while sched
                .peek_deadline_ns()
                .is_some_and(|d| d <= clock.now_ns())
            {
                sched.step();
            }
        }
        let cycles = sched.stop().cycles;
        let t = vm.tlb_stats();
        assert!(cycles >= 5);
        assert_eq!(
            t.flushes - warm.flushes,
            0,
            "range-based shootdown must never whole-flush under cycling"
        );
        assert!(
            t.partial_flushes > warm.partial_flushes,
            "cycles must take the partial path"
        );
    }

    #[test]
    fn any_workload_runs_under_any_policy() {
        // The SchedConfig knob: the same Fig. 8 workload under a
        // 4-worker adaptive pool instead of the serial fixed period.
        use adelie_sched::Policy;
        let tb = Testbed::new(TransformOptions::rerandomizable(true), DriverSet::full())
            .with_sched(SchedConfig {
                workers: 4,
                policy: Policy::Adaptive {
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(25),
                    rate_scale: 500.0,
                    exposure_scale: 20.0,
                },
                ..SchedConfig::default()
            });
        let sched = tb.start_scheduler();
        let m = run_apache(&tb, 1024, 4, 2, Duration::from_millis(200));
        let stats = sched.stop();
        assert!(m.ops > 0);
        assert!(stats.cycles >= 5, "pool cycled: {}", stats.cycles);
        assert_eq!(stats.failures, 0);
        tb.kernel.reclaim.flush();
        assert_eq!(tb.kernel.reclaim.stats().delta(), 0);
    }
}
