//! Fleet workloads: every paper benchmark, across kernel shards.
//!
//! [`FleetTestbed`] provisions one full [`Testbed`] per shard of a
//! [`ShardedKernel`] — same drivers, same benchmark files, independent
//! address space and VA window — and starts one
//! [`FleetScheduler`] worker group per shard under one global CPU
//! budget. Two drive modes:
//!
//! * [`FleetTestbed::run_paper_workloads_concurrently`] — the seven
//!   paper workloads as real concurrent threads spread over the shards
//!   (the Fig. 5–9 suite as one machine-wide load, wall-clock
//!   measured);
//! * [`run_soak_round`] — a **deterministic, fixed-op** pass touching
//!   every workload's driver path (cached reads, file_io, kernbench
//!   bursts, NVMe `O_DIRECT`, OLTP table read/write, document serve +
//!   NIC xmit, null ioctls) with zero wall-clock dependence. The soak
//!   suite interleaves these rounds with stepped scheduler cycles on a
//!   virtual clock, which is what makes "same seed ⇒ byte-identical
//!   stats dumps" an assertable property rather than a hope.

use crate::{
    run_apache, run_dd, run_fileio, run_ioctl, run_kernbench, run_nvme_direct, run_oltp, DriverSet,
    FileIoMode, Measurement, Testbed, TABLES,
};
use adelie_drivers::specs::DUMMY_MINOR;
use adelie_kernel::{FleetConfig, ShardedKernel, Vm, SECTOR_SIZE};
use adelie_plugin::TransformOptions;
use adelie_sched::{Clock, FleetScheduler, SchedConfig};
use std::sync::Arc;
use std::time::Duration;

/// The seven paper workloads, in figure order.
pub const PAPER_WORKLOADS: [&str; 7] = [
    "dd",
    "fileio",
    "kernbench",
    "nvme",
    "oltp",
    "apache",
    "ioctl",
];

/// One [`Testbed`] per shard of a [`ShardedKernel`].
pub struct FleetTestbed {
    /// The shard set.
    pub sharded: Arc<ShardedKernel>,
    /// Shard testbeds, indexed by shard.
    pub shards: Vec<Testbed>,
}

impl FleetTestbed {
    /// Provision `shards` shard testbeds from `seed`, each with the
    /// full `drivers` set under `opts`.
    pub fn new(
        opts: TransformOptions,
        drivers: DriverSet,
        shards: usize,
        seed: u64,
    ) -> FleetTestbed {
        let base = adelie_kernel::KernelConfig {
            retpoline: opts.retpoline,
            seed,
            ..adelie_kernel::KernelConfig::default()
        };
        FleetTestbed::with_fleet_config(opts, drivers, FleetConfig { shards, base })
    }

    /// Provision from an explicit [`FleetConfig`].
    pub fn with_fleet_config(
        opts: TransformOptions,
        drivers: DriverSet,
        config: FleetConfig,
    ) -> FleetTestbed {
        let sharded = ShardedKernel::new(config);
        let shards = sharded
            .shards()
            .iter()
            .map(|kernel| Testbed::with_kernel(kernel.clone(), opts, drivers))
            .collect();
        FleetTestbed { sharded, shards }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Never true (a fleet has ≥ 1 shard).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Shard `i`'s testbed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &Testbed {
        &self.shards[i]
    }

    /// Start one scheduler group per shard over its installed modules,
    /// every group under `config` on `clock` and one global budget
    /// ([`FleetScheduler::new`]): threaded on a wall clock, stepped —
    /// the deterministic fleet — on a [`Clock::Virtual`].
    ///
    /// # Panics
    ///
    /// Panics if any shard's modules were not built re-randomizable.
    pub fn start_schedulers(&self, config: SchedConfig, clock: Clock) -> FleetScheduler {
        let shards = self
            .shards
            .iter()
            .map(|tb| {
                (
                    tb.kernel.clone(),
                    tb.registry.clone(),
                    tb.module_names.clone(),
                )
            })
            .collect();
        FleetScheduler::new(shards, config, clock)
    }

    /// Run **all seven paper workloads concurrently across the
    /// shards**: workload `k` runs on shard `k % shards`, every runner
    /// on its own OS thread for `duration`. Returns
    /// `(shard, workload, measurement)` rows in workload order.
    ///
    /// Requires the full driver set (OLTP and Apache need the NIC).
    pub fn run_paper_workloads_concurrently(
        &self,
        duration: Duration,
    ) -> Vec<(usize, &'static str, Measurement)> {
        let n = self.shards.len();
        let mut rows: Vec<(usize, &'static str, Measurement)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = PAPER_WORKLOADS
                .iter()
                .enumerate()
                .map(|(k, &name)| {
                    let shard = k % n;
                    let tb = &self.shards[shard];
                    s.spawn(move || {
                        let m = match name {
                            "dd" => run_dd(tb, 64 * 1024, duration),
                            "fileio" => run_fileio(tb, FileIoMode::RndRead, duration),
                            "kernbench" => run_kernbench(tb, 2, 8),
                            "nvme" => run_nvme_direct(tb, duration),
                            "oltp" => run_oltp(tb, 2, 2, duration),
                            "apache" => run_apache(tb, 4096, 2, 2, duration),
                            _ => run_ioctl(tb, duration),
                        };
                        (shard, name, m)
                    })
                })
                .collect();
            for h in handles {
                rows.push(h.join().expect("workload thread"));
            }
        });
        rows
    }
}

impl std::fmt::Debug for FleetTestbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTestbed")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// One **deterministic** soak round on one shard: a fixed bundle of
/// operations down every paper workload's driver path, with no
/// wall-clock reads and no unseeded randomness. `round` varies offsets
/// and table picks so consecutive rounds touch different cache lines
/// the way the duration-based runners do. Returns operations completed
/// (a pure function of the testbed's driver set and `round`).
///
/// # Panics
///
/// Panics on I/O errors — a soak round never legitimately fails.
pub fn run_soak_round(tb: &Testbed, vm: &mut Vm<'_>, round: u64) -> u64 {
    let k = &tb.kernel;
    let mut ops = 0u64;
    let buf = k.heap.kmalloc(&k.space, &k.phys, 64 * 1024);

    // dd (Fig. 5b): one 64 KiB cached sequential read.
    if let Some(f) = k.vfs.stat("dd.dat") {
        let fd = k.vfs.open("dd.dat", false).unwrap();
        let off = (round * 64 * 1024) % (f.size - 64 * 1024);
        k.vfs.pread(vm, fd, buf, 64 * 1024, off).unwrap();
        k.vfs.close(fd);
        ops += 1;
    }

    // sysbench file_io (Fig. 5c): one 16 KiB read at a derived offset.
    {
        let name = format!("sb_file_{}", round % 4);
        if let Some(f) = k.vfs.stat(&name) {
            let fd = k.vfs.open(&name, false).unwrap();
            let off = (round.wrapping_mul(0x9E37) * 16384) % (f.size - 16384);
            k.vfs.pread(vm, fd, buf, 16384, off).unwrap();
            k.vfs.close(fd);
            ops += 1;
        }
    }

    // kernbench (Fig. 5d): one header-read burst.
    for h in 0..4u64 {
        let name = format!("src_{}", (round * 7 + h) % 8);
        if let Some(fd) = k.vfs.open(&name, false) {
            k.vfs.pread(vm, fd, buf, 4096, h * 4096).unwrap();
            k.vfs.close(fd);
            ops += 1;
        }
    }

    // NVMe O_DIRECT (Fig. 6): one direct sector re-read.
    if tb.nvme.is_some() {
        if let Some(fd) = k.vfs.open("nvme.dat", true) {
            k.vfs.pread(vm, fd, buf, SECTOR_SIZE, 0).unwrap();
            k.vfs.close(fd);
            ops += 1;
        }
    }

    // OLTP (Fig. 7): one read + one write on a rotating table.
    {
        let name = format!("sbtest{}", round % TABLES as u64);
        if let Some(f) = k.vfs.stat(&name) {
            let fd = k.vfs.open(&name, false).unwrap();
            let off = (round.wrapping_mul(0x51ED) * 128) % (f.size - 128);
            k.vfs.pread(vm, fd, buf, 128, off).unwrap();
            k.vfs.pwrite(vm, fd, buf, 128, off).unwrap();
            k.vfs.close(fd);
            ops += 2;
        }
    }

    // Apache (Fig. 8): serve one 4 KiB document out the NIC.
    if tb.nic.is_some() {
        if let Some(fd) = k.vfs.open("www_doc_4096", false) {
            k.vfs.pread(vm, fd, buf, 4096, 0).unwrap();
            k.vfs.close(fd);
            let frame = [0xABu8; 128];
            k.net_xmit(vm, &frame).unwrap();
            ops += 2;
        }
    }

    // Null ioctl (Fig. 9): a burst through the dummy driver's wrapper.
    if k.devices.chrdev(DUMMY_MINOR).is_some() {
        for i in 0..16u64 {
            let r = k.ioctl(vm, DUMMY_MINOR, 0, round ^ i).unwrap();
            assert_eq!(r, round ^ i, "null ioctl must echo");
        }
        ops += 16;
    }

    k.heap.kfree(buf);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_sched::{Policy, SimClock};

    #[test]
    fn fleet_testbed_boots_disjoint_shards() {
        let ft = FleetTestbed::new(
            TransformOptions::rerandomizable(true),
            DriverSet::full(),
            2,
            5,
        );
        assert_eq!(ft.len(), 2);
        // Shards are real, independent machines: same driver fleet,
        // different address spaces, disjoint windows.
        assert_ne!(ft.shard(0).kernel.space.id(), ft.shard(1).kernel.space.id());
        assert_eq!(ft.shard(0).module_names, ft.shard(1).module_names);
        let w0 = ft.sharded.window(0);
        let w1 = ft.sharded.window(1);
        assert!(w0.1 <= w1.0);
    }

    #[test]
    fn soak_rounds_are_deterministic_per_shard() {
        let run = || {
            let ft = FleetTestbed::new(
                TransformOptions::rerandomizable(true),
                DriverSet::full(),
                2,
                9,
            );
            let mut total = 0u64;
            for (i, tb) in ft.shards.iter().enumerate() {
                let mut vm = tb.kernel.vm();
                for round in 0..10u64 {
                    total += run_soak_round(tb, &mut vm, round * (i as u64 + 1));
                }
            }
            total
        };
        let a = run();
        assert!(a > 0);
        assert_eq!(a, run(), "soak rounds must be a pure function of config");
    }

    #[test]
    fn stepped_fleet_schedulers_share_one_budget() {
        let ft = FleetTestbed::new(
            TransformOptions::rerandomizable(true),
            DriverSet::dummy_only(),
            2,
            3,
        );
        let clock = SimClock::new();
        let config = SchedConfig {
            step_cost: Duration::from_micros(50),
            ..SchedConfig::default()
        };
        let sched = ft.start_schedulers(config, Clock::Virtual(clock.clone()));
        clock.advance(Duration::from_millis(40));
        let mut steps = 0;
        while let Some((_, _)) = sched.step() {
            steps += 1;
            if steps > 64 {
                break;
            }
            if sched
                .peek_deadline_ns()
                .is_none_or(|(_, d)| d > clock.now_ns())
            {
                break;
            }
        }
        assert!(sched.cycles() > 0, "fleet cycled");
        // Every group's spend landed in ONE budget.
        let spent = sched.budget().spent();
        assert_eq!(
            spent,
            Duration::from_micros(50) * sched.cycles() as u32,
            "shared budget must see every shard's cycles"
        );
        let _ = sched.stop();
    }

    #[test]
    fn paper_workloads_run_concurrently_across_shards() {
        let ft = FleetTestbed::new(
            TransformOptions::rerandomizable(true),
            DriverSet::full(),
            2,
            21,
        );
        let _sched = ft.start_schedulers(SchedConfig::default(), Clock::wall());
        let rows = ft.run_paper_workloads_concurrently(Duration::from_millis(80));
        assert_eq!(rows.len(), PAPER_WORKLOADS.len());
        for (shard, name, m) in &rows {
            assert!(*shard < 2);
            assert!(m.ops > 0, "{name} on shard {shard} did no work");
        }
        // Both shards actually served workloads.
        let shards_used: std::collections::HashSet<usize> =
            rows.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(shards_used.len(), 2);
    }

    /// All seven paper workloads must run from modules that took the
    /// ELF64 detour (`adelie_elf::emit` → `parse` inside the driver
    /// installers) — same fleet, same schedulers, real work on every
    /// workload, under continuous re-randomization.
    #[test]
    fn paper_workloads_run_from_elf_ingested_modules() {
        let ft = FleetTestbed::new(
            TransformOptions::rerandomizable(true).with_elf_ingest(),
            DriverSet::full(),
            2,
            21,
        );
        let _sched = ft.start_schedulers(SchedConfig::default(), Clock::wall());
        let rows = ft.run_paper_workloads_concurrently(Duration::from_millis(80));
        assert_eq!(rows.len(), PAPER_WORKLOADS.len());
        for (shard, name, m) in &rows {
            assert!(
                m.ops > 0,
                "{name} on shard {shard} did no work from its ELF-ingested module"
            );
        }
    }

    #[test]
    fn fleet_sched_config_knob_applies_to_every_shard() {
        let ft = FleetTestbed::new(
            TransformOptions::rerandomizable(true),
            DriverSet::dummy_only(),
            2,
            13,
        );
        let config = SchedConfig {
            workers: 2,
            policy: Policy::FixedPeriod(Duration::from_millis(2)),
            step_cost: Duration::from_micros(50),
            ..SchedConfig::default()
        };
        let clock = SimClock::new();
        let sched = ft.start_schedulers(config, Clock::Virtual(clock.clone()));
        for _ in 0..40 {
            clock.advance(Duration::from_millis(1));
            while sched
                .peek_deadline_ns()
                .is_some_and(|(_, d)| d <= clock.now_ns())
            {
                sched.step();
            }
        }
        let stats = sched.stop();
        assert_eq!(stats.len(), 2);
        for (i, s) in stats.iter().enumerate() {
            assert!(s.cycles > 0, "shard {i} group never cycled");
            assert_eq!(s.failures, 0);
        }
    }
}
