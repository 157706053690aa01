//! # adelie-drivers — device models and driver modules
//!
//! The drivers the paper evaluates, as pairs of (device model, driver
//! module): the driver side is plugin-IR source lowered per
//! configuration and executed by the interpreter; the device side is a
//! deterministic Rust model behind MMIO registers.
//!
//! | paper driver | here |
//! |---|---|
//! | NVMe (storage) | [`install_nvme`] — register-file block device with a DRAM-cache read model |
//! | E1000E / E1000 / ENA (network) | [`install_nic`] — TX/RX ring NIC with an in-process "wire" |
//! | dummy ioctl driver (Fig. 9) | [`install_dummy`] — null ioctl |
//! | ext4 (block mapping) | [`install_extfs`] — VFS block-map interposition |
//! | xHCI / FUSE (extra load) | [`install_xhci`], [`install_fuse`] |
//!
//! # Example
//!
//! ```
//! use adelie_core::ModuleRegistry;
//! use adelie_drivers::{install_dummy, specs::DUMMY_MINOR};
//! use adelie_kernel::{Kernel, KernelConfig};
//! use adelie_plugin::TransformOptions;
//!
//! let kernel = Kernel::new(KernelConfig::default());
//! let registry = ModuleRegistry::new(&kernel);
//! install_dummy(&registry, &TransformOptions::rerandomizable(true)).unwrap();
//! let mut vm = kernel.vm();
//! assert_eq!(kernel.ioctl(&mut vm, DUMMY_MINOR, 0, 7).unwrap(), 7);
//! ```

pub mod devices;
pub mod specs;

pub use devices::{NicDevice, NvmeDevice, XhciDevice};
pub use specs::NicFlavor;

use adelie_core::{LoadError, LoadedModule, ModuleRegistry};
use adelie_plugin::{transform, TransformOptions};
use std::sync::Arc;

/// An installed driver: the loaded module plus its device model handle.
pub struct Driver<D> {
    /// The loaded (possibly re-randomizable) module.
    pub module: Arc<LoadedModule>,
    /// The device model (unit for device-less modules).
    pub device: D,
    /// The device's MMIO aperture base, if any.
    pub mmio_base: u64,
}

fn load_spec(
    registry: &ModuleRegistry,
    spec: &adelie_plugin::ModuleSpec,
    opts: &TransformOptions,
) -> Result<Arc<LoadedModule>, LoadError> {
    let obj = transform(spec, opts).map_err(|e| LoadError::Ingest(e.to_string()))?;
    let obj = if opts.elf_ingest {
        // The real-module path: serialize to an ELF64 relocatable
        // object and ingest it back, as if the `.ko` came off disk.
        adelie_elf::parse(&adelie_elf::emit(&obj)).map_err(|e| LoadError::Ingest(e.to_string()))?
    } else {
        obj
    };
    registry.load(&obj, opts)
}

/// Install the NVMe-analog storage driver.
///
/// # Errors
///
/// Propagates [`LoadError`].
pub fn install_nvme(
    registry: &ModuleRegistry,
    opts: &TransformOptions,
) -> Result<Driver<Arc<NvmeDevice>>, LoadError> {
    let kernel = registry.kernel();
    let device = NvmeDevice::new(kernel.phys.clone(), kernel.space.clone());
    let (_id, mmio_base) = kernel.map_device(device.clone(), 1);
    let module = load_spec(registry, &specs::nvme_spec(mmio_base), opts)?;
    Ok(Driver {
        module,
        device,
        mmio_base,
    })
}

/// Install a NIC driver of the given flavor.
///
/// # Errors
///
/// Propagates [`LoadError`].
pub fn install_nic(
    registry: &ModuleRegistry,
    opts: &TransformOptions,
    flavor: NicFlavor,
) -> Result<Driver<Arc<NicDevice>>, LoadError> {
    let kernel = registry.kernel();
    let device = NicDevice::new(kernel.phys.clone(), kernel.space.clone());
    let (_id, mmio_base) = kernel.map_device(device.clone(), 1);
    let module = load_spec(registry, &specs::nic_spec(flavor, mmio_base), opts)?;
    Ok(Driver {
        module,
        device,
        mmio_base,
    })
}

/// Install the dummy null-ioctl driver (Fig. 9's benchmark target).
///
/// # Errors
///
/// Propagates [`LoadError`].
pub fn install_dummy(
    registry: &ModuleRegistry,
    opts: &TransformOptions,
) -> Result<Driver<()>, LoadError> {
    let module = load_spec(registry, &specs::dummy_spec(), opts)?;
    Ok(Driver {
        module,
        device: (),
        mmio_base: 0,
    })
}

/// Install the ext4-analog filesystem module.
///
/// # Errors
///
/// Propagates [`LoadError`].
pub fn install_extfs(
    registry: &ModuleRegistry,
    opts: &TransformOptions,
) -> Result<Driver<()>, LoadError> {
    let module = load_spec(registry, &specs::extfs_spec(), opts)?;
    Ok(Driver {
        module,
        device: (),
        mmio_base: 0,
    })
}

/// Install the xHCI-analog extra-load module.
///
/// # Errors
///
/// Propagates [`LoadError`].
pub fn install_xhci(
    registry: &ModuleRegistry,
    opts: &TransformOptions,
) -> Result<Driver<Arc<XhciDevice>>, LoadError> {
    let kernel = registry.kernel();
    let device = XhciDevice::new();
    let (_id, mmio_base) = kernel.map_device(device.clone(), 1);
    let module = load_spec(registry, &specs::xhci_spec(mmio_base), opts)?;
    Ok(Driver {
        module,
        device,
        mmio_base,
    })
}

/// Install the FUSE-analog extra-load module.
///
/// # Errors
///
/// Propagates [`LoadError`].
pub fn install_fuse(
    registry: &ModuleRegistry,
    opts: &TransformOptions,
) -> Result<Driver<()>, LoadError> {
    let module = load_spec(registry, &specs::fuse_spec(), opts)?;
    Ok(Driver {
        module,
        device: (),
        mmio_base: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_core::rerandomize_module;
    use adelie_kernel::{Kernel, KernelConfig, SECTOR_SIZE};
    use parking_lot::Mutex;
    use std::sync::atomic::Ordering;

    fn boot() -> (Arc<Kernel>, Arc<ModuleRegistry>) {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        (kernel, registry)
    }

    fn option_matrix() -> Vec<TransformOptions> {
        vec![
            TransformOptions::vanilla(false),
            TransformOptions::pic(true),
            TransformOptions::rerandomizable(true),
        ]
    }

    #[test]
    fn dummy_ioctl_under_every_configuration() {
        for opts in option_matrix() {
            let (kernel, registry) = boot();
            install_dummy(&registry, &opts).unwrap();
            let mut vm = kernel.vm();
            for i in 0..32u64 {
                assert_eq!(
                    kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, i).unwrap(),
                    i,
                    "under {opts:?}"
                );
            }
        }
    }

    #[test]
    fn nvme_direct_read_matches_device_contents() {
        for opts in option_matrix() {
            let (kernel, registry) = boot();
            let drv = install_nvme(&registry, &opts).unwrap();
            kernel.vfs.create("data.bin", 1 << 20);
            let fd = kernel.vfs.open("data.bin", true).unwrap();
            let mut vm = kernel.vm();
            let buf = kernel
                .heap
                .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE);
            let n = kernel.vfs.pread(&mut vm, fd, buf, SECTOR_SIZE, 0).unwrap();
            assert_eq!(n, SECTOR_SIZE);
            let mut got = vec![0u8; SECTOR_SIZE];
            kernel
                .space
                .read_bytes(&kernel.phys, buf, &mut got)
                .unwrap();
            let file = kernel.vfs.stat("data.bin").unwrap();
            assert_eq!(got, drv.device.sector(file.first_lba).to_vec());
            assert!(drv.device.completed() >= 1);
        }
    }

    #[test]
    fn nvme_write_then_read_direct() {
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry) = boot();
        let _drv = install_nvme(&registry, &opts).unwrap();
        kernel.vfs.create("w.bin", 1 << 16);
        let fd = kernel.vfs.open("w.bin", true).unwrap();
        let mut vm = kernel.vm();
        let buf = kernel
            .heap
            .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE);
        kernel
            .space
            .write_bytes(&kernel.phys, buf, &[0x5A; SECTOR_SIZE])
            .unwrap();
        kernel.vfs.pwrite(&mut vm, fd, buf, SECTOR_SIZE, 0).unwrap();
        let out = kernel
            .heap
            .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE);
        kernel.vfs.pread(&mut vm, fd, out, SECTOR_SIZE, 0).unwrap();
        let mut got = vec![0u8; SECTOR_SIZE];
        kernel
            .space
            .read_bytes(&kernel.phys, out, &mut got)
            .unwrap();
        assert_eq!(got, vec![0x5A; SECTOR_SIZE]);
    }

    #[test]
    fn nvme_keeps_serving_across_rerandomization() {
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry) = boot();
        let drv = install_nvme(&registry, &opts).unwrap();
        kernel.vfs.create("r.bin", 1 << 20);
        let fd = kernel.vfs.open("r.bin", true).unwrap();
        let mut vm = kernel.vm();
        let buf = kernel
            .heap
            .kmalloc(&kernel.space, &kernel.phys, SECTOR_SIZE);
        for _ in 0..8 {
            kernel.vfs.pread(&mut vm, fd, buf, SECTOR_SIZE, 0).unwrap();
            rerandomize_module(&kernel, &registry, &drv.module).unwrap();
        }
        assert_eq!(drv.module.times_randomized(), 8);
        assert!(drv.device.completed() >= 8);
    }

    #[test]
    fn extfs_interposes_on_block_mapping() {
        let opts = TransformOptions::rerandomizable(false);
        let (kernel, registry) = boot();
        let fs = install_extfs(&registry, &opts).unwrap();
        let _nvme = install_nvme(&registry, &opts).unwrap();
        kernel.vfs.create("mapped.bin", 1 << 16);
        let fd = kernel.vfs.open("mapped.bin", false).unwrap();
        let mut vm = kernel.vm();
        let buf = kernel.heap.kmalloc(&kernel.space, &kernel.phys, 4096);
        kernel.vfs.pread(&mut vm, fd, buf, 4096, 0).unwrap();
        // The module's movable .data statistics counter was bumped by
        // the interpreted map_block call.
        let stats_va = fs.module.symbol_va("extfs_stats").unwrap();
        let count = kernel.space.read_u64(&kernel.phys, stats_va).unwrap();
        assert!(count >= 1, "map_block ran {count} times");
    }

    #[test]
    fn nic_rx_tx_round_trip() {
        for opts in option_matrix() {
            let (kernel, registry) = boot();
            let drv = install_nic(&registry, &opts, NicFlavor::E1000e).unwrap();
            // The "server" records everything netif_rx delivers.
            let inbox = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
            let sink = inbox.clone();
            kernel
                .devices
                .set_rx_handler(Box::new(move |f| sink.lock().push(f.to_vec())));
            let mut vm = kernel.vm();
            // Client → device → driver poll → netif_rx.
            drv.device.inject_rx(b"GET /index.html");
            assert_eq!(kernel.net_poll(&mut vm).unwrap(), 1);
            assert_eq!(inbox.lock()[0], b"GET /index.html");
            // Empty ring → 0.
            assert_eq!(kernel.net_poll(&mut vm).unwrap(), 0);
            // Server reply → driver xmit → device TX ring.
            kernel.net_xmit(&mut vm, b"200 OK hello").unwrap();
            assert_eq!(drv.device.pop_tx().unwrap(), b"200 OK hello");
        }
    }

    #[test]
    fn nic_flavors_all_load() {
        let opts = TransformOptions::rerandomizable(true);
        for flavor in [NicFlavor::E1000e, NicFlavor::E1000, NicFlavor::Ena] {
            let (kernel, registry) = boot();
            let drv = install_nic(&registry, &opts, flavor).unwrap();
            assert_eq!(&*drv.module.name, flavor.name());
            let mut vm = kernel.vm();
            kernel.net_xmit(&mut vm, b"probe").unwrap();
            assert_eq!(drv.device.pop_tx().unwrap(), b"probe");
        }
    }

    #[test]
    fn nic_survives_continuous_rerandomization_under_traffic() {
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry) = boot();
        let drv = install_nic(&registry, &opts, NicFlavor::E1000e).unwrap();
        kernel.devices.set_rx_handler(Box::new(|_| {}));
        let sched = adelie_sched::Scheduler::new(
            kernel.clone(),
            registry.clone(),
            &["e1000e"],
            adelie_sched::SchedConfig::serial(std::time::Duration::from_millis(1)),
            adelie_sched::Clock::wall(),
        );
        let mut vm = kernel.vm();
        for i in 0..300u64 {
            drv.device.inject_rx(&i.to_le_bytes());
            assert_eq!(kernel.net_poll(&mut vm).unwrap(), 1);
            kernel.net_xmit(&mut vm, &i.to_le_bytes()).unwrap();
        }
        let stats = sched.stop();
        assert!(stats.cycles >= 1);
        assert_eq!(drv.device.counters().0, 300);
    }

    #[test]
    fn extra_load_modules_work() {
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry) = boot();
        let _x = install_xhci(&registry, &opts).unwrap();
        let _f = install_fuse(&registry, &opts).unwrap();
        let mut vm = kernel.vm();
        // xhci ioctl returns the (incrementing) event counter.
        let a = kernel.ioctl(&mut vm, specs::XHCI_MINOR, 0, 0).unwrap();
        let b = kernel.ioctl(&mut vm, specs::XHCI_MINOR, 0, 0).unwrap();
        assert_eq!(b, a + 1);
        // fuse transform: 2x + 3.
        assert_eq!(kernel.ioctl(&mut vm, specs::FUSE_MINOR, 0, 10).unwrap(), 23);
    }

    #[test]
    fn five_driver_fleet_loads_and_rerandomizes_together() {
        // The Fig. 8 configuration: E1000E + NVMe + FUSE + extfs + xHCI
        // all re-randomizing.
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry) = boot();
        install_nic(&registry, &opts, NicFlavor::E1000e).unwrap();
        install_nvme(&registry, &opts).unwrap();
        install_fuse(&registry, &opts).unwrap();
        install_extfs(&registry, &opts).unwrap();
        install_xhci(&registry, &opts).unwrap();
        let names = ["e1000e", "nvme", "fuse", "extfs", "xhci"];
        // Two workers: independent drivers re-randomize concurrently.
        let sched = adelie_sched::Scheduler::new(
            kernel.clone(),
            registry.clone(),
            &names,
            adelie_sched::SchedConfig {
                workers: 2,
                policy: adelie_sched::Policy::FixedPeriod(std::time::Duration::from_millis(2)),
                ..adelie_sched::SchedConfig::default()
            },
            adelie_sched::Clock::wall(),
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
        let stats = sched.stop();
        assert!(stats.cycles >= names.len() as u64);
        for n in names {
            assert!(registry.get(n).unwrap().times_randomized() >= 1, "{n}");
        }
        assert_eq!(kernel.reclaim.stats().delta(), 0);
    }

    #[test]
    fn unload_restores_clean_state() {
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry) = boot();
        install_dummy(&registry, &opts).unwrap();
        let mut vm = kernel.vm();
        assert!(kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, 1).is_ok());
        registry.unload("dummy").unwrap();
        assert!(kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, 1).is_err());
        // Reload works (exit unregistered the minor).
        install_dummy(&registry, &opts).unwrap();
        assert_eq!(kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, 9).unwrap(), 9);
    }

    #[test]
    fn wrapper_overhead_configurations_differ_in_shape() {
        // Fig. 9's three bars: vanilla (no wrapper), wrappers only,
        // wrappers + stack re-randomization. Check the *instruction
        // count* ordering that produces the paper's ~4%/~6% deltas.
        let mut counts = Vec::new();
        for opts in [
            TransformOptions::vanilla(true),
            {
                let mut o = TransformOptions::rerandomizable(true);
                o.stack_rerand = false;
                o.encrypt_ret = false;
                o
            },
            TransformOptions::rerandomizable(true),
        ] {
            let (kernel, registry) = boot();
            install_dummy(&registry, &opts).unwrap();
            let mut vm = kernel.vm();
            // Warm up (first call may allocate a stack).
            kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, 1).unwrap();
            let warm = vm.insns_retired();
            kernel.ioctl(&mut vm, specs::DUMMY_MINOR, 0, 1).unwrap();
            counts.push(vm.insns_retired() - warm);
        }
        assert!(
            counts[0] < counts[1] && counts[1] < counts[2],
            "vanilla < wrappers < wrappers+stack: {counts:?}"
        );
    }

    #[test]
    fn module_generation_visible_in_symbols() {
        let opts = TransformOptions::rerandomizable(true);
        let (kernel, registry) = boot();
        let drv = install_dummy(&registry, &opts).unwrap();
        let va0 = drv.module.symbol_va("dummy_ioctl__real").unwrap();
        rerandomize_module(&kernel, &registry, &drv.module).unwrap();
        let va1 = drv.module.symbol_va("dummy_ioctl__real").unwrap();
        assert_ne!(va0, va1, "movable symbol follows the module");
        assert_eq!(
            va1 - drv.module.movable_base.load(Ordering::Relaxed),
            va0 - drv.module.movable.base,
            "offset within part is invariant"
        );
    }
}
