//! Device models (the hardware side of each driver).
//!
//! The paper's testbed has a physical Intel E1000E NIC, a Samsung NVMe
//! SSD, and an xHCI controller (Table 1); the artifact substitutes
//! VirtualBox-emulated devices. We substitute deterministic in-process
//! models with the same interaction shape: MMIO register files the
//! driver module pokes, and DMA into simulated physical memory.

use adelie_kernel::{disk_byte, MmioDevice, SECTOR_SIZE};
use adelie_vmem::{AddressSpace, PhysMem};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// NVMe-like register offsets (one page BAR).
pub mod nvme_regs {
    /// Target LBA (write).
    pub const LBA: u64 = 0x00;
    /// DMA buffer virtual address (write).
    pub const BUF: u64 = 0x08;
    /// Sector count (write).
    pub const COUNT: u64 = 0x10;
    /// Doorbell: 1 = read, 2 = write (write; completes synchronously —
    /// the benchmark leverages the device's DRAM cache, Fig. 6).
    pub const DOORBELL: u64 = 0x18;
    /// Completion status (read; 0 = OK).
    pub const STATUS: u64 = 0x20;
    /// Completed command counter (read).
    pub const COMPLETED: u64 = 0x28;
}

/// An NVMe-style storage device with an internal "DRAM cache":
/// unwritten sectors read as the deterministic [`disk_byte`] pattern;
/// writes land in an overlay map.
pub struct NvmeDevice {
    phys: Arc<PhysMem>,
    space: Arc<AddressSpace>,
    regs: Mutex<NvmeShadow>,
    overlay: Mutex<HashMap<u64, [u8; SECTOR_SIZE]>>,
    completed: AtomicU64,
    status: AtomicU64,
}

#[derive(Default)]
struct NvmeShadow {
    lba: u64,
    buf: u64,
    count: u64,
}

impl NvmeDevice {
    /// Create the device (needs DMA access to memory).
    pub fn new(phys: Arc<PhysMem>, space: Arc<AddressSpace>) -> Arc<NvmeDevice> {
        Arc::new(NvmeDevice {
            phys,
            space,
            regs: Mutex::new(NvmeShadow::default()),
            overlay: Mutex::new(HashMap::new()),
            completed: AtomicU64::new(0),
            status: AtomicU64::new(0),
        })
    }

    /// Sector contents as the host sees them (tests compare DMA output).
    pub fn sector(&self, lba: u64) -> [u8; SECTOR_SIZE] {
        if let Some(s) = self.overlay.lock().get(&lba) {
            return *s;
        }
        std::array::from_fn(|i| disk_byte(lba, i))
    }

    /// Commands completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    fn execute(&self, op: u64) {
        let (lba, buf, count) = {
            let r = self.regs.lock();
            (r.lba, r.buf, r.count.max(1))
        };
        let mut status = 0u64;
        for s in 0..count {
            let sector_va = buf + s * SECTOR_SIZE as u64;
            match op {
                1 => {
                    // Read: DMA the sector into the driver's buffer.
                    let data = self.sector(lba + s);
                    if self
                        .space
                        .write_bytes(&self.phys, sector_va, &data)
                        .is_err()
                    {
                        status = 2; // DMA fault
                        break;
                    }
                }
                2 => {
                    let mut data = [0u8; SECTOR_SIZE];
                    if self
                        .space
                        .read_bytes(&self.phys, sector_va, &mut data)
                        .is_err()
                    {
                        status = 2;
                        break;
                    }
                    self.overlay.lock().insert(lba + s, data);
                }
                _ => {
                    status = 1; // bad opcode
                    break;
                }
            }
        }
        self.status.store(status, Ordering::SeqCst);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

impl MmioDevice for NvmeDevice {
    fn mmio_read(&self, off: u64, _size: usize) -> u64 {
        match off {
            nvme_regs::STATUS => self.status.load(Ordering::SeqCst),
            nvme_regs::COMPLETED => self.completed.load(Ordering::Relaxed),
            nvme_regs::LBA => self.regs.lock().lba,
            nvme_regs::BUF => self.regs.lock().buf,
            nvme_regs::COUNT => self.regs.lock().count,
            _ => 0,
        }
    }

    fn mmio_write(&self, off: u64, value: u64, _size: usize) {
        match off {
            nvme_regs::LBA => self.regs.lock().lba = value,
            nvme_regs::BUF => self.regs.lock().buf = value,
            nvme_regs::COUNT => self.regs.lock().count = value,
            nvme_regs::DOORBELL => self.execute(value),
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "nvme"
    }
}

/// NIC register offsets (one page BAR).
pub mod nic_regs {
    /// TX frame buffer virtual address (write).
    pub const TX_BUF: u64 = 0x00;
    /// TX frame length (write).
    pub const TX_LEN: u64 = 0x08;
    /// TX doorbell (write 1).
    pub const TX_DB: u64 = 0x10;
    /// RX DMA buffer the driver programmed (write at init).
    pub const RX_BUF: u64 = 0x18;
    /// RX doorbell: ask the device to DMA the next pending frame into
    /// `RX_BUF` (write 1).
    pub const RX_DB: u64 = 0x20;
    /// Length of the frame DMA'd by the last RX doorbell (read; 0 =
    /// ring empty).
    pub const RX_LEN: u64 = 0x28;
    /// Frames waiting in the RX ring (read).
    pub const RX_PENDING: u64 = 0x30;
}

/// An E1000E-like NIC: the "wire" is a pair of in-process queues. A load
/// generator pushes frames with [`NicDevice::inject_rx`] and collects
/// transmissions with [`NicDevice::pop_tx`] — the same role the client
/// machine plays in Table 1.
pub struct NicDevice {
    phys: Arc<PhysMem>,
    space: Arc<AddressSpace>,
    tx_buf: AtomicU64,
    tx_len: AtomicU64,
    rx_buf: AtomicU64,
    rx_len: AtomicU64,
    rx_ring: Mutex<VecDeque<Vec<u8>>>,
    tx_ring: Mutex<VecDeque<Vec<u8>>>,
    tx_count: AtomicU64,
    rx_count: AtomicU64,
}

impl NicDevice {
    /// Create the NIC.
    pub fn new(phys: Arc<PhysMem>, space: Arc<AddressSpace>) -> Arc<NicDevice> {
        Arc::new(NicDevice {
            phys,
            space,
            tx_buf: AtomicU64::new(0),
            tx_len: AtomicU64::new(0),
            rx_buf: AtomicU64::new(0),
            rx_len: AtomicU64::new(0),
            rx_ring: Mutex::new(VecDeque::new()),
            tx_ring: Mutex::new(VecDeque::new()),
            tx_count: AtomicU64::new(0),
            rx_count: AtomicU64::new(0),
        })
    }

    /// The load generator delivers a frame to the device.
    pub fn inject_rx(&self, frame: &[u8]) {
        self.rx_ring.lock().push_back(frame.to_vec());
    }

    /// The load generator collects a transmitted frame.
    pub fn pop_tx(&self) -> Option<Vec<u8>> {
        self.tx_ring.lock().pop_front()
    }

    /// Whether the RX ring has pending frames — the interrupt line the
    /// kernel checks before scheduling the driver's poll (NAPI-style:
    /// no interpreted driver code runs while the device is idle).
    pub fn irq_pending(&self) -> bool {
        !self.rx_ring.lock().is_empty()
    }

    /// Frames transmitted / received so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.tx_count.load(Ordering::Relaxed),
            self.rx_count.load(Ordering::Relaxed),
        )
    }
}

impl MmioDevice for NicDevice {
    fn mmio_read(&self, off: u64, _size: usize) -> u64 {
        match off {
            nic_regs::RX_LEN => self.rx_len.load(Ordering::SeqCst),
            nic_regs::RX_PENDING => self.rx_ring.lock().len() as u64,
            _ => 0,
        }
    }

    fn mmio_write(&self, off: u64, value: u64, _size: usize) {
        match off {
            nic_regs::TX_BUF => self.tx_buf.store(value, Ordering::SeqCst),
            nic_regs::TX_LEN => self.tx_len.store(value, Ordering::SeqCst),
            nic_regs::TX_DB => {
                let (buf, len) = (
                    self.tx_buf.load(Ordering::SeqCst),
                    self.tx_len.load(Ordering::SeqCst) as usize,
                );
                let mut frame = vec![0u8; len];
                if self.space.read_bytes(&self.phys, buf, &mut frame).is_ok() {
                    self.tx_ring.lock().push_back(frame);
                    self.tx_count.fetch_add(1, Ordering::Relaxed);
                }
            }
            nic_regs::RX_BUF => self.rx_buf.store(value, Ordering::SeqCst),
            nic_regs::RX_DB => {
                let next = self.rx_ring.lock().pop_front();
                match next {
                    Some(frame) => {
                        let buf = self.rx_buf.load(Ordering::SeqCst);
                        if self.space.write_bytes(&self.phys, buf, &frame).is_ok() {
                            self.rx_len.store(frame.len() as u64, Ordering::SeqCst);
                            self.rx_count.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.rx_len.store(0, Ordering::SeqCst);
                        }
                    }
                    None => self.rx_len.store(0, Ordering::SeqCst),
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "e1000e"
    }
}

/// A trivial xHCI-style controller: a port-status register and an event
/// counter (enough for the extra-load USB module).
pub struct XhciDevice {
    events: AtomicU64,
}

impl XhciDevice {
    /// Create the controller.
    pub fn new() -> Arc<XhciDevice> {
        Arc::new(XhciDevice {
            events: AtomicU64::new(0),
        })
    }

    /// Events consumed by the driver.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

impl MmioDevice for XhciDevice {
    fn mmio_read(&self, off: u64, _size: usize) -> u64 {
        match off {
            0x0 => 0x1, // port connected
            0x8 => self.events.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        }
    }

    fn mmio_write(&self, _off: u64, _value: u64, _size: usize) {}

    fn name(&self) -> &str {
        "xhci"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adelie_vmem::{Batch, PteFlags};

    fn mem() -> (Arc<PhysMem>, Arc<AddressSpace>) {
        (Arc::new(PhysMem::new()), Arc::new(AddressSpace::new()))
    }

    #[test]
    fn nvme_reads_pattern_and_serves_writes() {
        let (phys, space) = mem();
        let dev = NvmeDevice::new(phys.clone(), space.clone());
        let buf = 0x5000_0000u64;
        space
            .apply(Batch::new().map_page(buf, phys.alloc(), PteFlags::DATA))
            .unwrap();
        // Read LBA 7 into buf.
        dev.mmio_write(nvme_regs::LBA, 7, 8);
        dev.mmio_write(nvme_regs::BUF, buf, 8);
        dev.mmio_write(nvme_regs::COUNT, 1, 8);
        dev.mmio_write(nvme_regs::DOORBELL, 1, 8);
        assert_eq!(dev.mmio_read(nvme_regs::STATUS, 8), 0);
        let mut got = vec![0u8; SECTOR_SIZE];
        space.read_bytes(&phys, buf, &mut got).unwrap();
        assert_eq!(got[..8], dev.sector(7)[..8]);
        // Write it back modified; re-read sees the overlay.
        space.write_bytes(&phys, buf, &[0xAB; SECTOR_SIZE]).unwrap();
        dev.mmio_write(nvme_regs::DOORBELL, 2, 8);
        assert_eq!(dev.sector(7), [0xAB; SECTOR_SIZE]);
        assert_eq!(dev.completed(), 2);
    }

    #[test]
    fn nvme_dma_fault_sets_status() {
        let (phys, space) = mem();
        let dev = NvmeDevice::new(phys, space);
        dev.mmio_write(nvme_regs::BUF, 0x0dea_d000, 8); // unmapped
        dev.mmio_write(nvme_regs::COUNT, 1, 8);
        dev.mmio_write(nvme_regs::DOORBELL, 1, 8);
        assert_eq!(dev.mmio_read(nvme_regs::STATUS, 8), 2);
    }

    #[test]
    fn nic_round_trip() {
        let (phys, space) = mem();
        let dev = NicDevice::new(phys.clone(), space.clone());
        let rx_buf = 0x6000_0000u64;
        let tx_buf = 0x7000_0000u64;
        space
            .apply(Batch::new().map_page(rx_buf, phys.alloc(), PteFlags::DATA))
            .unwrap();
        space
            .apply(Batch::new().map_page(tx_buf, phys.alloc(), PteFlags::DATA))
            .unwrap();
        dev.mmio_write(nic_regs::RX_BUF, rx_buf, 8);
        // Client injects a frame; driver doorbell pulls it in.
        dev.inject_rx(b"hello-nic");
        assert_eq!(dev.mmio_read(nic_regs::RX_PENDING, 8), 1);
        dev.mmio_write(nic_regs::RX_DB, 1, 8);
        assert_eq!(dev.mmio_read(nic_regs::RX_LEN, 8), 9);
        let mut got = vec![0u8; 9];
        space.read_bytes(&phys, rx_buf, &mut got).unwrap();
        assert_eq!(&got, b"hello-nic");
        // Driver transmits.
        space.write_bytes(&phys, tx_buf, b"response").unwrap();
        dev.mmio_write(nic_regs::TX_BUF, tx_buf, 8);
        dev.mmio_write(nic_regs::TX_LEN, 8, 8);
        dev.mmio_write(nic_regs::TX_DB, 1, 8);
        assert_eq!(dev.pop_tx().unwrap(), b"response");
        assert_eq!(dev.counters(), (1, 1));
        // Empty ring → RX_LEN 0.
        dev.mmio_write(nic_regs::RX_DB, 1, 8);
        assert_eq!(dev.mmio_read(nic_regs::RX_LEN, 8), 0);
    }
}
