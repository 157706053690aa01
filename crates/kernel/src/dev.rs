//! Device-operation registries.
//!
//! Driver modules register their kernel-facing entry points here during
//! `init` — always the *wrapper* addresses in the immovable part (that
//! is the point of function wrapping, paper §3.4): the kernel keeps
//! absolute pointers only to immovable code, and the wrappers indirect
//! into the movable part through the (re-randomized) local GOT.

use parking_lot::RwLock;
use std::collections::HashMap;

/// A character device's entry points (virtual addresses of wrappers).
#[derive(Clone, Debug, Default)]
pub struct CharDev {
    /// Device name.
    pub name: String,
    /// `ioctl(minor, cmd, arg)` entry, or 0.
    pub ioctl: u64,
    /// `read(minor, buf, len)` entry, or 0.
    pub read: u64,
    /// `write(minor, buf, len)` entry, or 0.
    pub write: u64,
}

/// The block device's entry points.
#[derive(Clone, Debug, Default)]
pub struct BlockDev {
    /// Device name.
    pub name: String,
    /// `read_block(lba, dst, nsectors)` entry.
    pub read_block: u64,
    /// `write_block(lba, src, nsectors)` entry, or 0.
    pub write_block: u64,
}

/// The network device's entry points.
#[derive(Clone, Debug, Default)]
pub struct NetDev {
    /// Device name.
    pub name: String,
    /// `xmit(buf, len)` entry.
    pub xmit: u64,
    /// `poll()` entry — drains the RX ring, delivering frames through
    /// `netif_rx`; returns the number of frames processed.
    pub poll: u64,
}

/// Filesystem hooks (the ext4-analog module's block mapping).
#[derive(Clone, Debug, Default)]
pub struct FsOps {
    /// Filesystem name.
    pub name: String,
    /// `map_block(first_lba, block_idx)` entry → LBA.
    pub map_block: u64,
}

/// Handler invoked when the NIC driver delivers a received frame
/// (`netif_rx`); installed by the network stack / server application.
pub type RxHandler = Box<dyn Fn(&[u8]) + Send + Sync>;

/// All registries a module can hook into.
#[derive(Default)]
pub struct DeviceTable {
    /// By minor number; trusted keys, so the cheap non-keyed hasher
    /// (every ioctl probes this map).
    chars: RwLock<HashMap<u32, CharDev, adelie_vmem::BuildPageHasher>>,
    block: RwLock<Option<BlockDev>>,
    net: RwLock<Option<NetDev>>,
    fs: RwLock<Option<FsOps>>,
    rx_handler: RwLock<Option<RxHandler>>,
}

impl DeviceTable {
    /// Empty table.
    pub fn new() -> DeviceTable {
        DeviceTable::default()
    }

    /// Register a character device on `minor`.
    ///
    /// # Panics
    ///
    /// Panics if the minor number is taken.
    pub fn register_chrdev(&self, minor: u32, dev: CharDev) {
        let prev = self.chars.write().insert(minor, dev);
        assert!(prev.is_none(), "chrdev minor {minor} already registered");
    }

    /// Remove a character device.
    pub fn unregister_chrdev(&self, minor: u32) -> Option<CharDev> {
        self.chars.write().remove(&minor)
    }

    /// Look up a character device.
    pub fn chrdev(&self, minor: u32) -> Option<CharDev> {
        self.chars.read().get(&minor).cloned()
    }

    /// Run `f` on the character device on `minor` under the read lock,
    /// without cloning it (the per-call ioctl path).
    pub fn with_chrdev<R>(&self, minor: u32, f: impl FnOnce(&CharDev) -> R) -> Option<R> {
        self.chars.read().get(&minor).map(f)
    }

    /// Install the block device (one per machine, like the paper's
    /// single NVMe under test).
    pub fn register_blkdev(&self, dev: BlockDev) {
        *self.block.write() = Some(dev);
    }

    /// Remove the block device.
    pub fn unregister_blkdev(&self) {
        *self.block.write() = None;
    }

    /// The block device, if registered.
    pub fn blkdev(&self) -> Option<BlockDev> {
        self.block.read().clone()
    }

    /// Install the network device.
    pub fn register_netdev(&self, dev: NetDev) {
        *self.net.write() = Some(dev);
    }

    /// Remove the network device.
    pub fn unregister_netdev(&self) {
        *self.net.write() = None;
    }

    /// The network device, if registered.
    pub fn netdev(&self) -> Option<NetDev> {
        self.net.read().clone()
    }

    /// Install filesystem ops.
    pub fn register_fs(&self, ops: FsOps) {
        *self.fs.write() = Some(ops);
    }

    /// Remove filesystem ops.
    pub fn unregister_fs(&self) {
        *self.fs.write() = None;
    }

    /// The filesystem ops, if registered.
    pub fn fs_ops(&self) -> Option<FsOps> {
        self.fs.read().clone()
    }

    /// Install the receive-path handler (the "protocol stack").
    pub fn set_rx_handler(&self, h: RxHandler) {
        *self.rx_handler.write() = Some(h);
    }

    /// Deliver a received frame to the protocol stack (used by the
    /// `netif_rx` native).
    pub fn deliver_rx(&self, frame: &[u8]) -> bool {
        if let Some(h) = self.rx_handler.read().as_ref() {
            h(frame);
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for DeviceTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceTable")
            .field("chrdevs", &self.chars.read().len())
            .field("blkdev", &self.block.read().is_some())
            .field("netdev", &self.net.read().is_some())
            .field("fs", &self.fs.read().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrdev_lifecycle() {
        let t = DeviceTable::new();
        t.register_chrdev(
            7,
            CharDev {
                name: "randmod".into(),
                ioctl: 0x1000,
                ..CharDev::default()
            },
        );
        assert_eq!(t.chrdev(7).unwrap().ioctl, 0x1000);
        assert!(t.chrdev(8).is_none());
        assert!(t.unregister_chrdev(7).is_some());
        assert!(t.chrdev(7).is_none());
    }

    #[test]
    fn rx_delivery() {
        let t = DeviceTable::new();
        assert!(!t.deliver_rx(b"drop"));
        let got = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = got.clone();
        t.set_rx_handler(Box::new(move |f| g.lock().extend_from_slice(f)));
        assert!(t.deliver_rx(b"ping"));
        assert_eq!(&*got.lock(), b"ping");
    }
}
