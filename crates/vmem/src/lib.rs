//! # adelie-vmem — simulated physical memory, page tables, and TLB
//!
//! Adelie's continuous re-randomization is a *page-table* technique: the
//! re-randomizer creates new virtual mappings that alias the same physical
//! frames (zero-copy movement, paper Fig. 2a), write-protects GOT pages
//! (§4.1), and unmaps stale ranges once pending calls drain (§3.4). This
//! crate provides the substrate those mechanisms run on:
//!
//! * [`PhysMem`] — a physical frame store with byte-level access,
//! * [`AddressSpace`] — a 5-level radix page table (57-bit virtual
//!   addresses, matching the paper's §6 entropy arithmetic) supporting
//!   aliased mappings, permission bits (writable / no-execute), and MMIO
//!   leaf entries that trap to device models. The read path is
//!   **lock-free**: writers publish immutable copy-on-write snapshots
//!   with one atomic pointer store, and readers pin a reclamation epoch
//!   (`adelie-reclaim` EBR/Hyaline) and walk without ever blocking on a
//!   re-randomization cycle (see [`SpacePin`] / [`SpaceReader`]),
//! * [`Tlb`] — a per-CPU translation cache with **range-based**
//!   shootdown: the space logs the page spans each generation retired
//!   and a lagging TLB evicts only covered entries, falling back to a
//!   full flush past the log horizon — so re-randomization's TLB-flush
//!   cost (paper §4.3) is both observable and *reducible*,
//! * [`Batch`] — page-table mutation, always batched: a whole
//!   re-randomization step applies under one lock acquisition and
//!   publishes a single invalidation set with one generation bump;
//!   [`AddressSpace::apply`] is the table's only write path,
//! * typed [`Fault`]s — unmapped access, write to read-only (the GOT
//!   write-protection defence), execute of NX data.
//!
//! # Example
//!
//! ```
//! use adelie_vmem::{AddressSpace, Batch, PhysMem, PteFlags};
//!
//! let phys = PhysMem::new();
//! let space = AddressSpace::new();
//! let pfn = phys.alloc();
//! space.apply(Batch::new().map_page(0xff_8000_0000_0000, pfn, PteFlags::WRITABLE))?;
//! space.write_u64(&phys, 0xff_8000_0000_0008, 0xdead_beef)?;
//! assert_eq!(space.read_u64(&phys, 0xff_8000_0000_0008)?, 0xdead_beef);
//!
//! // Zero-copy move: alias the frame at a second address and retire
//! // the first, in one transaction with one generation bump.
//! let mut remap = Batch::new();
//! remap
//!     .map_page(0xee_9000_0000_0000, pfn, PteFlags::WRITABLE)
//!     .unmap_range(0xff_8000_0000_0000, 1);
//! space.apply(&remap)?;
//! assert_eq!(space.read_u64(&phys, 0xee_9000_0000_0008)?, 0xdead_beef);
//! assert!(space.read_u64(&phys, 0xff_8000_0000_0008).is_err());
//! # Ok::<(), adelie_vmem::Fault>(())
//! ```

pub mod arch;
mod batch;
mod fault;
mod hash;
mod phys;
mod space;
mod tlb;

pub use adelie_reclaim::SmrStats;
pub use arch::{Arch, ArchKind, Asid, AsidAllocator, HwPte, PteDecodeError};
pub use batch::Batch;
pub use fault::{Access, Fault};
pub use phys::{Pfn, PhysMem, PhysStats};
pub use space::{
    AddressSpace, BatchOutcome, Pte, PteFlags, PteKind, SpaceConfig, SpacePin, SpaceReader,
    SpaceStats, TlbSync, Translation, DEFAULT_INVAL_LOG, READER_SLOTS,
};
pub use tlb::{PageRegister, Tlb, TlbStats};

/// Page size in bytes (4 KiB, like x86-64).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Number of radix levels (5-level paging → 57-bit virtual addresses).
pub const LEVELS: u32 = 5;
/// Total virtual-address bits resolved by the table.
pub const VA_BITS: u32 = PAGE_SHIFT + 9 * LEVELS; // 57

/// Mask selecting the valid virtual-address bits.
pub const VA_MASK: u64 = (1u64 << VA_BITS) - 1;

/// Round `len` up to whole pages.
pub fn pages_for(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE)
}

/// Align an address down to its page base.
pub fn page_base(va: u64) -> u64 {
    va & !(PAGE_SIZE as u64 - 1)
}

/// Offset of `va` within its page.
pub fn page_offset(va: u64) -> usize {
    (va & (PAGE_SIZE as u64 - 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
        assert_eq!(page_base(0x1234), 0x1000);
        assert_eq!(page_offset(0x1234), 0x234);
        assert_eq!(VA_BITS, 57);
    }
}
