//! Batched page-table mutations: the one way to change an address
//! space.
//!
//! A [`Batch`] queues mutations (`map_page`/`map_mmio`/`map_range`/
//! `unmap_range`/`unmap_sparse`/`protect_range`/`swap_frame`) and
//! [`crate::AddressSpace::apply`] executes them as one copy-on-write
//! transaction under one write-lock acquisition, publishing a single
//! *invalidation set* of page spans with one generation bump, so TLBs
//! evict only the covered entries instead of flushing wholesale
//! (MARDU-style batched, targeted invalidation). A re-randomization
//! cycle's alias, GOT swing and retire are each one batch; a single
//! page's change is a one-op batch:
//!
//! ```
//! use adelie_vmem::{AddressSpace, Batch, PhysMem, PteFlags};
//!
//! let phys = PhysMem::new();
//! let space = AddressSpace::new();
//! let va = 0xff_8000_0000_0000;
//! space.apply(Batch::new().map_range(va, &phys.alloc_n(2), PteFlags::DATA))?;
//!
//! // Seal the first page and retire the second: one generation bump.
//! let mut batch = Batch::new();
//! batch
//!     .protect_range(va, 1, PteFlags::RO_DATA)
//!     .unmap_range(va + 4096, 1);
//! let out = space.apply(&batch)?;
//! assert_eq!((out.removed.len(), out.shootdowns), (1, 1));
//! # Ok::<(), adelie_vmem::Fault>(())
//! ```
//!
//! Application is atomic: if any operation faults, nothing is
//! published and no generation bump happens — callers observe either
//! the whole batch or none of it.

use crate::{Pfn, PteFlags, PteKind};

/// One queued page-table mutation (see the [`Batch`] builder methods).
#[derive(Clone, Debug)]
pub(crate) enum BatchOp {
    /// Map a single page onto a frame or a device register page.
    Map {
        va: u64,
        kind: PteKind,
        flags: PteFlags,
    },
    /// Unmap `pages` consecutive pages; faults on the first hole.
    UnmapRange { va: u64, pages: usize },
    /// Unmap every mapped page in the range, skipping holes.
    UnmapSparse { va: u64, pages: usize },
    /// Change permissions over `pages` consecutive pages.
    ProtectRange {
        va: u64,
        pages: usize,
        flags: PteFlags,
    },
    /// Atomically swap the frame behind a mapped page.
    SwapFrame { va: u64, pfn: Pfn, flags: PteFlags },
}

/// A collected set of page-table mutations, applied in insertion order
/// by [`crate::AddressSpace::apply`] (module docs for semantics).
#[derive(Clone, Debug, Default)]
pub struct Batch {
    pub(crate) ops: Vec<BatchOp>,
    pub(crate) epoch: Option<u64>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// An empty batch tagged with the *shootdown epoch* `epoch` when
    /// `Some`: invalidation sets of consecutive batches carrying the
    /// same tag are coalesced into one merged invalidation-log slot, so
    /// a TLB that lagged across the whole epoch resynchronizes with a
    /// single partial invalidation pass instead of one per batch
    /// (`adelie-sched` tags every batch of same-deadline cycles this
    /// way).
    pub fn with_epoch(epoch: Option<u64>) -> Batch {
        Batch {
            epoch,
            ..Batch::default()
        }
    }

    /// Queue a single-page mapping (faults if `va` is already mapped).
    /// Mapping one frame at several addresses is allowed — that *is*
    /// the paper's zero-copy alias.
    pub fn map_page(&mut self, va: u64, pfn: Pfn, flags: PteFlags) -> &mut Batch {
        self.ops.push(BatchOp::Map {
            va,
            kind: PteKind::Frame(pfn),
            flags,
        });
        self
    }

    /// Queue a mapping of register page `page` of device `dev` (an MMIO
    /// leaf; faults if `va` is already mapped).
    pub fn map_mmio(&mut self, va: u64, dev: u32, page: u32, flags: PteFlags) -> &mut Batch {
        self.ops.push(BatchOp::Map {
            va,
            kind: PteKind::Mmio { dev, page },
            flags,
        });
        self
    }

    /// Queue a contiguous run of frames starting at `va`.
    pub fn map_range(&mut self, va: u64, pfns: &[Pfn], flags: PteFlags) -> &mut Batch {
        for (i, &pfn) in pfns.iter().enumerate() {
            self.map_page(va + (i * crate::PAGE_SIZE) as u64, pfn, flags);
        }
        self
    }

    /// Queue a strict unmap of `pages` consecutive pages (faults on the
    /// first hole; removed leaves land in
    /// [`BatchOutcome::removed`](crate::BatchOutcome)).
    pub fn unmap_range(&mut self, va: u64, pages: usize) -> &mut Batch {
        self.ops.push(BatchOp::UnmapRange { va, pages });
        self
    }

    /// Queue an unmap of every mapped page in `[va, va + pages)`,
    /// skipping holes — never faults (the re-randomizer's retire shape,
    /// since alignment-tail pages were never mapped).
    pub fn unmap_sparse(&mut self, va: u64, pages: usize) -> &mut Batch {
        self.ops.push(BatchOp::UnmapSparse { va, pages });
        self
    }

    /// Queue a permission change over `pages` consecutive pages.
    pub fn protect_range(&mut self, va: u64, pages: usize, flags: PteFlags) -> &mut Batch {
        self.ops.push(BatchOp::ProtectRange { va, pages, flags });
        self
    }

    /// Queue an atomic frame swap behind a mapped page (the GOT-swing
    /// primitive; the old leaf lands in
    /// [`BatchOutcome::removed`](crate::BatchOutcome)).
    pub fn swap_frame(&mut self, va: u64, pfn: Pfn, flags: PteFlags) -> &mut Batch {
        self.ops.push(BatchOp::SwapFrame { va, pfn, flags });
        self
    }

    /// Whether no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}
