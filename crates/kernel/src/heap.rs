//! kmalloc — the kernel heap.
//!
//! A size-class allocator over on-demand-mapped pages in the
//! [`crate::layout::HEAP_BASE`] region. Module code allocates DMA rings,
//! request buffers, and private state here through the `kmalloc`/`kfree`
//! natives; heap addresses are *not* re-randomized, which is exactly the
//! paper's model (heap pointers are module-local and the §6 analysis
//! treats them separately).

use crate::layout;
use adelie_vmem::{AddressSpace, Batch, PhysMem, PteFlags, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Smallest size class.
const MIN_CLASS: usize = 16;
/// Number of power-of-two classes: 16, 32, … 4096.
const NUM_CLASSES: usize = 9;

fn class_of(size: usize) -> Option<usize> {
    if size == 0 || size > PAGE_SIZE {
        return None;
    }
    let rounded = size.max(MIN_CLASS).next_power_of_two();
    Some(rounded.trailing_zeros() as usize - MIN_CLASS.trailing_zeros() as usize)
}

fn class_size(class: usize) -> usize {
    MIN_CLASS << class
}

struct HeapInner {
    next_page: u64,
    free_lists: [Vec<u64>; NUM_CLASSES],
    /// Size of every live allocation (for kfree and leak accounting).
    live: HashMap<u64, usize>,
    bytes_allocated: u64,
    bytes_freed: u64,
}

/// The kernel heap. All methods take `&self`; a mutex guards the free
/// lists (kmalloc is not the hot path in any of the paper's figures).
pub struct Heap {
    inner: Mutex<HeapInner>,
}

impl Heap {
    /// Create the heap (no pages mapped yet).
    pub fn new() -> Heap {
        Heap {
            inner: Mutex::new(HeapInner {
                next_page: layout::HEAP_BASE,
                free_lists: Default::default(),
                live: HashMap::new(),
                bytes_allocated: 0,
                bytes_freed: 0,
            }),
        }
    }

    /// Allocate `size` bytes; returns the virtual address.
    ///
    /// Large allocations (> one page) get dedicated whole pages, like
    /// the kernel's page allocator behind `kmalloc`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn kmalloc(&self, space: &AddressSpace, phys: &PhysMem, size: usize) -> u64 {
        assert!(size > 0, "kmalloc(0)");
        let mut inner = self.inner.lock();
        let va = match class_of(size) {
            Some(class) => {
                if inner.free_lists[class].is_empty() {
                    // Carve a fresh page into this class's chunks.
                    let page = inner.next_page;
                    inner.next_page += PAGE_SIZE as u64;
                    space
                        .apply(Batch::new().map_page(page, phys.alloc(), PteFlags::DATA))
                        .expect("heap page collision");
                    let csize = class_size(class);
                    for off in (0..PAGE_SIZE).step_by(csize) {
                        inner.free_lists[class].push(page + off as u64);
                    }
                }
                inner.free_lists[class].pop().unwrap()
            }
            None => {
                // Multi-page allocation.
                let pages = size.div_ceil(PAGE_SIZE);
                let va = inner.next_page;
                inner.next_page += (pages * PAGE_SIZE) as u64;
                space
                    .apply(Batch::new().map_range(va, &phys.alloc_n(pages), PteFlags::DATA))
                    .expect("heap page collision");
                va
            }
        };
        inner.live.insert(va, size);
        inner.bytes_allocated += size as u64;
        va
    }

    /// Free an allocation made by [`Heap::kmalloc`].
    ///
    /// # Panics
    ///
    /// Panics on double-free or a pointer kmalloc never returned — both
    /// are kernel bugs worth failing loudly on.
    pub fn kfree(&self, va: u64) {
        let mut inner = self.inner.lock();
        let size = inner
            .live
            .remove(&va)
            .unwrap_or_else(|| panic!("kfree of unknown pointer {va:#x}"));
        inner.bytes_freed += size as u64;
        if let Some(class) = class_of(size) {
            inner.free_lists[class].push(va);
        }
        // Multi-page allocations keep their pages (kernel-style slab
        // retention; the simulation never unmaps heap).
    }

    /// Size of the live allocation at `va`, if any.
    pub fn size_of(&self, va: u64) -> Option<usize> {
        self.inner.lock().live.get(&va).copied()
    }

    /// `(live allocations, live bytes)`.
    pub fn live(&self) -> (usize, u64) {
        let inner = self.inner.lock();
        (inner.live.len(), inner.bytes_allocated - inner.bytes_freed)
    }
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (allocs, bytes) = self.live();
        f.debug_struct("Heap")
            .field("live_allocs", &allocs)
            .field("live_bytes", &bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Heap, AddressSpace, PhysMem) {
        (Heap::new(), AddressSpace::new(), PhysMem::new())
    }

    #[test]
    fn classes() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(4096), Some(8));
        assert_eq!(class_of(4097), None);
        assert_eq!(class_size(0), 16);
        assert_eq!(class_size(8), 4096);
    }

    #[test]
    fn alloc_free_reuse() {
        let (heap, space, phys) = setup();
        let a = heap.kmalloc(&space, &phys, 100);
        let b = heap.kmalloc(&space, &phys, 100);
        assert_ne!(a, b);
        space.write_u64(&phys, a, 1).unwrap();
        space.write_u64(&phys, b, 2).unwrap();
        assert_eq!(space.read_u64(&phys, a).unwrap(), 1);
        heap.kfree(a);
        let c = heap.kmalloc(&space, &phys, 100);
        assert_eq!(a, c, "freed chunk reused");
        assert_eq!(heap.live().0, 2);
    }

    #[test]
    fn large_allocation_gets_pages() {
        let (heap, space, phys) = setup();
        let a = heap.kmalloc(&space, &phys, 3 * PAGE_SIZE);
        // Whole range usable.
        space
            .write_u64(&phys, a + (3 * PAGE_SIZE - 8) as u64, 9)
            .unwrap();
        assert_eq!(heap.size_of(a), Some(3 * PAGE_SIZE));
        heap.kfree(a);
        assert_eq!(heap.live().1, 0);
    }

    #[test]
    #[should_panic(expected = "kfree of unknown pointer")]
    fn bad_free_panics() {
        let (heap, _space, _phys) = setup();
        heap.kfree(0xdead);
    }

    #[test]
    fn chunks_do_not_overlap() {
        let (heap, space, phys) = setup();
        let ptrs: Vec<u64> = (0..64).map(|_| heap.kmalloc(&space, &phys, 64)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            space.write_u64(&phys, p, i as u64).unwrap();
        }
        for (i, &p) in ptrs.iter().enumerate() {
            assert_eq!(space.read_u64(&phys, p).unwrap(), i as u64);
        }
    }
}
