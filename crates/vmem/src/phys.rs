//! Physical frame store.
//!
//! Frames are 4 KiB pages addressed by [`Pfn`]. Module code executes on
//! many simulated CPUs while the re-randomizer builds new GOT frames in
//! parallel, so every operation may run concurrently with every other —
//! and the read path, which the interpreter pays on every instruction
//! fetch and stack or data access, takes no lock and touches no
//! reference count:
//!
//! * **Frame table.** Slots live in an append-only table of chunks that
//!   double in size (chunk `c` holds `16 << c` slots), indexed by pfn. A
//!   published chunk never moves and lives as long as the store, and a
//!   slot's page, once allocated, is kept for reuse rather than freed, so
//!   a reader reaches its bytes with two pointer loads. The directory is
//!   a fixed array of chunk pointers: nothing is pre-sized and
//!   [`PhysMem::new`] allocates nothing.
//! * **Write versions.** Each frame is a sequence lock. Its version is
//!   odd while a writer holds it and advances by two on every
//!   [`PhysMem::write`], on [`PhysMem::free`], and on reallocation (which
//!   zeroes the frame). Readers copy the bytes and retry if the version
//!   moved. Versions are monotonic for the store's lifetime, so a value
//!   derived from a frame's bytes stays valid exactly as long as
//!   [`FrameRef::version`] still returns the version it was read at (the
//!   interpreter's decoded runs rely on this, DESIGN.md §18).

use crate::PAGE_SIZE;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// A physical frame number.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pfn(pub u64);

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

const WORDS: usize = PAGE_SIZE / 8;

/// A frame's bytes, stored as little-endian words so that concurrent
/// readers and the (serialized) writer never race on plain memory.
type Page = [AtomicU64; WORDS];

/// log2 of the first chunk's slot count.
const FIRST_CHUNK_SHIFT: u32 = 4;
/// Chunk directory size: `16 · (2^40 − 1)` frames, far beyond any run.
const CHUNKS: usize = 40;

#[derive(Default)]
struct Slot {
    /// Sequence-lock word: odd while a write is in progress.
    version: AtomicU64,
    live: AtomicBool,
    /// Allocated on the pfn's first allocation, freed with the store.
    page: AtomicPtr<Page>,
    /// Words of the page that may be non-zero: every word at or past
    /// this index is zero. Maintained under the write lock, so
    /// reallocation zeroes what the frame's last life wrote, not all
    /// 512 words.
    dirty: AtomicUsize,
}

/// Chunk index and slot index of `pfn`.
fn locate(pfn: u64) -> (usize, usize) {
    // Saturating: an absurd pfn lands past the directory, not on a slot.
    let i = pfn.saturating_add(1 << FIRST_CHUNK_SHIFT);
    let chunk = 63 - i.leading_zeros() - FIRST_CHUNK_SHIFT;
    (
        chunk as usize,
        (i - (1 << (chunk + FIRST_CHUNK_SHIFT))) as usize,
    )
}

fn chunk_len(chunk: usize) -> usize {
    1 << (chunk as u32 + FIRST_CHUNK_SHIFT)
}

impl Slot {
    fn page(&self) -> Option<&Page> {
        let p = self.page.load(Ordering::Acquire);
        // SAFETY: a published page is only freed by `PhysMem::drop`.
        (!p.is_null()).then(|| unsafe { &*p })
    }

    /// Take the write side of the sequence lock; returns the odd version.
    fn lock(&self) -> u64 {
        let mut spins = 0u32;
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v & 1 == 0
                && self
                    .version
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                // Order the odd version before the data stores that follow.
                fence(Ordering::Release);
                return v + 1;
            }
            backoff(&mut spins);
        }
    }

    fn unlock(&self, odd: u64) {
        self.version.store(odd + 1, Ordering::Release);
    }

    /// Copy bytes out under the read side of the sequence lock; returns
    /// the version they were read at, or `None` if the frame is free.
    ///
    /// Orderings: the Acquire load of an even version pairs with
    /// `unlock`'s Release store, so the copy sees that write's data; the
    /// Acquire fence before the re-check pairs with `lock`'s Release
    /// fence, so a copy that overlapped a later write sees its odd or
    /// newer version and retries.
    /// [`Slot::read`] of the aligned word `w`: the word, not the version.
    fn read_word(&self, w: usize) -> Option<u64> {
        let page = self.page()?;
        let mut spins = 0u32;
        loop {
            let v = self.version.load(Ordering::Acquire);
            if v & 1 == 0 {
                let live = self.live.load(Ordering::Relaxed);
                let word = page[w].load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.version.load(Ordering::Relaxed) == v {
                    return live.then_some(word);
                }
            }
            backoff(&mut spins);
        }
    }

    fn read(&self, offset: usize, buf: &mut [u8]) -> Option<u64> {
        let page = self.page()?;
        let mut spins = 0u32;
        loop {
            let v = self.version.load(Ordering::Acquire);
            if v & 1 == 0 {
                let live = self.live.load(Ordering::Relaxed);
                if live {
                    copy_out(page, offset, buf);
                }
                fence(Ordering::Acquire);
                if self.version.load(Ordering::Relaxed) == v {
                    return live.then_some(v);
                }
            }
            backoff(&mut spins);
        }
    }
}

/// Spin briefly, then yield: a writer descheduled mid-write (two vCPUs
/// shared by many threads) must not be starved by its readers.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

fn copy_out(page: &Page, offset: usize, buf: &mut [u8]) {
    let (head, body, tail) = split_words(offset, buf.len());
    let mut w = offset / 8;
    let mut done = 0;
    if head > 0 {
        let b = offset % 8;
        let word = page[w].load(Ordering::Relaxed).to_le_bytes();
        buf[..head].copy_from_slice(&word[b..b + head]);
        (w, done) = (w + 1, head);
    }
    let words = &page[w..w + body / 8];
    for (out, word) in buf[done..done + body].chunks_exact_mut(8).zip(words) {
        out.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
    }
    w += body / 8;
    if tail > 0 {
        let word = page[w].load(Ordering::Relaxed).to_le_bytes();
        buf[done + body..].copy_from_slice(&word[..tail]);
    }
}

/// Store bytes; the caller holds the slot's write lock, so the
/// read-modify-write of a partly covered word cannot race a writer.
fn copy_in(page: &Page, offset: usize, bytes: &[u8]) {
    let (head, body, tail) = split_words(offset, bytes.len());
    let mut w = offset / 8;
    let mut done = 0;
    if head > 0 {
        let b = offset % 8;
        let mut word = page[w].load(Ordering::Relaxed).to_le_bytes();
        word[b..b + head].copy_from_slice(&bytes[..head]);
        page[w].store(u64::from_le_bytes(word), Ordering::Relaxed);
        (w, done) = (w + 1, head);
    }
    let words = &page[w..w + body / 8];
    for (chunk, word) in bytes[done..done + body].chunks_exact(8).zip(words) {
        word.store(
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
            Ordering::Relaxed,
        );
    }
    w += body / 8;
    if tail > 0 {
        let mut word = page[w].load(Ordering::Relaxed).to_le_bytes();
        word[..tail].copy_from_slice(&bytes[done + body..]);
        page[w].store(u64::from_le_bytes(word), Ordering::Relaxed);
    }
}

/// Split a byte range into a partial leading word, whole words, and a
/// partial trailing word: `(head bytes, body bytes, tail bytes)`.
fn split_words(offset: usize, len: usize) -> (usize, usize, usize) {
    let head = ((8 - offset % 8) % 8).min(len);
    let body = (len - head) / 8 * 8;
    (head, body, len - head - body)
}

/// One frame of a [`PhysMem`], located once by [`PhysMem::frame`].
#[derive(Copy, Clone)]
pub struct FrameRef<'a> {
    slot: &'a Slot,
    pfn: Pfn,
}

impl FrameRef<'_> {
    /// The frame's write version: odd while a write is in progress,
    /// advanced on every write, free and reallocation, never repeated.
    /// Bytes read at version `v` (see [`FrameRef::read_versioned`]) are
    /// still the frame's contents while this returns `v`.
    #[inline]
    pub fn version(&self) -> u64 {
        self.slot.version.load(Ordering::Acquire)
    }

    /// [`PhysMem::read`] of this frame, returning the write version the
    /// bytes were read at (always even: never a torn, in-progress
    /// write).
    ///
    /// # Panics
    ///
    /// Same conditions as [`PhysMem::read`].
    pub fn read_versioned(&self, offset: usize, buf: &mut [u8]) -> u64 {
        assert!(offset + buf.len() <= PAGE_SIZE, "read crosses frame");
        self.slot
            .read(offset, buf)
            .unwrap_or_else(|| panic!("read of freed {}", self.pfn))
    }
}

/// Counters exported by [`PhysMem::stats`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct PhysStats {
    /// Frames currently allocated.
    pub frames_live: u64,
    /// Total allocations ever.
    pub frames_allocated: u64,
    /// Total frees ever.
    pub frames_freed: u64,
}

/// The physical memory of the simulated machine.
///
/// Freed frames are reused last-in first-out before the table grows;
/// frames are zeroed on allocation (like the kernel's `GFP_ZERO`).
pub struct PhysMem {
    /// Chunk `c` is an array of `chunk_len(c)` slots, or null.
    chunks: [AtomicPtr<Slot>; CHUNKS],
    /// Pfns ever handed out: `[0, next)`.
    next: AtomicU64,
    free_list: Mutex<Vec<u64>>,
    allocated: AtomicU64,
    freed: AtomicU64,
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysMem {
    /// Create an empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            next: AtomicU64::new(0),
            free_list: Mutex::new(Vec::new()),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    fn slot(&self, pfn: Pfn) -> Option<&Slot> {
        let (chunk, idx) = locate(pfn.0);
        let base = self.chunks.get(chunk)?.load(Ordering::Acquire);
        // SAFETY: a published chunk holds `chunk_len(chunk)` slots, more
        // than the `idx` `locate` returns, and is only freed by `drop`.
        (!base.is_null()).then(|| unsafe { &*base.add(idx) })
    }

    /// The slot of a pfn this thread just claimed, publishing its chunk
    /// if it is the first of one.
    fn claimed_slot(&self, pfn: u64) -> &Slot {
        let (chunk, idx) = locate(pfn);
        let cell = &self.chunks[chunk];
        let mut base = cell.load(Ordering::Acquire);
        if base.is_null() {
            let fresh: Box<[Slot]> = (0..chunk_len(chunk)).map(|_| Slot::default()).collect();
            let fresh = Box::into_raw(fresh) as *mut Slot;
            base = match cell.compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => fresh,
                Err(winner) => {
                    // SAFETY: `fresh` was never published.
                    drop(unsafe { Box::from_raw(chunk_slice(fresh, chunk)) });
                    winner
                }
            };
        }
        // SAFETY: as in `slot`.
        unsafe { &*base.add(idx) }
    }

    /// Allocate one zeroed frame.
    pub fn alloc(&self) -> Pfn {
        self.alloc_filled(&[])
    }

    /// Allocate one frame holding `bytes` followed by zeroes — one pass
    /// instead of zeroing and then a [`PhysMem::write`], and only over
    /// the words `bytes` covers plus those the frame's last life wrote
    /// (each slot tracks how far writes reached, so a reused frame is
    /// not zeroed in full). Same sequence lock, and the write version
    /// advances once, as for any reallocation (DESIGN.md §18.3).
    ///
    /// # Panics
    ///
    /// If `bytes` is longer than a frame.
    pub fn alloc_filled(&self, bytes: &[u8]) -> Pfn {
        assert!(bytes.len() <= PAGE_SIZE, "fill exceeds a frame");
        self.allocated.fetch_add(1, Ordering::Relaxed);
        let pfn = self
            .free_list
            .lock()
            .pop()
            .unwrap_or_else(|| self.next.fetch_add(1, Ordering::Relaxed));
        let slot = self.claimed_slot(pfn);
        let odd = slot.lock();
        let page = slot.page().unwrap_or_else(|| {
            // SAFETY: all-zero bits are valid `AtomicU64`s.
            let page = unsafe { Box::<Page>::new_zeroed().assume_init() };
            slot.page.store(Box::into_raw(page), Ordering::Release);
            slot.page().expect("page just published")
        });
        // Zero what the last life may have left past `bytes` (from the
        // first partly covered word on), then fill.
        let filled = bytes.len().div_ceil(8);
        let dirty = slot.dirty.load(Ordering::Relaxed);
        if dirty > bytes.len() / 8 {
            page[bytes.len() / 8..dirty]
                .iter()
                .for_each(|w| w.store(0, Ordering::Relaxed));
        }
        copy_in(page, 0, bytes);
        slot.dirty.store(filled, Ordering::Relaxed);
        slot.live.store(true, Ordering::Release);
        slot.unlock(odd);
        Pfn(pfn)
    }

    /// Allocate `n` zeroed frames.
    pub fn alloc_n(&self, n: usize) -> Vec<Pfn> {
        (0..n).map(|_| self.alloc()).collect()
    }

    /// Free a frame.
    ///
    /// # Panics
    ///
    /// Panics on double-free (freeing an unallocated pfn) — in the
    /// simulated kernel that is always a reclamation bug worth surfacing
    /// loudly.
    pub fn free(&self, pfn: Pfn) {
        if pfn.0 >= self.next.load(Ordering::Relaxed) {
            panic!("free of out-of-range {pfn}");
        }
        let slot = self.slot(pfn).expect("claimed pfns have a slot");
        let odd = slot.lock();
        let was_live = slot.live.swap(false, Ordering::AcqRel);
        slot.unlock(odd);
        assert!(was_live, "double free of {pfn}");
        self.freed.fetch_add(1, Ordering::Relaxed);
        self.free_list.lock().push(pfn.0);
    }

    /// Whether the frame is currently allocated.
    pub fn is_live(&self, pfn: Pfn) -> bool {
        self.slot(pfn)
            .is_some_and(|s| s.live.load(Ordering::Acquire))
    }

    /// Locate `pfn`'s slot once: the returned handle reads the frame's
    /// write version and bytes without the pfn-to-slot lookup every
    /// other method makes. Slots never move and live as long as the
    /// store, so the handle stays valid across frees and reallocations
    /// (its version moves on).
    ///
    /// # Panics
    ///
    /// Panics if `pfn` was never allocated.
    pub fn frame(&self, pfn: Pfn) -> FrameRef<'_> {
        let slot = self
            .slot(pfn)
            .unwrap_or_else(|| panic!("frame of out-of-range {pfn}"));
        FrameRef { slot, pfn }
    }

    /// Read bytes from within a single frame.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses the frame boundary or the frame is
    /// free (callers go through [`crate::AddressSpace`], which reports a
    /// typed fault first).
    pub fn read(&self, pfn: Pfn, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= PAGE_SIZE, "read crosses frame");
        self.slot(pfn)
            .and_then(|s| s.read(offset, buf))
            .unwrap_or_else(|| panic!("read of freed {pfn}"));
    }

    /// Write bytes within a single frame.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PhysMem::read`].
    pub fn write(&self, pfn: Pfn, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "write crosses frame");
        let (slot, page) = self
            .slot(pfn)
            .and_then(|s| Some((s, s.page()?)))
            .unwrap_or_else(|| panic!("write of freed {pfn}"));
        let odd = slot.lock();
        let live = slot.live.load(Ordering::Relaxed);
        if live {
            copy_in(page, offset, bytes);
            // The write lock is held: no other writer moves `dirty`.
            let end = (offset + bytes.len()).div_ceil(8);
            if end > slot.dirty.load(Ordering::Relaxed) {
                slot.dirty.store(end, Ordering::Relaxed);
            }
        }
        slot.unlock(odd);
        assert!(live, "write of freed {pfn}");
    }

    /// Read a little-endian u64 within one frame. An aligned word is
    /// one load under the sequence lock, without the byte copy.
    pub fn read_u64(&self, pfn: Pfn, offset: usize) -> u64 {
        if !offset.is_multiple_of(8) {
            let mut b = [0u8; 8];
            self.read(pfn, offset, &mut b);
            return u64::from_le_bytes(b);
        }
        assert!(offset + 8 <= PAGE_SIZE, "read crosses frame");
        self.slot(pfn)
            .and_then(|s| s.read_word(offset / 8))
            .unwrap_or_else(|| panic!("read of freed {pfn}"))
    }

    /// Write a little-endian u64 within one frame. An aligned word is
    /// one store under the sequence lock, without the byte copy.
    pub fn write_u64(&self, pfn: Pfn, offset: usize, v: u64) {
        if !offset.is_multiple_of(8) {
            return self.write(pfn, offset, &v.to_le_bytes());
        }
        assert!(offset + 8 <= PAGE_SIZE, "write crosses frame");
        let (slot, page) = self
            .slot(pfn)
            .and_then(|s| Some((s, s.page()?)))
            .unwrap_or_else(|| panic!("write of freed {pfn}"));
        let odd = slot.lock();
        let live = slot.live.load(Ordering::Relaxed);
        if live {
            let w = offset / 8;
            page[w].store(v, Ordering::Relaxed);
            if w + 1 > slot.dirty.load(Ordering::Relaxed) {
                slot.dirty.store(w + 1, Ordering::Relaxed);
            }
        }
        slot.unlock(odd);
        assert!(live, "write of freed {pfn}");
    }

    /// Copy a whole frame's contents into a new allocation.
    pub fn clone_frame(&self, pfn: Pfn) -> Pfn {
        let mut buf = [0u8; PAGE_SIZE];
        self.read(pfn, 0, &mut buf);
        self.alloc_filled(&buf)
    }

    /// Snapshot of allocation counters.
    pub fn stats(&self) -> PhysStats {
        let allocated = self.allocated.load(Ordering::Relaxed);
        let freed = self.freed.load(Ordering::Relaxed);
        PhysStats {
            frames_live: allocated - freed,
            frames_allocated: allocated,
            frames_freed: freed,
        }
    }
}

fn chunk_slice(base: *mut Slot, chunk: usize) -> *mut [Slot] {
    std::ptr::slice_from_raw_parts_mut(base, chunk_len(chunk))
}

impl Drop for PhysMem {
    fn drop(&mut self) {
        for (chunk, cell) in self.chunks.iter_mut().enumerate() {
            let base = *cell.get_mut();
            if base.is_null() {
                continue;
            }
            // SAFETY: `&mut self` — no reader is left; every non-null
            // pointer came from `Box::into_raw` and is freed once.
            let slots = unsafe { Box::from_raw(chunk_slice(base, chunk)) };
            for slot in slots.iter() {
                let page = slot.page.load(Ordering::Relaxed);
                if !page.is_null() {
                    drop(unsafe { Box::from_raw(page) });
                }
            }
        }
    }
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn alloc_zeroed_and_rw() {
        let pm = PhysMem::new();
        let pfn = pm.alloc();
        let mut buf = [0xFFu8; 16];
        pm.read(pfn, 100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        pm.write_u64(pfn, 8, 0x1122_3344_5566_7788);
        assert_eq!(pm.read_u64(pfn, 8), 0x1122_3344_5566_7788);
    }

    #[test]
    fn free_and_reuse() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.write_u64(a, 0, 42);
        pm.free(a);
        assert!(!pm.is_live(a));
        let b = pm.alloc();
        // Free-list reuse gives back the same number, but zeroed.
        assert_eq!(a, b);
        assert_eq!(pm.read_u64(b, 0), 0);
        assert_eq!(pm.stats().frames_live, 1);
        assert_eq!(pm.stats().frames_allocated, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.free(a);
        pm.free(a);
    }

    #[test]
    #[should_panic(expected = "free of out-of-range")]
    fn free_out_of_range_panics() {
        PhysMem::new().free(Pfn(3));
    }

    #[test]
    #[should_panic(expected = "read of freed")]
    fn read_of_freed_panics() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.free(a);
        pm.read_u64(a, 0);
    }

    #[test]
    #[should_panic(expected = "write of freed")]
    fn write_of_never_allocated_panics() {
        PhysMem::new().write_u64(Pfn(1 << 20), 0, 1);
    }

    #[test]
    #[should_panic(expected = "read crosses frame")]
    fn read_across_frames_panics() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.read(a, PAGE_SIZE - 4, &mut [0u8; 8]);
    }

    #[test]
    fn clone_frame_copies() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        pm.write_u64(a, 16, 0xabcd);
        let b = pm.clone_frame(a);
        assert_ne!(a, b);
        assert_eq!(pm.read_u64(b, 16), 0xabcd);
        // Independent after copy.
        pm.write_u64(a, 16, 1);
        assert_eq!(pm.read_u64(b, 16), 0xabcd);
    }

    #[test]
    fn unaligned_rw_round_trips() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        let bytes: Vec<u8> = (1..=37).collect();
        pm.write(a, 5, &bytes);
        let mut got = [0u8; 39];
        pm.read(a, 4, &mut got);
        assert_eq!(got[0], 0);
        assert_eq!(&got[1..38], &bytes[..]);
        assert_eq!(got[38], 0);
        // Words: the aligned fast path and the unaligned byte path
        // agree with each other and with the byte reads.
        pm.write_u64(a, 1000, 0x0102_0304_0506_0708);
        pm.write_u64(a, 1013, 0x1112_1314_1516_1718);
        assert_eq!(pm.read_u64(a, 1000), 0x0102_0304_0506_0708);
        assert_eq!(pm.read_u64(a, 1013), 0x1112_1314_1516_1718);
        assert_eq!(pm.read_u64(a, 1001), 0x0001_0203_0405_0607);
        let mut word = [0u8; 8];
        pm.read(a, 1016, &mut word);
        assert_eq!(u64::from_le_bytes(word), 0x0011_1213_1415);
    }

    #[test]
    fn versions_advance_on_write_free_and_reuse() {
        let pm = PhysMem::new();
        let a = pm.alloc();
        let version = |pfn| pm.frame(pfn).version();
        let v0 = version(a);
        assert_eq!(v0 % 2, 0);
        assert_eq!(pm.frame(a).read_versioned(0, &mut [0u8; 8]), v0);
        pm.write_u64(a, 0, 7);
        let v1 = version(a);
        assert!(v1 > v0);
        pm.free(a);
        let v2 = version(a);
        assert!(v2 > v1);
        assert_eq!(pm.alloc(), a);
        assert!(version(a) > v2);
        // Reads leave the version alone.
        let v3 = version(a);
        pm.read_u64(a, 0);
        assert_eq!(version(a), v3);
    }

    /// A filled allocation is exactly the bytes then zeroes, even on a
    /// reused page with an unaligned fill length, and its version moves
    /// once past the freed frame's — the same rule as any reallocation.
    #[test]
    fn alloc_filled_zeroes_past_the_fill_and_bumps_the_version_once() {
        let pm = PhysMem::new();
        let pfn = pm.alloc();
        pm.write(pfn, 0, &[0xAA; PAGE_SIZE]);
        pm.free(pfn);
        let freed = pm.frame(pfn).version();
        let fill: Vec<u8> = (1..=13).collect();
        let again = pm.alloc_filled(&fill);
        assert_eq!(again, pfn, "the freed frame is reused");
        assert_eq!(pm.frame(again).version(), freed + 2);
        let mut page = [0xFFu8; PAGE_SIZE];
        pm.read(again, 0, &mut page);
        assert_eq!(&page[..13], &fill[..]);
        assert!(page[13..].iter().all(|&b| b == 0), "stale bytes survived");
        assert_eq!(pm.stats().frames_live, 1);
        // Only the last word written: a reallocation must still clear
        // it, however short the fill.
        pm.write_u64(again, PAGE_SIZE - 8, u64::MAX);
        pm.free(again);
        let third = pm.alloc_filled(&[7]);
        pm.read(third, 0, &mut page);
        assert_eq!(page[0], 7);
        assert!(page[1..].iter().all(|&b| b == 0), "the last word survived");
    }

    #[test]
    fn chunk_geometry_covers_every_pfn_once() {
        let mut expect = (0usize, 0usize);
        for pfn in 0..5_000u64 {
            assert_eq!(locate(pfn), expect, "pfn {pfn}");
            expect.1 += 1;
            if expect.1 == chunk_len(expect.0) {
                expect = (expect.0 + 1, 0);
            }
        }
    }

    #[test]
    fn concurrent_alloc() {
        let pm = std::sync::Arc::new(PhysMem::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pm = pm.clone();
            handles.push(std::thread::spawn(move || {
                let pfns = pm.alloc_n(64);
                for &p in &pfns {
                    pm.write_u64(p, 0, p.0);
                }
                pfns
            }));
        }
        let mut all: Vec<Pfn> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8 * 64, "no pfn handed out twice");
    }

    #[test]
    fn readers_keep_live_frames_while_the_table_grows() {
        // Readers hammer frames in the first chunks while a writer
        // allocates through many new chunks. The barrier releases both
        // sides together, and the readers only stop once growth is
        // done, so every chunk publication overlaps live reads.
        let pm = Arc::new(PhysMem::new());
        let held: Vec<Pfn> = pm.alloc_n(20); // spans chunks 0 and 1
        for &p in &held {
            pm.write_u64(p, 8, p.0 ^ 0x5A5A);
        }
        let readers = 2;
        let start = Arc::new(Barrier::new(readers + 1));
        let grown = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let (pm, held) = (pm.clone(), held.clone());
                let (start, grown) = (start.clone(), grown.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut reads = 0u64;
                    while !grown.load(Ordering::Acquire) || reads < 10_000 {
                        for &p in &held {
                            assert_eq!(pm.read_u64(p, 8), p.0 ^ 0x5A5A);
                            assert!(pm.is_live(p));
                            reads += 1;
                        }
                    }
                    reads
                })
            })
            .collect();
        start.wait();
        let fresh = pm.alloc_n(3_000); // chunks 2..=7
        for &p in &fresh {
            pm.write_u64(p, 0, p.0);
        }
        grown.store(true, Ordering::Release);
        for h in handles {
            assert!(h.join().unwrap() >= 10_000);
        }
        for &p in &fresh {
            assert_eq!(pm.read_u64(p, 0), p.0);
        }
        assert_eq!(pm.stats().frames_live, 3_020);
    }
}
