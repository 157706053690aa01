//! Loaded-module representation (paper Fig. 2b).
//!
//! A re-randomizable module has a **movable** part (`.text`, `.data`,
//! `.bss`, its PLT, and its pair of GOTs) and an **immovable** part
//! (`.fixed.text` wrappers, `.rodata`, its PLT and GOT pair). Plain PIC
//! and legacy modules collapse into a single (non-moving) part.

use adelie_kernel::Kernel;
use adelie_vmem::{Pfn, PteFlags, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which half of the module an item lives in.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Part {
    /// Relocated on every re-randomization period.
    Movable,
    /// Pinned for the module's lifetime (wrappers, `.rodata`).
    Immovable,
}

/// A run of pages with uniform permissions within a part.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PageGroup {
    /// First page index within the part.
    pub page_start: usize,
    /// Number of pages.
    pub pages: usize,
    /// Mapping permissions.
    pub flags: PteFlags,
}

/// One entry of a *local* GOT — the table that must be rebuilt when the
/// movable part moves (paper §4.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LocalGotEntry {
    /// Address of a movable-part symbol: rebuilt as `new_base + offset`.
    Sym {
        /// Symbol name (diagnostics).
        name: Arc<str>,
        /// Offset from the movable base.
        offset: u64,
    },
    /// The return-address encryption key slot: refreshed with a new
    /// random key every cycle (§3.4).
    Key,
    /// A lazily-bound PLT slot: a fresh local GOT starts it at the
    /// module's binder trampoline (`binder`), and the first call through
    /// the stub traps into the binder, which resolves the target and
    /// rewrites the slot ([`LoadedModule::bind_plt_slot`]). The
    /// re-randomizer re-swings *bound* slots each cycle; rebuilt tables
    /// themselves always start unbound.
    Lazy {
        /// Index into [`LoadedModule::lazy_plt`].
        lazy_idx: usize,
        /// The binder trampoline's native-region address.
        binder: u64,
    },
}

/// An 8-byte data slot holding an absolute pointer into the movable
/// part — adjusted by the re-randomizer (paper §6: "pointers are also
/// adjusted when re-randomizing by adding an offset").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdjustSlot {
    /// Which part the slot itself lives in.
    pub part: Part,
    /// Byte offset of the slot from its part's base.
    pub slot_off: u64,
    /// Offset of the pointed-to symbol from the movable base.
    pub target_off: u64,
}

/// The placed image of one module part.
#[derive(Debug)]
pub struct PartImage {
    /// Base virtual address at load time (for the movable part, the
    /// *current* base lives in [`LoadedModule::movable_base`]).
    pub base: u64,
    /// Total pages.
    pub total_pages: usize,
    /// Backing frames in page order (shared across aliases; only local
    /// GOT frames are replaced over time).
    pub frames: Vec<Pfn>,
    /// Permission groups covering all pages.
    pub groups: Vec<PageGroup>,
    /// Byte offset of the local GOT (page-aligned).
    pub lgot_off: u64,
    /// Local GOT slot count.
    pub lgot_slots: usize,
    /// Byte offset of the fixed GOT (page-aligned).
    pub fgot_off: u64,
    /// Fixed GOT slot count.
    pub fgot_slots: usize,
    /// Symbol name behind each fixed-GOT slot, in slot order. Eager
    /// slots are resolved at load time and never rewritten, so this is
    /// the audit trail the fleet's symbol audit and the placement
    /// proptests use to prove no GOT entry dangles: slot `i` must hold exactly the
    /// owning kernel's address for `fgot_names[i]` — unless the slot is
    /// lazily bound (see [`LoadedModule::lazy_plt`]), in which case it
    /// holds either the binder trampoline (unbound) or the same
    /// resolution an eager slot would (bound).
    pub fgot_names: Vec<Arc<str>>,
    /// Byte offset of the PLT.
    pub plt_off: u64,
    /// PLT stub count.
    pub plt_stubs: usize,
}

impl PartImage {
    /// Pages occupied by the local GOT.
    pub fn lgot_pages(&self) -> usize {
        (self.lgot_slots * 8).div_ceil(adelie_vmem::PAGE_SIZE)
    }
}

/// Per-load statistics (feeds Fig. 5a and the §4.1 patching discussion).
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct LoadStats {
    /// Section payload bytes (what a non-PIC module would map).
    pub payload_bytes: usize,
    /// Bytes added by GOTs and PLTs (the PIC overhead of Fig. 5a).
    pub got_plt_bytes: usize,
    /// Total mapped bytes (both parts).
    pub mapped_bytes: usize,
    /// `call *GOT` sites relaxed to direct `call; nop` (Fig. 4).
    pub patched_calls: usize,
    /// `mov sym@GOT` sites relaxed to `lea` (Fig. 4).
    pub patched_movs: usize,
    /// GOT entries eliminated by the relaxations above.
    pub got_entries_eliminated: usize,
    /// Local GOT entries (both parts).
    pub local_got_entries: usize,
    /// Fixed GOT entries (both parts).
    pub fixed_got_entries: usize,
    /// PLT stubs emitted (retpoline mode).
    pub plt_stubs: usize,
}

/// A module resident in the simulated kernel.
#[derive(Debug)]
pub struct LoadedModule {
    /// Module name — a shared, immutable id. Kept as `Arc<str>` so the
    /// re-randomizer's error paths, the scheduler's telemetry, and the
    /// testkit clone a pointer per cycle instead of reallocating the
    /// string on every hot-path touch.
    pub name: Arc<str>,
    /// Whether the re-randomizer may move it.
    pub rerandomizable: bool,
    /// The movable (or only) part.
    pub movable: PartImage,
    /// The immovable part (re-randomizable modules only).
    pub immovable: Option<PartImage>,
    /// Current movable base (starts at `movable.base`).
    pub movable_base: AtomicU64,
    /// Times re-randomized.
    pub generation: AtomicU64,
    /// Current encryption key (exposed for tests and attack simulations;
    /// the defence does not depend on its secrecy from *us*).
    pub current_key: AtomicU64,
    /// Movable-part symbol offsets (from the movable base).
    pub movable_syms: HashMap<Arc<str>, u64>,
    /// Immovable/absolute symbol addresses.
    pub immovable_syms: HashMap<Arc<str>, u64>,
    /// Local GOT layout of the movable part (rebuild recipe).
    pub lgot_movable: Vec<LocalGotEntry>,
    /// Local GOT layout of the immovable part.
    pub lgot_immovable: Vec<LocalGotEntry>,
    /// Current frames behind the movable part's local GOT pages.
    pub movable_lgot_frames: Mutex<Vec<Pfn>>,
    /// Current frames behind the immovable part's local GOT pages.
    pub immovable_lgot_frames: Mutex<Vec<Pfn>>,
    /// Data slots that hold movable pointers.
    pub adjust_slots: Vec<AdjustSlot>,
    /// Kernel-visible exports: `(name, address)`.
    pub exports: Vec<(String, u64)>,
    /// Entry points (wrapper addresses for re-randomizable modules).
    pub init_va: Option<u64>,
    /// Exit entry point.
    pub exit_va: Option<u64>,
    /// Pointer-refresh callback (called after each move).
    pub update_pointers_va: Option<u64>,
    /// Cycles whose `update_pointers` callback failed *after* the move
    /// committed and the old range was retired: the module runs at its
    /// new base, but run-time pointers it manages may still reference
    /// the retired layout. Previously this was silently dropped; now it
    /// is counted here and surfaced through the scheduler's stats so
    /// the testkit oracle can assert on it.
    pub pointer_refresh_failures: AtomicU64,
    /// Lazily-bound PLT slots, in registration order (empty unless the
    /// module was loaded with `lazy_plt`).
    pub lazy_plt: Vec<LazyPltSlot>,
    /// Serializes slot binding against the re-randomizer's re-swing.
    ///
    /// Deliberately *not* [`LoadedModule::move_lock`]: `update_pointers`
    /// runs under the move lock and may itself call through a
    /// not-yet-bound stub, so the binder taking the move lock would
    /// self-deadlock mid-cycle.
    pub plt_bind_lock: Mutex<()>,
    /// First-call bindings performed (telemetry; feeds the bench).
    pub plt_binds: AtomicU64,
    /// Bound slots re-swung across re-randomization cycles.
    pub plt_reswings: AtomicU64,
    /// Load-time statistics.
    pub stats: LoadStats,
    /// Serializes re-randomization against unload.
    pub move_lock: Mutex<()>,
}

/// One lazily-bound PLT slot (MARDU-style): the GOT slot starts out
/// pointing at a per-slot binder trampoline in the kernel's native
/// dispatch region; the first call through the PLT stub lands in the
/// binder, which resolves the real target, rewrites the slot, and
/// forwards the call. Because a bound slot holds an *absolute* address,
/// it is exactly the kind of pointer a re-randomization cycle must
/// re-swing — [`LoadedModule::reswing_bound_plt`] runs inside every
/// cycle, and the testkit oracle asserts no bound slot survives pointing
/// into a retired range.
#[derive(Debug)]
pub struct LazyPltSlot {
    /// Imported (or cross-part) symbol this slot resolves.
    pub symbol: Arc<str>,
    /// Which part's GOT holds the slot.
    pub part: Part,
    /// `true` → local GOT (slot moves with the rebuilt table every
    /// cycle); `false` → fixed GOT (static frames).
    pub local: bool,
    /// Slot index within that GOT.
    pub idx: usize,
    /// The binder trampoline's address (what an unbound slot holds).
    pub binder_va: u64,
    /// kallsyms name the binder was registered under (unregistered at
    /// unload).
    pub binder_name: String,
    /// `Some(offset)` when the target lives in the movable part — the
    /// binding is `movable_base + offset` and must track the base across
    /// cycles. `None` → resolve through the kernel symbol table.
    pub target_off: Option<u64>,
    /// Currently bound target address, `0` while unbound.
    pub bound: AtomicU64,
}

impl LoadedModule {
    /// Resolve an exported entry point by name.
    pub fn export(&self, name: &str) -> Option<u64> {
        self.exports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, va)| *va)
    }

    /// The current virtual address of a module symbol (moves with the
    /// module if the symbol is movable).
    pub fn symbol_va(&self, name: &str) -> Option<u64> {
        if let Some(&off) = self.movable_syms.get(name) {
            return Some(self.movable_base.load(Ordering::Acquire) + off);
        }
        self.immovable_syms.get(name).copied()
    }

    /// Total mapped footprint in bytes.
    pub fn mapped_bytes(&self) -> usize {
        let mut pages = self.movable.total_pages;
        if let Some(imm) = &self.immovable {
            pages += imm.total_pages;
        }
        pages * adelie_vmem::PAGE_SIZE
    }

    /// Times this module has been re-randomized.
    pub fn times_randomized(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The current virtual address of a lazy slot's GOT cell.
    pub fn lazy_slot_va(&self, slot: &LazyPltSlot) -> u64 {
        let img = match slot.part {
            Part::Movable => &self.movable,
            Part::Immovable => self.immovable.as_ref().expect("lazy slot in missing part"),
        };
        let part_base = if slot.part == Part::Movable {
            self.movable_base.load(Ordering::Acquire)
        } else {
            img.base
        };
        let got_off = if slot.local {
            img.lgot_off
        } else {
            img.fgot_off
        };
        part_base + got_off + (slot.idx * 8) as u64
    }

    /// Rewrite a lazy slot's GOT cell to `value`.
    ///
    /// GOT pages are sealed read-only in the page tables (§4.1), so the
    /// write goes straight to the backing frame — the same channel the
    /// re-randomizer uses for `adjust_slots`. Local-GOT frames are
    /// *replaced* every cycle; the current list lives behind a mutex and
    /// is read here per write, so a binder racing a cycle always lands
    /// on the frames that are (or are about to be) published.
    fn write_lazy_slot(&self, kernel: &Kernel, slot: &LazyPltSlot, value: u64) {
        let img = match slot.part {
            Part::Movable => &self.movable,
            Part::Immovable => self.immovable.as_ref().expect("lazy slot in missing part"),
        };
        let byte = slot.idx * 8;
        if slot.local {
            let frames = if slot.part == Part::Movable {
                self.movable_lgot_frames.lock()
            } else {
                self.immovable_lgot_frames.lock()
            };
            kernel
                .phys
                .write_u64(frames[byte / PAGE_SIZE], byte % PAGE_SIZE, value);
        } else {
            let abs = img.fgot_off as usize + byte;
            kernel
                .phys
                .write_u64(img.frames[abs / PAGE_SIZE], abs % PAGE_SIZE, value);
        }
    }

    /// First-call (or self-healing re-)bind of lazy slot `lazy_idx`:
    /// resolve the target, rewrite the GOT cell, record the binding, and
    /// return the target so the binder can forward the call.
    ///
    /// Runs under [`LoadedModule::plt_bind_lock`] so a bind racing the
    /// re-randomizer's re-swing cannot resurrect a stale target: whoever
    /// runs second re-resolves against the *published* base.
    ///
    /// # Errors
    ///
    /// A human-readable message when the symbol no longer resolves.
    pub fn bind_plt_slot(&self, kernel: &Kernel, lazy_idx: usize) -> Result<u64, String> {
        let slot = &self.lazy_plt[lazy_idx];
        let _g = self.plt_bind_lock.lock();
        let target = match slot.target_off {
            Some(off) => self.movable_base.load(Ordering::Acquire) + off,
            None => self
                .immovable_syms
                .get(&*slot.symbol)
                .copied()
                .or_else(|| kernel.symbols.lookup(&slot.symbol))
                .ok_or_else(|| format!("lazy PLT bind: unresolved symbol `{}`", slot.symbol))?,
        };
        if slot.bound.load(Ordering::Acquire) != target {
            self.write_lazy_slot(kernel, slot, target);
            slot.bound.store(target, Ordering::Release);
            self.plt_binds.fetch_add(1, Ordering::Relaxed);
        }
        Ok(target)
    }

    /// Re-swing every *bound* lazy slot against the current layout — the
    /// re-randomizer calls this after publishing a cycle's new movable
    /// base (and new local-GOT frames), before `update_pointers` runs.
    /// Unbound slots are untouched (a rebuilt table already starts them
    /// at the binder). A slot whose symbol no longer resolves is
    /// *unbound* — reset to the binder — so a stale target is never
    /// callable after the cycle commits. Returns the number of slots
    /// re-swung.
    pub fn reswing_bound_plt(&self, kernel: &Kernel) -> usize {
        let _g = self.plt_bind_lock.lock();
        let mut n = 0;
        for slot in &self.lazy_plt {
            if slot.bound.load(Ordering::Acquire) == 0 {
                continue;
            }
            let target = match slot.target_off {
                Some(off) => Some(self.movable_base.load(Ordering::Acquire) + off),
                None => self
                    .immovable_syms
                    .get(&*slot.symbol)
                    .copied()
                    .or_else(|| kernel.symbols.lookup(&slot.symbol)),
            };
            match target {
                Some(t) => {
                    self.write_lazy_slot(kernel, slot, t);
                    slot.bound.store(t, Ordering::Release);
                }
                None => {
                    self.write_lazy_slot(kernel, slot, slot.binder_va);
                    slot.bound.store(0, Ordering::Release);
                }
            }
            n += 1;
        }
        if n > 0 {
            self.plt_reswings.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }
}
