//! The PIC module loader.
//!
//! Keeps the relocatable format and finalizes everything at load time
//! (paper §4.1): builds the four GOTs (movable/immovable × local/fixed),
//! emits retpoline-safe PLT stubs when the mitigation is on, applies the
//! Fig. 4 run-time patches (`call *foo@GOTPCREL(%rip)` → `call foo; nop`
//! and `mov foo@GOTPCREL(%rip),%r` → `lea foo(%rip),%r` for same-part
//! symbols), seals GOT pages read-only, and registers exports with the
//! kernel symbol table. The legacy (non-PIC) mode reproduces vanilla
//! Linux: absolute relocations, single region in the 2 GiB window.

use crate::module::{
    AdjustSlot, LazyPltSlot, LoadStats, LoadedModule, LocalGotEntry, PageGroup, Part, PartImage,
};
use crate::va::{VaAllocator, VaReservation};
use adelie_isa::{Asm, Reg};
use adelie_kernel::{layout, Kernel, VmError};
use adelie_obj::{ObjectFile, Reloc, RelocKind, SectionKind, SymbolDef};
use adelie_plugin::{CodeModel, TransformOptions, KEY_SYMBOL};
use adelie_vmem::{Batch, PteFlags, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock, Weak};

/// Errors surfaced while loading a module.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LoadError {
    /// A referenced symbol is neither module-defined nor in kallsyms.
    Unresolved(String),
    /// A PC32 relocation crosses the movable/immovable boundary — the
    /// parts can be any distance apart, so this cannot link.
    CrossPartPcRel(String),
    /// A relocation kind that the chosen code model forbids.
    UnexpectedReloc(String),
    /// A 32-bit field cannot hold the computed value.
    FieldOverflow(String),
    /// No free virtual range found for the module.
    NoSpace,
    /// The declared init/exit entry point is not exported.
    MissingEntry(String),
    /// Section sizes/alignments overflow the layout arithmetic or the
    /// module arena — adversarial `sh_size` values land here instead of
    /// wrapping (same bug class as the `VaAllocator::reserve` fix).
    TooLarge(String),
    /// The object failed transformation or ELF ingestion before it
    /// reached the loader proper.
    Ingest(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Unresolved(s) => write!(f, "unresolved symbol `{s}`"),
            LoadError::CrossPartPcRel(s) => write!(f, "PC32 across parts for `{s}`"),
            LoadError::UnexpectedReloc(s) => write!(f, "unexpected relocation: {s}"),
            LoadError::FieldOverflow(s) => write!(f, "relocation overflow for `{s}`"),
            LoadError::NoSpace => write!(f, "no free virtual address range"),
            LoadError::MissingEntry(s) => write!(f, "entry point `{s}` not defined"),
            LoadError::TooLarge(s) => write!(f, "module layout overflow: {s}"),
            LoadError::Ingest(s) => write!(f, "object ingestion failed: {s}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Which GOT a slot lives in.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct GotRef {
    local: bool,
    idx: usize,
}

#[derive(Clone, Debug)]
enum Action {
    /// `S + A - P` into the 32-bit field.
    PcRelDirect,
    /// `FF 15 d32` → `E8 rel32 ; 90`.
    PatchCallDirect,
    /// `FF 25 d32` → `E9 rel32 ; 90`.
    PatchJmpDirect,
    /// opcode `8B` → `8D`, then `S + A - P`.
    PatchMovLea,
    /// RIP-relative reference to a GOT slot.
    Got(GotRef),
    /// `call rel32` to a PLT stub.
    Plt(usize),
    /// 64-bit absolute.
    Abs64,
    /// 32-bit sign-extended absolute (legacy only).
    Abs32,
}

#[derive(Clone, Debug)]
struct Decision {
    section: SectionKind,
    reloc: Reloc,
    action: Action,
}

/// A lazily-bound PLT slot this part contributes (resolved into a
/// [`LazyPltSlot`] once symbol offsets and binder addresses are known).
struct LazySlotPlan {
    symbol: Arc<str>,
    got: GotRef,
    movable_target: bool,
}

/// Everything needed to lay out and materialize one part.
struct PartPlan {
    part: Part,
    code_secs: Vec<SectionKind>,
    data_groups: Vec<(Vec<SectionKind>, PteFlags)>,
    sec_off: HashMap<SectionKind, u64>,
    plt_off: u64,
    thunk_off: u64,
    /// Stub order and the GOT slot each one jumps through.
    plt: Vec<(Arc<str>, GotRef)>,
    plt_index: HashMap<Arc<str>, usize>,
    lgot: Vec<LocalGotEntry>,
    lgot_index: HashMap<Arc<str>, usize>,
    fgot: Vec<Arc<str>>,
    fgot_index: HashMap<Arc<str>, usize>,
    /// Lazy slots (keyed `plt$name` in the GOT indices so an eager
    /// GOTPCREL data reference to the same symbol keeps its own slot).
    lazy: Vec<LazySlotPlan>,
    lgot_off: u64,
    fgot_off: u64,
    groups: Vec<PageGroup>,
    total_pages: usize,
    decisions: Vec<Decision>,
}

/// Bytes per PLT stub slot (12 used, padded for alignment).
const PLT_STUB_SIZE: u64 = 16;

/// Checked `next_multiple_of` — adversarial sizes near `u64::MAX` must
/// surface as [`LoadError::TooLarge`], never wrap.
fn align_up(v: u64, a: u64) -> Result<u64, LoadError> {
    v.checked_next_multiple_of(a)
        .ok_or_else(|| LoadError::TooLarge(format!("align_up({v:#x}, {a}) overflows")))
}

/// Checked add with the same contract as [`align_up`].
fn add_sz(a: u64, b: u64) -> Result<u64, LoadError> {
    a.checked_add(b)
        .ok_or_else(|| LoadError::TooLarge(format!("{a:#x} + {b:#x} overflows")))
}

fn is_rex(b: u8) -> bool {
    (0x40..=0x4F).contains(&b)
}

/// What kind of site precedes a GOTPCREL field (Fig. 4 patch detection —
/// the same opcode-byte inspection real linker relaxation performs).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum SiteKind {
    IndirectCall,
    IndirectJmp,
    GotLoad,
    Other,
}

fn site_kind(bytes: &[u8], field_off: usize) -> SiteKind {
    if field_off >= 2 {
        let (op, modrm) = (bytes[field_off - 2], bytes[field_off - 1]);
        if op == 0xFF && modrm == 0x15 {
            return SiteKind::IndirectCall;
        }
        if op == 0xFF && modrm == 0x25 {
            return SiteKind::IndirectJmp;
        }
        if op == 0x8B && (modrm & 0xC7) == 0x05 && field_off >= 3 && is_rex(bytes[field_off - 3]) {
            return SiteKind::GotLoad;
        }
    }
    SiteKind::Other
}

impl PartPlan {
    fn new(part: Part, rerandomize: bool, single_part: bool) -> PartPlan {
        let (code_secs, data_groups): (Vec<SectionKind>, Vec<(Vec<SectionKind>, PteFlags)>) =
            if single_part {
                (
                    vec![SectionKind::Text, SectionKind::FixedText],
                    vec![
                        (vec![SectionKind::Data, SectionKind::Bss], PteFlags::DATA),
                        (vec![SectionKind::Rodata], PteFlags::RO_DATA),
                    ],
                )
            } else if part == Part::Movable {
                (
                    vec![SectionKind::Text],
                    vec![(vec![SectionKind::Data, SectionKind::Bss], PteFlags::DATA)],
                )
            } else {
                (
                    vec![SectionKind::FixedText],
                    vec![(vec![SectionKind::Rodata], PteFlags::RO_DATA)],
                )
            };
        let _ = rerandomize;
        PartPlan {
            part,
            code_secs,
            data_groups,
            sec_off: HashMap::new(),
            plt_off: 0,
            thunk_off: 0,
            plt: Vec::new(),
            plt_index: HashMap::new(),
            lgot: Vec::new(),
            lgot_index: HashMap::new(),
            fgot: Vec::new(),
            fgot_index: HashMap::new(),
            lazy: Vec::new(),
            lgot_off: 0,
            fgot_off: 0,
            groups: Vec::new(),
            total_pages: 0,
            decisions: Vec::new(),
        }
    }

    fn contains(&self, sec: SectionKind) -> bool {
        self.code_secs.contains(&sec) || self.data_groups.iter().any(|(s, _)| s.contains(&sec))
    }

    fn lgot_slot(&mut self, key: &str, entry: LocalGotEntry) -> GotRef {
        if let Some(&idx) = self.lgot_index.get(key) {
            return GotRef { local: true, idx };
        }
        let idx = self.lgot.len();
        self.lgot.push(entry);
        self.lgot_index.insert(Arc::from(key), idx);
        GotRef { local: true, idx }
    }

    fn fgot_slot(&mut self, name: &Arc<str>) -> GotRef {
        if let Some(&idx) = self.fgot_index.get(&**name) {
            return GotRef { local: false, idx };
        }
        let idx = self.fgot.len();
        self.fgot.push(name.clone());
        self.fgot_index.insert(name.clone(), idx);
        GotRef { local: false, idx }
    }

    /// A lazily-bound slot for `symbol`, keyed `plt$symbol` so an eager
    /// GOTPCREL reference to the same name stays a separate, eagerly
    /// resolved slot. `movable_target` picks local vs fixed GOT.
    fn lazy_slot(&mut self, symbol: &Arc<str>, movable_target: bool) -> GotRef {
        let key = format!("plt${symbol}");
        let got = if movable_target {
            if let Some(&idx) = self.lgot_index.get(key.as_str()) {
                return GotRef { local: true, idx };
            }
            // Placeholder: the binder address and lazy index are patched
            // in once binders are registered.
            self.lgot_slot(
                &key,
                LocalGotEntry::Lazy {
                    lazy_idx: usize::MAX,
                    binder: 0,
                },
            )
        } else {
            if let Some(&idx) = self.fgot_index.get(key.as_str()) {
                return GotRef { local: false, idx };
            }
            let idx = self.fgot.len();
            self.fgot.push(symbol.clone());
            self.fgot_index.insert(Arc::from(key.as_str()), idx);
            GotRef { local: false, idx }
        };
        self.lazy.push(LazySlotPlan {
            symbol: symbol.clone(),
            got,
            movable_target,
        });
        got
    }

    fn plt_slot(&mut self, name: &Arc<str>, got: GotRef) -> usize {
        if let Some(&idx) = self.plt_index.get(&**name) {
            return idx;
        }
        let idx = self.plt.len();
        self.plt.push((name.clone(), got));
        self.plt_index.insert(name.clone(), idx);
        idx
    }

    fn slot_off(&self, got: GotRef) -> u64 {
        let base = if got.local {
            self.lgot_off
        } else {
            self.fgot_off
        };
        base + (got.idx * 8) as u64
    }
}

/// Where a module-defined symbol landed.
#[derive(Copy, Clone, Debug)]
struct SymPlace {
    part: Part,
    off: u64,
}

/// Unregisters freshly-registered lazy-PLT binder natives if the load
/// fails partway (a later resolution error must not leak native-region
/// registrations, or re-loading the module would trip the
/// duplicate-name assertion).
struct BinderGuard<'a> {
    kernel: &'a Arc<Kernel>,
    names: Vec<String>,
    armed: bool,
}

impl Drop for BinderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            for n in &self.names {
                self.kernel.symbols.unregister_native(n);
            }
        }
    }
}

/// Loads object files into the simulated kernel.
pub struct Loader<'k> {
    kernel: &'k Arc<Kernel>,
    va: &'k Arc<VaAllocator>,
}

impl<'k> Loader<'k> {
    /// A loader bound to the kernel plus the registry's allocation state.
    pub(crate) fn new(kernel: &'k Arc<Kernel>, va: &'k Arc<VaAllocator>) -> Loader<'k> {
        Loader { kernel, va }
    }

    /// Load `obj` under the given options (the same options that drove
    /// the plugin transformation).
    ///
    /// # Errors
    ///
    /// See [`LoadError`].
    pub fn load(
        &self,
        obj: &ObjectFile,
        opts: &TransformOptions,
    ) -> Result<Arc<LoadedModule>, LoadError> {
        let rerand = opts.rerandomize;
        let single_part = !rerand;
        let mut movable = PartPlan::new(Part::Movable, rerand, single_part);
        let mut immovable = rerand.then(|| PartPlan::new(Part::Immovable, rerand, false));

        // ---- symbol partition --------------------------------------
        // Pre-place code sections (needed for patch-site inspection and
        // symbol offsets); data placed later. All layout arithmetic is
        // checked: an ELF-ingested object controls `sh_size`, so sizes
        // near `u64::MAX` must become `TooLarge`, not a wrap.
        let mut sym_place: HashMap<Arc<str>, SymPlace> = HashMap::new();
        let place_code = |plan: &mut PartPlan, obj: &ObjectFile| -> Result<u64, LoadError> {
            let mut off = 0u64;
            for &sec in &plan.code_secs.clone() {
                if let Some(s) = obj.section(sec) {
                    off = align_up(off, 16)?;
                    plan.sec_off.insert(sec, off);
                    off = add_sz(off, s.size as u64)?;
                }
            }
            Ok(off)
        };
        let mov_code_end = place_code(&mut movable, obj)?;
        let imm_code_end = match immovable.as_mut() {
            Some(p) => place_code(p, obj)?,
            None => 0,
        };

        // Data section placement happens after the PLT, whose size we
        // don't know yet — compute data offsets relative to a
        // placeholder and fix up after the reloc scan. To keep it
        // simple, scan relocs first (they only need *code* bytes for
        // patch detection and symbol *identity*, not final offsets).

        // Which part is each symbol in?
        let part_of_sec = |sec: SectionKind| -> Part {
            if single_part || sec.is_movable() {
                Part::Movable
            } else {
                Part::Immovable
            }
        };
        for sym in &obj.symbols {
            if let SymbolDef::Defined { section, .. } = sym.def {
                sym_place.insert(
                    sym.name.clone(),
                    SymPlace {
                        part: part_of_sec(section),
                        off: 0, // final offset filled after full layout
                    },
                );
            }
        }

        // ---- relocation scan ----------------------------------------
        let scan = |plan: &mut PartPlan,
                    obj: &ObjectFile,
                    sym_place: &HashMap<Arc<str>, SymPlace>|
         -> Result<(), LoadError> {
            for &sec in &[
                plan.code_secs.clone(),
                plan.data_groups
                    .iter()
                    .flat_map(|(s, _)| s.clone())
                    .collect(),
            ]
            .concat()
            {
                let Some(s) = obj.section(sec) else { continue };
                for r in &s.relocs {
                    let target_part = sym_place.get(&*r.symbol).map(|p| p.part);
                    let same_part = target_part == Some(plan.part);
                    let action = match r.kind {
                        RelocKind::Pc32 => {
                            if opts.model == CodeModel::Legacy || same_part {
                                Action::PcRelDirect
                            } else if target_part.is_some() {
                                return Err(LoadError::CrossPartPcRel(r.symbol.to_string()));
                            } else {
                                // PC32 to a kernel symbol is only legal
                                // in the legacy (±2 GiB) model.
                                return Err(LoadError::UnexpectedReloc(format!(
                                    "PC32 to kernel symbol `{}` in PIC code",
                                    r.symbol
                                )));
                            }
                        }
                        RelocKind::Plt32 if opts.model == CodeModel::Legacy => {
                            return Err(LoadError::UnexpectedReloc(format!(
                                "PLT32 for `{}` in non-PIC module",
                                r.symbol
                            )));
                        }
                        RelocKind::Plt32 => {
                            if same_part {
                                // Fig. 4: "call/jmp foo@PLT → call/jmp
                                // foo" for local calls — no stub.
                                Action::PcRelDirect
                            } else {
                                let movable_target = target_part == Some(Part::Movable);
                                let got = if opts.lazy_plt {
                                    // ELF `.ko` semantics: the slot
                                    // starts at the binder and resolves
                                    // on first call.
                                    plan.lazy_slot(&r.symbol, movable_target)
                                } else if movable_target {
                                    plan.lgot_slot(
                                        &r.symbol,
                                        LocalGotEntry::Sym {
                                            name: r.symbol.clone(),
                                            offset: 0,
                                        },
                                    )
                                } else {
                                    plan.fgot_slot(&r.symbol)
                                };
                                Action::Plt(plan.plt_slot(&r.symbol, got))
                            }
                        }
                        RelocKind::GotPcRel if opts.model == CodeModel::Legacy => {
                            return Err(LoadError::UnexpectedReloc(format!(
                                "GOTPCREL for `{}` in non-PIC module",
                                r.symbol
                            )));
                        }
                        RelocKind::GotPcRel => {
                            if &*r.symbol == KEY_SYMBOL {
                                Action::Got(plan.lgot_slot(KEY_SYMBOL, LocalGotEntry::Key))
                            } else if same_part {
                                match site_kind(&s.bytes, r.offset) {
                                    SiteKind::IndirectCall => Action::PatchCallDirect,
                                    SiteKind::IndirectJmp => Action::PatchJmpDirect,
                                    SiteKind::GotLoad => Action::PatchMovLea,
                                    SiteKind::Other => {
                                        let got = plan.lgot_slot(
                                            &r.symbol,
                                            LocalGotEntry::Sym {
                                                name: r.symbol.clone(),
                                                offset: 0,
                                            },
                                        );
                                        Action::Got(got)
                                    }
                                }
                            } else if target_part == Some(Part::Movable) {
                                // Immovable code referencing the movable
                                // part — the slot the re-randomizer
                                // rewrites every period.
                                let got = plan.lgot_slot(
                                    &r.symbol,
                                    LocalGotEntry::Sym {
                                        name: r.symbol.clone(),
                                        offset: 0,
                                    },
                                );
                                Action::Got(got)
                            } else {
                                // Kernel import or immovable target.
                                Action::Got(plan.fgot_slot(&r.symbol))
                            }
                        }
                        RelocKind::Abs64 => Action::Abs64,
                        RelocKind::Abs32S => {
                            if opts.model == CodeModel::Legacy {
                                Action::Abs32
                            } else {
                                return Err(LoadError::UnexpectedReloc(
                                    "ABS32S in PIC code".into(),
                                ));
                            }
                        }
                    };
                    plan.decisions.push(Decision {
                        section: sec,
                        reloc: r.clone(),
                        action,
                    });
                }
            }
            Ok(())
        };
        scan(&mut movable, obj, &sym_place)?;
        if let Some(imm) = immovable.as_mut() {
            scan(imm, obj, &sym_place)?;
        }

        // ---- final layout -------------------------------------------
        let finalize = |plan: &mut PartPlan,
                        code_end: u64,
                        obj: &ObjectFile,
                        retpoline: bool|
         -> Result<(), LoadError> {
            let mut off = align_up(code_end, 16)?;
            plan.plt_off = off;
            off = add_sz(off, plan.plt.len() as u64 * PLT_STUB_SIZE)?;
            if !plan.plt.is_empty() && retpoline {
                plan.thunk_off = off;
                off = add_sz(off, 32)?;
            }
            let code_pages = (align_up(off, PAGE_SIZE as u64)? / PAGE_SIZE as u64) as usize;
            plan.groups.push(PageGroup {
                page_start: 0,
                pages: code_pages,
                flags: PteFlags::TEXT,
            });
            let mut page_cursor = code_pages;
            let mut byte_cursor = (code_pages as u64) * PAGE_SIZE as u64;
            for (secs, flags) in plan.data_groups.clone() {
                let start_byte = byte_cursor;
                for sec in secs {
                    if let Some(s) = obj.section(sec) {
                        byte_cursor = align_up(byte_cursor, 16)?;
                        plan.sec_off.insert(sec, byte_cursor);
                        byte_cursor = add_sz(byte_cursor, s.size as u64)?;
                    }
                }
                let pages = (align_up(byte_cursor - start_byte, PAGE_SIZE as u64)?
                    / PAGE_SIZE as u64) as usize;
                if pages > 0 {
                    plan.groups.push(PageGroup {
                        page_start: page_cursor,
                        pages,
                        flags,
                    });
                }
                page_cursor += pages;
                byte_cursor = (page_cursor as u64) * PAGE_SIZE as u64;
            }
            // Local GOT pages, then fixed GOT pages (page-granular so the
            // re-randomizer can swap/seal them independently).
            plan.lgot_off = byte_cursor;
            let lgot_pages = (plan.lgot.len() * 8).div_ceil(PAGE_SIZE);
            if lgot_pages > 0 {
                plan.groups.push(PageGroup {
                    page_start: page_cursor,
                    pages: lgot_pages,
                    flags: PteFlags::RO_DATA, // sealed (§4.1)
                });
            }
            page_cursor += lgot_pages;
            byte_cursor = (page_cursor as u64) * PAGE_SIZE as u64;
            plan.fgot_off = byte_cursor;
            let fgot_pages = (plan.fgot.len() * 8).div_ceil(PAGE_SIZE);
            if fgot_pages > 0 {
                plan.groups.push(PageGroup {
                    page_start: page_cursor,
                    pages: fgot_pages,
                    flags: PteFlags::RO_DATA,
                });
            }
            page_cursor += fgot_pages;
            plan.total_pages = page_cursor.max(1);
            // The part must fit inside the randomization arena — a
            // reservation could never succeed past this anyway, but an
            // adversarial size has to fail *before* image allocation.
            let part_bytes = (plan.total_pages as u64)
                .checked_mul(PAGE_SIZE as u64)
                .filter(|&b| b < layout::MODULE_CEILING)
                .ok_or_else(|| {
                    LoadError::TooLarge(format!(
                        "part needs {} pages, beyond the module arena",
                        plan.total_pages
                    ))
                })?;
            let _ = part_bytes;
            Ok(())
        };
        finalize(&mut movable, mov_code_end, obj, opts.retpoline)?;
        if let Some(imm) = immovable.as_mut() {
            finalize(imm, imm_code_end, obj, opts.retpoline)?;
        }

        // Final symbol offsets.
        for sym in &obj.symbols {
            if let SymbolDef::Defined { section, offset } = sym.def {
                let plan = if movable.contains(section) {
                    &movable
                } else {
                    immovable.as_ref().expect("section must belong to a part")
                };
                let off = add_sz(plan.sec_off[&section], offset as u64)?;
                sym_place.insert(
                    sym.name.clone(),
                    SymPlace {
                        part: plan.part,
                        off,
                    },
                );
            }
        }
        // Local GOT entries now learn their target offsets.
        let fill_lgot = |plan: &mut PartPlan, sym_place: &HashMap<Arc<str>, SymPlace>| {
            for entry in plan.lgot.iter_mut() {
                if let LocalGotEntry::Sym { name, offset } = entry {
                    *offset = sym_place[&**name].off;
                }
            }
        };
        fill_lgot(&mut movable, &sym_place);
        if let Some(imm) = immovable.as_mut() {
            fill_lgot(imm, &sym_place);
        }

        // ---- lazy PLT binders ---------------------------------------
        // Each lazy slot gets a per-slot binder trampoline in the native
        // dispatch region. The binder holds a Weak to the module (filled
        // in after construction): on the first call through the stub it
        // binds the slot, then forwards the call with the caller's
        // argument registers intact. Registered *before* image build so
        // the GOT contents can start at the binder address; torn down by
        // the guard if a later load step fails, and at unload.
        let module_cell: Arc<OnceLock<Weak<LoadedModule>>> = Arc::new(OnceLock::new());
        let mut lazy_slots: Vec<LazyPltSlot> = Vec::new();
        {
            let mut collect = |plan: &PartPlan| -> Result<(), LoadError> {
                for ls in &plan.lazy {
                    let target_off = if ls.movable_target {
                        Some(
                            sym_place
                                .get(&*ls.symbol)
                                .expect("movable lazy target must be placed")
                                .off,
                        )
                    } else {
                        None
                    };
                    lazy_slots.push(LazyPltSlot {
                        symbol: ls.symbol.clone(),
                        part: plan.part,
                        local: ls.got.local,
                        idx: ls.got.idx,
                        binder_va: 0,
                        binder_name: String::new(),
                        target_off,
                        bound: AtomicU64::new(0),
                    });
                }
                Ok(())
            };
            collect(&movable)?;
            if let Some(imm) = immovable.as_ref() {
                collect(imm)?;
            }
        }
        let mut binder_guard = BinderGuard {
            kernel: self.kernel,
            names: Vec::new(),
            armed: true,
        };
        for (i, slot) in lazy_slots.iter_mut().enumerate() {
            let binder_name = format!("__plt_bind__{}__{}__{}", obj.name, i, slot.symbol);
            let cell = module_cell.clone();
            let va = self
                .kernel
                .symbols
                .register_native(&binder_name, move |vm| {
                    let m = cell.get().and_then(Weak::upgrade).ok_or_else(|| {
                        VmError::Native("lazy PLT binder called on unloaded module".into())
                    })?;
                    let target = m.bind_plt_slot(vm.kernel, i).map_err(VmError::Native)?;
                    vm.forward_call(target)
                });
            slot.binder_va = va;
            slot.binder_name = binder_name.clone();
            binder_guard.names.push(binder_name);
        }
        // Patch the placeholder local-GOT entries with binder addresses.
        for (i, slot) in lazy_slots.iter().enumerate() {
            if slot.local {
                let plan = match slot.part {
                    Part::Movable => &mut movable,
                    Part::Immovable => immovable.as_mut().expect("lazy slot in missing part"),
                };
                plan.lgot[slot.idx] = LocalGotEntry::Lazy {
                    lazy_idx: i,
                    binder: slot.binder_va,
                };
            }
        }
        // Fixed-GOT lazy slots, for the image builder.
        let lazy_fgot: HashMap<(Part, usize), u64> = lazy_slots
            .iter()
            .filter(|s| !s.local)
            .map(|s| ((s.part, s.idx), s.binder_va))
            .collect();

        // ---- base selection -----------------------------------------
        // Reservations (not a held lock) keep other placements out of
        // the chosen ranges while the images are built and mapped, so
        // loads and re-randomization cycles can proceed concurrently.
        let mut _mov_reservation: Option<VaReservation> = None;
        let movable_base = match opts.model {
            CodeModel::Pic => {
                let r = self.reserve(movable.total_pages)?;
                let base = r.base();
                _mov_reservation = Some(r);
                base
            }
            CodeModel::Legacy => {
                let size = (movable.total_pages * PAGE_SIZE) as u64;
                let base = self.va.legacy_bump(size);
                // The top of the window is kernel text; the window is
                // full when the cursor reaches it.
                if base + size > layout::NATIVE_BASE {
                    return Err(LoadError::NoSpace);
                }
                base
            }
        };
        // The movable reservation is already recorded, so the immovable
        // pick is disjoint from it by construction.
        let _imm_reservation = match immovable.as_ref() {
            Some(imm) => Some(self.reserve(imm.total_pages)?),
            None => None,
        };
        let immovable_base = _imm_reservation.as_ref().map(VaReservation::base);

        // ---- materialize --------------------------------------------
        let key = self.kernel.rng_u64();
        let resolve = |name: &str| -> Result<u64, LoadError> {
            if let Some(p) = sym_place.get(name) {
                let base = match p.part {
                    Part::Movable => movable_base,
                    Part::Immovable => immovable_base.expect("immovable symbol without part"),
                };
                return Ok(base + p.off);
            }
            self.kernel
                .symbols
                .lookup(name)
                .ok_or_else(|| LoadError::Unresolved(name.to_string()))
        };

        let mut adjust_slots: Vec<AdjustSlot> = Vec::new();
        let mut stats = LoadStats {
            payload_bytes: obj.payload_size(),
            ..LoadStats::default()
        };

        let build_image = |plan: &PartPlan,
                           base: u64,
                           stats: &mut LoadStats,
                           adjust: &mut Vec<AdjustSlot>|
         -> Result<Vec<u8>, LoadError> {
            let mut img = vec![0u8; plan.total_pages * PAGE_SIZE];
            // Section payloads.
            for (&sec, &off) in &plan.sec_off {
                if let Some(s) = obj.section(sec) {
                    img[off as usize..off as usize + s.bytes.len()].copy_from_slice(&s.bytes);
                }
            }
            // PLT stubs + thunk.
            if !plan.plt.is_empty() {
                for (i, (_sym, got)) in plan.plt.iter().enumerate() {
                    let stub_off = plan.plt_off + i as u64 * PLT_STUB_SIZE;
                    let slot_off = plan.slot_off(*got);
                    if opts.retpoline {
                        // mov rax, [rip+slot] ; jmp thunk
                        let mut b = Vec::with_capacity(12);
                        adelie_isa::encode_into(
                            &adelie_isa::Insn::MovLoad {
                                dst: Reg::Rax,
                                src: adelie_isa::Mem::RipRel(
                                    (slot_off as i64 - (stub_off as i64 + 7)) as i32,
                                ),
                            },
                            &mut b,
                        );
                        adelie_isa::encode_into(
                            &adelie_isa::Insn::JmpRel(
                                (plan.thunk_off as i64 - (stub_off as i64 + 12)) as i32,
                            ),
                            &mut b,
                        );
                        img[stub_off as usize..stub_off as usize + b.len()].copy_from_slice(&b);
                    } else {
                        // jmp *[rip+slot]
                        let mut b = Vec::with_capacity(6);
                        adelie_isa::encode_into(
                            &adelie_isa::Insn::JmpMem(adelie_isa::Mem::RipRel(
                                (slot_off as i64 - (stub_off as i64 + 6)) as i32,
                            )),
                            &mut b,
                        );
                        img[stub_off as usize..stub_off as usize + b.len()].copy_from_slice(&b);
                    }
                }
                if opts.retpoline {
                    // The retpoline thunk (JMP_NOSPEC %rax, §2.5): the
                    // architectural path overwrites the return address
                    // with %rax and returns — the speculation trap spins.
                    let mut t = Asm::new();
                    t.call_label("do");
                    t.label("trap");
                    t.insn(adelie_isa::Insn::Pause);
                    t.insn(adelie_isa::Insn::Lfence);
                    t.jmp_label("trap");
                    t.label("do");
                    t.mov_store(adelie_isa::Mem::base(Reg::Rsp), Reg::Rax);
                    t.ret();
                    let out = t.assemble().expect("thunk labels");
                    img[plan.thunk_off as usize..plan.thunk_off as usize + out.bytes.len()]
                        .copy_from_slice(&out.bytes);
                }
                stats.plt_stubs += plan.plt.len();
            }
            // GOT contents. Lazy slots start at their binder trampoline;
            // everything else resolves eagerly at load time.
            for (i, e) in plan.lgot.iter().enumerate() {
                let v = match e {
                    LocalGotEntry::Sym { offset, .. } => movable_base + offset,
                    LocalGotEntry::Key => key,
                    LocalGotEntry::Lazy { binder, .. } => *binder,
                };
                let off = plan.lgot_off as usize + i * 8;
                img[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            for (i, name) in plan.fgot.iter().enumerate() {
                let v = match lazy_fgot.get(&(plan.part, i)) {
                    Some(&binder) => binder,
                    None => resolve(name)?,
                };
                let off = plan.fgot_off as usize + i * 8;
                img[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            stats.local_got_entries += plan.lgot.len();
            stats.fixed_got_entries += plan.fgot.len();
            // Apply relocations.
            for d in &plan.decisions {
                let sec_off = plan.sec_off[&d.section];
                let p = (sec_off + d.reloc.offset as u64) as usize;
                let pva = base + p as u64;
                let field_i32 = |v: i64| -> Result<i32, LoadError> {
                    i32::try_from(v)
                        .map_err(|_| LoadError::FieldOverflow(d.reloc.symbol.to_string()))
                };
                match &d.action {
                    Action::PcRelDirect => {
                        let s = resolve(&d.reloc.symbol)?;
                        let v = field_i32(s as i64 + d.reloc.addend - pva as i64)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                    }
                    Action::PatchCallDirect | Action::PatchJmpDirect => {
                        let s = resolve(&d.reloc.symbol)?;
                        img[p - 2] = if matches!(d.action, Action::PatchCallDirect) {
                            0xE8
                        } else {
                            0xE9
                        };
                        // rel32 measured from the end of the 5-byte insn.
                        let v = field_i32(s as i64 - (pva as i64 + 3))?;
                        img[p - 1..p + 3].copy_from_slice(&v.to_le_bytes());
                        img[p + 3] = 0x90; // pad with nop (Fig. 4)
                        stats.patched_calls += 1;
                        stats.got_entries_eliminated += 1;
                    }
                    Action::PatchMovLea => {
                        let s = resolve(&d.reloc.symbol)?;
                        img[p - 2] = 0x8D; // mov → lea
                        let v = field_i32(s as i64 + d.reloc.addend - pva as i64)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                        stats.patched_movs += 1;
                        stats.got_entries_eliminated += 1;
                    }
                    Action::Got(got) => {
                        let slot_va = base + plan.slot_off(*got);
                        let v = field_i32(slot_va as i64 + d.reloc.addend - pva as i64)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                    }
                    Action::Plt(idx) => {
                        let stub_va = base + plan.plt_off + *idx as u64 * PLT_STUB_SIZE;
                        let v = field_i32(stub_va as i64 + d.reloc.addend - pva as i64)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                    }
                    Action::Abs64 => {
                        let s = resolve(&d.reloc.symbol)?;
                        let v = (s as i64 + d.reloc.addend) as u64;
                        img[p..p + 8].copy_from_slice(&v.to_le_bytes());
                        if let Some(place) = sym_place.get(&*d.reloc.symbol) {
                            if place.part == Part::Movable && rerand {
                                adjust.push(AdjustSlot {
                                    part: plan.part,
                                    slot_off: p as u64,
                                    target_off: place.off,
                                });
                            }
                        }
                    }
                    Action::Abs32 => {
                        let s = resolve(&d.reloc.symbol)?;
                        let v = field_i32(s as i64 + d.reloc.addend)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Ok(img)
        };

        let mov_img = build_image(&movable, movable_base, &mut stats, &mut adjust_slots)?;
        let imm_img = match immovable.as_ref() {
            Some(imm) => Some(build_image(
                imm,
                immovable_base.unwrap(),
                &mut stats,
                &mut adjust_slots,
            )?),
            None => None,
        };

        // ---- map into the address space ------------------------------
        // Both parts install as ONE vmem batch: a single page-table
        // lock acquisition and (being map-only) no shootdown at all —
        // so a module (including a fleet fault-in or shard rebuild)
        // appears in its shard atomically.
        let mut install = Batch::new();
        let stage_part = |plan: &PartPlan, base: u64, img: &[u8], install: &mut Batch| {
            let frames = self.kernel.phys.alloc_n(plan.total_pages);
            for (i, &pfn) in frames.iter().enumerate() {
                self.kernel
                    .phys
                    .write(pfn, 0, &img[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]);
            }
            for g in &plan.groups {
                install.map_range(
                    base + (g.page_start * PAGE_SIZE) as u64,
                    &frames[g.page_start..g.page_start + g.pages],
                    g.flags,
                );
            }
            // Any pages not covered by a group (alignment tail) stay
            // unmapped — they contain nothing.
            PartImage {
                base,
                total_pages: plan.total_pages,
                frames,
                groups: plan.groups.clone(),
                lgot_off: plan.lgot_off,
                lgot_slots: plan.lgot.len(),
                fgot_off: plan.fgot_off,
                fgot_slots: plan.fgot.len(),
                fgot_names: plan.fgot.clone(),
                plt_off: plan.plt_off,
                plt_stubs: plan.plt.len(),
            }
        };
        let movable_img = stage_part(&movable, movable_base, &mov_img, &mut install);
        let immovable_img = immovable.as_ref().map(|imm| {
            stage_part(
                imm,
                immovable_base.unwrap(),
                imm_img.as_ref().unwrap(),
                &mut install,
            )
        });
        self.kernel
            .space
            .apply(install)
            .expect("module range collision");
        // Both parts are mapped: the page tables exclude the ranges from
        // future picks, so the reservations can be released.
        drop(_mov_reservation);
        drop(_imm_reservation);

        stats.mapped_bytes = (movable_img.total_pages
            + immovable_img.as_ref().map(|i| i.total_pages).unwrap_or(0))
            * PAGE_SIZE;
        stats.got_plt_bytes = (stats.local_got_entries + stats.fixed_got_entries) * 8
            + stats.plt_stubs * PLT_STUB_SIZE as usize;

        // ---- bookkeeping ---------------------------------------------
        let mut movable_syms = HashMap::new();
        let mut immovable_syms = HashMap::new();
        for (name, place) in &sym_place {
            match place.part {
                Part::Movable if rerand => {
                    movable_syms.insert(name.clone(), place.off);
                }
                Part::Movable => {
                    // Non-re-randomizable: module never moves; treat all
                    // symbols as absolute.
                    immovable_syms.insert(name.clone(), movable_base + place.off);
                }
                Part::Immovable => {
                    immovable_syms.insert(name.clone(), immovable_base.unwrap() + place.off);
                }
            }
        }
        let resolve_export = |name: &str| -> Result<u64, LoadError> {
            immovable_syms
                .get(name)
                .copied()
                .or_else(|| movable_syms.get(name).map(|off| movable_base + off))
                .ok_or_else(|| LoadError::MissingEntry(name.to_string()))
        };
        let mut exports = Vec::new();
        for e in &obj.exports {
            let va = resolve_export(e)?;
            exports.push((e.clone(), va));
        }
        let entry = |name: &Option<String>| -> Result<Option<u64>, LoadError> {
            name.as_ref().map(|n| resolve_export(n)).transpose()
        };
        let init_va = entry(&obj.init)?;
        let exit_va = entry(&obj.exit)?;
        let update_pointers_va = entry(&obj.update_pointers)?;

        let movable_lgot_frames: Vec<_> = {
            let pages = movable_img.lgot_pages();
            let start = (movable_img.lgot_off / PAGE_SIZE as u64) as usize;
            movable_img.frames[start..start + pages].to_vec()
        };
        let immovable_lgot_frames: Vec<_> = immovable_img
            .as_ref()
            .map(|img| {
                let pages = img.lgot_pages();
                let start = (img.lgot_off / PAGE_SIZE as u64) as usize;
                img.frames[start..start + pages].to_vec()
            })
            .unwrap_or_default();

        let module = Arc::new(LoadedModule {
            name: obj.name.as_str().into(),
            rerandomizable: rerand,
            movable_base: AtomicU64::new(movable_base),
            generation: AtomicU64::new(0),
            current_key: AtomicU64::new(key),
            movable: movable_img,
            immovable: immovable_img,
            movable_syms,
            immovable_syms,
            lgot_movable: movable.lgot,
            lgot_immovable: immovable.map(|p| p.lgot).unwrap_or_default(),
            movable_lgot_frames: Mutex::new(movable_lgot_frames),
            immovable_lgot_frames: Mutex::new(immovable_lgot_frames),
            adjust_slots,
            init_va,
            exit_va,
            update_pointers_va,
            pointer_refresh_failures: AtomicU64::new(0),
            lazy_plt: lazy_slots,
            plt_bind_lock: Mutex::new(()),
            plt_binds: AtomicU64::new(0),
            plt_reswings: AtomicU64::new(0),
            exports,
            stats,
            move_lock: Mutex::new(()),
        });
        // Arm the binders: they can now upgrade to the live module. The
        // load can no longer fail, so the cleanup guard stands down (the
        // binders are unregistered at unload instead).
        let _ = module_cell.set(Arc::downgrade(&module));
        binder_guard.armed = false;
        // Publish exports in kallsyms so other modules can import them.
        for (name, va) in &module.exports {
            self.kernel.symbols.define(name, *va);
        }
        self.kernel.printk.log(format!(
            "module {}: loaded ({} bytes mapped, {} local / {} fixed GOT entries, {} PLT stubs, {} patches)",
            module.name,
            module.stats.mapped_bytes,
            module.stats.local_got_entries,
            module.stats.fixed_got_entries,
            module.stats.plt_stubs,
            module.stats.patched_calls + module.stats.patched_movs,
        ));
        Ok(module)
    }

    /// Reserve a random, free, page-aligned range anywhere in the 57-bit
    /// arena — the 64-bit KASLR placement.
    fn reserve(&self, pages: usize) -> Result<VaReservation, LoadError> {
        self.va
            .reserve(self.kernel, pages)
            .ok_or(LoadError::NoSpace)
    }
}
