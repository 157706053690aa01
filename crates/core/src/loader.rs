//! The PIC module loader.
//!
//! Keeps the relocatable format and finalizes everything at load time
//! (paper §4.1), in two steps: a base-independent [`LinkPlan`] per
//! object, and one instantiation per load at the chosen bases. It
//! builds the four GOTs (movable/immovable × local/fixed), emits
//! retpoline-safe PLT stubs when the mitigation is on, applies the
//! Fig. 4 run-time patches (`call *foo@GOTPCREL(%rip)` → `call foo;
//! nop` and `mov foo@GOTPCREL(%rip),%r` → `lea foo(%rip),%r` for
//! same-part symbols), seals GOT pages read-only, and registers exports
//! with the kernel symbol table. The legacy (non-PIC) mode reproduces vanilla
//! Linux: absolute relocations, single region in the 2 GiB window.

use crate::module::{
    AdjustSlot, LazyPltSlot, LoadStats, LoadedModule, LocalGotEntry, PageGroup, Part, PartImage,
};
use adelie_isa::{Asm, Reg};
use adelie_kernel::{layout, Kernel, VmError};
use adelie_obj::{ObjectFile, Reloc, RelocKind, SectionKind, SymbolDef};
use adelie_plugin::{CodeModel, TransformOptions, KEY_SYMBOL};
use adelie_vmem::{Batch, Pfn, PteFlags, PAGE_SIZE};
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
    /// A relocation field lies outside its section's file-backed bytes
    /// (`.bss` has none) or overlaps another relocation's write.
    BadRelocField(String),
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
            LoadError::BadRelocField(s) => write!(f, "bad relocation field: {s}"),
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

/// What a base-dependent value points at.
#[derive(Copy, Clone, Debug)]
enum Target {
    /// A module symbol: its part and its offset from that part's base.
    Local(Part, u64),
    /// A kernel symbol, by index into [`LinkPlan::imports`].
    Import(usize),
}

/// How a base-dependent relocation is written.
#[derive(Copy, Clone, Debug)]
enum FixupKind {
    /// `S + A` into 64 bits.
    Abs64,
    /// `S + A` into a sign-extended 32-bit field (legacy only).
    Abs32,
    /// `S + A - P` into 32 bits, `S` in another part or the kernel.
    PcRel32,
}

/// A relocation whose value depends on where the instance lands,
/// applied by [`LinkPlan::instantiate`].
#[derive(Clone, Debug)]
struct Fixup {
    /// Byte offset of the field within its part.
    at: usize,
    kind: FixupKind,
    target: Target,
    addend: i64,
    /// The relocation's symbol (diagnostics).
    symbol: Arc<str>,
}

/// What an instance writes into one fixed-GOT slot.
#[derive(Copy, Clone, Debug)]
enum FixedSlot {
    /// The resolved address (eager binding).
    Resolved(Target),
    /// The binder trampoline of lazy slot `n` (lazy binding).
    Binder(usize),
}

/// One part of a [`LinkPlan`]: its layout and the bytes every instance
/// starts from.
#[derive(Debug)]
struct PartTemplate {
    part: Part,
    total_pages: usize,
    groups: Vec<PageGroup>,
    /// The image's non-zero pages before the GOTs — sections with
    /// every base-independent relocation and Fig. 4 patch applied, PLT
    /// stubs and the retpoline thunk — as `(page index, bytes up to the
    /// page's last non-zero byte)`.
    pages: Vec<(usize, Vec<u8>)>,
    /// Local GOT layout; lazy slots carry their binder index and a zero
    /// binder address.
    lgot_off: u64,
    lgot: Vec<LocalGotEntry>,
    fgot_off: u64,
    fgot: Vec<FixedSlot>,
    fgot_names: Vec<Arc<str>>,
    plt_off: u64,
    plt_stubs: usize,
    fixups: Vec<Fixup>,
}

/// A lazily-bound PLT slot of the plan (see [`LazyPltSlot`]).
#[derive(Debug)]
struct LazyTemplate {
    symbol: Arc<str>,
    part: Part,
    local: bool,
    idx: usize,
    target_off: Option<u64>,
    binder_name: String,
}

/// Where one instance of a [`LinkPlan`] lives: its part bases and the
/// return-address encryption key its key slot starts with.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Bases {
    /// Base of the movable (or only) part.
    pub movable: u64,
    /// Base of the immovable part; `Some` exactly when the plan has one.
    pub immovable: Option<u64>,
    /// Initial key.
    pub key: u64,
}

/// A module linked once, ready to be instantiated at any bases.
///
/// The movable part is position-independent, so everything the loader
/// decides about an object except its bases is the same for every
/// load: section layout, GOT and PLT slots, the patched bytes of every
/// same-part reference, adjustable data slots, exports and statistics.
/// [`LinkPlan::new`] computes all of that once (and rejects malformed
/// objects before anything is allocated); [`LinkPlan::instantiate`]
/// copies the template, writes the GOTs and the few base-relative
/// fixups, stages frames and maps the result (DESIGN.md §17.6).
#[derive(Debug)]
pub struct LinkPlan {
    name: Arc<str>,
    model: CodeModel,
    rerandomizable: bool,
    movable: PartTemplate,
    immovable: Option<PartTemplate>,
    /// Kernel symbols the instance resolves, in first-reference order.
    imports: Vec<Arc<str>>,
    lazy: Vec<LazyTemplate>,
    syms: Vec<(Arc<str>, SymPlace)>,
    adjust_slots: Vec<AdjustSlot>,
    exports: Vec<(String, SymPlace)>,
    init: Option<SymPlace>,
    exit: Option<SymPlace>,
    update_pointers: Option<SymPlace>,
    stats: LoadStats,
}

impl LinkPlan {
    /// Link `obj` under the given options (the same options that drove
    /// the plugin transformation): pure and base-independent.
    ///
    /// # Errors
    ///
    /// Every [`LoadError`] an object alone can cause: `TooLarge`,
    /// `CrossPartPcRel`, `UnexpectedReloc`, `FieldOverflow` for a
    /// same-part reference and `MissingEntry`. `Unresolved` and
    /// `NoSpace` depend on the kernel and come from instantiation.
    pub fn new(obj: &ObjectFile, opts: &TransformOptions) -> Result<LinkPlan, LoadError> {
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
        // don't know yet — so scan relocs first (they only need *code*
        // bytes for patch detection and symbol *identity*, not final
        // offsets).

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
                // The byte range each relocation writes: its field, and
                // for a patched site the two opcode bytes before it.
                let mut writes = Vec::with_capacity(s.relocs.len());
                for r in &s.relocs {
                    let width = if matches!(r.kind, RelocKind::Abs64) {
                        8
                    } else {
                        4
                    };
                    if r.offset
                        .checked_add(width)
                        .is_none_or(|end| end > s.bytes.len())
                    {
                        return Err(LoadError::BadRelocField(format!(
                            "`{}` at {sec}+{:#x} (+{width}) outside its {} file-backed bytes",
                            r.symbol,
                            r.offset,
                            s.bytes.len()
                        )));
                    }
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
                    let patched = matches!(
                        action,
                        Action::PatchCallDirect | Action::PatchJmpDirect | Action::PatchMovLea
                    );
                    writes.push((r.offset - if patched { 2 } else { 0 }, r.offset + width));
                    plan.decisions.push(Decision {
                        section: sec,
                        reloc: r.clone(),
                        action,
                    });
                }
                // No two writes may overlap: a template write and an
                // instance's fixup are applied at different times, so
                // an overlap would have no single last writer.
                writes.sort_unstable();
                if let Some(w) = writes.windows(2).find(|w| w[1].0 < w[0].1) {
                    return Err(LoadError::BadRelocField(format!(
                        "{sec}+{:#x}..{:#x} overlaps {sec}+{:#x}..{:#x}",
                        w[1].0, w[1].1, w[0].0, w[0].1
                    )));
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
            (plan.total_pages as u64)
                .checked_mul(PAGE_SIZE as u64)
                .filter(|&b| b < layout::MODULE_CEILING)
                .ok_or_else(|| {
                    LoadError::TooLarge(format!(
                        "part needs {} pages, beyond the module arena",
                        plan.total_pages
                    ))
                })?;
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

        // ---- lazy PLT slots -----------------------------------------
        // Each lazy slot gets a per-slot binder trampoline when an
        // instance is created; the plan fixes the slots' order and
        // names, and marks the GOT slots that start at a binder.
        let mut lazy: Vec<LazyTemplate> = Vec::new();
        for plan in std::iter::once(&movable).chain(immovable.as_ref()) {
            for ls in &plan.lazy {
                let target_off = ls.movable_target.then(|| {
                    sym_place
                        .get(&*ls.symbol)
                        .expect("movable lazy target must be placed")
                        .off
                });
                lazy.push(LazyTemplate {
                    binder_name: format!("__plt_bind__{}__{}__{}", obj.name, lazy.len(), ls.symbol),
                    symbol: ls.symbol.clone(),
                    part: plan.part,
                    local: ls.got.local,
                    idx: ls.got.idx,
                    target_off,
                });
            }
        }
        for (i, slot) in lazy.iter().enumerate().filter(|(_, s)| s.local) {
            let plan = match slot.part {
                Part::Movable => &mut movable,
                Part::Immovable => immovable.as_mut().expect("lazy slot in missing part"),
            };
            plan.lgot[slot.idx] = LocalGotEntry::Lazy {
                lazy_idx: i,
                binder: 0,
            };
        }

        // ---- templates ----------------------------------------------
        let mut imports: Vec<Arc<str>> = Vec::new();
        let mut import_index: HashMap<Arc<str>, usize> = HashMap::new();
        let mut target = |name: &Arc<str>| match sym_place.get(&**name) {
            Some(p) => Target::Local(p.part, p.off),
            None => Target::Import(*import_index.entry(name.clone()).or_insert_with(|| {
                imports.push(name.clone());
                imports.len() - 1
            })),
        };
        let mut stats = LoadStats {
            payload_bytes: obj.payload_size(),
            ..LoadStats::default()
        };
        let mut adjust_slots = Vec::new();
        let mut templates = Vec::with_capacity(2);
        for plan in std::iter::once(&movable).chain(immovable.as_ref()) {
            let fgot = plan
                .fgot
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    match lazy
                        .iter()
                        .position(|s| !s.local && s.part == plan.part && s.idx == i)
                    {
                        Some(n) => FixedSlot::Binder(n),
                        None => FixedSlot::Resolved(target(name)),
                    }
                })
                .collect();
            // Only file-backed bytes and PLT code are non-zero before
            // the GOTs: size the template by them, not by `.bss`.
            let sections_end = plan
                .sec_off
                .iter()
                .filter_map(|(&sec, &off)| Some(off as usize + obj.section(sec)?.bytes.len()))
                .max()
                .unwrap_or(0);
            let plt_end = match (plan.plt.is_empty(), opts.retpoline) {
                (true, _) => 0,
                (false, true) => plan.thunk_off as usize + 32,
                (false, false) => (plan.plt_off + plan.plt.len() as u64 * PLT_STUB_SIZE) as usize,
            };
            let mut img = vec![0u8; sections_end.max(plt_end)];
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
                    let mut b = Vec::with_capacity(12);
                    if opts.retpoline {
                        // mov rax, [rip+slot] ; jmp thunk
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
                    } else {
                        // jmp *[rip+slot]
                        adelie_isa::encode_into(
                            &adelie_isa::Insn::JmpMem(adelie_isa::Mem::RipRel(
                                (slot_off as i64 - (stub_off as i64 + 6)) as i32,
                            )),
                            &mut b,
                        );
                    }
                    img[stub_off as usize..stub_off as usize + b.len()].copy_from_slice(&b);
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
            stats.local_got_entries += plan.lgot.len();
            stats.fixed_got_entries += plan.fgot.len();
            // Relocations. A same-part reference is `S - P` between two
            // offsets of one part, whatever its base: patched here once.
            // Everything else becomes a fixup.
            let mut fixups = Vec::new();
            for d in &plan.decisions {
                let p = (plan.sec_off[&d.section] + d.reloc.offset as u64) as usize;
                let field_i32 = |v: i64| -> Result<i32, LoadError> {
                    i32::try_from(v)
                        .map_err(|_| LoadError::FieldOverflow(d.reloc.symbol.to_string()))
                };
                let same_part_off = || match sym_place.get(&*d.reloc.symbol) {
                    Some(place) if place.part == plan.part => Some(place.off as i64),
                    _ => None,
                };
                let mut fixup = |kind| Fixup {
                    at: p,
                    kind,
                    target: target(&d.reloc.symbol),
                    addend: d.reloc.addend,
                    symbol: d.reloc.symbol.clone(),
                };
                match &d.action {
                    Action::PcRelDirect => match same_part_off() {
                        Some(s) => {
                            let v = field_i32(s + d.reloc.addend - p as i64)?;
                            img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                        }
                        None => fixups.push(fixup(FixupKind::PcRel32)),
                    },
                    Action::PatchCallDirect | Action::PatchJmpDirect => {
                        let s = same_part_off().expect("patched sites are same-part");
                        img[p - 2] = if matches!(d.action, Action::PatchCallDirect) {
                            0xE8
                        } else {
                            0xE9
                        };
                        // rel32 measured from the end of the 5-byte insn.
                        let v = field_i32(s - (p as i64 + 3))?;
                        img[p - 1..p + 3].copy_from_slice(&v.to_le_bytes());
                        img[p + 3] = 0x90; // pad with nop (Fig. 4)
                        stats.patched_calls += 1;
                        stats.got_entries_eliminated += 1;
                    }
                    Action::PatchMovLea => {
                        let s = same_part_off().expect("patched sites are same-part");
                        img[p - 2] = 0x8D; // mov → lea
                        let v = field_i32(s + d.reloc.addend - p as i64)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                        stats.patched_movs += 1;
                        stats.got_entries_eliminated += 1;
                    }
                    Action::Got(got) => {
                        let v = field_i32(plan.slot_off(*got) as i64 + d.reloc.addend - p as i64)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                    }
                    Action::Plt(idx) => {
                        let stub = plan.plt_off + *idx as u64 * PLT_STUB_SIZE;
                        let v = field_i32(stub as i64 + d.reloc.addend - p as i64)?;
                        img[p..p + 4].copy_from_slice(&v.to_le_bytes());
                    }
                    Action::Abs64 => {
                        fixups.push(fixup(FixupKind::Abs64));
                        if let Some(place) = sym_place.get(&*d.reloc.symbol) {
                            if place.part == Part::Movable && rerand {
                                adjust_slots.push(AdjustSlot {
                                    part: plan.part,
                                    slot_off: p as u64,
                                    target_off: place.off,
                                });
                            }
                        }
                    }
                    Action::Abs32 => fixups.push(fixup(FixupKind::Abs32)),
                }
            }
            let pages = img
                .chunks(PAGE_SIZE)
                .enumerate()
                .filter_map(|(i, page)| {
                    let len = page.iter().rposition(|&b| b != 0)? + 1;
                    Some((i, page[..len].to_vec()))
                })
                .collect();
            templates.push(PartTemplate {
                part: plan.part,
                total_pages: plan.total_pages,
                groups: plan.groups.clone(),
                pages,
                lgot_off: plan.lgot_off,
                lgot: plan.lgot.clone(),
                fgot_off: plan.fgot_off,
                fgot,
                fgot_names: plan.fgot.clone(),
                plt_off: plan.plt_off,
                plt_stubs: plan.plt.len(),
                fixups,
            });
        }
        let total_pages = movable.total_pages + immovable.as_ref().map_or(0, |i| i.total_pages);
        stats.mapped_bytes = total_pages * PAGE_SIZE;
        stats.got_plt_bytes = (stats.local_got_entries + stats.fixed_got_entries) * 8
            + stats.plt_stubs * PLT_STUB_SIZE as usize;

        // ---- exports and entry points --------------------------------
        let entry = |name: &str| -> Result<SymPlace, LoadError> {
            sym_place
                .get(name)
                .copied()
                .ok_or_else(|| LoadError::MissingEntry(name.to_string()))
        };
        let exports = obj
            .exports
            .iter()
            .map(|e| Ok((e.clone(), entry(e)?)))
            .collect::<Result<_, LoadError>>()?;
        let init = obj.init.as_deref().map(entry).transpose()?;
        let exit = obj.exit.as_deref().map(entry).transpose()?;
        let update_pointers = obj.update_pointers.as_deref().map(entry).transpose()?;

        let mut templates = templates.into_iter();
        Ok(LinkPlan {
            name: obj.name.as_str().into(),
            model: opts.model,
            rerandomizable: rerand,
            movable: templates.next().expect("a movable part"),
            immovable: templates.next(),
            imports,
            lazy,
            syms: sym_place.into_iter().collect(),
            adjust_slots,
            exports,
            init,
            exit,
            update_pointers,
            stats,
        })
    }

    /// The code model the plan was linked for.
    pub(crate) fn model(&self) -> CodeModel {
        self.model
    }

    /// Pages of the movable part and, when the plan has one, of the
    /// immovable part — what placement must reserve.
    pub(crate) fn part_pages(&self) -> (usize, Option<usize>) {
        (
            self.movable.total_pages,
            self.immovable.as_ref().map(|p| p.total_pages),
        )
    }

    /// The addresses of the plan's kernel imports in `kernel`, in
    /// [`LinkPlan::instantiate`]'s order.
    ///
    /// # Errors
    ///
    /// [`LoadError::Unresolved`] naming the first import `kernel` lacks.
    pub fn resolve_imports(&self, kernel: &Kernel) -> Result<Vec<u64>, LoadError> {
        self.imports
            .iter()
            .map(|name| {
                kernel
                    .symbols
                    .lookup(name)
                    .ok_or_else(|| LoadError::Unresolved(name.to_string()))
            })
            .collect()
    }

    /// The load statistics every instance reports.
    pub fn stats(&self) -> &LoadStats {
        &self.stats
    }

    /// Create one instance at `bases`: register its lazy-PLT binders,
    /// copy the template, write the GOTs and the fixups, stage one
    /// frame per page and map both parts as one vmem batch, then
    /// publish the exports. `imports` are the plan's kernel imports as
    /// [`LinkPlan::resolve_imports`] found them in `kernel`. The caller
    /// picked the bases and keeps other placements out of them until
    /// this returns (see [`crate::ModuleRegistry::load_plan`]); the
    /// module is not registered anywhere and its init has not run.
    ///
    /// # Errors
    ///
    /// [`LoadError::FieldOverflow`] for a fixup the bases push out of
    /// range; it leaves no frame allocated and no mapping behind.
    ///
    /// # Panics
    ///
    /// If `bases.immovable` does not match the plan's parts, or if the
    /// ranges are already mapped.
    pub fn instantiate(
        &self,
        kernel: &Arc<Kernel>,
        bases: Bases,
        imports: &[u64],
    ) -> Result<Arc<LoadedModule>, LoadError> {
        assert_eq!(
            bases.immovable.is_some(),
            self.immovable.is_some(),
            "bases must name exactly the plan's parts"
        );
        // ---- lazy PLT binders ---------------------------------------
        // The binder holds a Weak to the module (filled in after
        // construction): on the first call through the stub it binds
        // the slot, then forwards the call with the caller's argument
        // registers intact. Registered before the images are built so
        // the GOTs can start at the binder addresses; torn down by the
        // guard if a later step fails, and at unload.
        let module_cell: Arc<OnceLock<Weak<LoadedModule>>> = Arc::new(OnceLock::new());
        let mut binder_guard = BinderGuard {
            kernel,
            names: Vec::new(),
            armed: true,
        };
        let mut lazy_slots: Vec<LazyPltSlot> = Vec::with_capacity(self.lazy.len());
        for (i, slot) in self.lazy.iter().enumerate() {
            let cell = module_cell.clone();
            let va = kernel
                .symbols
                .register_native(&slot.binder_name, move |vm| {
                    let m = cell.get().and_then(Weak::upgrade).ok_or_else(|| {
                        VmError::Native("lazy PLT binder called on unloaded module".into())
                    })?;
                    let target = m.bind_plt_slot(vm.kernel, i).map_err(VmError::Native)?;
                    vm.forward_call(target)
                });
            binder_guard.names.push(slot.binder_name.clone());
            lazy_slots.push(LazyPltSlot {
                symbol: slot.symbol.clone(),
                part: slot.part,
                local: slot.local,
                idx: slot.idx,
                binder_va: va,
                binder_name: slot.binder_name.clone(),
                target_off: slot.target_off,
                bound: AtomicU64::new(0),
            });
        }
        let base_of = |part: Part| match part {
            Part::Movable => bases.movable,
            Part::Immovable => bases.immovable.expect("immovable symbol without part"),
        };
        let resolve = |t: Target| match t {
            Target::Local(part, off) => base_of(part) + off,
            Target::Import(i) => imports[i],
        };

        // ---- images ---------------------------------------------------
        let lgot_of = |tpl: &PartTemplate| -> Vec<LocalGotEntry> {
            tpl.lgot
                .iter()
                .map(|e| match e {
                    LocalGotEntry::Lazy { lazy_idx, .. } => LocalGotEntry::Lazy {
                        lazy_idx: *lazy_idx,
                        binder: lazy_slots[*lazy_idx].binder_va,
                    },
                    e => e.clone(),
                })
                .collect()
        };
        // What an instance writes over its template: the GOTs and the
        // fixups, as `(offset in part, little-endian bytes, length)`,
        // computed before any frame is allocated (a fixup can still
        // overflow its field).
        let writes_of = |tpl: &PartTemplate,
                         lgot: &[LocalGotEntry]|
         -> Result<Vec<(usize, [u8; 8], usize)>, LoadError> {
            let base = base_of(tpl.part);
            let mut writes = Vec::with_capacity(lgot.len() + tpl.fgot.len() + tpl.fixups.len());
            // GOT contents. Lazy slots start at their binder trampoline;
            // everything else resolves eagerly at load time.
            for (i, e) in lgot.iter().enumerate() {
                let v = match e {
                    LocalGotEntry::Sym { offset, .. } => bases.movable + offset,
                    LocalGotEntry::Key => bases.key,
                    LocalGotEntry::Lazy { binder, .. } => *binder,
                };
                writes.push((tpl.lgot_off as usize + i * 8, v.to_le_bytes(), 8));
            }
            for (i, slot) in tpl.fgot.iter().enumerate() {
                let v = match *slot {
                    FixedSlot::Binder(n) => lazy_slots[n].binder_va,
                    FixedSlot::Resolved(t) => resolve(t),
                };
                writes.push((tpl.fgot_off as usize + i * 8, v.to_le_bytes(), 8));
            }
            for f in &tpl.fixups {
                let s = resolve(f.target) as i64;
                let field_i32 = |v: i64| -> Result<[u8; 8], LoadError> {
                    let v = i32::try_from(v)
                        .map_err(|_| LoadError::FieldOverflow(f.symbol.to_string()))?;
                    Ok((v as u32 as u64).to_le_bytes())
                };
                writes.push(match f.kind {
                    FixupKind::Abs64 => (f.at, ((s + f.addend) as u64).to_le_bytes(), 8),
                    FixupKind::Abs32 => (f.at, field_i32(s + f.addend)?, 4),
                    FixupKind::PcRel32 => (
                        f.at,
                        field_i32(s + f.addend - (base + f.at as u64) as i64)?,
                        4,
                    ),
                });
            }
            // Never overlapping: GOT slots sit on pages of their own,
            // and `LinkPlan::new` rejects overlapping relocation fields.
            writes.sort_unstable_by_key(|w| w.0);
            debug_assert!(writes.windows(2).all(|w| w[0].0 + w[0].2 <= w[1].0));
            Ok(writes)
        };
        let mov_lgot = lgot_of(&self.movable);
        let imm_lgot = self.immovable.as_ref().map(lgot_of).unwrap_or_default();
        let mov_writes = writes_of(&self.movable, &mov_lgot)?;
        let imm_writes = match &self.immovable {
            Some(tpl) => Some(writes_of(tpl, &imm_lgot)?),
            None => None,
        };

        // ---- map into the address space ------------------------------
        // Both parts install as ONE vmem batch: a single page-table
        // transaction and (being map-only) no shootdown at all — so a
        // module (including a fleet fault-in or shard rebuild) appears
        // in its shard atomically. Each frame is allocated already
        // holding its page: the template's bytes and the writes landing
        // there, assembled only up to the page's last written byte (the
        // frame zero-fills the rest).
        let mut install = Batch::new();
        let mut page = Vec::with_capacity(PAGE_SIZE);
        let mut stage_part = |tpl: &PartTemplate,
                              writes: &[(usize, [u8; 8], usize)],
                              install: &mut Batch| {
            let base = base_of(tpl.part);
            let mut template = tpl.pages.iter().peekable();
            let mut next_write = 0;
            let frames: Vec<Pfn> = (0..tpl.total_pages)
                .map(|i| {
                    let (lo, hi) = (i * PAGE_SIZE, (i + 1) * PAGE_SIZE);
                    page.clear();
                    if let Some((_, bytes)) = template.next_if(|(p, _)| *p == i) {
                        page.extend_from_slice(bytes);
                    }
                    // Writes are sorted by offset; one may straddle into
                    // the next page, so the cursor only passes writes
                    // that end here.
                    while writes.get(next_write).is_some_and(|w| w.0 + w.2 <= lo) {
                        next_write += 1;
                    }
                    for &(at, bytes, len) in writes[next_write..].iter().take_while(|w| w.0 < hi) {
                        let (from, to) = (at.max(lo), (at + len).min(hi));
                        if page.len() < to - lo {
                            page.resize(to - lo, 0);
                        }
                        page[from - lo..to - lo].copy_from_slice(&bytes[from - at..to - at]);
                    }
                    kernel.phys.alloc_filled(&page)
                })
                .collect();
            for g in &tpl.groups {
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
                total_pages: tpl.total_pages,
                frames,
                groups: tpl.groups.clone(),
                lgot_off: tpl.lgot_off,
                lgot_slots: tpl.lgot.len(),
                fgot_off: tpl.fgot_off,
                fgot_slots: tpl.fgot.len(),
                fgot_names: tpl.fgot_names.clone(),
                plt_off: tpl.plt_off,
                plt_stubs: tpl.plt_stubs,
            }
        };
        let movable_img = stage_part(&self.movable, &mov_writes, &mut install);
        let immovable_img = self
            .immovable
            .as_ref()
            .zip(imm_writes.as_deref())
            .map(|(tpl, writes)| stage_part(tpl, writes, &mut install));
        kernel
            .space
            .apply(&install)
            .expect("module range collision");

        // ---- bookkeeping ---------------------------------------------
        let mut movable_syms = HashMap::new();
        let mut immovable_syms = HashMap::new();
        for (name, place) in &self.syms {
            match place.part {
                Part::Movable if self.rerandomizable => {
                    movable_syms.insert(name.clone(), place.off);
                }
                // Non-re-randomizable: the module never moves, so every
                // symbol is absolute.
                part => {
                    immovable_syms.insert(name.clone(), base_of(part) + place.off);
                }
            }
        }
        let va_of = |p: &SymPlace| base_of(p.part) + p.off;
        let lgot_frames = |img: &PartImage| {
            let start = (img.lgot_off / PAGE_SIZE as u64) as usize;
            img.frames[start..start + img.lgot_pages()].to_vec()
        };
        let movable_lgot_frames = lgot_frames(&movable_img);
        let immovable_lgot_frames = immovable_img.as_ref().map(lgot_frames).unwrap_or_default();
        let module = Arc::new(LoadedModule {
            name: self.name.clone(),
            rerandomizable: self.rerandomizable,
            movable_base: AtomicU64::new(bases.movable),
            generation: AtomicU64::new(0),
            current_key: AtomicU64::new(bases.key),
            movable: movable_img,
            immovable: immovable_img,
            movable_syms,
            immovable_syms,
            lgot_movable: mov_lgot,
            lgot_immovable: imm_lgot,
            movable_lgot_frames: Mutex::new(movable_lgot_frames),
            immovable_lgot_frames: Mutex::new(immovable_lgot_frames),
            adjust_slots: self.adjust_slots.clone(),
            init_va: self.init.as_ref().map(va_of),
            exit_va: self.exit.as_ref().map(va_of),
            update_pointers_va: self.update_pointers.as_ref().map(va_of),
            pointer_refresh_failures: AtomicU64::new(0),
            lazy_plt: lazy_slots,
            plt_bind_lock: Mutex::new(()),
            plt_binds: AtomicU64::new(0),
            plt_reswings: AtomicU64::new(0),
            exports: self
                .exports
                .iter()
                .map(|(name, p)| (name.clone(), va_of(p)))
                .collect(),
            stats: self.stats,
            move_lock: Mutex::new(()),
        });
        // Arm the binders: they can now upgrade to the live module. The
        // instance can no longer fail, so the cleanup guard stands down
        // (the binders are unregistered at unload instead).
        let _ = module_cell.set(Arc::downgrade(&module));
        binder_guard.armed = false;
        // Publish exports in kallsyms so other modules can import them.
        for (name, va) in &module.exports {
            kernel.symbols.define(name, *va);
        }
        kernel.printk.log(format!(
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
}
