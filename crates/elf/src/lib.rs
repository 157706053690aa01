//! # adelie-elf — real ELF64 relocatable-object ingestion
//!
//! Adelie modules are "relocatable kernel modules adapted for PIC"
//! (paper §4.1): on a real system they arrive as ELF64 `ET_REL` files
//! produced by the GCC plugin, and the loader finalizes their
//! relocations. This crate closes that gap for the simulated stack with
//! **zero external dependencies** (no `object`, no `goblin`, no
//! toolchain at test time):
//!
//! * [`emit`] serializes an [`adelie_obj::ObjectFile`] — the in-memory
//!   object the [`ObjectBuilder`](adelie_obj::ObjectBuilder)/`Asm`
//!   pipeline produces — into a spec-shaped ELF64 relocatable object
//!   (section headers, `.symtab`/`.strtab`/`.shstrtab`, RELA records),
//!   so fixtures are synthesized offline, in-process.
//! * [`parse`] ingests such an object (or any well-formed ELF64
//!   `ET_REL` for x86-64 using the supported relocation kinds) back
//!   into an [`ObjectFile`](adelie_obj::ObjectFile), which then flows
//!   through the loader (`LinkPlan::new`), re-randomization, fleet
//!   fault-in and recovery, and the gadget scanner unchanged.
//!
//! ## Mapping
//!
//! | ELF                      | adelie                              |
//! |--------------------------|-------------------------------------|
//! | `R_X86_64_64` (1)        | [`RelocKind::Abs64`]                |
//! | `R_X86_64_PC32` (2)      | [`RelocKind::Pc32`]                 |
//! | `R_X86_64_PLT32` (4)     | [`RelocKind::Plt32`]                |
//! | `R_X86_64_GOTPCREL` (9)  | [`RelocKind::GotPcRel`]             |
//! | `R_X86_64_32S` (11)      | [`RelocKind::Abs32S`]               |
//! | `.fixed.text` (by name)  | [`SectionKind::FixedText`]          |
//! | `SHT_NOBITS` + alloc     | [`SectionKind::Bss`]                |
//! | `SHF_EXECINSTR`          | [`SectionKind::Text`]               |
//! | `SHF_WRITE`              | [`SectionKind::Data`]               |
//! | alloc, read-only         | [`SectionKind::Rodata`]             |
//!
//! Module metadata that has no ELF-native home (module name, init/exit
//! entry points, `update_pointers`, the export list) rides in a
//! non-alloc `.adelie.modinfo` section of `key=value\0` strings —
//! the same trick Linux's `.modinfo` uses — so a parse of an emitted
//! object reconstructs the [`ObjectFile`](adelie_obj::ObjectFile) losslessly.
//!
//! ## Robustness
//!
//! [`parse`] never panics on malformed input: every offset, size, and
//! index is bounds-checked with overflow-checked arithmetic, and every
//! failure is a typed [`ElfError`]. The property suite feeds it
//! truncated headers, out-of-range section offsets, and bogus
//! relocation symbols.
//!
//! # Example
//!
//! ```
//! use adelie_isa::Asm;
//! use adelie_obj::{Binding, ObjectBuilder, SectionKind};
//!
//! let mut b = ObjectBuilder::new("demo");
//! let mut f = Asm::new();
//! f.call_plt("kmalloc");
//! f.ret();
//! b.add_function("demo_init", &f, SectionKind::Text, Binding::Global)?;
//! b.export("demo_init");
//! let obj = b.finish();
//!
//! let bytes = adelie_elf::emit(&obj);
//! assert_eq!(&bytes[..4], b"\x7fELF");
//! let back = adelie_elf::parse(&bytes)?;
//! assert_eq!(back.name, "demo");
//! assert!(back.undefined_symbols().any(|s| &*s.name == "kmalloc"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use adelie_obj::{RelocKind, SectionKind};
use std::fmt;

mod emit;
mod parse;

pub use emit::emit;
pub use parse::parse;

/// The ELF64 constants this crate reads and writes (the subset an
/// `ET_REL` x86-64 object needs). Public so tests and tools can build
/// or pick apart images without magic numbers.
pub mod consts {
    /// `\x7fELF`.
    pub const ELFMAG: [u8; 4] = [0x7f, b'E', b'L', b'F'];
    /// `EI_CLASS`: 64-bit objects.
    pub const ELFCLASS64: u8 = 2;
    /// `EI_DATA`: little-endian.
    pub const ELFDATA2LSB: u8 = 1;
    /// `EI_VERSION` / `e_version`: the only defined ELF version.
    pub const EV_CURRENT: u8 = 1;
    /// `e_type`: relocatable file.
    pub const ET_REL: u16 = 1;
    /// `e_machine`: AMD x86-64.
    pub const EM_X86_64: u16 = 62;
    /// Size of the ELF64 file header.
    pub const EHDR_SIZE: usize = 64;
    /// Size of one ELF64 section header.
    pub const SHDR_SIZE: usize = 64;
    /// Size of one ELF64 symbol-table entry.
    pub const SYM_SIZE: usize = 24;
    /// Size of one ELF64 RELA entry.
    pub const RELA_SIZE: usize = 24;

    /// `sh_type`: inactive header.
    pub const SHT_NULL: u32 = 0;
    /// `sh_type`: program-defined contents.
    pub const SHT_PROGBITS: u32 = 1;
    /// `sh_type`: symbol table.
    pub const SHT_SYMTAB: u32 = 2;
    /// `sh_type`: string table.
    pub const SHT_STRTAB: u32 = 3;
    /// `sh_type`: relocations with explicit addends.
    pub const SHT_RELA: u32 = 4;
    /// `sh_type`: zero-initialized (occupies no file space).
    pub const SHT_NOBITS: u32 = 8;

    /// `sh_flags`: writable at run time.
    pub const SHF_WRITE: u64 = 1;
    /// `sh_flags`: occupies memory at run time.
    pub const SHF_ALLOC: u64 = 2;
    /// `sh_flags`: executable machine instructions.
    pub const SHF_EXECINSTR: u64 = 4;

    /// `st_info` binding: local symbol.
    pub const STB_LOCAL: u8 = 0;
    /// `st_info` binding: global symbol.
    pub const STB_GLOBAL: u8 = 1;
    /// `st_info` type: unspecified.
    pub const STT_NOTYPE: u8 = 0;
    /// `st_info` type: data object.
    pub const STT_OBJECT: u8 = 1;
    /// `st_info` type: function.
    pub const STT_FUNC: u8 = 2;
    /// `st_info` type: the section itself.
    pub const STT_SECTION: u8 = 3;
    /// `st_info` type: source-file name.
    pub const STT_FILE: u8 = 4;
    /// `st_shndx`: undefined symbol.
    pub const SHN_UNDEF: u16 = 0;

    /// `R_X86_64_64`.
    pub const R_X86_64_64: u32 = 1;
    /// `R_X86_64_PC32`.
    pub const R_X86_64_PC32: u32 = 2;
    /// `R_X86_64_PLT32`.
    pub const R_X86_64_PLT32: u32 = 4;
    /// `R_X86_64_GOTPCREL`.
    pub const R_X86_64_GOTPCREL: u32 = 9;
    /// `R_X86_64_32S`.
    pub const R_X86_64_32S: u32 = 11;

    /// The metadata section carrying `key=value\0` module info.
    pub const MODINFO_SECTION: &str = ".adelie.modinfo";
}

/// Typed parse failure. [`parse`] returns these for every malformed
/// input — it never panics and never wraps arithmetic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ElfError {
    /// The buffer is smaller than the structure being read. `what`
    /// names the structure; `need`/`have` are byte counts.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes required.
        need: u64,
        /// Bytes available.
        have: u64,
    },
    /// Not an ELF file at all (bad magic), or not ELF64/little-endian/
    /// version-1.
    BadIdent(String),
    /// The file header is well-formed ELF but not an x86-64 `ET_REL`
    /// object this crate can ingest.
    BadHeader(String),
    /// A section header is inconsistent (offset/size outside the file,
    /// arithmetic would overflow, bad `sh_link`/`sh_info`, …).
    BadSection(String),
    /// Two sections classify to the same [`SectionKind`]; merging would
    /// scramble relocation offsets, so the object is rejected.
    DuplicateSection(&'static str),
    /// An `SHF_ALLOC` section fits none of the five [`SectionKind`]s.
    Unclassifiable(String),
    /// A string-table reference is out of range, unterminated, or not
    /// UTF-8.
    BadString(String),
    /// A symbol-table entry is malformed (bad binding, bad section
    /// index, value outside its section, duplicate name).
    BadSymbol(String),
    /// A relocation record is malformed (unknown type, bogus symbol
    /// index, field outside its section).
    BadReloc(String),
    /// The `.adelie.modinfo` payload is malformed.
    BadModinfo(String),
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            ElfError::BadIdent(s) => write!(f, "bad ELF identification: {s}"),
            ElfError::BadHeader(s) => write!(f, "unsupported ELF header: {s}"),
            ElfError::BadSection(s) => write!(f, "bad section header: {s}"),
            ElfError::DuplicateSection(k) => {
                write!(f, "two sections classify as {k}")
            }
            ElfError::Unclassifiable(s) => {
                write!(f, "allocatable section fits no SectionKind: {s}")
            }
            ElfError::BadString(s) => write!(f, "bad string reference: {s}"),
            ElfError::BadSymbol(s) => write!(f, "bad symbol: {s}"),
            ElfError::BadReloc(s) => write!(f, "bad relocation: {s}"),
            ElfError::BadModinfo(s) => write!(f, "bad .adelie.modinfo: {s}"),
        }
    }
}

impl std::error::Error for ElfError {}

/// The `r_type` for a [`RelocKind`] (the exact x86-64 psABI numbers).
pub fn reloc_type(kind: RelocKind) -> u32 {
    match kind {
        RelocKind::Abs64 => consts::R_X86_64_64,
        RelocKind::Pc32 => consts::R_X86_64_PC32,
        RelocKind::Plt32 => consts::R_X86_64_PLT32,
        RelocKind::GotPcRel => consts::R_X86_64_GOTPCREL,
        RelocKind::Abs32S => consts::R_X86_64_32S,
    }
}

/// The [`RelocKind`] for an `r_type`, or `None` for any relocation this
/// pipeline does not model.
pub fn reloc_kind(r_type: u32) -> Option<RelocKind> {
    match r_type {
        consts::R_X86_64_64 => Some(RelocKind::Abs64),
        consts::R_X86_64_PC32 => Some(RelocKind::Pc32),
        consts::R_X86_64_PLT32 => Some(RelocKind::Plt32),
        consts::R_X86_64_GOTPCREL => Some(RelocKind::GotPcRel),
        consts::R_X86_64_32S => Some(RelocKind::Abs32S),
        _ => None,
    }
}

/// Classify an `SHF_ALLOC` section into one of the five
/// [`SectionKind`]s — `.fixed.text` is recognized by *name* (its flags
/// are identical to `.text`; the split is an Adelie concept, paper
/// Fig. 2b), everything else by type and flags. Returns `None` when
/// the section fits no kind.
pub fn classify_section(name: &str, sh_type: u32, flags: u64) -> Option<SectionKind> {
    if flags & consts::SHF_ALLOC == 0 {
        return None;
    }
    if name == ".fixed.text" || name.starts_with(".fixed.text.") {
        return Some(SectionKind::FixedText);
    }
    if sh_type == consts::SHT_NOBITS {
        return Some(SectionKind::Bss);
    }
    if sh_type != consts::SHT_PROGBITS {
        return None;
    }
    if flags & consts::SHF_EXECINSTR != 0 {
        Some(SectionKind::Text)
    } else if flags & consts::SHF_WRITE != 0 {
        Some(SectionKind::Data)
    } else {
        Some(SectionKind::Rodata)
    }
}

/// The conventional (`sh_flags`, `sh_type`) pair for a [`SectionKind`],
/// as the emitter writes it.
pub fn section_encoding(kind: SectionKind) -> (u64, u32) {
    use consts::*;
    match kind {
        SectionKind::Text | SectionKind::FixedText => (SHF_ALLOC | SHF_EXECINSTR, SHT_PROGBITS),
        SectionKind::Data => (SHF_ALLOC | SHF_WRITE, SHT_PROGBITS),
        SectionKind::Rodata => (SHF_ALLOC, SHT_PROGBITS),
        SectionKind::Bss => (SHF_ALLOC | SHF_WRITE, SHT_NOBITS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reloc_mapping_is_a_bijection_over_supported_kinds() {
        for kind in [
            RelocKind::Abs64,
            RelocKind::Pc32,
            RelocKind::Plt32,
            RelocKind::GotPcRel,
            RelocKind::Abs32S,
        ] {
            assert_eq!(reloc_kind(reloc_type(kind)), Some(kind));
        }
        // Unsupported psABI types stay unsupported, not misclassified.
        for t in [0, 3, 5, 6, 7, 8, 10, 12, 24, 26, 42] {
            assert_eq!(reloc_kind(t), None, "type {t}");
        }
    }

    #[test]
    fn classification_matches_emission() {
        for kind in SectionKind::ALL {
            let (flags, sh_type) = section_encoding(kind);
            assert_eq!(
                classify_section(kind.name(), sh_type, flags),
                Some(kind),
                "{kind} round-trip"
            );
        }
    }

    #[test]
    fn classification_edge_cases() {
        use consts::*;
        // Non-alloc sections are skipped, whatever their name.
        assert_eq!(classify_section(".text", SHT_PROGBITS, 0), None);
        assert_eq!(classify_section(".comment", SHT_PROGBITS, 0), None);
        // `.fixed.text` wins over the exec flag (same flags as .text).
        assert_eq!(
            classify_section(".fixed.text", SHT_PROGBITS, SHF_ALLOC | SHF_EXECINSTR),
            Some(SectionKind::FixedText)
        );
        // Sub-sections keep the kind.
        assert_eq!(
            classify_section(
                ".fixed.text.unlikely",
                SHT_PROGBITS,
                SHF_ALLOC | SHF_EXECINSTR
            ),
            Some(SectionKind::FixedText)
        );
        // An executable section not named .fixed.text is movable text,
        // whatever it is called.
        assert_eq!(
            classify_section(".text.hot", SHT_PROGBITS, SHF_ALLOC | SHF_EXECINSTR),
            Some(SectionKind::Text)
        );
        // Alloc + writable + progbits is data; read-only is rodata.
        assert_eq!(
            classify_section(".data.local", SHT_PROGBITS, SHF_ALLOC | SHF_WRITE),
            Some(SectionKind::Data)
        );
        assert_eq!(
            classify_section(".rodata.str1", SHT_PROGBITS, SHF_ALLOC),
            Some(SectionKind::Rodata)
        );
        // NOBITS is bss even under a different name.
        assert_eq!(
            classify_section(".dynbss", SHT_NOBITS, SHF_ALLOC | SHF_WRITE),
            Some(SectionKind::Bss)
        );
        // An alloc section of an unmodeled type fits nothing.
        assert_eq!(classify_section(".note", 7, SHF_ALLOC), None);
    }
}
