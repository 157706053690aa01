//! Malformed-ELF property suite: truncated headers, out-of-range
//! section offsets, bogus relocation symbols, and random byte
//! corruption must all surface as a typed [`ElfError`] — never a panic,
//! never an out-of-bounds read. An object that parses but cannot be
//! linked must surface as a typed [`LoadError`] before the loader
//! allocates a frame or draws a base.

use adelie_core::{LinkPlan, LoadError, ModuleRegistry};
use adelie_elf::{consts, emit, parse, ElfError};
use adelie_isa::{Asm, Reg};
use adelie_kernel::{Kernel, KernelConfig};
use adelie_obj::{Binding, ObjectBuilder, ObjectFile, SectionKind};
use adelie_plugin::TransformOptions;
use proptest::prelude::*;

/// A valid fixture to mutate (relocations, imports, every section).
fn fixture() -> Vec<u8> {
    let mut b = ObjectBuilder::new("mut");
    let mut f = Asm::new();
    f.call_plt("mut_helper");
    f.call_got("kmalloc");
    f.lea_sym(Reg::Rdi, "mut_msg");
    f.ret();
    b.add_function("mut_init", &f, SectionKind::Text, Binding::Global)
        .unwrap();
    let mut h = Asm::new();
    h.mov_imm32(Reg::Rax, 1);
    h.ret();
    b.add_function("mut_helper", &h, SectionKind::Text, Binding::Local)
        .unwrap();
    b.add_data("mut_msg", b"m\0", SectionKind::Rodata, Binding::Local)
        .unwrap();
    b.add_bss("mut_buf", 64, Binding::Local).unwrap();
    b.export("mut_init");
    b.set_init("mut_init");
    emit(&b.finish())
}

fn put_u64(bytes: &mut [u8], off: usize, v: u64) {
    bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn shoff(bytes: &[u8]) -> usize {
    u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize
}

fn shnum(bytes: &[u8]) -> usize {
    u16::from_le_bytes(bytes[60..62].try_into().unwrap()) as usize
}

/// Whether section `i` occupies file space (`SHT_NOBITS` does not, so
/// its offset/size never touch the file and corrupting them is
/// legitimately ignored — the loader's overflow audit guards sizes).
fn has_file_data(bytes: &[u8], i: usize) -> bool {
    let h = shoff(bytes) + i * consts::SHDR_SIZE;
    u32::from_le_bytes(bytes[h + 4..h + 8].try_into().unwrap()) != consts::SHT_NOBITS
}

#[test]
fn truncated_file_header_is_truncated_error() {
    let full = fixture();
    for len in 0..consts::EHDR_SIZE {
        match parse(&full[..len]) {
            Err(ElfError::Truncated { .. }) => {}
            other => panic!("prefix of {len} bytes must be Truncated, got {other:?}"),
        }
    }
}

#[test]
fn section_offset_beyond_file_is_rejected() {
    let full = fixture();
    let base = shoff(&full);
    for i in (1..shnum(&full)).filter(|&i| has_file_data(&full, i)) {
        let mut bytes = full.clone();
        // sh_offset lives at +24 within the 64-byte header.
        put_u64(&mut bytes, base + i * consts::SHDR_SIZE + 24, u64::MAX - 7);
        assert!(
            parse(&bytes).is_err(),
            "section {i} offset near u64::MAX must not parse"
        );
    }
}

#[test]
fn section_size_overflowing_the_offset_is_rejected() {
    let full = fixture();
    let base = shoff(&full);
    for i in (1..shnum(&full)).filter(|&i| has_file_data(&full, i)) {
        let mut bytes = full.clone();
        put_u64(&mut bytes, base + i * consts::SHDR_SIZE + 32, u64::MAX);
        assert!(
            parse(&bytes).is_err(),
            "section {i} size u64::MAX must not parse"
        );
    }
}

/// The first RELA record of relocation type `ty`: its byte offset.
fn rela_record(bytes: &[u8], ty: u32) -> usize {
    let base = shoff(bytes);
    for i in 1..shnum(bytes) {
        let h = base + i * consts::SHDR_SIZE;
        if u32::from_le_bytes(bytes[h + 4..h + 8].try_into().unwrap()) != 4 {
            continue;
        }
        let off = u64::from_le_bytes(bytes[h + 24..h + 32].try_into().unwrap()) as usize;
        let size = u64::from_le_bytes(bytes[h + 32..h + 40].try_into().unwrap()) as usize;
        for rec in (off..off + size).step_by(24) {
            let info = u64::from_le_bytes(bytes[rec + 8..rec + 16].try_into().unwrap());
            if info as u32 == ty {
                return rec;
            }
        }
    }
    panic!("fixture has no relocation of type {ty}");
}

/// Load `obj` into a fresh kernel and check the rejection left nothing
/// behind: no frame allocated, no page mapped, no module registered,
/// and the kernel RNG exactly where an identical kernel that never saw
/// the object has it — so no base was drawn, no VA reserved.
fn rejected_cleanly(obj: &ObjectFile, opts: &TransformOptions) -> LoadError {
    let boot = || {
        let kernel = Kernel::new(KernelConfig::default());
        let registry = ModuleRegistry::new(&kernel);
        (kernel, registry)
    };
    let (kernel, registry) = boot();
    let (twin, _twin_registry) = boot();
    let frames = kernel.phys.stats().frames_allocated;
    let pages = kernel.space.stats().pages_mapped;
    let err = registry
        .load(obj, opts)
        .expect_err("the object must be rejected");
    assert_eq!(
        kernel.phys.stats().frames_allocated,
        frames,
        "{err}: frames allocated"
    );
    assert_eq!(
        kernel.space.stats().pages_mapped,
        pages,
        "{err}: pages mapped"
    );
    assert!(
        registry.get(&obj.name).is_none(),
        "{err}: module registered"
    );
    assert_eq!(kernel.rng_u64(), twin.rng_u64(), "{err}: a base was drawn");
    err
}

/// Objects that parse but cannot be linked, one per typed loader
/// error an ELF file alone can cause.
#[test]
fn unlinkable_objects_are_rejected_before_allocation() {
    let full = fixture();
    let pic = TransformOptions::pic(false);
    // `.bss` sized near 2^62: the layout cannot hold it.
    let mut bytes = full.clone();
    let base = shoff(&bytes);
    let bss = (1..shnum(&bytes))
        .find(|&i| !has_file_data(&bytes, i))
        .expect("fixture has a .bss");
    put_u64(&mut bytes, base + bss * consts::SHDR_SIZE + 32, 1 << 62);
    let obj = parse(&bytes).expect("NOBITS sizes are not file ranges");
    assert!(matches!(
        LinkPlan::new(&obj, &pic),
        Err(LoadError::TooLarge(_))
    ));
    assert!(matches!(
        rejected_cleanly(&obj, &pic),
        LoadError::TooLarge(_)
    ));

    // `call *kmalloc@GOTPCREL` retyped as PC32: a kernel symbol is out
    // of PC32 reach in PIC code.
    let mut bytes = full.clone();
    let rec = rela_record(&bytes, consts::R_X86_64_GOTPCREL);
    let info = u64::from_le_bytes(bytes[rec + 8..rec + 16].try_into().unwrap());
    put_u64(
        &mut bytes,
        rec + 8,
        (info & !0xffff_ffff) | u64::from(consts::R_X86_64_PC32),
    );
    let obj = parse(&bytes).unwrap();
    assert!(matches!(
        rejected_cleanly(&obj, &pic),
        LoadError::UnexpectedReloc(_)
    ));

    // Re-randomizable: `lea mut_msg(%rip)` reaches from movable text
    // into immovable `.rodata`, which no PC32 field can span.
    let obj = parse(&full).unwrap();
    assert!(matches!(
        rejected_cleanly(&obj, &TransformOptions::rerandomizable(false)),
        LoadError::CrossPartPcRel(_)
    ));

    // `.rela.text` retargeted at `.bss`: the fields fit its size, so
    // the file parses, but `.bss` has no bytes for a field to patch.
    let mut bytes = full.clone();
    let rela = (1..shnum(&bytes))
        .map(|i| base + i * consts::SHDR_SIZE)
        .find(|&h| u32::from_le_bytes(bytes[h + 4..h + 8].try_into().unwrap()) == consts::SHT_RELA)
        .expect("fixture has a RELA section");
    bytes[rela + 44..rela + 48].copy_from_slice(&(bss as u32).to_le_bytes());
    let obj = parse(&bytes).expect("the fields fit the .bss size");
    assert!(obj
        .section(SectionKind::Bss)
        .is_some_and(|s| !s.relocs.is_empty()));
    assert!(matches!(
        LinkPlan::new(&obj, &pic),
        Err(LoadError::BadRelocField(_))
    ));
    assert!(matches!(
        rejected_cleanly(&obj, &pic),
        LoadError::BadRelocField(_)
    ));

    // `lea mut_msg(%rip)`'s field moved onto `call mut_helper@PLT`'s:
    // two writes to the same bytes.
    let mut bytes = full.clone();
    let plt = rela_record(&bytes, consts::R_X86_64_PLT32);
    let pc = rela_record(&bytes, consts::R_X86_64_PC32);
    let at = u64::from_le_bytes(bytes[plt..plt + 8].try_into().unwrap());
    put_u64(&mut bytes, pc, at + 2);
    let obj = parse(&bytes).unwrap();
    assert!(matches!(
        rejected_cleanly(&obj, &pic),
        LoadError::BadRelocField(_)
    ));

    // An import the kernel does not export.
    let at = full
        .windows(8)
        .position(|w| w == b"kmalloc\0")
        .expect("import name in the string table");
    let mut bytes = full.clone();
    bytes[at + 6] = b'x';
    let obj = parse(&bytes).unwrap();
    assert_eq!(
        rejected_cleanly(&obj, &pic),
        LoadError::Unresolved("kmallox".into())
    );

    // An export the object does not define.
    let mut obj = parse(&full).unwrap();
    obj.exports.push("mut_absent".into());
    assert_eq!(
        rejected_cleanly(&obj, &pic),
        LoadError::MissingEntry("mut_absent".into())
    );

    // And the pristine fixture links (its init, which asks kmalloc
    // for 0 bytes, is not what is under test here).
    let plan = LinkPlan::new(&parse(&full).unwrap(), &pic).expect("the fixture links");
    let kernel = Kernel::new(KernelConfig::default());
    plan.resolve_imports(&kernel)
        .expect("the fixture's imports resolve");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any truncation of a valid image either still parses (trailing
    /// padding) or fails with a typed error — it never panics.
    #[test]
    fn truncation_never_panics(frac in 0usize..4096) {
        let full = fixture();
        let len = frac % full.len();
        let _ = parse(&full[..len]);
    }

    /// Single-byte corruption anywhere in the image never panics, and
    /// corrupting the magic always fails cleanly.
    #[test]
    fn byte_corruption_never_panics(pos in 0usize..4096, val in any::<u8>()) {
        let mut bytes = fixture();
        let pos = pos % bytes.len();
        bytes[pos] = val;
        let _ = parse(&bytes);
    }

    /// Relocations with bogus symbol indices are rejected, whatever the
    /// index.
    #[test]
    fn bogus_reloc_symbol_is_rejected(idx in 64u64..u32::MAX as u64) {
        let full = fixture();
        let base = shoff(&full);
        // Find a RELA section and stamp a huge symbol index into its
        // first record's r_info (keeping a supported type).
        let mut found = false;
        for i in 1..shnum(&full) {
            let h = base + i * consts::SHDR_SIZE;
            let sh_type = u32::from_le_bytes(full[h + 4..h + 8].try_into().unwrap());
            if sh_type != 4 {
                continue;
            }
            let off = u64::from_le_bytes(full[h + 24..h + 32].try_into().unwrap()) as usize;
            let mut bytes = full.clone();
            put_u64(
                &mut bytes,
                off + 8,
                (idx << 32) | u64::from(consts::R_X86_64_PLT32),
            );
            match parse(&bytes) {
                Err(ElfError::BadReloc(_)) => found = true,
                other => return Err(TestCaseError::Fail(format!(
                    "bogus symbol index {idx} must be BadReloc, got {other:?}"
                ))),
            }
        }
        prop_assert!(found, "fixture must contain a RELA section");
    }

    /// Unsupported relocation types are rejected as BadReloc.
    #[test]
    fn unsupported_reloc_type_is_rejected(t in 12u32..200) {
        let full = fixture();
        let base = shoff(&full);
        for i in 1..shnum(&full) {
            let h = base + i * consts::SHDR_SIZE;
            let sh_type = u32::from_le_bytes(full[h + 4..h + 8].try_into().unwrap());
            if sh_type != 4 {
                continue;
            }
            let off = u64::from_le_bytes(full[h + 24..h + 32].try_into().unwrap()) as usize;
            let mut bytes = full.clone();
            // Keep the valid symbol index, replace the type.
            let info = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
            put_u64(&mut bytes, off + 8, (info & !0xffff_ffff) | u64::from(t));
            match parse(&bytes) {
                Err(ElfError::BadReloc(_)) => {}
                other => return Err(TestCaseError::Fail(format!(
                    "unsupported type {t} must be BadReloc, got {other:?}"
                ))),
            }
        }
    }
}
