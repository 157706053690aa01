//! ISA backends: hardware PTE encodings, ASID allocation, and context
//! tokens (the [`Arch`] trait).
//!
//! The rest of vmem reasons about an abstract leaf ([`Pte`]): a frame or
//! an MMIO window plus writable/no-execute permission bits. Real
//! hardware stores none of that shape — it stores format-specific bit
//! layouts that a hardware walker consumes, and it tags TLB entries
//! with *address-space identifiers* so a context switch does not have
//! to flush. This module pins the two formats Adelie's ecosystem cares
//! about:
//!
//! * **x86_64 4-level paging** — `P`/`RW` low bits, `NX` at bit 63,
//!   accessed/dirty/global attribute bits, a 40-bit frame number at
//!   bits 12..52 with bits 52..63 reserved (must be zero), and 12-bit
//!   **PCID**s tagging TLB entries (`mov cr3` with bit 63 set switches
//!   without flushing; `invpcid` invalidates one context).
//! * **riscv64 Sv48** — `V`/`R`/`W`/`X` permission bits (including the
//!   MARDU-style *execute-only* `X`-without-`R` encoding that x86
//!   cannot express), `A`/`D`/`G` attributes, RSW software bits, a
//!   44-bit PPN at bits 10..54 with bits 54..63 reserved, and 16-bit
//!   ASIDs in the `satp` CSR (`sfence.vma` takes optional address and
//!   ASID operands for targeted invalidation).
//!
//! Three responsibilities live here and nowhere else:
//!
//! 1. **Encode/decode** between [`Pte`] and the hardware bit layout
//!    ([`HwPte`]). Decoding is *validating*: reserved-bit violations,
//!    non-present entries, and reserved permission combinations (riscv
//!    `W` without `R`) are rejected with a typed [`PteDecodeError`]
//!    instead of being misread.
//! 2. **ASID allocation** with Linux-style *generation rollover*: each
//!    arch exposes a bounded identifier space (4095 usable PCIDs,
//!    65535 usable ASIDs); when the allocator wraps it bumps a
//!    rollover epoch, and a TLB that observes a newer epoch than it
//!    has adopted must flush once before trusting tags again (see
//!    DESIGN.md §15).
//! 3. **Context tokens** ([`Arch::context_token`]): the CR3 or `satp`
//!    image that installs a root under an identifier.
//!
//! The workspace picks a backend at runtime via [`ArchKind`]
//! (`ADELIE_ARCH=riscv64` in the environment, or explicitly through
//! `SpaceConfig`/`KernelConfig`), which keeps CI's arch matrix a pure
//! environment toggle.

use crate::{Pfn, Pte, PteFlags, PteKind};
use std::sync::Mutex;

/// An architecture-encoded leaf PTE: the raw bits a hardware page-table
/// walker would consume. Only meaningful together with the
/// [`ArchKind`] that minted it (the same bit pattern decodes
/// differently — or not at all — under the other backend).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct HwPte(u64);

impl HwPte {
    /// Wrap raw bits (fuzz/decode-testing entry point).
    pub fn from_bits(bits: u64) -> HwPte {
        HwPte(bits)
    }

    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        self.0
    }
}

impl std::fmt::Debug for HwPte {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HwPte({:#018x})", self.0)
    }
}

/// Why a raw bit pattern failed to decode as a leaf PTE.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PteDecodeError {
    /// The present/valid bit is clear — not a mapping at all.
    NotPresent,
    /// Bits the architecture reserves (and requires zero) were set:
    /// x86_64 bits 52..63, riscv Sv48 bits 54..64.
    ReservedBits,
    /// riscv: `W` set without `R` — a combination the privileged spec
    /// reserves.
    WriteWithoutRead,
    /// riscv: valid entry with `R`/`W`/`X` all clear — a pointer to the
    /// next table level, not a leaf.
    NonLeaf,
}

impl std::fmt::Display for PteDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PteDecodeError::NotPresent => write!(f, "present/valid bit clear"),
            PteDecodeError::ReservedBits => write!(f, "reserved bits set"),
            PteDecodeError::WriteWithoutRead => write!(f, "riscv W without R is reserved"),
            PteDecodeError::NonLeaf => write!(f, "valid non-leaf (pointer) entry"),
        }
    }
}

impl std::error::Error for PteDecodeError {}

/// An address-space identifier plus the rollover epoch it was allocated
/// in. Identifier *values* repeat once the arch's bounded space wraps;
/// the `(value, rollover)` pair never does, which is what makes lazy
/// tag-matched TLB retention sound (DESIGN.md §15).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asid {
    /// The hardware tag value (12-bit PCID / 16-bit ASID; never 0,
    /// which every OS reserves for "no tag" bootstrapping).
    pub value: u16,
    /// Allocator wrap count at allocation time. A TLB that sees an
    /// ASID from a newer rollover than it has adopted must flush once:
    /// values from older epochs may have been reassigned.
    pub rollover: u64,
}

/// Bounded ASID allocator with generation rollover, one per arch
/// (Linux `asid_allocator`-style, simplified: wrap = new epoch, no
/// per-CPU active-ASID reuse bitmap).
#[derive(Debug)]
pub struct AsidAllocator {
    capacity: u16,
    next: u16,
    rollover: u64,
}

impl AsidAllocator {
    /// An allocator handing out `1..=capacity` before wrapping into a
    /// new rollover epoch. `capacity` must be at least 1 (value 0 is
    /// reserved).
    pub const fn with_capacity(capacity: u16) -> AsidAllocator {
        assert!(capacity >= 1, "ASID value 0 is reserved");
        AsidAllocator {
            capacity,
            next: 1,
            rollover: 0,
        }
    }

    /// Hand out the next identifier, wrapping into a fresh rollover
    /// epoch when the value space is exhausted.
    pub fn alloc(&mut self) -> Asid {
        if self.next > self.capacity {
            self.rollover += 1;
            self.next = 1;
        }
        let value = self.next;
        self.next += 1;
        Asid {
            value,
            rollover: self.rollover,
        }
    }

    /// The current rollover epoch (starts at 0).
    pub fn rollover(&self) -> u64 {
        self.rollover
    }
}

/// One ISA backend: leaf encode/decode, identifier width, and context-
/// token formation. Implementations are
/// zero-sized; runtime selection goes through [`ArchKind`].
pub trait Arch {
    /// Human-readable backend name (used in bench column labels).
    const NAME: &'static str;
    /// Identifier width: 12 (PCID) or 16 (satp ASID).
    const ASID_BITS: u32;

    /// Encode an abstract leaf into the hardware bit layout.
    fn encode(pte: Pte) -> u64;

    /// Validate and decode a hardware bit pattern back into the
    /// abstract leaf.
    fn decode(bits: u64) -> Result<Pte, PteDecodeError>;

    /// The control-register image that installs `root` under `asid`:
    /// a CR3 value with the PCID in bits 0..12, or a `satp` value with
    /// MODE=Sv48, the ASID at bits 44..60, and the root PPN.
    fn context_token(asid: Asid, root: Pfn) -> u64;
}

/// x86_64 4-level paging bit layout (level-1 leaf).
mod x86 {
    pub const VALID: u64 = 1 << 0;
    pub const WRITABLE: u64 = 1 << 1;
    pub const ACCESSED: u64 = 1 << 5;
    pub const DIRTY: u64 = 1 << 6;
    /// Global bit — exempt from PCID-tagged invalidation on real
    /// hardware. Never set by `encode` (every Adelie mapping is
    /// per-space so tags stay authoritative); tolerated by `decode`.
    pub const GLOBAL: u64 = 1 << 8;
    /// OS-available bit 9: marks an MMIO leaf (device/page packed in
    /// the frame field) instead of an ordinary frame.
    pub const SW_MMIO: u64 = 1 << 9;
    pub const NX: u64 = 1 << 63;
    pub const ADDR_SHIFT: u32 = 12;
    /// Frame bits 12..52 (MAXPHYADDR 52).
    pub const ADDR_MASK: u64 = ((1u64 << 52) - 1) & !((1u64 << ADDR_SHIFT) - 1);
    /// Bits 52..63 must be zero on a leaf.
    pub const RESERVED_MASK: u64 = ((1u64 << 63) - 1) & !((1u64 << 52) - 1);
}

/// riscv64 Sv48 bit layout.
mod rv {
    pub const VALID: u64 = 1 << 0;
    pub const READ: u64 = 1 << 1;
    pub const WRITE: u64 = 1 << 2;
    pub const EXEC: u64 = 1 << 3;
    pub const ACCESSED: u64 = 1 << 6;
    pub const DIRTY: u64 = 1 << 7;
    /// RSW[0] (software-available): marks an MMIO leaf.
    pub const RSW_MMIO: u64 = 1 << 8;
    pub const PPN_SHIFT: u32 = 10;
    /// PPN bits 10..54 (44-bit physical page numbers).
    pub const PPN_MASK: u64 = ((1u64 << 54) - 1) & !((1u64 << PPN_SHIFT) - 1);
    /// Bits 54..64 must be zero (no Svpbmt/Svnapot extensions modeled).
    pub const RESERVED_MASK: u64 = !((1u64 << 54) - 1);
}

/// MMIO leaves pack `(device, page)` into the frame field; each half
/// gets 20 bits (fits both the 40-bit x86 frame field and the 44-bit
/// riscv PPN).
const MMIO_HALF_BITS: u32 = 20;
const MMIO_HALF_MASK: u64 = (1 << MMIO_HALF_BITS) - 1;

fn pack_kind(kind: PteKind) -> (u64, bool) {
    match kind {
        PteKind::Frame(Pfn(pfn)) => {
            debug_assert!(pfn < (1 << 40), "frame number exceeds the modeled 40 bits");
            (pfn, false)
        }
        PteKind::Mmio { dev, page } => {
            debug_assert!(
                (dev as u64) <= MMIO_HALF_MASK && (page as u64) <= MMIO_HALF_MASK,
                "MMIO device/page exceed the 20-bit packing"
            );
            (
                ((dev as u64) << MMIO_HALF_BITS) | (page as u64 & MMIO_HALF_MASK),
                true,
            )
        }
    }
}

fn unpack_kind(packed: u64, mmio: bool) -> PteKind {
    if mmio {
        PteKind::Mmio {
            dev: (packed >> MMIO_HALF_BITS) as u32,
            page: (packed & MMIO_HALF_MASK) as u32,
        }
    } else {
        PteKind::Frame(Pfn(packed))
    }
}

/// x86_64 4-level paging with PCID-tagged TLB entries.
#[allow(non_camel_case_types)]
pub struct X86_64;

impl Arch for X86_64 {
    const NAME: &'static str = "x86_64";
    const ASID_BITS: u32 = 12;

    fn encode(pte: Pte) -> u64 {
        // Canonical encode: A always set, D iff writable — so
        // decode(encode(p)) == p without tracking soft state.
        let mut bits = x86::VALID | x86::ACCESSED;
        if pte.flags.writable() {
            bits |= x86::WRITABLE | x86::DIRTY;
        }
        if !pte.flags.executable() {
            bits |= x86::NX;
        }
        let (packed, mmio) = pack_kind(pte.kind);
        if mmio {
            bits |= x86::SW_MMIO;
        }
        let bits = bits | (packed << x86::ADDR_SHIFT);
        // Every Adelie mapping is per-space: a global (PCID-exempt)
        // leaf would escape ASID-tagged invalidation.
        debug_assert_eq!(bits & x86::GLOBAL, 0);
        bits
    }

    fn decode(bits: u64) -> Result<Pte, PteDecodeError> {
        if bits & x86::VALID == 0 {
            return Err(PteDecodeError::NotPresent);
        }
        if bits & x86::RESERVED_MASK != 0 {
            return Err(PteDecodeError::ReservedBits);
        }
        let mut flags = PteFlags::TEXT;
        if bits & x86::WRITABLE != 0 {
            flags = flags | PteFlags::WRITABLE;
        }
        if bits & x86::NX != 0 {
            flags = flags | PteFlags::NX;
        }
        let packed = (bits & x86::ADDR_MASK) >> x86::ADDR_SHIFT;
        Ok(Pte {
            kind: unpack_kind(packed, bits & x86::SW_MMIO != 0),
            flags,
        })
    }

    fn context_token(asid: Asid, root: Pfn) -> u64 {
        // CR3 image: PML4 frame at bits 12.., PCID in bits 0..12. (The
        // bit-63 "don't flush" hint is a property of the *switch*, not
        // of the token — the Tlb models it by keeping tagged entries
        // across switches.)
        (root.0 << 12) | (asid.value as u64 & 0xFFF)
    }
}

/// riscv64 Sv48 with `satp`-style 16-bit ASIDs.
pub struct Riscv64Sv48;

impl Arch for Riscv64Sv48 {
    const NAME: &'static str = "riscv64-sv48";
    const ASID_BITS: u32 = 16;

    fn encode(pte: Pte) -> u64 {
        let mut bits = rv::VALID | rv::READ | rv::ACCESSED;
        if pte.flags.writable() {
            bits |= rv::WRITE | rv::DIRTY;
        }
        if pte.flags.executable() {
            bits |= rv::EXEC;
        }
        let (packed, mmio) = pack_kind(pte.kind);
        if mmio {
            bits |= rv::RSW_MMIO;
        }
        bits | (packed << rv::PPN_SHIFT)
    }

    fn decode(bits: u64) -> Result<Pte, PteDecodeError> {
        if bits & rv::VALID == 0 {
            return Err(PteDecodeError::NotPresent);
        }
        if bits & rv::RESERVED_MASK != 0 {
            return Err(PteDecodeError::ReservedBits);
        }
        let (r, w, x) = (
            bits & rv::READ != 0,
            bits & rv::WRITE != 0,
            bits & rv::EXEC != 0,
        );
        if !r && !w && !x {
            return Err(PteDecodeError::NonLeaf);
        }
        if w && !r {
            return Err(PteDecodeError::WriteWithoutRead);
        }
        // Note: X-without-R is *legal* here (execute-only text, the
        // MARDU hardening shape x86 can't express) and decodes to a
        // non-writable executable leaf.
        let mut flags = PteFlags::TEXT;
        if w {
            flags = flags | PteFlags::WRITABLE;
        }
        if !x {
            flags = flags | PteFlags::NX;
        }
        let packed = (bits & rv::PPN_MASK) >> rv::PPN_SHIFT;
        Ok(Pte {
            kind: unpack_kind(packed, bits & rv::RSW_MMIO != 0),
            flags,
        })
    }

    fn context_token(asid: Asid, root: Pfn) -> u64 {
        // satp: MODE=9 (Sv48) | ASID[15:0] at bits 44..60 | root PPN.
        (9u64 << 60) | ((asid.value as u64) << 44) | (root.0 & ((1u64 << 44) - 1))
    }
}

static X86_64_ASIDS: Mutex<AsidAllocator> =
    Mutex::new(AsidAllocator::with_capacity(ArchKind::X86_64.max_asid()));
static RISCV64_ASIDS: Mutex<AsidAllocator> = Mutex::new(AsidAllocator::with_capacity(
    ArchKind::Riscv64Sv48.max_asid(),
));

/// Runtime arch selector dispatching to the [`Arch`] backends; this is
/// what flows through `SpaceConfig` → `KernelConfig` → `FleetConfig`.
#[allow(non_camel_case_types)]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// [`X86_64`]: 4-level paging, PCID tags.
    #[default]
    X86_64,
    /// [`Riscv64Sv48`]: Sv48, `satp` ASID tags.
    Riscv64Sv48,
}

impl ArchKind {
    /// Backend selection from the `ADELIE_ARCH` environment variable
    /// (`riscv64`/`riscv64sv48`/`rv64` → riscv; anything else,
    /// including unset, → x86_64). CI's arch matrix sets only this.
    pub fn from_env() -> ArchKind {
        match std::env::var("ADELIE_ARCH") {
            Ok(v)
                if v.eq_ignore_ascii_case("riscv64")
                    || v.eq_ignore_ascii_case("riscv64sv48")
                    || v.eq_ignore_ascii_case("rv64") =>
            {
                ArchKind::Riscv64Sv48
            }
            _ => ArchKind::X86_64,
        }
    }

    /// Backend name ([`Arch::NAME`]).
    pub const fn name(self) -> &'static str {
        match self {
            ArchKind::X86_64 => X86_64::NAME,
            ArchKind::Riscv64Sv48 => Riscv64Sv48::NAME,
        }
    }

    /// Identifier width ([`Arch::ASID_BITS`]).
    pub const fn asid_bits(self) -> u32 {
        match self {
            ArchKind::X86_64 => X86_64::ASID_BITS,
            ArchKind::Riscv64Sv48 => Riscv64Sv48::ASID_BITS,
        }
    }

    /// Largest usable identifier value (value 0 is reserved).
    pub const fn max_asid(self) -> u16 {
        ((1u32 << self.asid_bits()) - 1) as u16
    }

    /// Encode an abstract leaf under this backend.
    pub fn encode(self, pte: Pte) -> HwPte {
        HwPte(match self {
            ArchKind::X86_64 => X86_64::encode(pte),
            ArchKind::Riscv64Sv48 => Riscv64Sv48::encode(pte),
        })
    }

    /// Validate and decode a hardware bit pattern under this backend.
    pub fn decode(self, hw: HwPte) -> Result<Pte, PteDecodeError> {
        match self {
            ArchKind::X86_64 => X86_64::decode(hw.0),
            ArchKind::Riscv64Sv48 => Riscv64Sv48::decode(hw.0),
        }
    }

    /// Decode bits this backend itself encoded — panics on corruption,
    /// which would mean memory unsafety elsewhere, not bad input.
    pub fn decode_owned(self, hw: HwPte) -> Pte {
        self.decode(hw)
            .expect("arch-encoded PTE produced by encode() failed to decode")
    }

    /// Context-install token ([`Arch::context_token`]).
    pub fn context_token(self, asid: Asid, root: Pfn) -> u64 {
        match self {
            ArchKind::X86_64 => X86_64::context_token(asid, root),
            ArchKind::Riscv64Sv48 => Riscv64Sv48::context_token(asid, root),
        }
    }

    /// Allocate an identifier from this backend's process-wide
    /// allocator (rollover epoch included).
    pub fn allocate_asid(self) -> Asid {
        let allocator = match self {
            ArchKind::X86_64 => &X86_64_ASIDS,
            ArchKind::Riscv64Sv48 => &RISCV64_ASIDS,
        };
        allocator
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .alloc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARCHES: [ArchKind; 2] = [ArchKind::X86_64, ArchKind::Riscv64Sv48];

    fn all_flags() -> [PteFlags; 4] {
        [
            PteFlags::TEXT,
            PteFlags::WRITABLE,
            PteFlags::NX,
            PteFlags::DATA,
        ]
    }

    #[test]
    fn frame_round_trips_exactly() {
        for arch in ARCHES {
            for flags in all_flags() {
                for pfn in [0u64, 1, 0x1234, (1 << 40) - 1] {
                    let pte = Pte {
                        kind: PteKind::Frame(Pfn(pfn)),
                        flags,
                    };
                    let hw = arch.encode(pte);
                    assert_eq!(
                        arch.decode(hw),
                        Ok(pte),
                        "{} round trip pfn={pfn:#x} flags={flags}",
                        arch.name()
                    );
                }
            }
        }
    }

    #[test]
    fn mmio_round_trips_exactly() {
        for arch in ARCHES {
            for (dev, page) in [(0u32, 0u32), (1, 2), (0xF_FFFF, 0xF_FFFF)] {
                let pte = Pte {
                    kind: PteKind::Mmio { dev, page },
                    flags: PteFlags::DATA,
                };
                assert_eq!(arch.decode(arch.encode(pte)), Ok(pte), "{}", arch.name());
            }
        }
    }

    #[test]
    fn x86_rejects_malformed() {
        let a = ArchKind::X86_64;
        assert_eq!(
            a.decode(HwPte::from_bits(0)),
            Err(PteDecodeError::NotPresent)
        );
        assert_eq!(
            a.decode(HwPte::from_bits(x86::WRITABLE | x86::NX)),
            Err(PteDecodeError::NotPresent),
            "permissions without P are still not-present"
        );
        for reserved_bit in 52..63 {
            assert_eq!(
                a.decode(HwPte::from_bits(x86::VALID | (1 << reserved_bit))),
                Err(PteDecodeError::ReservedBits)
            );
        }
        // Attribute bits the model doesn't produce are tolerated.
        assert!(a
            .decode(HwPte::from_bits(x86::VALID | x86::GLOBAL | x86::DIRTY))
            .is_ok());
    }

    #[test]
    fn riscv_rejects_malformed() {
        let a = ArchKind::Riscv64Sv48;
        assert_eq!(
            a.decode(HwPte::from_bits(0)),
            Err(PteDecodeError::NotPresent)
        );
        assert_eq!(
            a.decode(HwPte::from_bits(rv::READ | rv::WRITE)),
            Err(PteDecodeError::NotPresent)
        );
        for reserved_bit in 54..64 {
            assert_eq!(
                a.decode(HwPte::from_bits(
                    rv::VALID | rv::READ | (1u64 << reserved_bit)
                )),
                Err(PteDecodeError::ReservedBits)
            );
        }
        assert_eq!(
            a.decode(HwPte::from_bits(rv::VALID)),
            Err(PteDecodeError::NonLeaf),
            "V with RWX clear points at the next level"
        );
        assert_eq!(
            a.decode(HwPte::from_bits(rv::VALID | rv::WRITE)),
            Err(PteDecodeError::WriteWithoutRead)
        );
    }

    /// riscv can express execute-only text (MARDU's hardening shape);
    /// it decodes to an executable, non-writable leaf.
    #[test]
    fn riscv_execute_only_is_legal() {
        let a = ArchKind::Riscv64Sv48;
        let pte = a
            .decode(HwPte::from_bits(
                rv::VALID | rv::EXEC | (7 << rv::PPN_SHIFT),
            ))
            .expect("XO must decode");
        assert!(pte.flags.executable() && !pte.flags.writable());
        assert_eq!(pte.kind, PteKind::Frame(Pfn(7)));
    }

    #[test]
    fn context_tokens_have_the_documented_shape() {
        let asid = Asid {
            value: 0x123,
            rollover: 0,
        };
        let cr3 = ArchKind::X86_64.context_token(asid, Pfn(0x40));
        assert_eq!(cr3 & 0xFFF, 0x123, "PCID in CR3[11:0]");
        assert_eq!(cr3 >> 12, 0x40, "root frame above");
        let satp = ArchKind::Riscv64Sv48.context_token(asid, Pfn(0x40));
        assert_eq!(satp >> 60, 9, "MODE=Sv48");
        assert_eq!((satp >> 44) & 0xFFFF, 0x123, "ASID field");
        assert_eq!(satp & ((1 << 44) - 1), 0x40, "root PPN");
    }

    #[test]
    fn allocator_rolls_over_with_a_new_epoch() {
        let mut a = AsidAllocator::with_capacity(3);
        let first: Vec<Asid> = (0..3).map(|_| a.alloc()).collect();
        assert_eq!(
            first.iter().map(|a| a.value).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(first.iter().all(|a| a.rollover == 0));
        let wrapped = a.alloc();
        assert_eq!(wrapped.value, 1, "values repeat after the wrap");
        assert_eq!(wrapped.rollover, 1, "…but under a new epoch");
        assert_ne!(first[0], wrapped, "(value, rollover) never repeats");
    }

    #[test]
    fn global_allocators_hand_out_distinct_live_values() {
        let a = ArchKind::X86_64.allocate_asid();
        let b = ArchKind::X86_64.allocate_asid();
        assert_ne!((a.value, a.rollover), (b.value, b.rollover));
        assert!(a.value >= 1 && b.value >= 1);
    }
}
