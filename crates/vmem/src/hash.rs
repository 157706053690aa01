//! A deterministic, non-keyed hasher for page-granular `u64` keys.
//!
//! The std `HashMap` defaults to SipHash-1-3 with a per-process random
//! key — robust against adversarial keys, but measurably expensive on
//! the translate hot path, where every L2 TLB probe (keyed by ASID and
//! page) and every leaf-node cache probe (keyed by ASID and 2 MiB
//! prefix) hashes one such key. The keys here are *trusted* (virtual
//! page numbers minted by the kernel's own allocator, never
//! attacker-chosen), so a keyed hash buys nothing.
//!
//! [`PageHasher`] is a splitmix64-style finalizer: one xor, two
//! multiply-shift rounds. It is also *deterministic across processes*,
//! which the testkit's replay suites rely on for byte-identical traces.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` plugging [`PageHasher`] into a `HashMap`.
pub(crate) type BuildPageHasher = BuildHasherDefault<PageHasher>;

/// One-shot multiply-xor hasher for `u64` keys (see module docs).
#[derive(Default, Clone)]
pub(crate) struct PageHasher(u64);

impl PageHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        // splitmix64 finalizer: full avalanche over 64 bits, two
        // multiplies — an order of magnitude cheaper than SipHash for
        // single-word keys.
        let mut x = self.0 ^ v;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64 keys this is built for,
        // but required for completeness): fold 8 bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_and_collision_free_over_page_runs() {
        let mut m: HashMap<u64, u64, BuildPageHasher> = HashMap::default();
        for i in 0..4096u64 {
            m.insert(0x0031_0000_0000_0000 + i * 4096, i);
        }
        for i in 0..4096u64 {
            assert_eq!(m.get(&(0x0031_0000_0000_0000 + i * 4096)), Some(&i));
        }
        // Same value hashes the same in fresh hashers (no random key).
        let h = |v: u64| {
            let mut h = PageHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(0xdead_beef), h(0xdead_beef));
        assert_ne!(h(0x1000), h(0x2000));
    }
}
