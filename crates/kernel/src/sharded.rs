//! Fleet mode: the machine as N independent kernel shards.
//!
//! The ROADMAP's production target — "heavy traffic from millions of
//! users" — is not one address space with one randomizer; it is many
//! driver instances re-randomizing concurrently across *independent
//! shards*, so that no lock, no TLB invalidation log, no snapshot-SMR
//! domain, and no deadline heap is shared between tenants that have no
//! reason to share fate. [`ShardedKernel`] is that partition:
//!
//! * each shard is a full [`Kernel`] — its own [`AddressSpace`]
//!   (own page-table snapshots, own invalidation ring, own snapshot-SMR
//!   domain), its own per-CPU TLB set (every `Vm` of that shard syncs
//!   against that shard's generation timeline only), heap, devices,
//!   VFS, and seeded RNG;
//! * each shard's randomization arena is one of the disjoint
//!   [`layout::shard_windows`] carved from `[0, MODULE_CEILING)`, so a
//!   virtual address can belong to at most one shard — cross-shard VA
//!   overlap is impossible by construction and *checkable* by the
//!   testkit's fleet oracle (a shard-A leak fired at shard B must
//!   fault);
//! * shard seeds derive deterministically from the fleet seed
//!   (`splitmix64(seed, shard)`), so a whole fleet replays
//!   byte-identically from one number.
//!
//! Module placement across shards, live migration, and the per-shard
//! scheduler groups under one global CPU budget live one layer up
//! (`adelie-core::fleet`, `adelie-sched::FleetScheduler`) — this type
//! owns exactly the kernel-substrate half of fleet mode.

use crate::{layout, Kernel, KernelConfig};
use std::sync::Arc;

/// Boot-time description of a kernel fleet.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Template configuration applied to every shard. Per-shard values
    /// (seed, module window) are derived from it; everything else is
    /// copied verbatim.
    pub base: KernelConfig,
}

impl FleetConfig {
    /// `shards` shards over the default kernel configuration.
    pub fn new(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            base: KernelConfig::default(),
        }
    }

    /// `shards` shards seeded from `seed`.
    pub fn seeded(shards: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            shards,
            base: KernelConfig {
                seed,
                ..KernelConfig::default()
            },
        }
    }
}

/// splitmix64 — the standard seed-derivation mixer; shard seeds must be
/// decorrelated (adjacent raw seeds produce near-identical SmallRng
/// streams) yet fully determined by `(fleet seed, shard index)`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// N independent kernel shards over disjoint randomization windows.
pub struct ShardedKernel {
    shards: Vec<Arc<Kernel>>,
    windows: Vec<(u64, u64)>,
    config: FleetConfig,
}

impl ShardedKernel {
    /// Boot a fleet: `config.shards` kernels, shard `i` seeded with
    /// `splitmix64(base.seed ⊕ i)` and confined to window `i` of
    /// [`layout::shard_windows`].
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(config: FleetConfig) -> Arc<ShardedKernel> {
        assert!(config.shards > 0, "fleet needs at least one shard");
        let windows = layout::shard_windows(config.shards);
        let shards = windows
            .iter()
            .enumerate()
            .map(|(i, &window)| {
                Kernel::new(KernelConfig {
                    seed: splitmix64(config.base.seed ^ (i as u64)),
                    module_window: window,
                    ..config.base.clone()
                })
            })
            .collect();
        Arc::new(ShardedKernel {
            shards,
            windows,
            config,
        })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet has zero shards (never true — kept for clippy's
    /// `len`-without-`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Shard `i`'s kernel.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &Arc<Kernel> {
        &self.shards[i]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Arc<Kernel>] {
        &self.shards
    }

    /// Shard `i`'s `[lo, hi)` randomization window.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn window(&self, i: usize) -> (u64, u64) {
        self.windows[i]
    }

    /// Which shard's window contains `va`, if any (addresses at or above
    /// `MODULE_CEILING` belong to the fixed kernel regions of *every*
    /// shard and return `None`).
    pub fn shard_of_va(&self, va: u64) -> Option<usize> {
        self.windows
            .iter()
            .position(|&(lo, hi)| va >= lo && va < hi)
    }

    /// The boot configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Fleet-wide TLB counter totals: the sum of every shard kernel's
    /// per-CPU published counters (see [`Kernel::tlb_totals`]).
    pub fn tlb_totals(&self) -> adelie_vmem::TlbStats {
        let mut out = adelie_vmem::TlbStats::default();
        for shard in &self.shards {
            out += shard.tlb_totals();
        }
        out
    }
}

impl std::fmt::Debug for ShardedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("shards", &self.shards.len())
            .field("windows", &self.windows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_independent_and_windowed() {
        let fleet = ShardedKernel::new(FleetConfig::seeded(4, 7));
        assert_eq!(fleet.len(), 4);
        // Distinct address spaces, distinct seeds, tiled windows.
        let mut ids: Vec<u64> = fleet.shards().iter().map(|k| k.space.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "every shard owns its own address space");
        let mut seeds: Vec<u64> = fleet.shards().iter().map(|k| k.config.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "shard seeds must be decorrelated");
        for i in 0..4 {
            assert_eq!(fleet.shard(i).config.module_window, fleet.window(i));
        }
        assert_eq!(fleet.shard_of_va(0), Some(0));
        assert_eq!(fleet.shard_of_va(fleet.window(3).0), Some(3));
        assert_eq!(fleet.shard_of_va(layout::MODULE_CEILING), None);
    }

    /// Fleet shards inherit the template's ISA backend verbatim, and
    /// every shard's address space carries its *own* ASID — the
    /// precondition for a roaming TLB to keep tagged entries across
    /// shard switches instead of flushing.
    #[test]
    fn shards_share_arch_but_own_distinct_asids() {
        use adelie_vmem::ArchKind;
        let fleet = ShardedKernel::new(FleetConfig {
            shards: 4,
            base: KernelConfig {
                arch: ArchKind::Riscv64Sv48,
                ..KernelConfig::default()
            },
        });
        let mut asids = Vec::new();
        for k in fleet.shards() {
            assert_eq!(k.config.arch, ArchKind::Riscv64Sv48);
            assert_eq!(k.space.arch(), ArchKind::Riscv64Sv48);
            assert_eq!(
                k.config.fuel,
                KernelConfig::default().fuel,
                "template default must carry over"
            );
            asids.push(k.space.asid());
        }
        asids.sort_unstable();
        asids.dedup();
        assert_eq!(asids.len(), 4, "every shard space needs its own ASID");
    }

    #[test]
    fn same_fleet_seed_replays_identically() {
        let a = ShardedKernel::new(FleetConfig::seeded(3, 99));
        let b = ShardedKernel::new(FleetConfig::seeded(3, 99));
        for i in 0..3 {
            assert_eq!(a.shard(i).config.seed, b.shard(i).config.seed);
            assert_eq!(a.shard(i).rng_u64(), b.shard(i).rng_u64());
        }
    }
}
