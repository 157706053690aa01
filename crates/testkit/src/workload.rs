//! Heavy-tailed, seeded workload generation for fleet-scale drivers.
//!
//! Module popularity in a large driver catalog is not uniform: a few
//! hot modules take almost all calls while the long tail sits idle —
//! exactly the regime the cold-module tier is built for. [`ZipfSampler`] draws ranks from a
//! discrete Zipf(θ) distribution via a precomputed cumulative table
//! and binary search (O(log n) per draw, no rejection loop), and
//! [`Workload`] maps those ranks onto a tenant-structured module
//! catalog with a seeded rank→module permutation so the hot set is
//! scattered across tenants rather than clustered at low indices.
//!
//! Everything is a pure function of the seed: the same
//! [`WorkloadConfig`] replays the same call sequence byte-for-byte,
//! which is what lets `bench/fleet_scale` assert determinism across
//! runs and lets proptest shrink failures.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A discrete Zipf(θ) sampler over ranks `0..n`: rank `r` is drawn
/// with probability proportional to `1/(r+1)^θ`. `θ = 0` is uniform;
/// `θ ≈ 1` is the classic web/catalog skew; larger θ concentrates
/// harder.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative (unnormalized) weights; `cum[r]` = Σ_{i≤r} w_i.
    cum: Vec<f64>,
    rng: SmallRng,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `theta`, seeded.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64, seed: u64) -> ZipfSampler {
        assert!(n > 0, "zipf over an empty support");
        assert!(theta >= 0.0 && theta.is_finite(), "bad zipf exponent");
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cum.push(acc);
        }
        ZipfSampler {
            cum,
            rng: SmallRng::seed_from_u64(seed ^ 0x21F0_5EED),
        }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True if the support is empty (it never is; see [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&mut self) -> usize {
        let total = *self.cum.last().expect("non-empty support");
        let u = self.rng.gen_range(0.0..total);
        // partition_point: first rank whose cumulative weight exceeds u.
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }

    /// Fraction of the total probability mass carried by the hottest
    /// `k` ranks — how skewed this distribution actually is. Useful for
    /// sizing a resident cap: `mass(cap)` is the expected hot-set hit
    /// rate.
    pub fn mass(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let total = *self.cum.last().expect("non-empty support");
        self.cum[k.min(self.cum.len()) - 1] / total
    }
}

/// Shape of a generated module catalog + call stream.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadConfig {
    /// Catalog size (10^5..10^6 is the regime the cold tier targets).
    pub modules: usize,
    /// Tenants the catalog is striped across; module `i` belongs to
    /// tenant `i % tenants` and is named `t{tenant}_m{i}`.
    pub tenants: usize,
    /// Zipf exponent for call popularity (see [`ZipfSampler`]).
    pub theta: f64,
    /// Seed for both the popularity permutation and the call stream.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            modules: 1_000,
            tenants: 8,
            theta: 1.1,
            seed: 42,
        }
    }
}

/// A tenant-structured catalog with a heavy-tailed call stream.
///
/// Popularity rank `r` maps to module `perm[r]` through a seeded
/// Fisher–Yates permutation, so the hot set lands on arbitrary
/// tenants — a tenant-pinned placement therefore concentrates hot
/// modules on whichever shards the hot tenants hash to.
#[derive(Clone, Debug)]
pub struct Workload {
    names: Vec<String>,
    tenants: Vec<usize>,
    perm: Vec<usize>,
    zipf: ZipfSampler,
}

impl Workload {
    /// Build the catalog and the sampler from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.modules` or `cfg.tenants` is zero.
    pub fn new(cfg: WorkloadConfig) -> Workload {
        assert!(cfg.tenants > 0, "workload needs at least one tenant");
        let mut names = Vec::with_capacity(cfg.modules);
        let mut tenants = Vec::with_capacity(cfg.modules);
        for i in 0..cfg.modules {
            let t = i % cfg.tenants;
            names.push(format!("t{t}_m{i}"));
            tenants.push(t);
        }
        let mut perm: Vec<usize> = (0..cfg.modules).collect();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5CA7_7E12);
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            perm.swap(i, j);
        }
        Workload {
            names,
            tenants,
            perm,
            zipf: ZipfSampler::new(cfg.modules, cfg.theta, cfg.seed),
        }
    }

    /// Every module name, in catalog (install) order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Tenant owning module index `i`.
    pub fn tenant(&self, i: usize) -> usize {
        self.tenants[i]
    }

    /// Draw the next call target's catalog index.
    pub fn next_index(&mut self) -> usize {
        self.perm[self.zipf.sample()]
    }

    /// Draw the next call target's name.
    pub fn next_name(&mut self) -> &str {
        let i = self.next_index();
        &self.names[i]
    }

    /// The `k` hottest module indices (popularity ranks 0..k through
    /// the permutation) — the working set a resident cap should hold.
    pub fn hot_set(&self, k: usize) -> Vec<usize> {
        self.perm[..k.min(self.perm.len())].to_vec()
    }

    /// See [`ZipfSampler::mass`].
    pub fn mass(&self, k: usize) -> f64 {
        self.zipf.mass(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_heavy_tailed_and_seeded() {
        let mut a = ZipfSampler::new(1_000, 1.1, 7);
        let mut b = ZipfSampler::new(1_000, 1.1, 7);
        let draws_a: Vec<usize> = (0..10_000).map(|_| a.sample()).collect();
        let draws_b: Vec<usize> = (0..10_000).map(|_| b.sample()).collect();
        assert_eq!(draws_a, draws_b, "same seed must replay the same stream");

        // With θ=1.1 over 1000 ranks the top 32 ranks carry the clear
        // majority of the mass — check both the analytic table and the
        // empirical draw agree.
        assert!(a.mass(32) > 0.5, "analytic top-32 mass {}", a.mass(32));
        let hot = draws_a.iter().filter(|&&r| r < 32).count();
        assert!(hot * 2 > draws_a.len(), "empirical top-32 hits {hot}/10000");

        // Uniform (θ=0) is flat: top-32 of 1000 carries ~3.2%.
        let flat = ZipfSampler::new(1_000, 0.0, 7);
        assert!(flat.mass(32) < 0.05);
    }

    #[test]
    fn workload_names_are_tenant_structured_and_permuted() {
        let mut w = Workload::new(WorkloadConfig {
            modules: 100,
            tenants: 4,
            theta: 1.2,
            seed: 9,
        });
        assert_eq!(w.names().len(), 100);
        assert_eq!(w.names()[6], "t2_m6");
        assert_eq!(w.tenant(6), 2);

        // The hot set is scattered by the permutation, not the prefix.
        let hot = w.hot_set(8);
        assert_ne!(hot, (0..8).collect::<Vec<_>>());

        // Stream replays under the same config.
        let mut w2 = Workload::new(WorkloadConfig {
            modules: 100,
            tenants: 4,
            theta: 1.2,
            seed: 9,
        });
        let s1: Vec<String> = (0..500).map(|_| w.next_name().to_string()).collect();
        let s2: Vec<String> = (0..500).map(|_| w2.next_name().to_string()).collect();
        assert_eq!(s1, s2);
    }
}
