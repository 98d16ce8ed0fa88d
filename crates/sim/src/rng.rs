//! Deterministic seed derivation.
//!
//! Every stochastic component (traffic generator, loss models, think times,
//! …) draws from its own RNG seeded from the experiment's master seed and a
//! component label. Runs with the same configuration are therefore
//! bit-reproducible, and changing one component's draws does not perturb the
//! others — the property that makes "multiple runs of the same scenario with
//! different configuration settings" (paper §1) meaningful.

/// Derives a 64-bit seed from a master seed and a component label.
///
/// Uses the SplitMix64 finalizer over a FNV-1a hash of the label; cheap,
/// stable across platforms, and well-distributed for our purposes (this is
/// not a cryptographic construction).
///
/// # Examples
///
/// ```
/// use dbsm_sim::derive_seed;
/// let a = derive_seed(42, "client-0");
/// let b = derive_seed(42, "client-1");
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, "client-0"));
/// ```
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(master ^ h)
}

/// Derives a seed from a master seed and a numeric index (convenience for
/// per-site / per-client streams).
pub fn derive_seed_indexed(master: u64, label: &str, index: u64) -> u64 {
    splitmix64(derive_seed(master, label) ^ splitmix64(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// The SplitMix64 step: adds the golden-ratio increment to `z`, then
/// applies the SplitMix64 finalizer. Seeds, the warehouse placement and the
/// bench artifacts' configuration hashes all use this one mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(1, "x"), derive_seed(1, "x"));
        assert_eq!(derive_seed_indexed(1, "x", 7), derive_seed_indexed(1, "x", 7));
    }

    #[test]
    fn label_and_master_both_matter() {
        assert_ne!(derive_seed(1, "x"), derive_seed(1, "y"));
        assert_ne!(derive_seed(1, "x"), derive_seed(2, "x"));
        assert_ne!(derive_seed_indexed(1, "x", 0), derive_seed_indexed(1, "x", 1));
    }

    #[test]
    fn known_splitmix64_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn spreads_small_indices() {
        // Consecutive indices should not produce near-identical seeds.
        let a = derive_seed_indexed(0, "c", 0);
        let b = derive_seed_indexed(0, "c", 1);
        assert!((a ^ b).count_ones() > 8, "{a:#x} vs {b:#x}");
    }
}
