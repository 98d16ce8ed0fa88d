//! TPC-C non-uniform random distribution (spec §2.1.6) and last-name
//! generation — the skew that drives customer hot-spots.

use crate::schema::{CUSTOMERS_PER_DISTRICT, ITEMS, LAST_NAMES};
use rand::Rng;

/// The C constants of NURand; fixed per run (spec allows any constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NurandC {
    /// C for customer-id selection (A = 1023).
    pub c_cid: u64,
    /// C for last-name selection (A = 255).
    pub c_lastname: u64,
    /// C for item selection (A = 8191).
    pub c_item: u64,
}

impl NurandC {
    /// Derives the run constants from an RNG.
    pub fn generate(rng: &mut impl Rng) -> Self {
        NurandC {
            c_cid: rng.gen_range(0..=1023),
            c_lastname: rng.gen_range(0..=255),
            c_item: rng.gen_range(0..=8191),
        }
    }
}

/// NURand(A, x, y) per TPC-C §2.1.6:
/// `((random(0, A) | random(x, y)) + C) % (y - x + 1) + x`.
pub fn nurand(rng: &mut impl Rng, a: u64, c: u64, x: u64, y: u64) -> u64 {
    let r1 = rng.gen_range(0..=a);
    let r2 = rng.gen_range(x..=y);
    (((r1 | r2) + c) % (y - x + 1)) + x
}

/// Non-uniform customer id in `1..=3000`.
pub fn customer_id(rng: &mut impl Rng, c: &NurandC) -> u64 {
    nurand(rng, 1023, c.c_cid, 1, CUSTOMERS_PER_DISTRICT)
}

/// Non-uniform item id in `1..=100000`.
pub fn item_id(rng: &mut impl Rng, c: &NurandC) -> u64 {
    nurand(rng, 8191, c.c_item, 1, ITEMS)
}

/// Non-uniform last-name id in `0..=999` (spec: NURand(255, 0, 999)).
pub fn last_name_id(rng: &mut impl Rng, c: &NurandC) -> u64 {
    nurand(rng, 255, c.c_lastname, 0, LAST_NAMES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let c = NurandC::generate(&mut rng);
        for _ in 0..10_000 {
            let v = customer_id(&mut rng, &c);
            assert!((1..=3000).contains(&v));
            let i = item_id(&mut rng, &c);
            assert!((1..=100_000).contains(&i));
            let n = last_name_id(&mut rng, &c);
            assert!(n < 1000);
        }
    }

    #[test]
    fn nurand_is_skewed() {
        // The OR of two uniforms concentrates mass on high-bit patterns:
        // the most popular value should be far above the uniform share.
        let mut rng = SmallRng::seed_from_u64(2);
        let c = NurandC { c_cid: 0, c_lastname: 0, c_item: 0 };
        let mut counts = vec![0u32; 1000];
        let n = 200_000;
        for _ in 0..n {
            counts[last_name_id(&mut rng, &c) as usize] += 1;
        }
        let max = *counts.iter().max().expect("non-empty");
        let uniform = n / 1000;
        assert!(max > uniform * 3, "max {max} vs uniform {uniform}");
    }
}
