//! Deterministic random-number helpers for workload generators.
//!
//! All generators draw from a [`ChaCha8Rng`] seeded from a user-provided
//! 64-bit seed plus a per-workload stream identifier, so that the same seed
//! reproduces bit-identical traces on every platform while different
//! workloads (and different CPUs within one workload) see uncorrelated
//! streams.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Creates a deterministic RNG for a `(seed, stream)` pair.
pub fn stream_rng(seed: u64, stream: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.set_stream(stream);
    rng
}

/// Draws `true` with probability `p` (clamped to `[0, 1]`).
pub fn coin(rng: &mut ChaCha8Rng, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    rng.gen_bool(p)
}

/// Draws an index in `[0, n)` with a Zipf-like skew: low indices are much
/// hotter than high indices.  `theta` in `(0, 1)` controls the skew (higher
/// is more skewed).
pub fn zipf_index(rng: &mut ChaCha8Rng, n: usize, theta: f64) -> usize {
    debug_assert!(n >= 1);
    // Inverse-power transform of a uniform draw: cheap and adequate for
    // generating hot-set behaviour without a full Zipf sampler.
    let u: f64 = rng.gen_range(0.0f64..1.0);
    let skew = u.powf(1.0 / (1.0 - theta.clamp(0.01, 0.99)));
    let idx = (skew * n as f64) as usize;
    idx.min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = stream_rng(7, 3);
        let mut b = stream_rng(7, 3);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = stream_rng(7, 0);
        let mut b = stream_rng(7, 1);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let mut rng = stream_rng(1, 1);
        let n = 1000;
        let mut low = 0usize;
        for _ in 0..10_000 {
            let i = zipf_index(&mut rng, n, 0.8);
            assert!(i < n);
            if i < n / 10 {
                low += 1;
            }
        }
        // With strong skew, far more than 10% of draws land in the lowest
        // decile.
        assert!(low > 3_000, "low-decile draws: {low}");
    }

    #[test]
    fn coin_extremes() {
        let mut rng = stream_rng(3, 3);
        assert!(!coin(&mut rng, 0.0));
        assert!(coin(&mut rng, 1.0));
    }
}
