//! Zipf sampling of tenant sizes.
//!
//! §7.1 Step 2: "The skewness of the tenant size is chosen by sampling from
//! the CDF of a Zipf distribution with a parameter 0 < θ < 1, where a smaller
//! θ tends to uniform whereas a larger θ tends to skew. The default θ is
//! 0.8." Rank 1 is the smallest size (2-node tenants are the most common, as
//! in Figure 5.2 where counts decrease with parallelism).

use rand::Rng;

/// A sampler over `n` ranks with Zipf weight `1 / rank^θ`.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative distribution over ranks `0..n`.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with skew parameter `theta`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must lie in (0, 1), got {theta}"
        );
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in weights {
            // Order pinned: the CDF prefix sum walks ranks 1..=n in a
            // fixed sequential loop.
            // lint: allow(float-merge)
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against floating point: the last entry must cover u = 1.0.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Samples a 0-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    /// Probability of rank `k` (0-based), read off the CDF.
    fn probability(z: &ZipfSampler, k: usize) -> f64 {
        if k == 0 {
            z.cdf[0]
        } else {
            z.cdf[k] - z.cdf[k - 1]
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfSampler::new(5, 0.8);
        let total: f64 = (0..5).map(|k| probability(&z, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_ranks_are_more_likely() {
        let z = ZipfSampler::new(5, 0.8);
        for k in 1..5 {
            assert!(probability(&z, k) < probability(&z, k - 1));
        }
    }

    #[test]
    fn small_theta_tends_to_uniform() {
        let near_uniform = ZipfSampler::new(5, 0.01);
        let skewed = ZipfSampler::new(5, 0.99);
        // Ratio of most to least likely rank.
        let ratio_u = probability(&near_uniform, 0) / probability(&near_uniform, 4);
        let ratio_s = probability(&skewed, 0) / probability(&skewed, 4);
        assert!(ratio_u < 1.1, "near-uniform ratio {ratio_u}");
        assert!(ratio_s > 3.0, "skewed ratio {ratio_s}");
    }

    #[test]
    fn sampling_matches_probabilities() {
        let z = ZipfSampler::new(5, 0.8);
        let mut rng = stream_rng(1, 0, 0);
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let empirical = count as f64 / n as f64;
            assert!(
                (empirical - probability(&z, k)).abs() < 0.01,
                "rank {k}: empirical {empirical}, expected {}",
                probability(&z, k)
            );
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_theta_of_one() {
        let _ = ZipfSampler::new(5, 1.0);
    }
}
