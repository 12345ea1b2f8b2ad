//! Deterministic random-number plumbing.
//!
//! Every stochastic choice in the generator is derived from a single master
//! seed plus a *stream* label, so that (a) the whole 10 000-tenant corpus is
//! reproducible bit-for-bit and (b) regenerating one tenant's log does not
//! require regenerating the others (each tenant gets an independent stream).

use mppdb_sim::hash::{splitmix64, GOLDEN_GAMMA};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives an independent RNG for (`seed`, `stream`, `substream`).
///
/// Uses SplitMix64-style mixing to decorrelate nearby stream indices before
/// seeding the per-stream generator.
pub fn stream_rng(seed: u64, stream: u64, substream: u64) -> SmallRng {
    let x =
        seed ^ stream.wrapping_mul(GOLDEN_GAMMA) ^ substream.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    SmallRng::seed_from_u64(splitmix64(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_give_same_stream() {
        let a: Vec<u32> = stream_rng(42, 7, 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = stream_rng(42, 7, 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_decorrelate() {
        let a: Vec<u32> = stream_rng(42, 7, 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = stream_rng(42, 8, 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let c: Vec<u32> = stream_rng(43, 7, 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
