//! Checked numeric conversions — the single audited home for every cast in
//! the simulator.
//!
//! The determinism lint (L5, `crates/lint`) rejects bare `as` casts to
//! integer types anywhere in this crate: a silent truncation between
//! time/node-count representations is exactly the kind of bug that
//! corrupts a replay without failing a test. All conversions therefore go
//! through these helpers, which either are provably lossless (guarded by
//! the compile-time width assertion below) or saturate explicitly. The few
//! residual `as` casts in this module are each annotated and justified.

// The simulator targets 32- and 64-bit platforms: a u32 id always fits in
// a usize, so `index_u32` below is lossless.
const _: () = assert!(
    usize::BITS >= u32::BITS,
    "mppdb-sim requires usize to hold a u32"
);

/// Lossless `u32 -> usize` for indexing node/instance tables.
#[inline]
pub fn index_u32(i: u32) -> usize {
    i as usize // lint: allow(cast)
}

/// Saturating `usize -> u32` for counters that semantically fit (node and
/// instance counts). Saturation, never wraparound: a cluster with more than
/// `u32::MAX` nodes is already unrepresentable upstream.
#[inline]
pub fn count_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Saturating `usize -> u64` for accumulators (lossless on every supported
/// platform; saturates on a hypothetical 128-bit usize).
#[inline]
pub fn count_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// `f64` milliseconds -> `u64`, rounding to the nearest tick. Negative and
/// non-finite inputs map to zero; overflow saturates (Rust float->int `as`
/// casts saturate since 1.45, which this helper makes explicit and audited).
#[inline]
pub fn round_ms_f64(ms: f64) -> u64 {
    if !ms.is_finite() || ms <= 0.0 {
        return 0;
    }
    ms.round() as u64 // lint: allow(cast)
}

/// `f64` milliseconds -> `u64`, rounding *up* so scheduled wake-ups never
/// fire before the work is done. Negative/non-finite map to zero.
#[inline]
pub fn ceil_ms_f64(ms: f64) -> u64 {
    if !ms.is_finite() || ms <= 0.0 {
        return 0;
    }
    ms.ceil() as u64 // lint: allow(cast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips_through_count() {
        for i in [0u32, 1, 17, u32::MAX] {
            assert_eq!(count_u32(index_u32(i)), i);
        }
    }

    #[test]
    fn count_saturates_instead_of_wrapping() {
        assert_eq!(count_u32(usize::MAX), u32::MAX);
    }

    #[test]
    fn float_conversions_clamp_garbage_to_zero() {
        assert_eq!(round_ms_f64(-1.0), 0);
        assert_eq!(round_ms_f64(f64::NAN), 0);
        assert_eq!(round_ms_f64(f64::NEG_INFINITY), 0);
        assert_eq!(round_ms_f64(1.4), 1);
        assert_eq!(round_ms_f64(1.5), 2);
        assert_eq!(ceil_ms_f64(1.0001), 2);
        assert_eq!(ceil_ms_f64(f64::NAN), 0);
    }

    #[test]
    fn overflow_saturates() {
        assert_eq!(round_ms_f64(f64::INFINITY), 0, "non-finite maps to zero");
        assert_eq!(round_ms_f64(1e300), u64::MAX);
        assert_eq!(ceil_ms_f64(1e300), u64::MAX);
    }
}
