//! Simulated time.
//!
//! The simulator runs on a virtual clock with millisecond resolution. All
//! experiments in the paper span between a few seconds (a single query) and 30
//! days (a full tenant-log horizon), so a `u64` millisecond counter gives both
//! enough range (584 million years) and enough resolution for the 0.1 s epoch
//! sweep of Figure 7.1.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, measured in milliseconds since the
/// start of the simulation.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ms` milliseconds after the simulation start.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Milliseconds since simulation start.
    pub const fn as_ms(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Creates a duration from a float second count, rounding to the nearest
    /// millisecond. Negative and non-finite inputs map to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(crate::convert::round_ms_f64(secs * 1000.0))
    }

    /// Creates a duration from a float millisecond count, rounding to the
    /// nearest millisecond. Negative and non-finite inputs map to zero.
    pub fn from_ms_f64(ms: f64) -> Self {
        SimDuration(crate::convert::round_ms_f64(ms))
    }

    /// Milliseconds in this duration.
    pub const fn as_ms(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        // Mirrors std::time::Duration: `-` on an underflow is a programmer
        // error and panics (there is a #[should_panic] test pinning this);
        // fallible call sites use `saturating_sub` instead.
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"), // lint: allow(panic)
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms < 1_000 {
            write!(f, "{ms}ms")
        } else if ms < 60_000 {
            write!(f, "{:.1}s", ms as f64 / 1000.0)
        } else if ms < 3_600_000 {
            write!(f, "{:.1}min", ms as f64 / 60_000.0)
        } else if ms < 86_400_000 {
            write!(f, "{:.2}h", ms as f64 / 3_600_000.0)
        } else {
            write!(f, "{:.2}d", ms as f64 / 86_400_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10) + SimDuration::from_ms(500);
        assert_eq!(t.as_ms(), 10_500);
        assert_eq!(t.saturating_since(SimTime::from_secs(10)).as_ms(), 500);
        assert_eq!(
            t.saturating_since(SimTime::from_secs(20)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_construction_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1.2345).as_ms(), 1235);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ms_f64(0.6).as_ms(), 1);
    }

    #[test]
    fn display_picks_humane_units() {
        assert_eq!(SimDuration::from_ms(12).to_string(), "12ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.0s");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1.5min");
        assert_eq!(SimDuration::from_secs(7200).to_string(), "2.00h");
        assert_eq!(
            (SimDuration::from_secs(86_400) + SimDuration::from_secs(86_400)).to_string(),
            "2.00d"
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_ms(1) - SimDuration::from_ms(2);
    }
}
