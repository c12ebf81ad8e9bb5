//! Virtual time for the simulation engine.
//!
//! [`SimTime`] is used both as an *instant* (seconds since simulation start)
//! and as a *duration*. Virtual seconds are represented as an `f64`; all
//! constructors and arithmetic reject NaN so that `SimTime` can provide a
//! total order (required by the event queue).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, or a span of virtual time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs as f64)
    }

    /// Creates a time from fractional seconds. Panics on NaN or negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        assert!(secs >= 0.0, "SimTime must be non-negative, got {secs}");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs_f64(ms * 1e-3)
    }

    /// Creates a time from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// Creates a time from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Self::from_secs_f64(ns * 1e-9)
    }

    /// The value in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: returns `ZERO` instead of a negative span.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        if self.0 >= rhs.0 {
            SimTime(self.0 - rhs.0)
        } else {
            SimTime::ZERO
        }
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finiteness is enforced at construction, so total_cmp agrees with
        // the usual order on the values we can hold.
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs_f64(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs_f64(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs_f64(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs_f64(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.6}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else if self.0 >= 1e-6 {
            write!(f, "{:.3}us", self.0 * 1e6)
        } else {
            write!(f, "{:.3}ns", self.0 * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(SimTime::from_millis(1.5).as_secs_f64(), 0.0015);
        assert_eq!(SimTime::from_micros(2.0).as_secs_f64(), 2e-6);
        assert!((SimTime::from_nanos(5.0).as_secs_f64() - 5e-9).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs_f64(2.0);
        let b = SimTime::from_secs_f64(0.5);
        assert_eq!((a + b).as_secs_f64(), 2.5);
        assert_eq!((a - b).as_secs_f64(), 1.5);
        assert_eq!((a * 2.0).as_secs_f64(), 4.0);
        assert_eq!((a / 4.0).as_secs_f64(), 0.5);
        assert_eq!(a / b, 4.0);
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(3.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs_f64(), 2.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_secs_f64(3.0),
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2].as_secs_f64(), 3.0);
    }

    #[test]
    fn sum_and_minmax() {
        let total: SimTime = [1.0, 2.0, 3.0]
            .iter()
            .map(|&s| SimTime::from_secs_f64(s))
            .sum();
        assert_eq!(total.as_secs_f64(), 6.0);
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250000s");
        assert_eq!(format!("{}", SimTime::from_millis(2.0)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_micros(7.0)), "7.000us");
    }
}
