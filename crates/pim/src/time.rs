//! Simulation time, kept in integer picoseconds for determinism.
//!
//! All latencies in the simulator are [`Ps`] values. Using an integer unit
//! (rather than `f64` nanoseconds) makes event ordering exact and keeps the
//! simulator reproducible across platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or point in simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use pushtap_pim::Ps;
///
/// let t = Ps::from_ns(2.5) + Ps::from_us(0.2);
/// assert_eq!(t, Ps::new(202_500));
/// assert!((t.as_us() - 0.2025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ps(u64);

impl Ps {
    /// Zero duration.
    pub const ZERO: Ps = Ps(0);

    /// Creates a duration from raw picoseconds.
    pub const fn new(ps: u64) -> Ps {
        Ps(ps)
    }

    /// Creates a duration from nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Ps {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns} ns");
        Ps((ns * 1e3).round() as u64)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us(us: f64) -> Ps {
        assert!(us.is_finite() && us >= 0.0, "invalid duration: {us} us");
        Ps((us * 1e6).round() as u64)
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms(ms: f64) -> Ps {
        assert!(ms.is_finite() && ms >= 0.0, "invalid duration: {ms} ms");
        Ps((ms * 1e9).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn ps(self) -> u64 {
        self.0
    }

    /// This duration expressed in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration expressed in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub fn saturating_sub(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_sub(rhs.0))
    }

    /// The larger of `self` and `other`.
    pub fn max(self, other: Ps) -> Ps {
        Ps(self.0.max(other.0))
    }

    /// The smaller of `self` and `other`.
    pub fn min(self, other: Ps) -> Ps {
        Ps(self.0.min(other.0))
    }

    /// Multiplies by a floating-point scale factor, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Ps {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        Ps((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl Add for Ps {
    type Output = Ps;
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    fn sub_assign(&mut self, rhs: Ps) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Mul<Ps> for u64 {
    type Output = Ps;
    fn mul(self, rhs: Ps) -> Ps {
        Ps(self * rhs.0)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        Ps(iter.map(|p| p.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Ps::from_ns(2.5).ps(), 2_500);
        assert_eq!(Ps::from_us(0.2).ps(), 200_000);
        assert_eq!(Ps::from_ms(1.0).ps(), 1_000_000_000);
        assert_eq!(Ps::new(7).ps(), 7);
    }

    #[test]
    fn unit_conversions() {
        let t = Ps::from_us(3.9);
        assert!((t.as_ns() - 3_900.0).abs() < 1e-9);
        assert!((t.as_us() - 3.9).abs() < 1e-12);
        assert!((t.as_ms() - 0.0039).abs() < 1e-15);
        assert!((t.as_secs() - 3.9e-6).abs() < 1e-18);
    }

    #[test]
    fn arithmetic() {
        let a = Ps::new(100);
        let b = Ps::new(40);
        assert_eq!(a + b, Ps::new(140));
        assert_eq!(a - b, Ps::new(60));
        assert_eq!(a * 3, Ps::new(300));
        assert_eq!(3 * a, Ps::new(300));
        assert_eq!(a / 4, Ps::new(25));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Ps::new(100).scale(1.5), Ps::new(150));
        assert_eq!(Ps::new(3).scale(0.5), Ps::new(2)); // banker's-free round
    }

    #[test]
    fn sum_of_iter() {
        let total: Ps = (1..=4).map(Ps::new).sum();
        assert_eq!(total, Ps::new(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Ps::new(500).to_string(), "500ps");
        assert_eq!(Ps::from_ns(2.5).to_string(), "2.500ns");
        assert_eq!(Ps::from_us(12.0).to_string(), "12.000us");
        assert_eq!(Ps::from_ms(3.0).to_string(), "3.000ms");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = Ps::from_ns(-1.0);
    }
}
