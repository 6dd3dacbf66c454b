//! Simulated time.
//!
//! All simulator time is kept as an integer number of nanoseconds since the
//! start of the simulation. Integer time keeps the event queue total-ordered
//! and runs bit-identical across platforms, which the study relies on for
//! reproducibility (the optimizer compares candidate protocols by re-running
//! the same scenario draws).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// `x.round() as u64`, bit for bit, without the call: baseline x86-64 has
/// no rounding instruction, so `f64::round` is a library routine, and
/// every acknowledgment converts several durations. Truncate (the cast
/// saturates: NaN and negatives to 0, beyond range to `u64::MAX`), then
/// add one if the dropped fraction is at least a half. The subtraction is
/// exact (for `x ≥ 1`, `t ≤ x < 2t`, Sterbenz), so a fraction just below
/// a half never rounds up the way `(x + 0.5) as u64` does.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any reachable simulation horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Instant from (non-negative) seconds since simulation start.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0, "negative SimTime");
        SimTime(round_to_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Milliseconds since simulation start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration since an earlier instant. Saturates to zero if `earlier`
    /// is actually later (can happen with echoed timestamps from a
    /// pre-reset epoch; callers treat zero as "unknown").
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Instant `d` earlier, or `None` on underflow.
    pub fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// A span longer than any reachable simulation horizon.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Span from (non-negative, finite) seconds, rounded to nanoseconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(
            secs >= 0.0 && secs.is_finite(),
            "invalid SimDuration: {secs}"
        );
        SimDuration(round_to_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Span from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span in milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Whether the span is zero-length.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self - other`, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale a duration by a non-negative factor.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0);
        SimDuration(round_to_u64(self.0 as f64 * k))
    }

    /// Integer division by a count (used by CoDel's `interval / sqrt(count)`
    /// is done in float; this is for even splits).
    pub fn div_u64(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k.max(1))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= other.0, "SimDuration underflow");
        SimDuration(self.0 - other.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        self.div_u64(k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_millis(150);
        assert_eq!(d.as_nanos(), 150 * NANOS_PER_MILLI);
        assert!((d.as_secs_f64() - 0.150).abs() < 1e-12);
        assert!((d.as_millis_f64() - 150.0).abs() < 1e-12);
        let d2 = SimDuration::from_secs_f64(0.150);
        assert_eq!(d, d2);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        let u = t + SimDuration::from_millis(500);
        assert_eq!((u - t).as_millis_f64(), 500.0);
        // saturating: earlier.since(later) == 0
        assert_eq!(t.since(u), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
        assert_eq!(d.div_u64(0), d, "division by zero clamps to 1");
    }

    #[test]
    fn ordering() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(1.000000001);
        assert!(a < b);
        assert!(SimTime::MAX > b);
    }

    #[test]
    fn round_to_u64_is_round_then_cast() {
        let check = |x: f64| {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        };
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -0.5,
            -1.5,
            -1e300,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4503599627370495.5, // 2⁵² − 0.5
            4503599627370496.0 + 0.5,
            2251799813685248.5, // 2⁵¹ + 0.5
            9007199254740993.0,
            9223372036854775808.0, // 2⁶³
            18446744073709549568.0,
            18446744073709551616.0, // 2⁶⁴
            1e30,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ] {
            check(x);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..5_000_000 {
            let bits = next();
            // Any bit pattern: NaNs, infinities, subnormals, negatives.
            check(f64::from_bits(bits));
            // Integers and half-integers near every magnitude the engine
            // sees, scaled off the grid by a power of two.
            let int = (next() >> (bits % 64)) as f64;
            check(int + 0.5);
            check(int / (1u64 << (bits % 16)) as f64);
        }
    }

    #[test]
    fn saturating_sub_duration() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(7);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(2));
    }
}
