//! Simulated time.
//!
//! The simulation clock is a [`SimTime`]: nanoseconds elapsed since the start
//! of the simulation. Durations are expressed with [`std::time::Duration`],
//! which keeps call sites readable (`sim.schedule_in(Duration::from_millis(5), …)`)
//! while the kernel internally works on `u64` nanoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is a transparent ordering-friendly wrapper; arithmetic with
/// [`Duration`] saturates rather than wrapping so that pathological fault
/// injection (e.g. extreme clock drift) cannot corrupt the timeline.
///
/// # Examples
///
/// ```
/// use dbsm_sim::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, or [`Duration::ZERO`] if `earlier`
    /// is in the future (mirrors [`std::time::Instant::saturating_duration_since`]).
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_to_nanos(rhs)))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        self.saturating_duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Converts a [`Duration`] to `u64` nanoseconds, saturating on overflow.
///
/// Simulated experiments run for minutes to hours of virtual time, far below
/// the ~584 years a `u64` of nanoseconds can express, so saturation is only a
/// guard against adversarial fault-injection parameters.
pub fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Scales a duration by a dimensionless factor, used for CPU-speed scaling
/// and fault-injection clock drift. Negative or NaN factors are clamped to 0.
pub fn scale_duration(d: Duration, factor: f64) -> Duration {
    if factor.is_nan() || factor <= 0.0 {
        return Duration::ZERO;
    }
    let ns = duration_to_nanos(d);
    if factor == 1.0 && ns < 1 << 53 {
        // What the float path computes: an f64 holds every integer below 2^53.
        return d;
    }
    let ns = ns as f64 * factor;
    if ns >= u64::MAX as f64 {
        Duration::from_nanos(u64::MAX)
    } else {
        Duration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_millis(2) + Duration::from_micros(500);
        assert_eq!(t.as_nanos(), 2_500_000);
    }

    #[test]
    fn add_saturates() {
        let t = SimTime::MAX + Duration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn subtraction_is_saturating() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(3);
        assert_eq!(b - a, Duration::from_millis(2));
        assert_eq!(a - b, Duration::ZERO);
        assert_eq!(a.saturating_duration_since(b), Duration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000000s");
    }

    #[test]
    fn scale_duration_clamps() {
        assert_eq!(scale_duration(Duration::from_secs(1), 0.5), Duration::from_millis(500));
        assert_eq!(scale_duration(Duration::from_secs(1), -1.0), Duration::ZERO);
        assert_eq!(scale_duration(Duration::from_secs(1), f64::NAN), Duration::ZERO);
        let odd = Duration::from_nanos((1 << 53) - 1);
        assert_eq!(scale_duration(odd, 1.0), odd);
        let past = Duration::from_nanos((1 << 53) + 1);
        assert_eq!(scale_duration(past, 1.0), Duration::from_nanos(1 << 53));
    }
}
