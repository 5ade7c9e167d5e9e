//! Virtual time, durations, and bandwidth arithmetic.
//!
//! The simulator keeps time as a count of nanoseconds since the start of the
//! run. A `u64` of nanoseconds covers roughly 584 years of simulated time,
//! which is comfortably more than any experiment here needs, while still
//! resolving the sub-millisecond character times of a 9600-baud serial line
//! and the microsecond-scale Ethernet transmissions.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of simulated time, in nanoseconds since the start of the run.
///
/// `SimTime` is ordered and supports the natural arithmetic with
/// [`SimDuration`]. It deliberately does *not* implement `Add<SimTime>`:
/// adding two instants is meaningless.
///
/// # Examples
///
/// ```
/// use sim::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(250);
/// assert_eq!(t1 - t0, SimDuration::from_millis(250));
/// assert!(t1 > t0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use sim::SimDuration;
///
/// let d = SimDuration::from_millis(1) + SimDuration::from_micros(500);
/// assert_eq!(d.as_nanos(), 1_500_000);
/// assert_eq!(d * 2, SimDuration::from_millis(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the start of the run.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since the start of the run.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since the start of the run.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds since the start of the run.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is actually later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the instant advanced by `d`, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, non-finite, or too large to represent.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let ns = s * 1e9;
        assert!(ns <= u64::MAX as f64, "duration too large: {s}s");
        SimDuration(ns.round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating multiplication by an integer factor.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Formats a nanosecond count with a human-scale unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A link rate in bits per second, with helpers for serialization delay.
///
/// The paper's central performance observation (§3) is that at 1200 bit/s
/// "the transmission time is the dominant factor in determining throughput
/// and latency" — this type is how every link model in the workspace turns
/// byte counts into time.
///
/// # Examples
///
/// ```
/// use sim::{Bandwidth, SimDuration};
///
/// let radio = Bandwidth::bps(1200);
/// // A 150-byte AX.25 frame takes a full second at 1200 bit/s.
/// assert_eq!(radio.time_for_bytes(150), SimDuration::from_secs(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// The classic 1200 bit/s AFSK packet-radio channel rate.
    pub const RADIO_1200: Bandwidth = Bandwidth::bps(1200);

    /// 10 Mb/s Ethernet, the department LAN in the paper.
    pub const ETHERNET_10M: Bandwidth = Bandwidth::bps(10_000_000);

    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub const fn bps(bits_per_sec: u64) -> Bandwidth {
        assert!(bits_per_sec > 0, "bandwidth must be positive");
        Bandwidth { bits_per_sec }
    }

    /// Returns the rate in bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Time to serialize `bits` onto the link, rounded up to a nanosecond.
    #[inline]
    pub fn time_for_bits(self, bits: u64) -> SimDuration {
        // ceil(bits * 1e9 / rate) without overflow for realistic sizes:
        // bits fits easily in u64 * 1e9 as u128.
        let ns = (bits as u128 * 1_000_000_000u128).div_ceil(self.bits_per_sec as u128);
        SimDuration::from_nanos(u64::try_from(ns).expect("serialization time overflow"))
    }

    /// Time to serialize `bytes` octets (8 bits each) onto the link.
    #[inline]
    pub fn time_for_bytes(self, bytes: usize) -> SimDuration {
        self.time_for_bits(bytes as u64 * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(7), SimDuration::from_nanos(7000));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn bandwidth_serialization_times() {
        // 1200 bit/s: one byte = 8 bits = 6.666..ms (rounded up).
        let b = Bandwidth::RADIO_1200;
        assert_eq!(b.time_for_bytes(0), SimDuration::ZERO);
        assert_eq!(b.time_for_bits(1200), SimDuration::from_secs(1));
        let one_byte = b.time_for_bytes(1);
        assert_eq!(one_byte, SimDuration::from_nanos(6_666_667));

        // 10 Mb/s Ethernet: 1500 bytes = 1.2ms.
        assert_eq!(
            Bandwidth::ETHERNET_10M.time_for_bytes(1500),
            SimDuration::from_micros(1200)
        );
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.min(y), x);
        assert_eq!(x.max(y), y);
    }

    #[test]
    fn display_formats_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}
