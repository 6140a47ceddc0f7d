//! Simulated time.

use nt_intern::codec::{Decode, DecodeError, Encode, Reader, Writer};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, stored as integer microseconds so that event
/// ordering is exact and platform independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from fractional seconds (rounds to microseconds).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e6).round() as u64)
    }

    /// The time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The time as whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl Encode for SimTime {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.0);
    }
}

impl Decode for SimTime {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SimTime(r.varint()?))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_secs_f64(), 0.5);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(13));
        assert_eq!(a - b, SimTime::from_millis(7));
        assert_eq!(b - a, SimTime::ZERO, "saturating subtraction");
        assert!(b < a);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(13));
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }
}
