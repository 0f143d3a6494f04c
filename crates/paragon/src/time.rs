//! Simulated time.
//!
//! Time is a 64-bit count of nanoseconds since run start. Nanosecond
//! resolution holds round-off error at bay over the paper's longest runs
//! (ESCAT: ~6,000 s ≈ 6 × 10¹² ns, comfortably inside `u64`), and integer
//! arithmetic keeps the simulator deterministic across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since run start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The run start.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since run start.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since run start, as `f64` (report formatting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Saturating difference between two instants.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional seconds (rounds to nanoseconds; negative clamps to 0).
    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration((s.max(0.0) * 1.0e9).round() as u64)
    }

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Nanosecond count.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds, as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Scale by an integer factor.
    pub fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// Scale by a float factor (rounds; negative clamps to 0).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k).max(0.0).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Duration for transferring `bytes` at `bytes_per_sec`, rounded up to whole
/// nanoseconds (never zero for nonzero transfers on a finite-rate link).
pub fn transfer_time(bytes: u64, bytes_per_sec: f64) -> SimDuration {
    if bytes == 0 || bytes_per_sec <= 0.0 {
        return SimDuration::ZERO;
    }
    let ns = (bytes as f64 / bytes_per_sec) * 1.0e9;
    SimDuration(ns.ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        assert_eq!(t.nanos(), 2_000_000_000);
        assert_eq!(t.since(SimTime(500_000_000)).nanos(), 1_500_000_000);
        assert_eq!(SimTime(5).since(SimTime(9)).nanos(), 0); // saturates
        assert_eq!((SimDuration(3) + SimDuration(4)).nanos(), 7);
        assert_eq!((SimDuration(3) - SimDuration(4)).nanos(), 0);
        assert_eq!(SimDuration::from_millis(1).nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(1).nanos(), 1_000);
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.5).nanos(), 500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0).nanos(), 0);
        assert!((SimDuration::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
        assert_eq!(
            SimDuration::from_secs(2).mul_f64(1.5).nanos(),
            3_000_000_000
        );
        assert_eq!(SimDuration::from_secs(2).times(3).nanos(), 6_000_000_000);
    }

    #[test]
    fn transfer_time_rounds_up_and_handles_edges() {
        assert_eq!(transfer_time(0, 1e6).nanos(), 0);
        assert_eq!(transfer_time(100, 0.0).nanos(), 0);
        // 1 byte at 1 GB/s = 1 ns exactly.
        assert_eq!(transfer_time(1, 1.0e9).nanos(), 1);
        // 1 byte at 2 GB/s = 0.5 ns, rounds up to 1.
        assert_eq!(transfer_time(1, 2.0e9).nanos(), 1);
        // 1 MB at 1 MB/s = 1 s.
        assert_eq!(
            transfer_time(1 << 20, (1 << 20) as f64).nanos(),
            1_000_000_000
        );
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime(1).max(SimTime(2)), SimTime(2));
        assert_eq!(format!("{}", SimTime(1_500_000_000)), "1.500000s");
        assert_eq!(format!("{}", SimDuration(250_000)), "0.000250s");
    }
}
