//! Virtual time.

/// Virtual time in nanoseconds since the start of the run.
///
/// A plain newtype over `u64` with the handful of constructors and
/// accessors the emulator needs. One run covers at most ~584 years of
/// virtual time, which is plenty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Time zero, the start of the run.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as "never").
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs from nanoseconds.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns)
    }

    /// Constructs from microseconds. Like [`Time::from_ms`], it does not
    /// check for overflow past `u64::MAX` ns (about 584 years): a span
    /// read from outside the program is checked where it enters.
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Value in nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Value in microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in milliseconds (truncating).
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value in seconds as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration in nanoseconds.
    pub fn add_ns(self, ns: u64) -> Time {
        Time(self.0.saturating_add(ns))
    }

    /// Saturating difference `self - earlier` in nanoseconds.
    pub fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::ops::Add<Time> for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl std::fmt::Display for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_agree() {
        assert_eq!(Time::from_secs(2).as_ns(), 2_000_000_000);
        assert_eq!(Time::from_ms(3).as_us(), 3_000);
        assert_eq!(Time::from_us(5).as_ns(), 5_000);
        assert_eq!(Time::from_secs(1).as_ms(), 1_000);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Time::MAX.add_ns(10), Time::MAX);
        assert_eq!(Time::ZERO.since(Time::from_secs(1)), 0);
        assert_eq!(Time::from_ms(5).since(Time::from_ms(2)), 3_000_000);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Time::from_ns(17).to_string(), "17ns");
        assert_eq!(Time::from_us(2).to_string(), "2.000us");
        assert_eq!(Time::from_ms(2).to_string(), "2.000ms");
        assert_eq!(Time::from_secs(2).to_string(), "2.000000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_ms(1) < Time::from_secs(1));
        assert!(Time::ZERO < Time::from_ns(1));
    }
}
