//! IEEE 802 MAC addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as "unset".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds an address from raw octets.
    pub const fn new(o: [u8; 6]) -> Self {
        MacAddr(o)
    }

    /// Deterministically derives a locally administered unicast address from
    /// an integer id. Used by the emulator to assign addresses to emulated
    /// interfaces: ids up to 2^40 never collide.
    pub fn from_id(id: u64) -> Self {
        // 0x02 = locally administered, unicast.
        MacAddr([
            0x02,
            ((id >> 32) & 0xff) as u8,
            ((id >> 24) & 0xff) as u8,
            ((id >> 16) & 0xff) as u8,
            ((id >> 8) & 0xff) as u8,
            (id & 0xff) as u8,
        ])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    // Delegates to Display; keeps emulator traces compact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when parsing a MAC address from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacParseError(pub String);

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address: {}", self.0)
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    /// Parses `aa:bb:cc:dd:ee:ff` (also accepts `-` separators).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split([':', '-']).collect();
        if parts.len() != 6 {
            return Err(MacParseError(s.to_string()));
        }
        let mut o = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            o[i] = u8::from_str_radix(p, 16).map_err(|_| MacParseError(s.to_string()))?;
        }
        Ok(MacAddr(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let m = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
        assert_eq!("de:ad:be:ef:00:01".parse::<MacAddr>().unwrap(), m);
        assert_eq!("de-ad-be-ef-00-01".parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:zz".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:01:02".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_flags() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        let mcast = MacAddr::new([0x01, 0x00, 0x5e, 0, 0, 1]);
        assert!(!mcast.is_broadcast());
        assert!(!MacAddr::from_id(7).is_broadcast());
    }

    #[test]
    fn from_id_is_injective_for_small_ids() {
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..10_000u64 {
            assert!(seen.insert(MacAddr::from_id(id)), "collision at {id}");
        }
    }

    #[test]
    fn from_id_is_locally_administered_unicast() {
        for id in [0u64, 1, 255, 65_536, u32::MAX as u64] {
            let m = MacAddr::from_id(id);
            assert_eq!(m.0[0], 0x02);
        }
    }
}
