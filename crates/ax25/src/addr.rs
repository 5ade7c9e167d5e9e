//! Callsigns, SSIDs, and the 7-byte shifted AX.25 address encoding.
//!
//! The paper (§2.3): *"AX.25 addresses look like amateur radio callsigns
//! followed by a 4 bit system ID."* On the wire each address occupies
//! seven octets — six callsign characters (space padded) shifted left one
//! bit, then an SSID octet holding the 4-bit SSID, two reserved bits, the
//! C (command/response) or H (has-been-repeated) bit, and the HDLC
//! extension bit that marks the last address in the field.

use std::fmt;
use std::str::FromStr;

use crate::Ax25Error;

/// A six-character amateur radio callsign (uppercase letters and digits,
/// space padded internally).
///
/// # Examples
///
/// ```
/// use ax25::addr::Callsign;
///
/// let c: Callsign = "N7AKR".parse().unwrap();
/// assert_eq!(c.to_string(), "N7AKR");
/// assert!("toolongcall".parse::<Callsign>().is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Callsign([u8; 6]);

impl Callsign {
    /// Creates a callsign, validating length (1–6) and characters
    /// (uppercase letters and digits; lowercase input is upcased).
    pub fn new(s: &str) -> Result<Callsign, Ax25Error> {
        let s = s.trim();
        if s.is_empty() || s.len() > 6 {
            return Err(Ax25Error::BadCallsign(s.to_string()));
        }
        let mut out = [b' '; 6];
        for (i, ch) in s.chars().enumerate() {
            let up = ch.to_ascii_uppercase();
            if !(up.is_ascii_uppercase() || up.is_ascii_digit()) {
                return Err(Ax25Error::BadCallsign(s.to_string()));
            }
            out[i] = up as u8;
        }
        Ok(Callsign(out))
    }

    /// The space-padded six bytes.
    pub fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }

    /// The callsign's characters, padding stripped (`"N7AKR"`): a view of
    /// the six bytes, no formatting and no allocation.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).map_or("", str::trim_end)
    }

    /// Builds a callsign from six raw (unshifted) bytes: as found on the
    /// wire after decoding, or composed by a builder that numbers its
    /// stations.
    ///
    /// Allocation-free on success: the driver's per-frame receive path
    /// peeks at addresses for every frame heard on a promiscuous TNC, so
    /// this must not touch the heap just to reject someone else's traffic.
    pub fn from_raw(raw: [u8; 6]) -> Result<Callsign, Ax25Error> {
        // Nearly every callsign on the air is already canonical —
        // uppercase letters and digits, then padding only — and is
        // returned as it is; the rest take the validating loop below.
        let symbols = raw
            .iter()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit())
            .count();
        if symbols > 0 && raw[symbols..].iter().all(|&b| b == b' ') {
            return Ok(Callsign(raw));
        }
        let mut end = 6;
        while end > 0 && raw[end - 1] == b' ' {
            end -= 1;
        }
        if end == 0 {
            return Err(Ax25Error::BadCallsign(String::new()));
        }
        let mut out = [b' '; 6];
        for (i, &b) in raw[..end].iter().enumerate() {
            let up = b.to_ascii_uppercase();
            if !(up.is_ascii_uppercase() || up.is_ascii_digit()) {
                return Err(Ax25Error::BadCallsign(
                    raw.iter().map(|&b| b as char).collect(),
                ));
            }
            out[i] = up;
        }
        Ok(Callsign(out))
    }
}

impl FromStr for Callsign {
    type Err = Ax25Error;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Callsign::new(s)
    }
}

impl fmt::Display for Callsign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in self.0.iter() {
            if b == b' ' {
                break;
            }
            write!(f, "{}", b as char)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Callsign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A full AX.25 link address: callsign plus 4-bit SSID.
///
/// # Examples
///
/// ```
/// use ax25::addr::Ax25Addr;
///
/// let a: Ax25Addr = "N7AKR-3".parse().unwrap();
/// assert_eq!(a.ssid, 3);
/// assert_eq!(a.to_string(), "N7AKR-3");
/// let b: Ax25Addr = "KB7DZ".parse().unwrap();
/// assert_eq!(b.ssid, 0);
/// assert_eq!(b.to_string(), "KB7DZ");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ax25Addr {
    /// The station callsign.
    pub call: Callsign,
    /// The 4-bit "system ID" distinguishing stations under one callsign.
    pub ssid: u8,
}

impl Ax25Addr {
    /// Creates an address, validating the SSID range.
    pub fn new(call: Callsign, ssid: u8) -> Result<Ax25Addr, Ax25Error> {
        if ssid > 15 {
            return Err(Ax25Error::BadSsid(ssid));
        }
        Ok(Ax25Addr { call, ssid })
    }

    /// Convenience constructor that panics on invalid input; for literals
    /// in tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid `CALL` or `CALL-SSID` string.
    #[allow(clippy::expect_used)] // panicking on a bad literal is its contract
    pub fn parse_or_panic(s: &str) -> Ax25Addr {
        s.parse().expect("invalid AX.25 address literal")
    }

    /// The conventional CQ/broadcast destination address.
    pub fn broadcast() -> Ax25Addr {
        Ax25Addr {
            call: Callsign(*b"QST   "),
            ssid: 0,
        }
    }

    /// Encodes into the 7-byte shifted wire form.
    ///
    /// `c_or_h` is the C bit (for destination/source) or H bit (for
    /// digipeaters); `last` sets the HDLC extension bit terminating the
    /// address field.
    pub fn encode(&self, c_or_h: bool, last: bool) -> [u8; 7] {
        let mut out = [0u8; 7];
        for (i, &b) in self.call.as_bytes().iter().enumerate() {
            out[i] = b << 1;
        }
        // SSID octet: C/H bit | reserved (11) | SSID | extension.
        out[6] = (u8::from(c_or_h) << 7) | 0b0110_0000 | (self.ssid << 1) | u8::from(last);
        out
    }

    /// Decodes a 7-byte wire address; returns the address, its C/H bit,
    /// and whether the extension bit marked it as last.
    pub fn decode(raw: &[u8]) -> Result<(Ax25Addr, bool, bool), Ax25Error> {
        if raw.len() < 7 {
            return Err(Ax25Error::Malformed("address shorter than 7 octets"));
        }
        let mut call = [0u8; 6];
        for i in 0..6 {
            if raw[i] & 1 != 0 {
                return Err(Ax25Error::Malformed("extension bit set inside callsign"));
            }
            call[i] = raw[i] >> 1;
        }
        let ssid_octet = raw[6];
        let addr = Ax25Addr {
            call: Callsign::from_raw(call)?,
            ssid: (ssid_octet >> 1) & 0x0F,
        };
        Ok((addr, ssid_octet & 0x80 != 0, ssid_octet & 0x01 != 0))
    }
}

impl FromStr for Ax25Addr {
    type Err = Ax25Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('-') {
            Some((call, ssid)) => {
                let ssid: u8 = ssid
                    .parse()
                    .map_err(|_| Ax25Error::BadCallsign(s.to_string()))?;
                Ax25Addr::new(Callsign::new(call)?, ssid)
            }
            None => Ax25Addr::new(Callsign::new(s)?, 0),
        }
    }
}

impl fmt::Display for Ax25Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ssid == 0 {
            write!(f, "{}", self.call)
        } else {
            write!(f, "{}-{}", self.call, self.ssid)
        }
    }
}

impl fmt::Debug for Ax25Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callsign_validation() {
        assert!(Callsign::new("N7AKR").is_ok());
        assert!(Callsign::new("w1goh").is_ok(), "lowercase is upcased");
        assert!(Callsign::new("").is_err());
        assert!(Callsign::new("TOOLONG7").is_err());
        assert!(Callsign::new("BAD*").is_err());
        assert_eq!(Callsign::new("kg7k").unwrap().to_string(), "KG7K");
    }

    #[test]
    fn as_str_is_the_display_form() {
        for s in ["N7AKR", "kg7k", "Q", "GW0042"] {
            let c = Callsign::new(s).unwrap();
            assert_eq!(c.as_str(), c.to_string());
        }
        assert_eq!(Callsign::from_raw(*b"H04207").unwrap().as_str(), "H04207");
        assert!(Callsign::from_raw(*b"H0 207").is_err(), "padding inside");
    }

    #[test]
    fn addr_parse_and_display() {
        let a: Ax25Addr = "KD7NM-15".parse().unwrap();
        assert_eq!(a.ssid, 15);
        assert_eq!(a.to_string(), "KD7NM-15");
        assert!("KD7NM-16".parse::<Ax25Addr>().is_err());
        assert!("KD7NM-x".parse::<Ax25Addr>().is_err());
        assert_eq!("KD7NM-0".parse::<Ax25Addr>().unwrap().to_string(), "KD7NM");
    }

    #[test]
    fn wire_encoding_shifts_left() {
        let a = Ax25Addr::parse_or_panic("AB1C-5");
        let w = a.encode(true, false);
        assert_eq!(w[0], b'A' << 1);
        assert_eq!(w[1], b'B' << 1);
        assert_eq!(w[2], b'1' << 1);
        assert_eq!(w[3], b'C' << 1);
        assert_eq!(w[4], b' ' << 1);
        assert_eq!(w[5], b' ' << 1);
        // C=1, reserved=11, ssid=0101, ext=0 -> 1110_1010.
        assert_eq!(w[6], 0b1110_1010);
    }

    #[test]
    fn wire_roundtrip_all_flag_combos() {
        let a = Ax25Addr::parse_or_panic("W1GOH-7");
        for c in [false, true] {
            for last in [false, true] {
                let w = a.encode(c, last);
                let (back, got_c, got_last) = Ax25Addr::decode(&w).unwrap();
                assert_eq!(back, a);
                assert_eq!(got_c, c);
                assert_eq!(got_last, last);
            }
        }
    }

    #[test]
    fn decode_rejects_short_and_corrupt() {
        assert!(Ax25Addr::decode(&[0u8; 6]).is_err());
        let a = Ax25Addr::parse_or_panic("N7AKR");
        let mut w = a.encode(false, false);
        w[2] |= 1; // extension bit inside callsign
        assert!(Ax25Addr::decode(&w).is_err());
    }

    #[test]
    fn broadcast_is_qst() {
        assert_eq!(Ax25Addr::broadcast().to_string(), "QST");
    }

    #[test]
    fn ssid_range_enforced() {
        let c = Callsign::new("K3MC").unwrap();
        assert!(Ax25Addr::new(c, 15).is_ok());
        assert!(Ax25Addr::new(c, 16).is_err());
    }

    #[test]
    fn ordering_is_stable_for_map_keys() {
        let a = Ax25Addr::parse_or_panic("AAA");
        let b = Ax25Addr::parse_or_panic("AAB");
        assert!(a < b);
        let a1 = Ax25Addr::parse_or_panic("AAA-1");
        assert!(a < a1);
    }
}
