//! The AX.25 "hardware address" used in ARP: callsign + digipeater path.
//!
//! §2.3: *"AX.25 addresses look like amateur radio callsigns followed by
//! a 4 bit system ID. Things are complicated by the fact that some
//! entries may contain additional callsigns for digipeaters."* An ARP
//! binding on the radio side therefore maps an IP address to a station
//! address **and the source route needed to reach it**. This module
//! defines the byte encoding of that compound address (count octet, then
//! 7 octets per address in standard shifted AX.25 form, station first).

use ax25::addr::Ax25Addr;
use ax25::{Ax25Error, MAX_DIGIPEATERS};
use netstack::arp::HwAddr;

/// A radio-side link address: the station plus the digipeater path used
/// to reach it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ax25Hw {
    /// The destination station.
    pub station: Ax25Addr,
    /// Digipeaters to route through, in order.
    pub path: Vec<Ax25Addr>,
}

impl Ax25Hw {
    /// A direct (no-digipeater) address.
    pub fn direct(station: Ax25Addr) -> Ax25Hw {
        Ax25Hw {
            station,
            path: Vec::new(),
        }
    }

    /// An address via the given digipeater path.
    ///
    /// # Panics
    ///
    /// Panics if the path exceeds [`MAX_DIGIPEATERS`].
    pub fn via(station: Ax25Addr, path: &[Ax25Addr]) -> Ax25Hw {
        assert!(path.len() <= MAX_DIGIPEATERS, "path too long");
        Ax25Hw {
            station,
            path: path.to_vec(),
        }
    }

    /// Encodes to the ARP hardware-address bytes: at most
    /// `1 + 7 · (1 + MAX_DIGIPEATERS)` = 64 octets, inside [`HwAddr`]'s cap.
    ///
    /// # Panics
    ///
    /// Panics if the path exceeds [`MAX_DIGIPEATERS`].
    pub fn encode(&self) -> HwAddr {
        let mut out = [0u8; 1 + 7 * (1 + MAX_DIGIPEATERS)];
        let count = 1 + self.path.len();
        assert!(count <= 1 + MAX_DIGIPEATERS, "path too long");
        out[0] = count as u8;
        out[1..8].copy_from_slice(&self.station.encode(false, self.path.is_empty()));
        for (i, digi) in self.path.iter().enumerate() {
            let last = i == self.path.len() - 1;
            out[8 + 7 * i..15 + 7 * i].copy_from_slice(&digi.encode(false, last));
        }
        HwAddr::new(&out[..1 + 7 * count]).expect("64 octets at most")
    }

    /// Decodes ARP hardware-address bytes.
    pub fn decode(bytes: &[u8]) -> Result<Ax25Hw, Ax25Error> {
        let Some((&count, rest)) = bytes.split_first() else {
            return Err(Ax25Error::Malformed("empty hardware address"));
        };
        let count = count as usize;
        if count == 0 || count > 1 + MAX_DIGIPEATERS {
            return Err(Ax25Error::Malformed("hardware address count"));
        }
        if rest.len() != count * 7 {
            return Err(Ax25Error::Malformed("hardware address length"));
        }
        let (station, _, _) = Ax25Addr::decode(&rest[0..7])?;
        let mut path = Vec::with_capacity(count - 1);
        for i in 1..count {
            let (digi, _, _) = Ax25Addr::decode(&rest[i * 7..(i + 1) * 7])?;
            path.push(digi);
        }
        Ok(Ax25Hw { station, path })
    }
}

impl std::fmt::Display for Ax25Hw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.station)?;
        for p in &self.path {
            write!(f, " via {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    #[test]
    fn direct_roundtrip() {
        let hw = Ax25Hw::direct(a("N7AKR-1"));
        let bytes = hw.encode();
        assert_eq!(bytes.len(), 8);
        assert_eq!(Ax25Hw::decode(&bytes).unwrap(), hw);
    }

    #[test]
    fn path_roundtrip() {
        let hw = Ax25Hw::via(a("KB7DZ"), &[a("WA6BEV-1"), a("K3MC-2")]);
        let bytes = hw.encode();
        assert_eq!(bytes.len(), 1 + 3 * 7);
        let back = Ax25Hw::decode(&bytes).unwrap();
        assert_eq!(back, hw);
        assert_eq!(back.to_string(), "KB7DZ via WA6BEV-1 via K3MC-2");
    }

    #[test]
    fn max_path_roundtrip() {
        let path: Vec<Ax25Addr> = (0..MAX_DIGIPEATERS).map(|i| a(&format!("D{i}"))).collect();
        let hw = Ax25Hw::via(a("DST"), &path);
        assert_eq!(Ax25Hw::decode(&hw.encode()).unwrap(), hw);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(Ax25Hw::decode(&[]).is_err());
        assert!(Ax25Hw::decode(&[0]).is_err());
        assert!(Ax25Hw::decode(&[2, 0, 0, 0]).is_err(), "length mismatch");
        assert!(Ax25Hw::decode(&[15]).is_err(), "count over maximum");
    }

    #[test]
    #[should_panic]
    fn oversize_path_panics() {
        let path: Vec<Ax25Addr> = (0..9).map(|i| a(&format!("D{i}"))).collect();
        let _ = Ax25Hw::via(a("DST"), &path);
    }
}
