//! AX.25 v2.0, the standard amateur packet-radio link layer protocol.
//!
//! The paper's whole project is putting this protocol into the Ultrix
//! kernel: AX.25 (Fox, ARRL 1984) is *"a modified version of X.25"* whose
//! link addresses are amateur radio callsigns and whose address field can
//! carry a **source route** of up to eight digipeaters (§1). This crate
//! implements:
//!
//! * [`addr`] — callsigns, SSIDs, and the shifted 7-byte address encoding
//!   with its C/H/extension bits;
//! * [`frame`] — the frame codec: address field (destination, source, up
//!   to [`MAX_DIGIPEATERS`] digipeaters), the modulo-8 control field
//!   (I/S/U frames), the PID byte that the paper's driver demultiplexes on
//!   (§2.2), and the info field;
//! * [`fcs`] — the CRC-CCITT frame check sequence that the KISS TNC
//!   computes on the air side (§2.1: the KISS code "sends and receives
//!   data and calculates the necessary checksums");
//! * [`digipeat`] — the relay-station rule (§1's digipeaters);
//! * [`conn`] — the connected-mode (level 2) state machine used by
//!   terminal users and by the paper's §2.4 application-layer gateway.
//!
//! # Examples
//!
//! ```
//! use ax25::addr::Ax25Addr;
//! use ax25::frame::{Frame, Pid};
//!
//! let src: Ax25Addr = "N7AKR-1".parse().unwrap();
//! let dst: Ax25Addr = "KB7DZ".parse().unwrap();
//! let frame = Frame::ui(dst, src, Pid::Ip, b"packet".to_vec());
//! let bytes = frame.encode();
//! let back = Frame::decode(&bytes).unwrap();
//! assert_eq!(back, frame);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

pub mod addr;
pub mod conn;
pub mod digipeat;
pub mod fcs;
pub mod frame;

pub use addr::{Ax25Addr, Callsign};
pub use frame::{Frame, FrameKind, Pid};

/// AX.25 allows at most eight digipeaters in the address field (§1 of the
/// paper: "the specification of up to eight digipeaters through which a
/// packet is to pass").
pub const MAX_DIGIPEATERS: usize = 8;

/// Default maximum info-field length (AX.25 N1 default, 256 octets).
pub const MAX_INFO_LEN: usize = 256;

/// The longest frame, FCS excluded: destination, source and eight
/// digipeater addresses of seven octets each, control, PID and a full
/// info field — 328 octets.
pub const MAX_FRAME_LEN: usize = (2 + MAX_DIGIPEATERS) * 7 + 2 + MAX_INFO_LEN;

/// Errors from AX.25 parsing and encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ax25Error {
    /// A callsign was empty, too long, or contained invalid characters.
    BadCallsign(String),
    /// An SSID was outside 0–15.
    BadSsid(u8),
    /// The frame was too short or structurally malformed.
    Malformed(&'static str),
    /// More than [`MAX_DIGIPEATERS`] digipeaters.
    TooManyDigipeaters(usize),
    /// Info field exceeded the configured maximum.
    InfoTooLong(usize),
    /// The frame check sequence did not verify.
    BadFcs,
}

impl std::fmt::Display for Ax25Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ax25Error::BadCallsign(s) => write!(f, "invalid callsign: {s:?}"),
            Ax25Error::BadSsid(s) => write!(f, "invalid SSID: {s}"),
            Ax25Error::Malformed(what) => write!(f, "malformed frame: {what}"),
            Ax25Error::TooManyDigipeaters(n) => {
                write!(
                    f,
                    "{n} digipeaters exceeds the maximum of {MAX_DIGIPEATERS}"
                )
            }
            Ax25Error::InfoTooLong(n) => write!(f, "info field of {n} octets too long"),
            Ax25Error::BadFcs => write!(f, "frame check sequence mismatch"),
        }
    }
}

impl std::error::Error for Ax25Error {}
