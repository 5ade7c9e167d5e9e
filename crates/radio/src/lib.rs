//! The packet-radio substrate: channel, MAC, TNC, digipeaters, workloads.
//!
//! This crate simulates the radio hardware the paper depends on but which
//! this reproduction cannot plug into a wall: the shared 1200 bit/s
//! half-duplex channel and the TNC (*"essentially a modem"*, §1) running
//! the KISS code. The pieces:
//!
//! * [`channel`] — the RF medium: transmissions occupy airtime, everyone
//!   in range hears them, overlapping transmissions collide, a hearing
//!   matrix creates hidden terminals, and optional bit errors corrupt
//!   frames (caught by the FCS, as in a real TNC).
//! * [`csma`] — the p-persistent CSMA transmit discipline that the KISS
//!   TNC parameters (TXDELAY, P, SlotTime, TXTAIL) configure.
//! * [`tnc`] — the KISS TNC device: serial side (KISS deframing, parameter
//!   commands) glued to the radio side (CSMA, FCS). Crucially for §3 of
//!   the paper, its receive path is either **promiscuous** — *"the present
//!   code running inside the TNC passes every packet it receives to the
//!   packet radio driver regardless of the destination address"* — or
//!   **address-filtered**, the fix the paper proposes.
//! * [`digi`] — standalone digipeater stations (§1).
//! * [`traffic`] — background stations that load the channel for the
//!   gateway-slowdown experiment (E2).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

pub mod channel;
pub mod csma;
pub mod digi;
pub mod tnc;
pub mod traffic;

pub use channel::{Channel, Heard, StationId};
pub use csma::{Csma, MacConfig};
pub use tnc::{RxMode, Tnc, TncConfig};
