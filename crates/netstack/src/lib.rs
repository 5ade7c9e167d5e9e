//! A from-scratch TCP/IP stack, the "existing Ultrix network support" and
//! "KA9Q package" substrate of the paper.
//!
//! The paper plugs its packet-radio driver underneath Ultrix's 4.3BSD
//! networking and talks to Phil Karn's KA9Q stack on the PC side. This
//! reproduction cannot link either, so this crate implements the protocol
//! suite both ends need, sans-io:
//!
//! * [`ip`] — IPv4 packets, header checksum, fragmentation and reassembly
//!   (the gateway must fragment Ethernet-sized packets onto the 256-octet
//!   AX.25 MTU);
//! * [`icmp`] — echo, destination-unreachable, time-exceeded, **and the
//!   gateway-control messages the paper proposes in §4.3** (authenticated
//!   open/close of access-control entries);
//! * [`arp`] — RFC 826 packets, link-type agnostic (hardware type 1 =
//!   Ethernet, 3 = AX.25), since "a different set of ARP routines is
//!   needed for packet radio" (§2.3) lives in the driver crate;
//! * [`udp`] — datagrams for the callbook service (§5);
//! * [`tcp`] — a full connection state machine with sliding windows and,
//!   centrally for §4.1, **both retransmission policies the paper
//!   contrasts**: a fixed RTO and an adaptive (Jacobson/Karn) RTO;
//! * [`route`] — longest-prefix-match routing, including the single
//!   class-A route for AMPRnet that §4.2 laments;
//! * [`lpm`] — the compiled flat multibit trie the fast lookup path
//!   walks (DESIGN.md §14);
//! * [`pool`] — the host's one bounded pool of datagram buffers, which
//!   the stack lends its link drivers;
//! * [`stack`] — a per-host stack tying it together behind a raw
//!   `tcp_*`/`udp_*` API;
//! * [`socket`] — the BSD-style socket layer over it (§2.4's "normal
//!   Ultrix networking facilities"): one handle per socket, poll
//!   readiness, cooperative blocking.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

pub mod arp;
#[doc(hidden)]
pub mod fwd;
pub mod icmp;
pub mod ip;
pub mod lpm;
pub mod pool;
pub mod route;
pub mod socket;
pub mod stack;
pub mod tcp;
pub mod udp;

pub use ip::{Ipv4Packet, Proto};
pub use route::{Prefix, RouteTable};
pub use stack::{IfaceId, NetStack, SockId, StackAction, StackConfig};

/// Errors surfaced by the stack's codecs and state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Packet failed structural parsing.
    Malformed(&'static str),
    /// A checksum did not verify.
    BadChecksum(&'static str),
    /// No route to the destination.
    NoRoute(std::net::Ipv4Addr),
    /// Address or port already in use.
    InUse,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Malformed(w) => write!(f, "malformed packet: {w}"),
            NetError::BadChecksum(w) => write!(f, "bad checksum: {w}"),
            NetError::NoRoute(ip) => write!(f, "no route to {ip}"),
            NetError::InUse => write!(f, "address in use"),
        }
    }
}

impl std::error::Error for NetError {}
