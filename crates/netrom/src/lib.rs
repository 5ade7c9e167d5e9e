//! NET/ROM — the paper's second piece of future work, implemented.
//!
//! §2.4: *"Work is also proceeding on using another layer three protocol
//! known as NET/ROM to pass IP traffic between gateways. Doing this would
//! allow the use of an existing, and growing, point-to-point backbone in
//! the same way Internet subnets are connected via the ARPANET."*
//!
//! NET/ROM (Software 2000, 1987) is a network layer that rides on AX.25
//! UI frames with PID `0xCF`. Its two on-air artifacts are reproduced
//! here:
//!
//! * **NODES broadcasts** ([`codec::NodesBroadcast`]) — periodic routing
//!   advertisements to the special destination callsign `NODES`,
//!   carrying (destination, alias, best neighbour, quality) tuples;
//! * **datagrams** ([`codec::NetRomPacket`]) — TTL-limited network-layer
//!   packets with origin/destination callsigns, here carrying either
//!   opaque transport bytes or an encapsulated IP datagram (the KA9Q
//!   arrangement the paper alludes to).
//!
//! [`routes::NetRomRoutes`] implements the classic quality-based route
//! selection with obsolescence aging, and [`node::NetRomNode`] is the
//! sans-io node state machine. [`router::NetRomRouter`] adapts a node to
//! the testbed's `App` interface on a gateway host, reading PID-`0xCF`
//! frames from the driver's tty divert queue (the same §2.4 user-space
//! hook as the application gateway) and injecting decapsulated IP
//! packets into the host's stack.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

pub mod codec;
pub mod node;
pub mod router;
pub mod routes;

pub use codec::{NetRomPacket, NodeEntry, NodesBroadcast, Transport};
pub use node::{NetRomConfig, NetRomNode, NodeAction};
pub use router::NetRomRouter;
pub use routes::NetRomRoutes;

/// The special destination callsign of routing broadcasts.
pub(crate) fn nodes_addr() -> ax25::addr::Ax25Addr {
    ax25::addr::Ax25Addr::parse_or_panic("NODES")
}

/// Errors from NET/ROM parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetRomError {
    /// Structurally malformed packet.
    Malformed(&'static str),
}

impl std::fmt::Display for NetRomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetRomError::Malformed(w) => write!(f, "malformed NET/ROM packet: {w}"),
        }
    }
}

impl std::error::Error for NetRomError {}
