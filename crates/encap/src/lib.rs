//! AMPRnet multi-gateway subsystem: IPIP encapsulation + RIP44-style
//! route exchange.
//!
//! §4.2 of the paper complains that the Internet sees amateur packet radio
//! as *one* class-A network (44.0.0.0/8), so every 44.x packet funnels
//! through a single gateway and crosses the country twice. The fix the
//! AMPRnet community deployed is reproduced here:
//!
//! * [`ipip`] — IP-in-IP (protocol 4) encapsulation. A gateway that knows
//!   the subnet of the final destination wraps the packet in an outer IPv4
//!   header addressed to the *nearest* gateway, which unwraps and delivers
//!   over RF. The gateways' stacks wrap and unwrap tunnel packets
//!   themselves (`NetStack::send_ip` and `NetStack::input`); the in-place
//!   pair ([`ipip::encap_in_place`], [`ipip::decap_in_place`]) on a
//!   [`sim::PacketBuf`] with headroom serves only the benchmark harness.
//! * [`table`] — the encap table mapping 44/8 subnets to tunnel endpoints,
//!   with per-entry hit counters, expiry deadlines, and hold-down so a
//!   flapping gateway degrades gracefully. The table is a
//!   [`TunnelMap`](netstack::stack::TunnelMap): installed in a
//!   [`netstack::stack::NetStack`], it is the stack's own, and its
//!   maintainer reaches it through the stack
//!   ([`NetStack::tunnel_map_mut`](netstack::stack::NetStack::tunnel_map_mut)).
//! * [`rip`] — the RIP44-style announcement wire format (UDP broadcasts of
//!   subnet routes) and the jittered announce/trigger timer state machine
//!   that drives it from the deadline scheduler.
//!
//! The gateway-side service that binds these to hosts lives in
//! `gateway::ripd`; this crate is pure protocol + table logic, sans-io.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ipip;
pub mod rip;
pub mod table;

pub use ipip::{decap_in_place, encap_in_place, Ipip, IpipError};
pub use rip::{Announcer, RipEntry, RipUpdate, RIP44_PORT};
pub use table::{EncapEntry, EncapStats, EncapTable, LearnOutcome};
