//! The paper's contribution: packet radio in the (simulated) Ultrix kernel.
//!
//! This crate is the reproduction's core. It reimplements, in user-space
//! Rust over the workspace's discrete-event substrate, the kernel work
//! Neuman & Yamamoto describe:
//!
//! * [`ifnet`] — the `if_net` structure and the bounded input queue
//!   (`ifqueue`) that 4.3BSD-derived kernels hang drivers on (§2.2: "we
//!   had to create and initialize a structure of the type if_net").
//! * [`cpu`] — the MicroVAX CPU cost model: per-character interrupt cost
//!   on the DZ line and per-packet protocol cost. This is what makes §3's
//!   "the gateway slows considerably as traffic on the packet radio
//!   subnet climbs" measurable.
//! * [`hwaddr`] — the AX.25 "hardware address" encoding used in ARP:
//!   callsign + SSID *plus an optional digipeater path*, the complication
//!   that forced the paper's authors to write separate ARP routines
//!   (§2.3).
//! * [`arp_engine`] — the per-driver ARP resolver (cache, request
//!   retries, pending-packet queue); one instance per driver, Ethernet or
//!   AX.25, "called inside either the Ethernet driver, or the AX.25
//!   driver".
//! * [`prdriver`] — **the packet radio pseudo-device driver**: the
//!   `rint` interrupt handler, entered once per run of characters and
//!   charged per character, with on-the-fly KISS unescaping, the destination-callsign check, and the PID demux that
//!   sends IP up the stack and everything else to a tty queue for user
//!   programs (§2.2, §2.4).
//! * [`etherdrv`] — the DEQNA-style Ethernet driver the gateway's other
//!   leg uses.
//! * [`host`] — a complete simulated machine: stack + drivers + CPU +
//!   tty queue, configurable as a plain host, a PC with a radio, or the
//!   MicroVAX gateway itself.
//! * [`world`] — the event-driven testbed tying hosts, serial lines,
//!   TNCs, radio channels, digipeaters, and Ethernet segments together.
//! * [`appgw`] — §2.4's future work: the application-layer gateway that
//!   bridges non-IP AX.25 connected-mode users onto TCP services.
//! * [`ripd`] — the RIP44 route-exchange daemon (§4.2's fix): gateways
//!   broadcast the subnets they serve and learn their peers' as tunnel
//!   endpoints or overriding routes, with expiry and hold-down.
//! * [`scenario`] — canned topologies (the paper's Figure 1 setup and
//!   the larger experiment layouts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appgw;
pub mod arp_engine;
pub mod cpu;
pub mod etherdrv;
pub mod host;
pub mod hwaddr;
pub mod ifnet;
pub mod prdriver;
pub mod ripd;
pub mod scenario;
mod shard;
pub mod world;

pub use host::{Host, HostConfig};
pub use world::{HostId, ShardId, World};
