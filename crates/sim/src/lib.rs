//! Discrete-event simulation kernel for the packet-radio gateway testbed.
//!
//! This crate is the bottom-most substrate of the reproduction of
//! *Adding Packet Radio to the Ultrix Kernel* (Neuman & Yamamoto, USENIX
//! 1988). Every other crate in the workspace is written in a *sans-io*
//! style: protocol and device objects consume inputs stamped with a
//! [`SimTime`], return actions, and expose their next deadline. This crate
//! provides the pieces that glue those objects into a deterministic,
//! reproducible simulation:
//!
//! * [`time`] — virtual time ([`SimTime`]) and durations ([`SimDuration`]),
//!   plus [`Bandwidth`] for serialization-delay math.
//! * [`bytekernels`] — word-at-a-time (SWAR) byte-scanning primitives for
//!   the bulk datapath kernels (KISS deframing/escaping).
//! * [`fxhash`] — a fast deterministic hasher for small-key maps, and the
//!   one FNV-1a ([`Fnv1a`]) every pinned digest in the workspace is built on.
//! * [`sched`] — the calendar: a deadline-indexed component [`Scheduler`]
//!   (one indexed heap re-keyed in place, deterministic tie order).
//! * [`rng`] — a seeded random-number generator ([`SimRng`]) so that every
//!   experiment run is exactly repeatable.
//! * [`stats`] — counters, latency quantiles, and the aligned text tables
//!   the experiment harnesses print.
//! * [`wire`] — bounds-checked big-endian readers and writers shared by all
//!   of the frame/packet codecs.
//! * [`pktbuf`] — [`PacketBuf`], a plain buffer with headroom, and the
//!   [`ByteSink`] trait the codecs encode into.
//!
//! # Examples
//!
//! ```
//! use sim::{Scheduler, SimDuration, SimTime};
//!
//! const LATER: u32 = 0;
//! const SOONER: u32 = 1;
//! let mut s: Scheduler<u32> = Scheduler::new();
//! s.set_deadline(LATER, Some(SimTime::ZERO + SimDuration::from_millis(5)));
//! s.set_deadline(SOONER, Some(SimTime::ZERO + SimDuration::from_millis(1)));
//! let (t, key) = s.pop().unwrap();
//! assert_eq!(key, SOONER);
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytekernels;
pub mod fxhash;
pub mod mailbox;
pub mod pktbuf;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;
pub mod wire;

pub use fxhash::{fnv1a, Fnv1a};
pub use mailbox::{Mailbox, MailboxStats};
pub use pktbuf::{BufPool, ByteSink, PacketBuf, PoolStats};
pub use rng::SimRng;
pub use sched::{SchedStats, Scheduler};
pub use time::{Bandwidth, SimDuration, SimTime};
