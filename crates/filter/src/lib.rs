//! §4.3 at hostile scale: the amateur-initiated gate, on every packet.
//!
//! The paper proposes amateur-initiated access control — a table of
//! permitted sources with TTL soft state, managed by two authenticated
//! ICMP messages. This crate is that table's only implementation (E5
//! runs on it), built out to an engine a gateway can run on every packet
//! at line rate under attack: the §4.3 **soft-state gate** with
//! GateOpen/GateClose control and deadline-driven expiry is its one
//! policy, and the radio driver's `rint` and `output` hooks are its only
//! callers.
//!
//! Nothing is memoized, so no table change has anything to invalidate.
//! The packet path allocates nothing; the `filter_eval` ratchet asserts
//! it. DESIGN.md §13 has the gate contract; experiment E17 puts the
//! engine under a spoofed-source flood with control-plane churn.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

mod engine;
mod gate;
mod rule;

pub use engine::{FilterConfig, FilterEngine, FilterStats, Verdict};
pub use gate::{ControlOutcome, GateConfig};
pub use rule::PacketMeta;
