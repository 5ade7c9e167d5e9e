//! §4.3 at hostile scale: the line-rate packet-filter engine.
//!
//! The paper proposes amateur-initiated access control — a table of
//! permitted sources with TTL soft state, managed by two authenticated
//! ICMP messages. This crate is that table's only implementation (E5
//! runs on the gate below), built out to an engine a gateway can run on
//! every packet at line rate under attack:
//!
//! * the §4.3 **soft-state gate** with GateOpen/GateClose control and
//!   deadline-driven expiry;
//! * **compiled rules** ([`Rule`] → flattened match arrays, most
//!   specific wins — the route table's longest-prefix discipline
//!   applied to policy).
//!
//! Every packet takes the whole walk — gate, rules, verdict — and
//! nothing is memoized, so no table change has anything to invalidate.
//! The packet path allocates nothing; the `filter_eval` ratchets assert
//! it. The [`NaiveInterpreter`] is the executable reference spec the
//! differential proptests check the engine against. DESIGN.md §13 has
//! the compile and gate contract; experiment E17 puts the engine under
//! a spoofed-source flood with control-plane churn.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

mod compiled;
mod engine;
mod gate;
mod oracle;
mod rule;

pub use engine::{FilterConfig, FilterEngine, FilterStats, Verdict};
pub use gate::{ControlOutcome, GateConfig};
pub use oracle::NaiveInterpreter;
pub use rule::{Action, PacketMeta, Rule};
