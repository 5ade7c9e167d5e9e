//! Load-model-driven workload fleets for the city-scale testbed.
//!
//! The paper closes (§5) wondering what happens "as the number of users
//! of this network grows". PR 6 gave the testbed real applications
//! (socket programs: echo, typist, FTP, DNS) and PR 7 gave it a city of
//! radio islands on a sharded engine — but the only city-scale traffic
//! was ping, and every app printed its own ad-hoc report. This crate is
//! the missing subsystem: it *generates the users*.
//!
//! Three layers (DESIGN.md §12):
//!
//! * [`load`] — session generators. An open-loop model (Poisson or
//!   deterministic arrivals via the in-tree xoshiro [`sim::SimRng`])
//!   starts sessions on a clock regardless of completions; a closed-loop
//!   model thinks after each completion, like a human at a terminal.
//!   Session classes (interactive typist / bulk FTP / DNS resolve / TCP
//!   echo) compose into named [`load::Mix`]es with per-class weights.
//!   [`load::build_schedule`] expands a [`load::FleetSpec`] into a
//!   [`load::FleetSchedule`] — a pure function of the spec, independent
//!   of any engine, so the same seed always yields the same fleet.
//! * [`fleet`] — deployment. [`fleet::deploy`] places the three servers
//!   on the first hosts of every island of a [`gateway::scenario::mesh`]
//!   and one long-lived [`fleet::WorkloadClient`] socket program per
//!   client host, paired with servers on *other* islands so every
//!   session crosses shard boundaries through the IPIP tunnels.
//! * [`report`] — telemetry. Per-flow [`report::FlowRecorder`]s feed
//!   fixed-bucket log-scale [`report::LatencyHisto`]s (p50/p95/p99 with
//!   no allocation after construction), merged island-by-island into one
//!   fleet table; [`report::EngineTelemetry`] snapshots the engine-side
//!   counters (scheduler, mailboxes, per-island channel utilization);
//!   and the `*_row` adapters render the existing app reports in the
//!   same shared table format the per-app experiments used to hand-roll.
//!
//! Everything is deterministic end to end: same spec ⇒ same schedule ⇒
//! same event digest and the same rendered report on the reference
//! stepper and the sharded engine (E16 asserts this bit-for-bit at 10k
//! hosts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod load;
pub mod report;

pub use fleet::{deploy, Fleet};
pub use load::{build_schedule, Arrival, FleetSpec, Mix, Pacing, SessionClass};
pub use report::{EngineTelemetry, FlowRecorder, LatencyHisto};
