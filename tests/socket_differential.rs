//! Differential test: the echo server the readiness runtime drives is
//! wire-identical to the event-driven reference (DESIGN.md §10).
//!
//! Two copies of the paper topology run the same typist workload with
//! the same seed; one serves echoes with [`apps::echo::EchoServer`] (a
//! `SocketProgram` the `sockapp` runtime wakes on readiness edges), the
//! other with [`apps::echo::EventEchoServer`] (the reference that answers
//! each stack event as it is dispatched, through the same `sock_*`
//! verbs). The recorded stack-event streams — every TCP/UDP/ICMP event on
//! every host, with its simulation timestamp — are a function of the
//! traffic actually on the wire, so stream equality at nanosecond
//! resolution means the readiness runtime added, removed, delayed, or
//! reordered nothing.

use apps::echo::{EchoServer, EventEchoServer};
use apps::typist::Typist;
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use gateway::world::{App, HostId};
use netstack::stack::StackAction;
use sim::{SimDuration, SimTime};

/// The recorded stack-event stream: every event on every host, stamped.
type EventStream = Vec<(HostId, SimTime, StackAction)>;

/// (keystrokes sent, echoes received, session end time).
type TypistCounts = (usize, usize, Option<SimTime>);

/// Runs the scenario with the given server app, returning the recorded
/// event stream plus the typist's byte counters.
fn run_with_server<A: App>(server: Box<A>, seed: u64) -> (EventStream, TypistCounts) {
    let mut s = paper_topology(PaperConfig::default(), seed);
    let client = Typist::new(ETHER_HOST_IP, 7, 12);
    s.world.add_app(s.ether_host, server);
    let client = s.world.add_app(s.pc, Box::new(client));
    s.world.run_for(SimDuration::from_secs(600));
    let events = s.world.take_events();
    let r = s.world.app(client).report();
    (events, (r.sent, r.echoed, r.finished_at))
}

#[test]
fn socket_echo_server_is_wire_identical_to_event_driven() {
    let (ev_events, ev_counts) = run_with_server(Box::new(EventEchoServer::new(7)), 2601);
    let (sock_events, sock_counts) = run_with_server(Box::new(EchoServer::new(7)), 2601);

    assert_eq!(
        ev_counts.0, 12,
        "event-driven run did not complete: {ev_counts:?}"
    );
    assert_eq!(ev_counts, sock_counts, "typist outcomes diverge");
    assert!(
        ev_counts.2.is_some(),
        "session never finished: {ev_counts:?}"
    );

    assert_eq!(
        ev_events.len(),
        sock_events.len(),
        "event stream lengths diverge"
    );
    for (i, (a, b)) in ev_events.iter().zip(sock_events.iter()).enumerate() {
        assert_eq!(a, b, "event stream diverges at index {i}");
    }
}
