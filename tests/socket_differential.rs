//! Differential test: the socket-layer echo server is wire-identical
//! to the raw-API original (DESIGN.md §10).
//!
//! Two copies of the paper topology run the same typist workload with
//! the same seed; one serves echoes with [`apps::echo::EchoServer`] (a
//! `SocketProgram` on the new layer), the other with
//! [`apps::echo::RawEchoServer`] (the pre-socket reference driving
//! `NetStack::tcp_*` directly). The recorded stack-event streams — every
//! TCP/UDP/ICMP event on every host, with its simulation timestamp — are
//! a function of the traffic actually on the wire, so stream equality at
//! nanosecond resolution means the socket shim added, removed, delayed,
//! or reordered nothing.

use apps::echo::{EchoServer, RawEchoServer};
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
    let report = client.report();
    s.world.add_app(s.ether_host, server);
    s.world.add_app(s.pc, Box::new(client));
    s.world.run_for(SimDuration::from_secs(600));
    let events = s.world.take_events();
    let r = report.borrow();
    (events, (r.sent, r.echoed, r.finished_at))
}

#[test]
fn socket_echo_server_is_wire_identical_to_raw() {
    let (raw_events, raw_counts) = run_with_server(Box::new(RawEchoServer::new(7)), 2601);
    let (sock_events, sock_counts) = run_with_server(Box::new(EchoServer::new(7)), 2601);

    assert_eq!(raw_counts.0, 12, "raw run did not complete: {raw_counts:?}");
    assert_eq!(raw_counts, sock_counts, "typist outcomes diverge");
    assert!(
        raw_counts.2.is_some(),
        "session never finished: {raw_counts:?}"
    );

    assert_eq!(
        raw_events.len(),
        sock_events.len(),
        "event stream lengths diverge"
    );
    for (i, (a, b)) in raw_events.iter().zip(sock_events.iter()).enumerate() {
        assert_eq!(a, b, "event stream diverges at index {i}");
    }
}
