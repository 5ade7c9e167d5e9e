//! The BSD-style socket layer (DESIGN.md §10), two claims:
//!
//! 1. The poll readiness scan — the code every socket program
//!    runs on every scheduler visit — performs **zero** heap
//!    allocations.
//! 2. The socket shim is free: a TCP echo roundtrip and a UDP echo
//!    roundtrip driven through `SocketTable` verbs allocate **exactly as
//!    much** as the same wire exchange driven through the raw
//!    `NetStack` API. (The datapath itself allocates per packet — each
//!    `Ipv4Packet` owns its payload — so "zero added" is the meaningful
//!    bound for the layer.)

use crate::allocs_during;
use netstack::stack::{IfaceId, SockId, StackAction, UdpId};
use netstack::NetStack;
use sim::SimTime;
use socket::{SocketHandle, SocketTable};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

const PAYLOAD: [u8; 64] = [0x55; 64];
const NOW: SimTime = SimTime::ZERO;

/// Two stacks on a lossless zero-delay wire.
struct Wire {
    a: NetStack,
    b: NetStack,
    a_if: IfaceId,
    b_if: IfaceId,
}

impl Wire {
    fn new() -> Wire {
        let (a, a_if) = NetStack::simple_host(ipa(1), 24, 1500, None);
        let (b, b_if) = NetStack::simple_host(ipa(2), 24, 1500, None);
        Wire { a, b, a_if, b_if }
    }

    /// Pumps packets until both sides go quiet.
    fn settle(&mut self) {
        let mut from_a = self.a.drain_actions();
        let mut from_b = self.b.drain_actions();
        for _ in 0..10_000 {
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            let mut next_a = Vec::new();
            let mut next_b = Vec::new();
            for act in from_a.drain(..) {
                if let StackAction::Egress { packet, .. } = act {
                    next_b.extend(self.b.input(NOW, self.b_if, &packet.encode()));
                }
            }
            for act in from_b.drain(..) {
                if let StackAction::Egress { packet, .. } = act {
                    next_a.extend(self.a.input(NOW, self.a_if, &packet.encode()));
                }
            }
            from_a = next_a;
            from_b = next_b;
        }
        panic!("wire did not settle");
    }
}

/// The socket-layer harness: a connected stream pair plus a datagram
/// pair, driven through `SocketTable` verbs only.
struct SockHarness {
    wire: Wire,
    sa: SocketTable,
    sb: SocketTable,
    listener: SocketHandle,
    client: SocketHandle,
    server: SocketHandle,
    udp_a: SocketHandle,
    udp_b: SocketHandle,
}

impl SockHarness {
    fn new() -> SockHarness {
        let mut wire = Wire::new();
        let mut sa = SocketTable::new();
        let mut sb = SocketTable::new();
        let listener = sb.listen(&mut wire.b, 7, Some(4)).unwrap();
        let client = sa.connect(&mut wire.a, NOW, ipa(2), 7).unwrap();
        wire.settle();
        let server = sb.accept(&mut wire.b, listener).unwrap();
        let udp_a = sa.bind_udp(&mut wire.a, 9000).unwrap();
        let udp_b = sb.bind_udp(&mut wire.b, 9001).unwrap();
        SockHarness {
            wire,
            sa,
            sb,
            listener,
            client,
            server,
            udp_a,
            udp_b,
        }
    }

    fn settle(&mut self) {
        self.wire.settle();
    }

    /// One stop-and-wait echo over the established stream.
    fn tcp_echo(&mut self) {
        self.sa
            .send(&mut self.wire.a, NOW, self.client, &PAYLOAD)
            .unwrap();
        self.settle();
        let req = self.sb.recv(&mut self.wire.b, NOW, self.server).unwrap();
        self.sb
            .send(&mut self.wire.b, NOW, self.server, &req)
            .unwrap();
        self.settle();
        let echo = self.sa.recv(&mut self.wire.a, NOW, self.client).unwrap();
        assert_eq!(echo.len(), PAYLOAD.len());
    }

    /// One datagram each way.
    fn udp_echo(&mut self) {
        self.sa
            .send_to(&mut self.wire.a, self.udp_a, ipa(2), 9001, PAYLOAD.to_vec())
            .unwrap();
        self.settle();
        let dgram = self
            .sb
            .recv_from(&mut self.wire.b, self.udp_b, |_, _, d| d.to_vec())
            .unwrap();
        self.sb
            .send_to(&mut self.wire.b, self.udp_b, ipa(1), 9000, dgram)
            .unwrap();
        self.settle();
        let back = self
            .sa
            .recv_from(&mut self.wire.a, self.udp_a, |_, _, d| d.len())
            .unwrap();
        assert_eq!(back, PAYLOAD.len());
    }

    /// The per-visit readiness scan: every handle both sides watch.
    fn poll_scan(&self) -> u32 {
        let mut live = 0u32;
        for &h in &[self.client, self.udp_a] {
            if !self.sa.poll(&self.wire.a, h).is_empty() {
                live += 1;
            }
        }
        for &h in &[self.listener, self.server, self.udp_b] {
            if !self.sb.poll(&self.wire.b, h).is_empty() {
                live += 1;
            }
        }
        live
    }
}

/// The same wire exchanges driven through the raw `NetStack` API — the
/// allocation baseline the shim is compared against.
struct RawHarness {
    wire: Wire,
    client: SockId,
    server: SockId,
    udp_a: UdpId,
    udp_b: UdpId,
}

impl RawHarness {
    fn new() -> RawHarness {
        let mut wire = Wire::new();
        let listener = wire.b.tcp_listen(7, Some(4)).unwrap();
        let client = wire.a.tcp_connect(NOW, ipa(2), 7).unwrap();
        wire.settle();
        let server = wire.b.tcp_accept(listener).expect("accepted");
        let udp_a = wire.a.udp_bind(9000).unwrap();
        let udp_b = wire.b.udp_bind(9001).unwrap();
        RawHarness {
            wire,
            client,
            server,
            udp_a,
            udp_b,
        }
    }

    fn settle(&mut self) {
        self.wire.settle();
    }

    fn tcp_echo(&mut self) {
        self.wire.a.tcp_send(NOW, self.client, &PAYLOAD);
        self.settle();
        let req = self.wire.b.tcp_recv(NOW, self.server);
        self.wire.b.tcp_send(NOW, self.server, &req);
        self.settle();
        let echo = self.wire.a.tcp_recv(NOW, self.client);
        assert_eq!(echo.len(), PAYLOAD.len());
    }

    fn udp_echo(&mut self) {
        self.wire
            .a
            .udp_send(self.udp_a, ipa(2), 9001, PAYLOAD.to_vec());
        self.settle();
        let dgram = self
            .wire
            .b
            .udp_recv(self.udp_b, |_, _, d| d.to_vec())
            .unwrap();
        self.wire.b.udp_send(self.udp_b, ipa(1), 9000, dgram);
        self.settle();
        let back = self.wire.a.udp_recv(self.udp_a, |_, _, d| d.len()).unwrap();
        assert_eq!(back, PAYLOAD.len());
    }
}

#[test]
fn poll_scan_is_free_and_the_shim_adds_no_allocations() {
    let mut sock = SockHarness::new();
    let mut raw = RawHarness::new();

    // Warm every buffer, pool, and action queue into steady state.
    for _ in 0..16 {
        sock.tcp_echo();
        sock.udp_echo();
        raw.tcp_echo();
        raw.udp_echo();
    }

    let poll_allocs = allocs_during(|| {
        black_box(sock.poll_scan());
    });
    eprintln!("socket_ops/poll_scan: {poll_allocs} heap allocations per scan");
    assert_eq!(poll_allocs, 0, "the readiness scan must not touch the heap");

    let sock_tcp = allocs_during(|| sock.tcp_echo());
    let raw_tcp = allocs_during(|| raw.tcp_echo());
    eprintln!("socket_ops/tcp_echo: {sock_tcp} allocations via sockets, {raw_tcp} via raw stack");
    assert_eq!(sock_tcp, raw_tcp, "the socket shim must add no allocations");

    let sock_udp = allocs_during(|| sock.udp_echo());
    let raw_udp = allocs_during(|| raw.udp_echo());
    eprintln!("socket_ops/udp_echo: {sock_udp} allocations via sockets, {raw_udp} via raw stack");
    assert_eq!(sock_udp, raw_udp, "the socket shim must add no allocations");
}
