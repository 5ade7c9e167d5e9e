//! The BSD-style socket layer (DESIGN.md §10), three claims, each an
//! exact count:
//!
//! 1. The poll readiness scan — the code every socket program
//!    runs on every scheduler visit — performs **zero** heap
//!    allocations.
//! 2. A warm TCP echo round trip driven through `NetStack::sock_*`
//!    performs **zero** heap allocations: segments are encoded into pool
//!    buffers and traded across the wire by value, and `sock_recv`
//!    appends into a buffer the reader keeps (DESIGN.md §6, born once,
//!    traded after).
//! 3. A warm UDP echo round trip performs exactly [`UDP_ECHO_ALLOCS`]
//!    heap allocations, two per send: the payload `Vec` the caller builds
//!    (`sock_send_to` takes it by value) and the datagram
//!    `UdpDatagram::encode` builds around it. A receive lends the datagram
//!    in the pool buffer it arrived in and costs nothing.

use crate::allocs_during;
use netstack::socket::SocketHandle;
use netstack::stack::{IfaceId, StackAction};
use netstack::NetStack;
use sim::SimTime;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

const PAYLOAD: [u8; 64] = [0x55; 64];
const NOW: SimTime = SimTime::ZERO;

/// Heap allocations of one warm UDP echo round trip, measured: held
/// exactly, so a rise fails and so does a fall nobody recorded.
const UDP_ECHO_ALLOCS: u64 = 4;

/// Two stacks on a lossless zero-delay wire. Each datagram crosses in
/// its own buffer, as a link driver hands it up (`into_wire`, then
/// `input_owned`), and the actions are taken a round at a time into a
/// buffer the wire keeps, so the wire itself allocates nothing once warm.
struct Wire {
    a: NetStack,
    b: NetStack,
    a_if: IfaceId,
    b_if: IfaceId,
    round: Vec<StackAction>,
}

impl Wire {
    fn new() -> Wire {
        let (a, a_if) = NetStack::simple_host(ipa(1), 24, 1500, None);
        let (b, b_if) = NetStack::simple_host(ipa(2), 24, 1500, None);
        Wire {
            a,
            b,
            a_if,
            b_if,
            round: Vec::new(),
        }
    }

    /// Pumps packets until both sides go quiet.
    fn settle(&mut self) {
        for _ in 0..10_000 {
            if self.a.actions_empty() && self.b.actions_empty() {
                return;
            }
            self.a.swap_actions(&mut self.round);
            for act in self.round.drain(..) {
                if let StackAction::Egress { packet, .. } = act {
                    self.b.input_owned(NOW, self.b_if, packet.into_wire());
                }
            }
            self.b.swap_actions(&mut self.round);
            for act in self.round.drain(..) {
                if let StackAction::Egress { packet, .. } = act {
                    self.a.input_owned(NOW, self.a_if, packet.into_wire());
                }
            }
        }
        panic!("wire did not settle");
    }
}

/// The socket-layer harness: a connected stream pair plus a datagram
/// pair, driven through the `sock_*` verbs only.
struct SockHarness {
    wire: Wire,
    listener: SocketHandle,
    client: SocketHandle,
    server: SocketHandle,
    udp_a: SocketHandle,
    udp_b: SocketHandle,
    /// What a read brings in; each end keeps its own.
    buf_a: Vec<u8>,
    buf_b: Vec<u8>,
}

impl SockHarness {
    fn new() -> SockHarness {
        let mut wire = Wire::new();
        let listener = wire.b.sock_listen(7, Some(4)).unwrap();
        let client = wire.a.sock_connect(NOW, ipa(2), 7).unwrap();
        wire.settle();
        let server = wire.b.sock_accept(listener).unwrap();
        let udp_a = wire.a.sock_bind_udp(9000).unwrap();
        let udp_b = wire.b.sock_bind_udp(9001).unwrap();
        SockHarness {
            wire,
            listener,
            client,
            server,
            udp_a,
            udp_b,
            buf_a: Vec::new(),
            buf_b: Vec::new(),
        }
    }

    fn settle(&mut self) {
        self.wire.settle();
    }

    /// One stop-and-wait echo over the established stream.
    fn tcp_echo(&mut self) {
        self.wire.a.sock_send(NOW, self.client, &PAYLOAD).unwrap();
        self.settle();
        self.buf_b.clear();
        let n = self.wire.b.sock_recv(NOW, self.server, &mut self.buf_b);
        assert_eq!(n, Ok(PAYLOAD.len()));
        self.wire
            .b
            .sock_send(NOW, self.server, &self.buf_b)
            .unwrap();
        self.settle();
        self.buf_a.clear();
        let n = self.wire.a.sock_recv(NOW, self.client, &mut self.buf_a);
        assert_eq!(n, Ok(PAYLOAD.len()));
        assert_eq!(self.buf_a, PAYLOAD);
    }

    /// One datagram each way.
    fn udp_echo(&mut self) {
        self.wire
            .a
            .sock_send_to(self.udp_a, ipa(2), 9001, PAYLOAD.to_vec())
            .unwrap();
        self.settle();
        let dgram = self
            .wire
            .b
            .sock_recv_from(self.udp_b, |_, _, d| d.to_vec())
            .unwrap();
        self.wire
            .b
            .sock_send_to(self.udp_b, ipa(1), 9000, dgram)
            .unwrap();
        self.settle();
        let back = self
            .wire
            .a
            .sock_recv_from(self.udp_a, |_, _, d| d.len())
            .unwrap();
        assert_eq!(back, PAYLOAD.len());
    }

    /// The per-visit readiness scan: every handle both sides watch.
    fn poll_scan(&self) -> u32 {
        let mut live = 0u32;
        for &h in &[self.client, self.udp_a] {
            if !self.wire.a.sock_poll(h).is_empty() {
                live += 1;
            }
        }
        for &h in &[self.listener, self.server, self.udp_b] {
            if !self.wire.b.sock_poll(h).is_empty() {
                live += 1;
            }
        }
        live
    }
}

#[test]
fn poll_scan_and_tcp_echo_are_free_and_udp_echo_costs_its_payloads() {
    let mut sock = SockHarness::new();

    // Warm every buffer, pool, and action queue into steady state.
    for _ in 0..16 {
        sock.tcp_echo();
        sock.udp_echo();
    }

    let poll_allocs = allocs_during(|| {
        black_box(sock.poll_scan());
    });
    eprintln!("socket_ops/poll_scan: {poll_allocs} heap allocations per scan");
    assert_eq!(poll_allocs, 0, "the readiness scan must not touch the heap");

    const ECHOES: usize = 100;
    let tcp = allocs_during(|| (0..ECHOES).for_each(|_| sock.tcp_echo()));
    eprintln!("socket_ops/tcp_echo: {tcp} allocations / {ECHOES} round trips");
    assert_eq!(tcp, 0, "a warm TCP echo round trip must not allocate");

    let udp = allocs_during(|| sock.udp_echo());
    eprintln!("socket_ops/udp_echo: {udp} allocations per round trip");
    assert_eq!(udp, UDP_ECHO_ALLOCS, "a warm UDP echo round trip");
}
