//! Two stacks on a lossless wire, driven through the `sock_*` verbs:
//! the full verb set, the readiness edges, the tombstones a closed handle
//! leaves, and a property test holding the verbs to the raw `tcp_*` API.

use super::*;
use crate::icmp::{IcmpMessage, UnreachCode};
use crate::ip::{Ipv4Packet, Proto};
use crate::stack::{IfaceId, StackAction, CONNECT_TIMEOUT};
use proptest::prelude::*;
use sim::SimRng;

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Two hosts joined by a zero-loss, zero-delay wire.
struct Pair {
    a: NetStack,
    b: NetStack,
    a_if: IfaceId,
    b_if: IfaceId,
}

impl Pair {
    fn new() -> Pair {
        let (a, a_if) = NetStack::simple_host(ipa(1), 24, 1500, None);
        let (b, b_if) = NetStack::simple_host(ipa(2), 24, 1500, None);
        Pair { a, b, a_if, b_if }
    }

    /// Drains both stacks' pending actions and pumps packets back and
    /// forth until neither side has anything left to say.
    fn settle(&mut self, now: SimTime) {
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
                    next_b.extend(self.b.input(now, self.b_if, &packet.encode()));
                }
            }
            for act in from_b.drain(..) {
                if let StackAction::Egress { packet, .. } = act {
                    next_a.extend(self.a.input(now, self.a_if, &packet.encode()));
                }
            }
            from_a = next_a;
            from_b = next_b;
        }
        panic!("pair did not settle");
    }

    /// Connects a→b on `port` (b must be listening) and returns the two
    /// stream handles (client on a, accepted on b).
    fn connected_streams(&mut self, now: SimTime, port: u16) -> (SocketHandle, SocketHandle) {
        let lh = self.b.sock_listen(port, Some(4)).unwrap();
        let ch = self.a.sock_connect(now, ipa(2), port).unwrap();
        self.settle(now);
        assert!(self.a.sock_poll(ch).writable(), "client connected");
        assert!(self.b.sock_poll(lh).acceptable(), "accept queued");
        let sh = self.b.sock_accept(lh).unwrap();
        (ch, sh)
    }
}

#[test]
fn stream_roundtrip_with_readiness_edges() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.b.sock_listen(7, None).unwrap();

    // Nothing queued yet: accept would block, listener not ready.
    assert_eq!(p.b.sock_accept(lh), Err(SockError::WouldBlock));
    assert!(p.b.sock_poll(lh).is_empty());

    let ch = p.a.sock_connect(now, ipa(2), 7).unwrap();
    // Handshake in flight: not writable, send refuses.
    assert!(!p.a.sock_poll(ch).writable());
    assert_eq!(
        p.a.sock_send(now, ch, b"early"),
        Err(SockError::NotConnected)
    );

    p.settle(now);
    assert!(p.a.sock_poll(ch).writable());
    let sh = p.b.sock_accept(lh).unwrap();
    assert!(p.b.sock_poll(sh).writable());

    // Client → server.
    assert_eq!(p.a.sock_send(now, ch, b"de N7AKR").unwrap(), 8);
    p.settle(now);
    assert!(p.b.sock_poll(sh).readable());
    // A read appends to what the caller's buffer holds, and says how
    // much it appended.
    let mut buf = b"> ".to_vec();
    assert_eq!(p.b.sock_recv(now, sh, &mut buf), Ok(8));
    assert_eq!(buf, b"> de N7AKR");
    assert!(!p.b.sock_poll(sh).readable(), "drained");
    assert_eq!(p.b.sock_recv(now, sh, &mut buf), Err(SockError::WouldBlock));
    assert_eq!(
        buf, b"> de N7AKR",
        "a read that would block leaves it alone"
    );
    p.settle(now);

    // Server → client.
    p.b.sock_send(now, sh, b"qsl").unwrap();
    p.settle(now);
    assert_eq!(p.a.sock_recv(now, ch, &mut buf), Ok(3));
    assert_eq!(buf, b"> de N7AKRqsl");
    p.settle(now);
}

#[test]
fn recv_after_eof_returns_empty_and_eof_mask() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let (ch, sh) = p.connected_streams(now, 9);

    p.a.sock_send(now, ch, b"final words").unwrap();
    p.a.sock_shutdown(now, ch).unwrap();
    p.settle(now);

    // Half-close: the shut side stops advertising WRITABLE…
    assert!(!p.a.sock_poll(ch).writable());
    // …the peer still drains the data, then sees EOF.
    let r = p.b.sock_poll(sh);
    assert!(r.readable());
    let mut buf = Vec::new();
    assert_eq!(p.b.sock_recv(now, sh, &mut buf), Ok(11));
    assert_eq!(buf, b"final words");
    p.settle(now);
    assert!(p.b.sock_poll(sh).eof());
    assert_eq!(p.b.sock_recv(now, sh, &mut buf), Ok(0));
    // EOF is sticky.
    assert_eq!(p.b.sock_recv(now, sh, &mut buf), Ok(0));
    assert_eq!(buf, b"final words");
}

#[test]
fn poll_on_closed_or_bogus_handle_reports_error() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let (ch, _sh) = p.connected_streams(now, 11);

    p.a.sock_close(now, ch);
    p.settle(now);
    assert_eq!(p.a.sock_poll(ch), Readiness::ERROR);
    assert_eq!(
        p.a.sock_recv(now, ch, &mut Vec::new()),
        Err(SockError::BadHandle)
    );
    assert_eq!(p.a.sock_send(now, ch, b"x"), Err(SockError::BadHandle));
    // Double close is a harmless no-op.
    p.a.sock_close(now, ch);

    // A handle that never existed is equally dead.
    let bogus = SocketHandle::Listener(ListenerId(999));
    assert_eq!(p.a.sock_poll(bogus), Readiness::ERROR);
    assert_eq!(p.a.sock_accept(bogus), Err(SockError::BadHandle));
}

#[test]
fn connect_timeout_latches_error_readiness_not_hang() {
    // A host whose default route points at a silent void: SYNs vanish,
    // no ICMP ever comes back (the stack drops no-route traffic
    // silently, and here the gateway simply never answers).
    let (mut st, _ifid) = NetStack::simple_host(ipa(1), 24, 1500, Some(ipa(2)));
    let now = SimTime::ZERO;
    let h = st
        .sock_connect(now, Ipv4Addr::new(44, 99, 0, 1), 23)
        .unwrap();
    let _ = st.drain_actions(); // the SYN, dropped on the floor

    // Walk time forward the way a host's advance() does: fire the stack's
    // timers — retransmissions, dropped, then the connect timer.
    let mut t = now;
    while let Some(d) = st.next_deadline() {
        assert!(d <= now + CONNECT_TIMEOUT, "{d:?}");
        t = d;
        st.poll_queued(t);
        let _ = st.drain_actions();
    }
    assert_eq!(t, now + CONNECT_TIMEOUT, "timer fired, then disarmed");
    assert!(st.sock_poll(h).error(), "error-readiness, not a hang");
    assert_eq!(st.sock_error(h), Some(SockError::TimedOut));
    assert_eq!(
        st.sock_recv(t, h, &mut Vec::new()),
        Err(SockError::TimedOut)
    );
}

/// An ICMP destination-unreachable from `from` to `src`, quoting a
/// TCP segment `(src, port) -> (dst, port)` as RFC 792 does: the IP
/// header and the first 8 octets of the segment.
fn unreachable_quoting(
    from: Ipv4Addr,
    (src, src_port): (Ipv4Addr, u16),
    (dst, dst_port): (Ipv4Addr, u16),
) -> Vec<u8> {
    let mut original = vec![0u8; 28];
    original[0] = 0x45;
    original[9] = 6; // TCP
    original[12..16].copy_from_slice(&src.octets());
    original[16..20].copy_from_slice(&dst.octets());
    original[20..22].copy_from_slice(&src_port.to_be_bytes());
    original[22..24].copy_from_slice(&dst_port.to_be_bytes());
    let msg = IcmpMessage::DestUnreachable {
        code: UnreachCode::Host,
        original,
    };
    Ipv4Packet::new(from, src, Proto::Icmp, msg.encode()).encode()
}

#[test]
fn icmp_unreachable_maps_to_pending_connect() {
    let (mut st, ifid) = NetStack::simple_host(ipa(1), 24, 1500, Some(ipa(2)));
    let now = SimTime::ZERO;
    let dst = Ipv4Addr::new(44, 99, 0, 7);
    let h = st.sock_connect(now, dst, 23).unwrap();
    let _ = st.drain_actions();
    let local = st.open_stream(h).unwrap().1.tcb.local();

    // The gateway's quote of our SYN arrives as a real ICMP datagram.
    let icmp = unreachable_quoting(ipa(2), local, (dst, 23));
    let acts = st.input(now, ifid, &icmp);
    assert!(matches!(acts[..], [StackAction::IcmpProblem { .. }]));
    assert!(st.sock_poll(h).error());
    assert_eq!(st.sock_error(h), Some(SockError::Unreachable));

    // A quote for some *other* flow must not poison this handle.
    let h2 = st.sock_connect(now, dst, 25).unwrap();
    let _ = st.drain_actions();
    let other = unreachable_quoting(ipa(2), (local.0, 9999), (Ipv4Addr::new(44, 99, 0, 8), 25));
    st.input(now, ifid, &other);
    assert_eq!(st.sock_error(h2), None);
}

#[test]
fn an_unreachable_for_a_connected_stream_latches_nothing() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let (ch, _sh) = p.connected_streams(now, 23);
    let local = p.a.open_stream(ch).unwrap().1.tcb.local();
    let icmp = unreachable_quoting(ipa(2), local, (ipa(2), 23));
    p.a.input(now, p.a_if, &icmp);
    assert_eq!(p.a.sock_error(ch), None);
    assert!(!p.a.sock_poll(ch).error());
    assert_eq!(p.a.sock_send(now, ch, b"still here"), Ok(10));
}

#[test]
fn a_child_reset_before_accept_is_handed_out_without_error() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.b.sock_listen(21, None).unwrap();
    let ch = p.a.sock_connect(now, ipa(2), 21).unwrap();
    p.settle(now);
    // The client resets the connection before the server accepts it.
    let (id, _) = p.a.open_stream(ch).unwrap();
    p.a.tcp_abort(now, id);
    p.settle(now);
    assert_eq!(
        p.b.sock_poll(lh),
        Readiness::ACCEPTABLE | Readiness::READABLE
    );
    let sh = p.b.sock_accept(lh).unwrap();
    let r = p.b.sock_poll(sh);
    assert!(!r.error(), "{r:?}");
    assert!(r.hangup());
    assert_eq!(p.b.sock_error(sh), None);
}

#[test]
fn refused_connect_latches_refused() {
    // b has no listener on 23: its stack answers the SYN with RST.
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let ch = p.a.sock_connect(now, ipa(2), 23).unwrap();
    p.settle(now);
    assert!(p.a.sock_poll(ch).error());
    assert_eq!(p.a.sock_error(ch), Some(SockError::Refused));
    assert_eq!(p.a.sock_send(now, ch, b"x"), Err(SockError::Refused));
    assert_eq!(p.a.next_deadline(), None, "connect timer disarmed by RST");
}

#[test]
fn accept_backlog_overflow_refuses_and_claim_frees() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.b.sock_listen(21, Some(1)).unwrap();

    let c1 = p.a.sock_connect(now, ipa(2), 21).unwrap();
    p.settle(now);
    assert!(p.a.sock_poll(c1).writable());

    // Backlog full: the second connect gets an RST → Refused.
    let c2 = p.a.sock_connect(now, ipa(2), 21).unwrap();
    p.settle(now);
    assert_eq!(p.a.sock_error(c2), Some(SockError::Refused));
    assert_eq!(p.b.stats().accept_overflow, 1);

    // accept() claims the queued connection, freeing the backlog slot.
    let _s1 = p.b.sock_accept(lh).unwrap();
    let c3 = p.a.sock_connect(now, ipa(2), 21).unwrap();
    p.settle(now);
    assert!(p.a.sock_poll(c3).writable());
}

#[test]
fn udp_datagram_roundtrip_and_readiness() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let ua = p.a.sock_bind_udp(4000).unwrap();
    let ub = p.b.sock_bind_udp(53).unwrap();

    // UDP is born writable, not readable.
    assert!(p.b.sock_poll(ub).writable());
    assert!(!p.b.sock_poll(ub).readable());
    assert_eq!(
        p.b.sock_recv_from(ub, |_, _, _| ()),
        Err(SockError::WouldBlock)
    );

    p.a.sock_send_to(ua, ipa(2), 53, b"QUERY?".to_vec())
        .unwrap();
    p.settle(now);
    assert!(p.b.sock_poll(ub).readable());
    let (src, sport, payload) =
        p.b.sock_recv_from(ub, |src, sport, payload| (src, sport, payload.to_vec()))
            .unwrap();
    assert_eq!(src, ipa(1));
    assert_eq!(sport, 4000);
    assert_eq!(payload, b"QUERY?");
    assert!(!p.b.sock_poll(ub).readable());
}

#[test]
fn closing_a_listener_or_a_datagram_socket_frees_its_port() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.b.sock_listen(7, None).unwrap();
    let uh = p.b.sock_bind_udp(53).unwrap();
    assert_eq!(p.b.sock_listen(7, None), Err(SockError::InUse));
    p.b.sock_close(now, lh);
    p.b.sock_close(now, uh);
    assert_eq!(p.b.sock_poll(lh), Readiness::ERROR);
    // Both ports can be bound again.
    p.b.sock_listen(7, None).unwrap();
    p.b.sock_bind_udp(53).unwrap();
}

#[test]
fn a_released_handle_of_every_kind_refuses_every_verb() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let (ch, _sh) = p.connected_streams(now, 13);
    let lh = p.b.sock_listen(7, None).unwrap();
    let uh = p.a.sock_bind_udp(4000).unwrap();
    p.a.sock_close(now, ch);
    p.b.sock_close(now, lh);
    p.a.sock_close(now, uh);
    p.settle(now);

    // A closed listener.
    assert_eq!(p.b.sock_accept(lh), Err(SockError::BadHandle));
    assert_eq!(p.b.sock_poll(lh), Readiness::ERROR);
    // An unbound datagram socket.
    assert_eq!(
        p.a.sock_send_to(uh, ipa(2), 53, b"x".to_vec()),
        Err(SockError::BadHandle)
    );
    assert_eq!(
        p.a.sock_recv_from(uh, |_, _, _| ()),
        Err(SockError::BadHandle)
    );
    assert_eq!(p.a.sock_poll(uh), Readiness::ERROR);
    // A released stream.
    assert_eq!(p.a.sock_shutdown(now, ch), Err(SockError::BadHandle));
    assert_eq!(p.a.sock_send(now, ch, b"x"), Err(SockError::BadHandle));
    assert_eq!(
        p.a.sock_recv(now, ch, &mut Vec::new()),
        Err(SockError::BadHandle)
    );
    assert!(p.a.sock_tcp_info(ch).is_none());
    assert_eq!(p.a.sock_error(ch), None);
    assert_eq!(p.a.sock_send_capacity(ch), 0);
    assert_eq!(p.a.sock_poll(ch), Readiness::ERROR);

    // The ports are free again, and a second close of each dead handle is
    // a no-op: no action, and the new sockets on those ports untouched.
    let lh2 = p.b.sock_listen(7, None).unwrap();
    let uh2 = p.a.sock_bind_udp(4000).unwrap();
    for (on_b, h) in [(false, ch), (true, lh), (false, uh)] {
        let st = if on_b { &mut p.b } else { &mut p.a };
        st.sock_close(now, h);
        assert!(st.actions_empty(), "{h:?}");
        assert_eq!(st.sock_poll(h), Readiness::ERROR);
    }
    assert_eq!(p.b.sock_poll(lh2), Readiness::EMPTY);
    assert_eq!(p.a.sock_poll(uh2), Readiness::WRITABLE);
}

/// One read of the server end in both worlds: what `sock_recv` appended
/// (nothing when it would block) and what the raw `tcp_recv` appended.
fn recv_both(
    sw: &mut Pair,
    s_server: SocketHandle,
    rw: &mut Pair,
    r_server: SockId,
    now: SimTime,
) -> (Vec<u8>, Vec<u8>) {
    let mut d_sock = Vec::new();
    match sw.b.sock_recv(now, s_server, &mut d_sock) {
        Ok(_) | Err(SockError::WouldBlock) => {}
        Err(e) => panic!("unexpected recv error: {e}"),
    }
    let mut d_raw = Vec::new();
    rw.b.tcp_recv(now, r_server, &mut d_raw);
    (d_sock, d_raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of send/recv/poll on both sides: the socket
    /// verbs accept the same byte counts, deliver the same bytes, and
    /// report readiness consistent with the oracle's raw TCB state at
    /// every step.
    #[test]
    fn socket_api_matches_raw_oracle(seed in any::<u64>(), n_ops in 1usize..60) {
        let now = SimTime::ZERO;

        // Socket-API world.
        let mut sw = Pair::new();
        let lh = sw.b.sock_listen(7, None).unwrap();
        let s_client = sw.a.sock_connect(now, ipa(2), 7).unwrap();
        sw.settle(now);
        let s_server = sw.b.sock_accept(lh).unwrap();

        // Raw-API oracle world, identical topology and handshake.
        let mut rw = Pair::new();
        let r_listener = rw.b.tcp_listen(7, None).unwrap();
        let r_client = rw.a.tcp_connect(now, ipa(2), 7).unwrap();
        rw.settle(now);
        let r_server = rw.b.tcp_accept(r_listener).expect("a connection was accepted on b");

        let mut rng = SimRng::seed_from(seed);
        let mut sent: u64 = 0;
        let mut rcvd_sock: u64 = 0;
        let mut rcvd_raw: u64 = 0;

        for _ in 0..n_ops {
            match rng.below(5) {
                // Client sends a run of bytes through both worlds.
                0 => {
                    let len = (rng.below(900) + 1) as usize;
                    let data: Vec<u8> =
                        (0..len).map(|i| (sent as usize + i) as u8).collect();
                    let n_sock = match sw.a.sock_send(now, s_client, &data) {
                        Ok(n) => n,
                        Err(SockError::WouldBlock) => 0,
                        Err(e) => panic!("unexpected send error: {e}"),
                    };
                    let n_raw = rw.a.tcp_send(now, r_client, &data);
                    prop_assert_eq!(n_sock, n_raw, "send accepted counts diverge");
                    sent += n_sock as u64;
                }
                // Server drains one recv from both worlds.
                1 => {
                    let (d_sock, d_raw) = recv_both(&mut sw, s_server, &mut rw, r_server, now);
                    prop_assert_eq!(&d_sock, &d_raw, "received bytes diverge");
                    rcvd_sock += d_sock.len() as u64;
                    rcvd_raw += d_raw.len() as u64;
                }
                // Let both wires move.
                2 => {
                    sw.settle(now);
                    rw.settle(now);
                }
                // Poll the client: readiness must agree with the raw
                // oracle's TCB.
                3 => {
                    let r = sw.a.sock_poll(s_client);
                    prop_assert_eq!(
                        r.writable(),
                        rw.a.socks[r_client.0].tcb.send_capacity() > 0,
                        "writable diverges from oracle"
                    );
                }
                // Poll the server likewise.
                _ => {
                    let r = sw.b.sock_poll(s_server);
                    let tcb = &rw.b.socks[r_server.0].tcb;
                    prop_assert_eq!(
                        r.readable(),
                        tcb.recv_available() > 0,
                        "readable diverges from oracle"
                    );
                    prop_assert_eq!(
                        r.eof(),
                        tcb.at_eof(),
                        "eof diverges from oracle"
                    );
                }
            }
        }

        // Drain to quiescence: every byte the API accepted arrives, and
        // both worlds agree exactly.
        for _ in 0..1000 {
            sw.settle(now);
            rw.settle(now);
            let (d_sock, d_raw) = recv_both(&mut sw, s_server, &mut rw, r_server, now);
            prop_assert_eq!(&d_sock, &d_raw, "drain bytes diverge");
            if d_sock.is_empty() && d_raw.is_empty() {
                break;
            }
            rcvd_sock += d_sock.len() as u64;
            rcvd_raw += d_raw.len() as u64;
        }
        prop_assert_eq!(rcvd_sock, rcvd_raw);
        prop_assert_eq!(rcvd_sock, sent, "every accepted byte arrives");
    }
}
