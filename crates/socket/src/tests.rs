//! In-crate tests: two stacks on a lossless wire, each fronted by a
//! `SocketTable`, exercising the full verb set and the readiness edges
//! the satellite checklist calls out.

use super::*;
use netstack::icmp::{IcmpMessage, UnreachCode};
use netstack::ip::{Ipv4Packet, Proto};
use netstack::stack::{IfaceId, StackAction, CONNECT_TIMEOUT};

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Two hosts joined by a zero-loss, zero-delay wire, with a socket table
/// on each side.
struct Pair {
    a: NetStack,
    b: NetStack,
    a_if: IfaceId,
    b_if: IfaceId,
    sa: SocketTable,
    sb: SocketTable,
}

impl Pair {
    fn new() -> Pair {
        let (a, a_if) = NetStack::simple_host(ipa(1), 24, 1500, None);
        let (b, b_if) = NetStack::simple_host(ipa(2), 24, 1500, None);
        Pair {
            a,
            b,
            a_if,
            b_if,
            sa: SocketTable::new(),
            sb: SocketTable::new(),
        }
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
        let lh = self.sb.listen(&mut self.b, port, Some(4)).unwrap();
        let ch = self.sa.connect(&mut self.a, now, ipa(2), port).unwrap();
        self.settle(now);
        assert!(self.sa.poll(&self.a, ch).writable(), "client connected");
        assert!(self.sb.poll(&self.b, lh).acceptable(), "accept queued");
        let sh = self.sb.accept(&mut self.b, lh).unwrap();
        (ch, sh)
    }
}

#[test]
fn stream_roundtrip_with_readiness_edges() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.sb.listen(&mut p.b, 7, None).unwrap();

    // Nothing queued yet: accept would block, listener not ready.
    assert_eq!(p.sb.accept(&mut p.b, lh), Err(SockError::WouldBlock));
    assert!(p.sb.poll(&p.b, lh).is_empty());

    let ch = p.sa.connect(&mut p.a, now, ipa(2), 7).unwrap();
    // Handshake in flight: not writable, send refuses.
    assert!(!p.sa.poll(&p.a, ch).writable());
    assert_eq!(
        p.sa.send(&mut p.a, now, ch, b"early"),
        Err(SockError::NotConnected)
    );

    p.settle(now);
    assert!(p.sa.poll(&p.a, ch).writable());
    let sh = p.sb.accept(&mut p.b, lh).unwrap();
    assert!(p.sb.poll(&p.b, sh).writable());

    // Client → server.
    assert_eq!(p.sa.send(&mut p.a, now, ch, b"de N7AKR").unwrap(), 8);
    p.settle(now);
    assert!(p.sb.poll(&p.b, sh).readable());
    assert_eq!(p.sb.recv(&mut p.b, now, sh).unwrap(), b"de N7AKR");
    assert!(!p.sb.poll(&p.b, sh).readable(), "drained");
    assert_eq!(p.sb.recv(&mut p.b, now, sh), Err(SockError::WouldBlock));
    p.settle(now);

    // Server → client.
    p.sb.send(&mut p.b, now, sh, b"qsl").unwrap();
    p.settle(now);
    assert_eq!(p.sa.recv(&mut p.a, now, ch).unwrap(), b"qsl");
    p.settle(now);
}

#[test]
fn recv_after_eof_returns_empty_and_eof_mask() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let (ch, sh) = p.connected_streams(now, 9);

    p.sa.send(&mut p.a, now, ch, b"final words").unwrap();
    p.sa.shutdown(&mut p.a, now, ch).unwrap();
    p.settle(now);

    // Half-close: the shut side stops advertising WRITABLE…
    assert!(!p.sa.poll(&p.a, ch).writable());
    // …the peer still drains the data, then sees EOF.
    let r = p.sb.poll(&p.b, sh);
    assert!(r.readable());
    assert_eq!(p.sb.recv(&mut p.b, now, sh).unwrap(), b"final words");
    p.settle(now);
    assert!(p.sb.poll(&p.b, sh).eof());
    assert_eq!(p.sb.recv(&mut p.b, now, sh).unwrap(), Vec::<u8>::new());
    // EOF is sticky.
    assert_eq!(p.sb.recv(&mut p.b, now, sh).unwrap(), Vec::<u8>::new());
}

#[test]
fn poll_on_closed_or_bogus_handle_reports_error() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let (ch, _sh) = p.connected_streams(now, 11);

    p.sa.close(&mut p.a, now, ch);
    p.settle(now);
    assert_eq!(p.sa.poll(&p.a, ch), Readiness::ERROR);
    assert_eq!(p.sa.recv(&mut p.a, now, ch), Err(SockError::BadHandle));
    assert_eq!(
        p.sa.send(&mut p.a, now, ch, b"x"),
        Err(SockError::BadHandle)
    );
    // Double close is a harmless no-op.
    p.sa.close(&mut p.a, now, ch);

    // A handle that never existed is equally dead.
    let bogus = SocketHandle(999);
    assert_eq!(p.sa.poll(&p.a, bogus), Readiness::ERROR);
    assert_eq!(p.sa.accept(&mut p.a, bogus), Err(SockError::BadHandle));
}

#[test]
fn connect_timeout_latches_error_readiness_not_hang() {
    // A host whose default route points at a silent void: SYNs vanish,
    // no ICMP ever comes back (the stack drops no-route traffic
    // silently, and here the gateway simply never answers).
    let (mut st, _ifid) = NetStack::simple_host(ipa(1), 24, 1500, Some(ipa(2)));
    let mut tbl = SocketTable::new();
    let now = SimTime::ZERO;
    let h = tbl
        .connect(&mut st, now, Ipv4Addr::new(44, 99, 0, 1), 23)
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
    assert!(tbl.poll(&st, h).error(), "error-readiness, not a hang");
    assert_eq!(tbl.take_error(&st, h), Some(SockError::TimedOut));
    assert_eq!(tbl.recv(&mut st, t, h), Err(SockError::TimedOut));
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
    let mut tbl = SocketTable::new();
    let now = SimTime::ZERO;
    let dst = Ipv4Addr::new(44, 99, 0, 7);
    let h = tbl.connect(&mut st, now, dst, 23).unwrap();
    let _ = st.drain_actions();
    let local = tbl.tcp(h).ok().and_then(|t| st.tcp_local(t.id)).unwrap();

    // The gateway's quote of our SYN arrives as a real ICMP datagram.
    let icmp = unreachable_quoting(ipa(2), local, (dst, 23));
    let acts = st.input(now, ifid, &icmp);
    assert!(matches!(acts[..], [StackAction::IcmpProblem { .. }]));
    assert!(tbl.poll(&st, h).error());
    assert_eq!(tbl.take_error(&st, h), Some(SockError::Unreachable));

    // A quote for some *other* flow must not poison this handle.
    let h2 = tbl.connect(&mut st, now, dst, 25).unwrap();
    let _ = st.drain_actions();
    let other = unreachable_quoting(ipa(2), (local.0, 9999), (Ipv4Addr::new(44, 99, 0, 8), 25));
    st.input(now, ifid, &other);
    assert_eq!(tbl.take_error(&st, h2), None);
}

#[test]
fn an_unreachable_for_a_connected_stream_latches_nothing() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let (ch, _sh) = p.connected_streams(now, 23);
    let local = p.sa.tcp(ch).ok().and_then(|t| p.a.tcp_local(t.id)).unwrap();
    let icmp = unreachable_quoting(ipa(2), local, (ipa(2), 23));
    p.a.input(now, p.a_if, &icmp);
    assert_eq!(p.sa.take_error(&p.a, ch), None);
    assert!(!p.sa.poll(&p.a, ch).error());
    assert_eq!(p.sa.send(&mut p.a, now, ch, b"still here"), Ok(10));
}

#[test]
fn a_child_reset_before_accept_is_handed_out_without_error() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.sb.listen(&mut p.b, 21, None).unwrap();
    let ch = p.sa.connect(&mut p.a, now, ipa(2), 21).unwrap();
    p.settle(now);
    // The client resets the connection before the server accepts it.
    let id = p.sa.tcp(ch).unwrap().id;
    p.a.tcp_abort(now, id);
    p.settle(now);
    assert_eq!(
        p.sb.poll(&p.b, lh),
        Readiness::ACCEPTABLE | Readiness::READABLE
    );
    let sh = p.sb.accept(&mut p.b, lh).unwrap();
    let r = p.sb.poll(&p.b, sh);
    assert!(!r.error(), "{r:?}");
    assert!(r.hangup());
    assert_eq!(p.sb.take_error(&p.b, sh), None);
}

#[test]
fn refused_connect_latches_refused() {
    // b has no listener on 23: its stack answers the SYN with RST.
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let ch = p.sa.connect(&mut p.a, now, ipa(2), 23).unwrap();
    p.settle(now);
    assert!(p.sa.poll(&p.a, ch).error());
    assert_eq!(p.sa.take_error(&p.a, ch), Some(SockError::Refused));
    assert_eq!(p.sa.send(&mut p.a, now, ch, b"x"), Err(SockError::Refused));
    assert_eq!(p.a.next_deadline(), None, "connect timer disarmed by RST");
}

#[test]
fn accept_backlog_overflow_refuses_and_claim_frees() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.sb.listen(&mut p.b, 21, Some(1)).unwrap();

    let c1 = p.sa.connect(&mut p.a, now, ipa(2), 21).unwrap();
    p.settle(now);
    assert!(p.sa.poll(&p.a, c1).writable());

    // Backlog full: the second connect gets an RST → Refused.
    let c2 = p.sa.connect(&mut p.a, now, ipa(2), 21).unwrap();
    p.settle(now);
    assert_eq!(p.sa.take_error(&p.a, c2), Some(SockError::Refused));
    assert_eq!(p.b.stats().accept_overflow, 1);

    // accept() claims the queued connection, freeing the backlog slot.
    let _s1 = p.sb.accept(&mut p.b, lh).unwrap();
    let c3 = p.sa.connect(&mut p.a, now, ipa(2), 21).unwrap();
    p.settle(now);
    assert!(p.sa.poll(&p.a, c3).writable());
}

#[test]
fn udp_datagram_roundtrip_and_readiness() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let ua = p.sa.bind_udp(&mut p.a, 4000).unwrap();
    let ub = p.sb.bind_udp(&mut p.b, 53).unwrap();

    // UDP is born writable, not readable.
    assert!(p.sb.poll(&p.b, ub).writable());
    assert!(!p.sb.poll(&p.b, ub).readable());
    assert_eq!(
        p.sb.recv_from(&mut p.b, ub, |_, _, _| ()),
        Err(SockError::WouldBlock)
    );

    p.sa.send_to(&mut p.a, ua, ipa(2), 53, b"QUERY?".to_vec())
        .unwrap();
    p.settle(now);
    assert!(p.sb.poll(&p.b, ub).readable());
    let (src, sport, payload) =
        p.sb.recv_from(&mut p.b, ub, |src, sport, payload| {
            (src, sport, payload.to_vec())
        })
        .unwrap();
    assert_eq!(src, ipa(1));
    assert_eq!(sport, 4000);
    assert_eq!(payload, b"QUERY?");
    assert!(!p.sb.poll(&p.b, ub).readable());
}

#[test]
fn closing_a_listener_or_a_datagram_socket_frees_its_port() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.sb.listen(&mut p.b, 7, None).unwrap();
    let uh = p.sb.bind_udp(&mut p.b, 53).unwrap();
    assert_eq!(p.sb.listen(&mut p.b, 7, None), Err(SockError::InUse));
    p.sb.close(&mut p.b, now, lh);
    p.sb.close(&mut p.b, now, uh);
    assert_eq!(p.sb.poll(&p.b, lh), Readiness::ERROR);
    // Both ports can be bound again.
    p.sb.listen(&mut p.b, 7, None).unwrap();
    p.sb.bind_udp(&mut p.b, 53).unwrap();
}
