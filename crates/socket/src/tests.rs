//! In-crate tests: two stacks on a lossless wire, each fronted by a
//! `SocketTable`, exercising the full verb set and the readiness edges
//! the satellite checklist calls out.

use super::*;
use netstack::icmp::UnreachCode;
use netstack::stack::IfaceId;

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Two hosts joined by a zero-loss, zero-delay wire, with a socket table
/// on each side. Every stack action is routed through the owning table's
/// `on_action` before (possibly) crossing the wire.
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
                self.sa.on_action(&self.a, &act);
                if let StackAction::Egress { packet, .. } = act {
                    next_b.extend(self.b.input(now, self.b_if, &packet.encode()));
                }
            }
            for act in from_b.drain(..) {
                self.sb.on_action(&self.b, &act);
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

    // select() sees exactly the ready handles.
    let ready = p.sa.select(&p.a, &[ch]);
    assert_eq!(ready.len(), 1);
    assert!(ready[0].1.writable() && !ready[0].1.readable());
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

    let deadline = tbl.next_deadline().expect("connect timer armed");
    assert_eq!(deadline, now + CONNECT_TIMEOUT);

    // Walk time forward the way a host's advance() does: fire stack
    // timers (retransmissions — dropped) and the table deadline.
    let mut t = now;
    while t < deadline {
        t = match st.next_deadline() {
            Some(d) if d < deadline => d,
            _ => deadline,
        };
        let _ = st.poll(t);
        if tbl.next_deadline().is_some_and(|d| d <= t) {
            tbl.on_deadline(&mut st, t);
            let _ = st.drain_actions();
        }
    }
    assert!(tbl.poll(&st, h).error(), "error-readiness, not a hang");
    assert_eq!(tbl.take_error(h), Some(SockError::TimedOut));
    assert_eq!(tbl.recv(&mut st, t, h), Err(SockError::TimedOut));
    assert_eq!(tbl.next_deadline(), None, "timer disarmed");
}

#[test]
fn icmp_unreachable_maps_to_pending_connect() {
    let (mut st, _ifid) = NetStack::simple_host(ipa(1), 24, 1500, Some(ipa(2)));
    let mut tbl = SocketTable::new();
    let now = SimTime::ZERO;
    let dst = Ipv4Addr::new(44, 99, 0, 7);
    let h = tbl.connect(&mut st, now, dst, 23).unwrap();
    let _ = st.drain_actions();
    let (local_ip, local_port) = {
        let t = match &tbl.slots[h.0] {
            Slot::Tcp(t) => t.id,
            _ => unreachable!(),
        };
        st.tcp_local(t).unwrap()
    };

    // Hand-build the gateway's quote: 20-byte IP header + the first 8
    // octets of our SYN (ports + sequence), exactly what RFC 792 sends.
    let mut original = vec![0u8; 28];
    original[0] = 0x45;
    original[9] = 6; // TCP
    original[12..16].copy_from_slice(&local_ip.octets());
    original[16..20].copy_from_slice(&dst.octets());
    original[20..22].copy_from_slice(&local_port.to_be_bytes());
    original[22..24].copy_from_slice(&23u16.to_be_bytes());

    tbl.on_action(
        &st,
        &StackAction::IcmpProblem {
            from: ipa(2),
            message: IcmpMessage::DestUnreachable {
                code: UnreachCode::Host,
                original,
            },
        },
    );
    assert!(tbl.poll(&st, h).error());
    assert_eq!(tbl.take_error(h), Some(SockError::Unreachable));

    // A quote for some *other* flow must not poison this handle.
    let h2 = tbl.connect(&mut st, now, dst, 25).unwrap();
    let _ = st.drain_actions();
    let mut other = vec![0u8; 28];
    other[0] = 0x45;
    other[9] = 6;
    other[12..16].copy_from_slice(&local_ip.octets());
    other[16..20].copy_from_slice(&Ipv4Addr::new(44, 99, 0, 8).octets());
    other[20..22].copy_from_slice(&9999u16.to_be_bytes());
    other[22..24].copy_from_slice(&25u16.to_be_bytes());
    tbl.on_action(
        &st,
        &StackAction::IcmpProblem {
            from: ipa(2),
            message: IcmpMessage::DestUnreachable {
                code: UnreachCode::Host,
                original: other,
            },
        },
    );
    assert_eq!(tbl.take_error(h2), None);
}

#[test]
fn refused_connect_latches_refused() {
    // b has no listener on 23: its stack answers the SYN with RST.
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let ch = p.sa.connect(&mut p.a, now, ipa(2), 23).unwrap();
    p.settle(now);
    assert!(p.sa.poll(&p.a, ch).error());
    assert_eq!(p.sa.take_error(ch), Some(SockError::Refused));
    assert_eq!(p.sa.send(&mut p.a, now, ch, b"x"), Err(SockError::Refused));
    assert_eq!(p.sa.next_deadline(), None, "connect timer disarmed by RST");
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
    assert_eq!(p.sa.take_error(c2), Some(SockError::Refused));
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
fn handle_for_action_routes_events() {
    let now = SimTime::ZERO;
    let mut p = Pair::new();
    let lh = p.sb.listen(&mut p.b, 7, None).unwrap();
    let ch = p.sa.connect(&mut p.a, now, ipa(2), 7).unwrap();
    p.settle(now);
    let sh = p.sb.accept(&mut p.b, lh).unwrap();

    let (sid_a, sid_b) = {
        let a = match &p.sa.slots[ch.0] {
            Slot::Tcp(t) => t.id,
            _ => unreachable!(),
        };
        let b = match &p.sb.slots[sh.0] {
            Slot::Tcp(t) => t.id,
            _ => unreachable!(),
        };
        (a, b)
    };
    assert_eq!(
        p.sa.handle_for_action(&StackAction::TcpReadable(sid_a)),
        Some(ch)
    );
    assert_eq!(
        p.sb.handle_for_action(&StackAction::TcpPeerClosed(sid_b)),
        Some(sh)
    );
    assert_eq!(
        p.sa.handle_for_action(&StackAction::TcpConnected(sid_a)),
        Some(ch)
    );
    // Actions the table has no slot for route nowhere.
    assert_eq!(
        p.sa.handle_for_action(&StackAction::PingReply {
            from: ipa(2),
            id: 1,
            seq: 1,
            len: 0,
        }),
        None
    );
}

#[test]
fn quoted_flow_parser_handles_garbage() {
    assert_eq!(quoted_tcp_flow(&[]), None);
    assert_eq!(quoted_tcp_flow(&[0u8; 19]), None);
    // Non-TCP quote.
    let mut udp_quote = vec![0u8; 28];
    udp_quote[0] = 0x45;
    udp_quote[9] = 17;
    assert_eq!(quoted_tcp_flow(&udp_quote), None);
    // Options-bearing header (ihl 6) with too little room for ports.
    let mut short = vec![0u8; 25];
    short[0] = 0x46;
    short[9] = 6;
    assert_eq!(quoted_tcp_flow(&short), None);
    // A well-formed quote parses.
    let mut ok = vec![0u8; 28];
    ok[0] = 0x45;
    ok[9] = 6;
    ok[12..16].copy_from_slice(&[10, 0, 0, 1]);
    ok[16..20].copy_from_slice(&[44, 99, 0, 7]);
    ok[20..22].copy_from_slice(&1025u16.to_be_bytes());
    ok[22..24].copy_from_slice(&23u16.to_be_bytes());
    assert_eq!(
        quoted_tcp_flow(&ok),
        Some((ipa(1), 1025, Ipv4Addr::new(44, 99, 0, 7), 23))
    );
}
