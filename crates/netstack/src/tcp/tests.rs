//! Unit tests for the TCP state machine and codec.

use super::*;

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

const A: u16 = 1025;
const B: u16 = 23;

/// A segment in flight between two test TCBs: its payload copied out of
/// the sender's buffer while [`Tcb::segment`] still views it.
#[derive(Debug, Clone, PartialEq)]
struct Wire {
    header: TcpHeader,
    payload: Vec<u8>,
}

impl Wire {
    fn seg(&self) -> TcpSegment<'_> {
        TcpSegment {
            header: self.header,
            payload: &self.payload,
        }
    }
}

/// The segments among `ev`, which `tcb`'s last call emitted.
fn segments(tcb: &Tcb, ev: &[TcbEvent]) -> Vec<Wire> {
    ev.iter()
        .filter_map(|e| match e {
            TcbEvent::Transmit(out) => {
                let seg = tcb.segment(out);
                Some(Wire {
                    header: seg.header,
                    payload: seg.payload.to_vec(),
                })
            }
            _ => None,
        })
        .collect()
}

fn expect_one_segment(tcb: &Tcb, ev: &[TcbEvent]) -> Wire {
    let segs = segments(tcb, ev);
    assert_eq!(segs.len(), 1, "expected one segment in {ev:?}");
    segs.into_iter().next().unwrap()
}

/// The events among `ev` that are not segments.
fn others(ev: Vec<TcbEvent>) -> Vec<TcbEvent> {
    ev.into_iter()
        .filter(|e| !matches!(e, TcbEvent::Transmit(_)))
        .collect()
}

/// Delivers `seg` to `tcb`: its segments (copied out) and its other events.
fn deliver(now: SimTime, tcb: &mut Tcb, seg: &Wire) -> (Vec<Wire>, Vec<TcbEvent>) {
    let mut ev = Vec::new();
    tcb.on_segment(now, &seg.seg(), &mut ev);
    (segments(tcb, &ev), others(ev))
}

fn pair(cfg_a: TcpConfig, cfg_b: TcpConfig) -> (Tcb, Tcb) {
    let now = SimTime::ZERO;
    let mut ev = Vec::new();
    let mut alice = Tcb::connect(now, (ipa(1), A), (ipa(2), B), 1000, cfg_a, &mut ev);
    let syn = expect_one_segment(&alice, &ev);
    ev.clear();
    let mut bob = Tcb::accept(
        now,
        (ipa(2), B),
        (ipa(1), A),
        &syn.header,
        7000,
        cfg_b,
        &mut ev,
    );
    let synack = expect_one_segment(&bob, &ev);
    let (out, ev) = deliver(now, &mut alice, &synack);
    assert!(ev.contains(&TcbEvent::Connected));
    assert_eq!(out.len(), 1);
    let (_, ev) = deliver(now, &mut bob, &out[0]);
    assert!(ev.contains(&TcbEvent::Connected));
    assert_eq!(alice.state(), TcpState::Established);
    assert_eq!(bob.state(), TcpState::Established);
    (alice, bob)
}

/// Runs segments back and forth until both sides go quiet, starting from
/// what `a`'s last call emitted into `first`; returns all non-Transmit
/// events from (a, b).
fn settle(
    now: SimTime,
    first: Vec<TcbEvent>,
    a: &mut Tcb,
    b: &mut Tcb,
) -> (Vec<TcbEvent>, Vec<TcbEvent>) {
    let mut to_b: VecDeque<Wire> = segments(a, &first).into();
    let mut a_ev = others(first);
    let mut b_ev = Vec::new();
    let mut to_a: VecDeque<Wire> = VecDeque::new();
    for _ in 0..10_000 {
        if to_b.is_empty() && to_a.is_empty() {
            break;
        }
        if let Some(s) = to_b.pop_front() {
            let (out, ev) = deliver(now, b, &s);
            to_a.extend(out);
            b_ev.extend(ev);
        }
        if let Some(s) = to_a.pop_front() {
            let (out, ev) = deliver(now, a, &s);
            to_b.extend(out);
            a_ev.extend(ev);
        }
    }
    (a_ev, b_ev)
}

/// `tcb.send`, with the events it emitted.
fn send(tcb: &mut Tcb, now: SimTime, data: &[u8]) -> (usize, Vec<TcbEvent>) {
    let mut ev = Vec::new();
    let n = tcb.send(now, data, &mut ev);
    (n, ev)
}

/// `tcb.recv`, with the events it emitted.
fn recv(tcb: &mut Tcb, now: SimTime) -> (Vec<u8>, Vec<TcbEvent>) {
    let (mut data, mut ev) = (Vec::new(), Vec::new());
    let n = tcb.recv(now, &mut data, &mut ev);
    assert_eq!(n, data.len());
    (data, ev)
}

/// `tcb.on_timer`, with the events it emitted.
fn on_timer(tcb: &mut Tcb, now: SimTime) -> Vec<TcbEvent> {
    let mut ev = Vec::new();
    tcb.on_timer(now, &mut ev);
    ev
}

/// `tcb.close`, with the events it emitted.
fn close(tcb: &mut Tcb, now: SimTime) -> Vec<TcbEvent> {
    let mut ev = Vec::new();
    tcb.close(now, &mut ev);
    ev
}

// --- Codec --------------------------------------------------------------

#[test]
fn segment_codec_roundtrip() {
    let seg = TcpSegment {
        header: TcpHeader {
            src_port: 1025,
            dst_port: 23,
            seq: 0xDEADBEEF,
            ack: 0x01020304,
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..TcpFlags::default()
            },
            window: 4096,
            mss: None,
        },
        payload: b"telnet data",
    };
    let bytes = seg.encode(ipa(1), ipa(2));
    assert_eq!(TcpSegment::decode(&bytes, ipa(1), ipa(2)).unwrap(), seg);
}

#[test]
fn syn_with_mss_roundtrip() {
    let seg = TcpSegment {
        header: TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 99,
            ack: 0,
            flags: TcpFlags {
                syn: true,
                ..TcpFlags::default()
            },
            window: 2048,
            mss: Some(216),
        },
        payload: &[],
    };
    let bytes = seg.encode(ipa(1), ipa(2));
    let back = TcpSegment::decode(&bytes, ipa(1), ipa(2)).unwrap();
    assert_eq!(back.header.mss, Some(216));
    assert_eq!(back, seg);
}

#[test]
fn encode_in_writes_into_a_pool_buffer_with_room_for_the_ip_header() {
    let seg = TcpSegment {
        header: TcpHeader {
            window: 512,
            ..TcpHeader::default()
        },
        payload: b"short",
    };
    let mut pool = DgramPool::new();
    let mut used = vec![0xEE; 600];
    let ptr = used.as_ptr();
    used.truncate(3);
    pool.give(used);
    let bytes = seg.encode_in(ipa(1), ipa(2), &mut pool);
    assert_eq!(bytes.as_ptr(), ptr, "the pool's buffer");
    assert_eq!(bytes, seg.encode(ipa(1), ipa(2)), "only its own bytes");
    assert!(bytes.capacity() - bytes.len() >= crate::ip::HEADER_LEN);
}

#[test]
fn codec_detects_corruption_and_wrong_addresses() {
    let seg = TcpSegment {
        header: TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 1,
            ack: 2,
            flags: TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            window: 100,
            mss: None,
        },
        payload: b"x",
    };
    let bytes = seg.encode(ipa(1), ipa(2));
    let mut bad = bytes.clone();
    bad[4] ^= 1;
    assert!(TcpSegment::decode(&bad, ipa(1), ipa(2)).is_err());
    assert!(TcpSegment::decode(&bytes, ipa(3), ipa(2)).is_err());
}

#[test]
fn seq_len_counts_syn_fin_payload() {
    let mut seg = TcpSegment {
        header: TcpHeader::default(),
        payload: &[1, 2, 3],
    };
    assert_eq!(seg.seq_len(), 3);
    seg.header.flags.syn = true;
    assert_eq!(seg.seq_len(), 4);
    seg.header.flags.fin = true;
    assert_eq!(seg.seq_len(), 5);
}

#[test]
fn sequence_comparisons_wrap() {
    assert!(seq_lt(0xFFFF_FFF0, 0x10));
    assert!(!seq_lt(0x10, 0xFFFF_FFF0));
    assert!(seq_le(5, 5));
    assert!(seq_lt(0, 1));
}

// --- Handshake ------------------------------------------------------------

#[test]
fn three_way_handshake() {
    let _ = pair(TcpConfig::default(), TcpConfig::default());
}

#[test]
fn mss_negotiates_to_minimum() {
    let small = TcpConfig {
        mss: 216,
        ..TcpConfig::default()
    };
    let (alice, bob) = pair(TcpConfig::default(), small);
    assert_eq!(alice.mss(), 216);
    assert_eq!(bob.mss(), 216);
}

#[test]
fn syn_retransmits_on_timeout() {
    let now = SimTime::ZERO;
    let mut ev = Vec::new();
    let mut alice = Tcb::connect(
        now,
        (ipa(1), A),
        (ipa(2), B),
        1,
        TcpConfig::default(),
        &mut ev,
    );
    let t = alice.next_deadline().expect("rtx armed");
    let ev = on_timer(&mut alice, t);
    let seg = expect_one_segment(&alice, &ev);
    assert!(seg.header.flags.syn);
    assert_eq!(alice.stats().retransmissions, 1);
    // Backoff doubles the next deadline interval.
    let t2 = alice.next_deadline().unwrap();
    assert!(t2 - t > t - now, "exponential backoff");
}

#[test]
fn lost_handshake_ack_recovers_via_dup_synack() {
    // The third packet of the handshake is lost: the client goes
    // Established, the server stays SynReceived and retransmits its
    // SYN-ACK. The client must re-ACK the duplicate SYN-ACK (RFC 793) or
    // both sides deadlock — the client waiting for data, the server for
    // its handshake ACK (seen in the field on a lossy 1200 b/s channel).
    let now = SimTime::ZERO;
    let mut ev = Vec::new();
    let mut alice = Tcb::connect(
        now,
        (ipa(1), A),
        (ipa(2), B),
        1000,
        TcpConfig::default(),
        &mut ev,
    );
    let syn = expect_one_segment(&alice, &ev);
    ev.clear();
    let mut bob = Tcb::accept(
        now,
        (ipa(2), B),
        (ipa(1), A),
        &syn.header,
        7000,
        TcpConfig::default(),
        &mut ev,
    );
    let synack = expect_one_segment(&bob, &ev);
    let (out, _) = deliver(now, &mut alice, &synack);
    assert_eq!(out.len(), 1); // the handshake ACK — dropped on the floor
    assert_eq!(alice.state(), TcpState::Established);
    assert_eq!(bob.state(), TcpState::SynReceived);

    let t = bob.next_deadline().expect("synack rtx armed");
    let ev = on_timer(&mut bob, t);
    let dup_synack = expect_one_segment(&bob, &ev);
    assert!(dup_synack.header.flags.syn && dup_synack.header.flags.ack);
    let (out, _) = deliver(t, &mut alice, &dup_synack);
    assert_eq!(out.len(), 1, "one re-ACK: {out:?}");
    let reack = &out[0];
    assert!(reack.header.flags.ack && !reack.header.flags.syn);
    let (_, ev) = deliver(t, &mut bob, reack);
    assert!(ev.contains(&TcbEvent::Connected));
    assert_eq!(bob.state(), TcpState::Established);
}

// --- Data transfer ----------------------------------------------------------

#[test]
fn simple_data_transfer_both_directions() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let (n, ev) = send(&mut alice, now, b"hello bob");
    assert_eq!(n, 9);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::DataReadable));
    let (data, _) = recv(&mut bob, now);
    assert_eq!(data, b"hello bob");

    let (_, ev) = send(&mut bob, now, b"hello alice");
    let (_, a_ev) = settle(now, ev, &mut bob, &mut alice);
    assert!(a_ev.contains(&TcbEvent::DataReadable));
    let (data, _) = recv(&mut alice, now);
    assert_eq!(data, b"hello alice");
}

#[test]
fn large_transfer_respects_mss_and_window() {
    let cfg = TcpConfig {
        mss: 100,
        ..TcpConfig::default()
    };
    let (mut alice, mut bob) = pair(cfg, cfg);
    let now = SimTime::ZERO;
    let data: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
    let (n, ev) = send(&mut alice, now, &data);
    assert_eq!(n, 3000);
    for seg in segments(&alice, &ev) {
        assert!(seg.payload.len() <= 100);
    }
    let (_, _) = settle(now, ev, &mut alice, &mut bob);
    let (got, _) = recv(&mut bob, now);
    assert_eq!(got, data);
    assert_eq!(alice.send_backlog(), 0);
}

#[test]
fn send_bounded_by_send_buffer() {
    let cfg = TcpConfig {
        send_buf: 100,
        ..TcpConfig::default()
    };
    let (mut alice, _bob) = pair(cfg, TcpConfig::default());
    let (n, _) = send(&mut alice, SimTime::ZERO, &[0u8; 500]);
    assert_eq!(n, 100);
    assert_eq!(alice.send_capacity(), 0);
}

/// A sender whose buffer holds twice the peer's receive window.
fn roomy_sender() -> TcpConfig {
    TcpConfig {
        send_buf: 2 * RECV_BUF,
        ..TcpConfig::default()
    }
}

#[test]
fn sender_respects_peer_window() {
    let (mut alice, _bob) = pair(roomy_sender(), TcpConfig::default());
    let (taken, ev) = send(&mut alice, SimTime::ZERO, &[0u8; 2 * RECV_BUF]);
    assert_eq!(taken, 2 * RECV_BUF);
    let sent: usize = segments(&alice, &ev).iter().map(|s| s.payload.len()).sum();
    assert!(sent <= RECV_BUF, "sent {sent} > advertised window");
}

#[test]
fn lost_segment_is_retransmitted_and_delivery_resumes() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let mut now = SimTime::ZERO;
    let (_, _lost) = send(&mut alice, now, b"precious"); // never delivered
    now = alice.next_deadline().expect("rtx timer");
    let ev = on_timer(&mut alice, now);
    assert_eq!(alice.stats().retransmissions, 1);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::DataReadable));
    let (data, _) = recv(&mut bob, now);
    assert_eq!(data, b"precious");
}

#[test]
fn duplicate_data_is_not_delivered_twice() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let (_, ev) = send(&mut alice, now, b"once");
    let seg = segments(&alice, &ev).remove(0);
    deliver(now, &mut bob, &seg);
    let (data, _) = recv(&mut bob, now);
    assert_eq!(data, b"once");
    let (out, ev) = deliver(now, &mut bob, &seg);
    assert!(
        !ev.contains(&TcbEvent::DataReadable),
        "duplicate delivered again"
    );
    let (data, _) = recv(&mut bob, now);
    assert!(data.is_empty());
    // The duplicate still draws an ACK.
    assert!(!out.is_empty());
}

#[test]
fn out_of_order_segment_draws_dup_ack_and_is_dropped() {
    let cfg = TcpConfig {
        mss: 4,
        ..TcpConfig::default()
    };
    let (mut alice, mut bob) = pair(cfg, cfg);
    let now = SimTime::ZERO;
    let (_, ev) = send(&mut alice, now, b"aaaabbbb");
    let segs = segments(&alice, &ev);
    assert_eq!(segs.len(), 2);
    assert_eq!(
        (&segs[0].payload[..], &segs[1].payload[..]),
        (&b"aaaa"[..], &b"bbbb"[..])
    );
    // Deliver only the second.
    let (out, ev) = deliver(now, &mut bob, &segs[1]);
    assert!(!ev.contains(&TcbEvent::DataReadable));
    assert_eq!(out.len(), 1, "one dup ack: {out:?}");
    let ack = &out[0];
    assert_eq!(
        ack.header.ack, segs[0].header.seq,
        "dup ack points at the hole"
    );
    assert_eq!(bob.stats().ooo_dropped, 1);
}

#[test]
fn recv_buffer_overflow_is_not_acked() {
    let (mut alice, mut bob) = pair(roomy_sender(), TcpConfig::default());
    let now = SimTime::ZERO;
    // Twice the window is queued, so alice sends only the window's worth.
    let payload: Vec<u8> = (0..2 * RECV_BUF).map(|i| i as u8).collect();
    let (_, ev) = send(&mut alice, now, &payload);
    let sent: usize = segments(&alice, &ev).iter().map(|s| s.payload.len()).sum();
    assert_eq!(sent, RECV_BUF);
    settle(now, ev, &mut alice, &mut bob);
    let (data, ev2) = recv(&mut bob, now);
    assert_eq!(data, &payload[..RECV_BUF]);
    // Draining reopens the window; bob announces it.
    let upd = segments(&bob, &ev2);
    assert_eq!(upd.len(), 1);
    assert!(usize::from(upd[0].header.window) >= RECV_BUF);
}

#[test]
fn a_segment_views_the_send_buffer_until_its_data_is_acked() {
    // Go-back-N after a loss re-emits from the first unacknowledged
    // octet: each segment's view is the octets it carries, and a zero
    // window probe is the buffer's first octet.
    let cfg = TcpConfig {
        mss: 3,
        ..TcpConfig::default()
    };
    let (mut alice, mut bob) = pair(cfg, cfg);
    let mut now = SimTime::ZERO;
    let (_, ev) = send(&mut alice, now, b"abcdefgh");
    let payloads = |tcb: &Tcb, ev: &[TcbEvent]| -> Vec<Vec<u8>> {
        segments(tcb, ev).into_iter().map(|s| s.payload).collect()
    };
    assert_eq!(payloads(&alice, &ev), [&b"abc"[..], b"def", b"gh"]);
    // The first arrives and is acked; the rest are lost. Trimming the
    // acked octets off the send buffer leaves the others' views intact.
    let (acks, _) = deliver(now, &mut bob, &segments(&alice, &ev)[0]);
    deliver(now, &mut alice, &acks[0]);
    assert_eq!(payloads(&alice, &ev[1..]), [&b"def"[..], b"gh"]);
    now = alice.next_deadline().expect("rtx armed");
    let ev = on_timer(&mut alice, now);
    assert_eq!(payloads(&alice, &ev), [&b"def"[..], b"gh"]);
}

// --- RTO behaviour ------------------------------------------------------------

#[test]
fn fixed_rto_never_adapts() {
    let fixed = TcpConfig {
        rto: RtoPolicy::Fixed(SimDuration::from_millis(1500)),
        ..TcpConfig::default()
    };
    let (mut alice, mut bob) = pair(fixed, TcpConfig::default());
    let mut now = SimTime::ZERO;
    // Several exchanges with 4s "path RTT" (we just advance the clock).
    for i in 0..5 {
        let (_, ev) = send(&mut alice, now, format!("msg{i}").as_bytes());
        now += SimDuration::from_secs(4);
        settle(now, ev, &mut alice, &mut bob);
    }
    assert_eq!(alice.stats().rtt_samples, 0);
    assert_eq!(alice.stats().rto_secs, 1.5);
}

#[test]
fn adaptive_rto_learns_the_path() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let mut now = SimTime::ZERO;
    for i in 0..10 {
        let (_, ev) = send(&mut alice, now, format!("msg{i}").as_bytes());
        // The reply comes back 4 seconds later.
        now += SimDuration::from_secs(4);
        settle(now, ev, &mut alice, &mut bob);
    }
    let s = alice.stats();
    assert!(s.rtt_samples >= 5, "samples: {}", s.rtt_samples);
    assert!(s.srtt_secs > 2.0, "srtt: {}", s.srtt_secs);
    assert!(s.rto_secs >= 4.0, "rto: {}", s.rto_secs);
}

#[test]
fn karn_rule_skips_samples_after_retransmission() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let mut now = SimTime::ZERO;
    // Handshake took one sample (connect probe). Note the count.
    let base = alice.stats().rtt_samples;
    let (_, ev) = send(&mut alice, now, b"will be retransmitted");
    drop(ev); // lost
    now = alice.next_deadline().unwrap();
    let ev = on_timer(&mut alice, now);
    // Delivered on retransmission; the ACK must not produce a sample.
    now += SimDuration::from_secs(2);
    settle(now, ev, &mut alice, &mut bob);
    assert_eq!(alice.stats().rtt_samples, base);
    assert_eq!(alice.send_backlog(), 0, "ack still processed");
}

#[test]
fn fixed_rto_resets_backoff_on_any_progress() {
    // The naive 1988 host: acked data clears the backoff immediately, so
    // it goes right back to its too-short constant timeout (§4.1).
    let fixed = TcpConfig {
        rto: RtoPolicy::Fixed(SimDuration::from_millis(1500)),
        ..TcpConfig::default()
    };
    let (mut alice, mut bob) = pair(fixed, TcpConfig::default());
    let mut now = SimTime::ZERO;
    let (_, ev) = send(&mut alice, now, b"x");
    drop(ev);
    for _ in 0..2 {
        now = alice.next_deadline().unwrap();
        let _ = on_timer(&mut alice, now);
    }
    let backed_off = alice.next_deadline().unwrap() - now;
    now = alice.next_deadline().unwrap();
    let ev = on_timer(&mut alice, now);
    settle(now, ev, &mut alice, &mut bob);
    let (_, _ev) = send(&mut alice, now, b"y");
    let fresh = alice.next_deadline().unwrap() - now;
    assert!(fresh < backed_off, "{fresh} !< {backed_off}");
    assert_eq!(fresh, SimDuration::from_millis(1500));
}

#[test]
fn karn_keeps_backoff_until_a_valid_sample() {
    // The adaptive host must NOT trust an ack for retransmitted data:
    // the backed-off RTO persists until an un-retransmitted segment is
    // acknowledged, which also finally yields an RTT sample.
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let mut now = SimTime::ZERO;
    let (_, ev) = send(&mut alice, now, b"x");
    drop(ev); // lost
    for _ in 0..2 {
        now = alice.next_deadline().unwrap();
        let _ = on_timer(&mut alice, now);
    }
    // Third timeout delivers; its ack must not reset the backoff.
    now = alice.next_deadline().unwrap();
    let ev = on_timer(&mut alice, now);
    settle(now, ev, &mut alice, &mut bob);
    let (_, y_ev) = send(&mut alice, now, b"y");
    let still_backed_off = alice.next_deadline().unwrap() - now;
    // The handshake sampled a near-zero RTT, so the base RTO is the
    // MIN_RTO clamp (0.5 s); three backoffs make 4 s.
    assert!(
        still_backed_off >= SimDuration::from_millis(3500),
        "backoff persisted: {still_backed_off}"
    );
    // "y" arrives un-retransmitted; its ack supplies a sample and resets
    // the backoff (Karn's second half).
    now += SimDuration::from_secs(2);
    let samples_before = alice.stats().rtt_samples;
    settle(now, y_ev, &mut alice, &mut bob);
    assert_eq!(alice.stats().rtt_samples, samples_before + 1);
    let (_, z_ev) = send(&mut alice, now, b"z");
    assert!(!segments(&alice, &z_ev).is_empty());
    let fresh = alice.next_deadline().unwrap() - now;
    assert!(
        fresh < still_backed_off,
        "backoff cleared by the sample: {fresh} !< {still_backed_off}"
    );
}

// --- Close ------------------------------------------------------------------

#[test]
fn orderly_close_both_sides() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let ev = close(&mut alice, now);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::PeerClosed));
    assert_eq!(bob.state(), TcpState::CloseWait);
    assert_eq!(alice.state(), TcpState::FinWait2);
    let ev = close(&mut bob, now);
    let (b_ev2, a_ev2) = settle(now, ev, &mut bob, &mut alice);
    assert!(b_ev2
        .iter()
        .any(|e| matches!(e, TcbEvent::Closed { reset: false })));
    assert_eq!(bob.state(), TcpState::Closed);
    assert!(a_ev2.contains(&TcbEvent::PeerClosed));
    assert_eq!(alice.state(), TcpState::TimeWait);
    // TIME-WAIT expires.
    let t = alice.next_deadline().unwrap();
    let ev = on_timer(&mut alice, t);
    assert!(ev
        .iter()
        .any(|e| matches!(e, TcbEvent::Closed { reset: false })));
    assert_eq!(alice.state(), TcpState::Closed);
}

#[test]
fn fin_carries_remaining_data() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    // Both calls append to one event list, as the stack's reused one.
    let mut all = Vec::new();
    alice.send(now, b"last words", &mut all);
    alice.close(now, &mut all);
    let (_, b_ev) = settle(now, all, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::DataReadable));
    assert!(b_ev.contains(&TcbEvent::PeerClosed));
    let (data, _) = recv(&mut bob, now);
    assert_eq!(data, b"last words");
    assert!(bob.at_eof());
}

#[test]
fn reset_tears_down_immediately() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let mut ev = Vec::new();
    alice.abort(now, &mut ev);
    let rst = expect_one_segment(&alice, &ev);
    assert!(rst.header.flags.rst);
    assert_eq!(alice.state(), TcpState::Closed);
    let (_, ev) = deliver(now, &mut bob, &rst);
    assert!(ev
        .iter()
        .any(|e| matches!(e, TcbEvent::Closed { reset: true })));
    assert_eq!(bob.state(), TcpState::Closed);
}

#[test]
fn send_after_close_is_refused() {
    let (mut alice, _bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    close(&mut alice, now);
    let (n, ev) = send(&mut alice, now, b"too late");
    assert_eq!(n, 0);
    assert!(ev.is_empty());
}

#[test]
fn simultaneous_close() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let ev = close(&mut alice, now);
    let a_fin = segments(&alice, &ev);
    let ev = close(&mut bob, now);
    let b_fin = segments(&bob, &ev);
    // Cross the FINs.
    let (a_resp, _) = deliver(now, &mut alice, &b_fin[0]);
    let (b_resp, _) = deliver(now, &mut bob, &a_fin[0]);
    for s in b_resp {
        deliver(now, &mut alice, &s);
    }
    for s in a_resp {
        deliver(now, &mut bob, &s);
    }
    assert!(matches!(
        alice.state(),
        TcpState::TimeWait | TcpState::Closed
    ));
    assert!(matches!(bob.state(), TcpState::TimeWait | TcpState::Closed));
}

#[test]
fn fin_only_retransmission() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let mut now = SimTime::ZERO;
    let ev = close(&mut alice, now);
    drop(ev); // FIN lost
    now = alice.next_deadline().unwrap();
    let ev = on_timer(&mut alice, now);
    let fin = expect_one_segment(&alice, &ev);
    assert!(fin.header.flags.fin);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::PeerClosed));
}

/// A bare RST (ACK set, acknowledging `ack`) from `from`'s end of its
/// connection, at sequence number `seq`.
fn rst_from(from: &Tcb, seq: u32, ack: Option<u32>) -> Wire {
    Wire {
        header: TcpHeader {
            src_port: from.local.1,
            dst_port: from.remote.1,
            seq,
            ack: ack.unwrap_or(0),
            flags: TcpFlags {
                rst: true,
                ack: ack.is_some(),
                ..TcpFlags::default()
            },
            window: 0,
            mss: None,
        },
        payload: Vec::new(),
    }
}

#[test]
fn a_spoofed_out_of_window_rst_leaves_an_established_connection_open() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let wnd = u32::from(bob.advertised_wnd);
    // One below RCV.NXT, the first octet past the window, and far away.
    for seq in [
        bob.rcv_nxt.wrapping_sub(1),
        bob.rcv_nxt.wrapping_add(wnd),
        bob.rcv_nxt.wrapping_add(1 << 31),
    ] {
        let rst = rst_from(&alice, seq, Some(bob.snd_nxt));
        let (out, ev) = deliver(now, &mut bob, &rst);
        assert!(out.is_empty() && ev.is_empty(), "seq {seq}: {out:?} {ev:?}");
        assert_eq!(bob.state(), TcpState::Established, "seq {seq}");
    }
    // The connection still carries data.
    let (_, ev) = send(&mut alice, now, b"still here");
    settle(now, ev, &mut alice, &mut bob);
    assert_eq!(recv(&mut bob, now).0, b"still here");
}

#[test]
fn an_in_window_rst_closes_with_reset() {
    for off in [0, u32::from(RECV_BUF as u16) - 1] {
        let (alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
        let seq = bob.rcv_nxt.wrapping_add(off);
        let rst = rst_from(&alice, seq, None);
        let (_, ev) = deliver(SimTime::ZERO, &mut bob, &rst);
        assert_eq!(ev, [TcbEvent::Closed { reset: true }], "offset {off}");
        assert_eq!(bob.state(), TcpState::Closed);
    }
}

#[test]
fn with_the_window_shut_only_a_rst_at_rcv_nxt_counts() {
    let (mut alice, mut bob) = pair(roomy_sender(), TcpConfig::default());
    let now = SimTime::ZERO;
    let (_, ev) = send(&mut alice, now, &[7; RECV_BUF]);
    settle(now, ev, &mut alice, &mut bob);
    assert_eq!(bob.advertised_wnd, 0, "the receive buffer is full");
    let rst = rst_from(&alice, bob.rcv_nxt + 1, None);
    let (_, ev) = deliver(now, &mut bob, &rst);
    assert!(ev.is_empty());
    assert_eq!(bob.state(), TcpState::Established);
    let rst = rst_from(&alice, bob.rcv_nxt, None);
    let (_, ev) = deliver(now, &mut bob, &rst);
    assert_eq!(ev, [TcbEvent::Closed { reset: true }]);
}

#[test]
fn in_syn_sent_a_rst_counts_only_if_it_acknowledges_the_syn() {
    let now = SimTime::ZERO;
    let mut ev = Vec::new();
    let mut alice = Tcb::connect(
        now,
        (ipa(1), A),
        (ipa(2), B),
        1000,
        TcpConfig::default(),
        &mut ev,
    );
    // The peer's end, for the ports a RST would carry.
    let peer = Tcb::connect(
        now,
        (ipa(2), B),
        (ipa(1), A),
        9000,
        TcpConfig::default(),
        &mut Vec::new(),
    );
    for ack in [
        None,
        Some(alice.snd_nxt.wrapping_sub(1)),
        Some(alice.snd_nxt + 1),
    ] {
        let rst = rst_from(&peer, 0, ack);
        let (_, ev) = deliver(now, &mut alice, &rst);
        assert!(ev.is_empty(), "ack {ack:?}: {ev:?}");
        assert_eq!(alice.state(), TcpState::SynSent, "ack {ack:?}");
    }
    let rst = rst_from(&peer, 0, Some(alice.snd_nxt));
    let (_, ev) = deliver(now, &mut alice, &rst);
    assert_eq!(ev, [TcbEvent::Closed { reset: true }]);
}

/// ROADMAP finding 2, second half, pinned as it stands: the peer's window
/// is taken from every ACK, even one for data never sent (above SND.NXT)
/// and one older than the last update (RFC 793's SND.WL1/SND.WL2 rule
/// would ignore both). Mending that (ROADMAP item 4) flips this test.
#[test]
fn an_ack_above_snd_nxt_and_a_stale_ack_both_still_set_snd_wnd() {
    let (mut alice, bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let ack_of = |ack: u32, window: u16| Wire {
        header: TcpHeader {
            src_port: bob.local.1,
            dst_port: bob.remote.1,
            seq: bob.snd_nxt,
            ack,
            flags: TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            window,
            mss: None,
        },
        payload: Vec::new(),
    };
    let beyond = ack_of(alice.snd_nxt + 1000, 1234);
    deliver(now, &mut alice, &beyond);
    assert_eq!(alice.snd_wnd, 1234, "an ACK for unsent data");
    let stale = ack_of(alice.snd_una.wrapping_sub(500), 77);
    deliver(now, &mut alice, &stale);
    assert_eq!(alice.snd_wnd, 77, "a stale ACK");
}
