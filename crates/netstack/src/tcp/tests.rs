//! Unit tests for the TCP state machine and codec.

use super::*;

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

const A: u16 = 1025;
const B: u16 = 23;

fn pair(cfg_a: TcpConfig, cfg_b: TcpConfig) -> (Tcb, Tcb) {
    let now = SimTime::ZERO;
    let (mut alice, ev) = Tcb::connect(now, (ipa(1), A), (ipa(2), B), 1000, cfg_a);
    let syn = expect_one_segment(&ev);
    let (mut bob, ev) = Tcb::accept(now, (ipa(2), B), (ipa(1), A), &syn, 7000, cfg_b);
    let synack = expect_one_segment(&ev);
    let ev = alice.on_segment(now, &synack);
    assert!(ev.contains(&TcbEvent::Connected));
    let ack = expect_one_segment(&ev);
    let ev = bob.on_segment(now, &ack);
    assert!(ev.contains(&TcbEvent::Connected));
    assert_eq!(alice.state(), TcpState::Established);
    assert_eq!(bob.state(), TcpState::Established);
    (alice, bob)
}

fn expect_one_segment(ev: &[TcbEvent]) -> TcpSegment {
    let segs: Vec<_> = ev
        .iter()
        .filter_map(|e| match e {
            TcbEvent::Transmit(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(segs.len(), 1, "expected one segment in {ev:?}");
    segs.into_iter().next().unwrap()
}

fn segments(ev: &[TcbEvent]) -> Vec<TcpSegment> {
    ev.iter()
        .filter_map(|e| match e {
            TcbEvent::Transmit(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Runs segments back and forth until both sides go quiet; returns all
/// non-Transmit events from (a, b).
fn settle(
    now: SimTime,
    first: Vec<TcbEvent>,
    a: &mut Tcb,
    b: &mut Tcb,
) -> (Vec<TcbEvent>, Vec<TcbEvent>) {
    let mut a_ev = Vec::new();
    let mut b_ev = Vec::new();
    let mut to_b: VecDeque<TcpSegment> = VecDeque::new();
    let mut to_a: VecDeque<TcpSegment> = VecDeque::new();
    for e in first {
        match e {
            TcbEvent::Transmit(s) => to_b.push_back(s),
            other => a_ev.push(other),
        }
    }
    for _ in 0..10_000 {
        if to_b.is_empty() && to_a.is_empty() {
            break;
        }
        if let Some(s) = to_b.pop_front() {
            for e in b.on_segment(now, &s) {
                match e {
                    TcbEvent::Transmit(s) => to_a.push_back(s),
                    other => b_ev.push(other),
                }
            }
        }
        if let Some(s) = to_a.pop_front() {
            for e in a.on_segment(now, &s) {
                match e {
                    TcbEvent::Transmit(s) => to_b.push_back(s),
                    other => a_ev.push(other),
                }
            }
        }
    }
    (a_ev, b_ev)
}

// --- Codec --------------------------------------------------------------

#[test]
fn segment_codec_roundtrip() {
    let seg = TcpSegment {
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
        payload: b"telnet data".to_vec(),
    };
    let bytes = seg.encode(ipa(1), ipa(2));
    assert_eq!(TcpSegment::decode(&bytes, ipa(1), ipa(2)).unwrap(), seg);
}

#[test]
fn syn_with_mss_roundtrip() {
    let seg = TcpSegment {
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
        payload: vec![],
    };
    let bytes = seg.encode(ipa(1), ipa(2));
    let back = TcpSegment::decode(&bytes, ipa(1), ipa(2)).unwrap();
    assert_eq!(back.mss, Some(216));
    assert_eq!(back, seg);
}

#[test]
fn codec_detects_corruption_and_wrong_addresses() {
    let seg = TcpSegment {
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
        payload: b"x".to_vec(),
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
        src_port: 0,
        dst_port: 0,
        seq: 0,
        ack: 0,
        flags: TcpFlags::default(),
        window: 0,
        mss: None,
        payload: vec![1, 2, 3],
    };
    assert_eq!(seg.seq_len(), 3);
    seg.flags.syn = true;
    assert_eq!(seg.seq_len(), 4);
    seg.flags.fin = true;
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
    let (mut alice, _) = Tcb::connect(now, (ipa(1), A), (ipa(2), B), 1, TcpConfig::default());
    let t = alice.next_deadline().expect("rtx armed");
    let ev = alice.on_timer(t);
    let seg = expect_one_segment(&ev);
    assert!(seg.flags.syn);
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
    let (mut alice, ev) = Tcb::connect(now, (ipa(1), A), (ipa(2), B), 1000, TcpConfig::default());
    let syn = expect_one_segment(&ev);
    let (mut bob, ev) = Tcb::accept(
        now,
        (ipa(2), B),
        (ipa(1), A),
        &syn,
        7000,
        TcpConfig::default(),
    );
    let synack = expect_one_segment(&ev);
    let ev = alice.on_segment(now, &synack);
    expect_one_segment(&ev); // the handshake ACK — dropped on the floor
    assert_eq!(alice.state(), TcpState::Established);
    assert_eq!(bob.state(), TcpState::SynReceived);

    let t = bob.next_deadline().expect("synack rtx armed");
    let ev = bob.on_timer(t);
    let dup_synack = expect_one_segment(&ev);
    assert!(dup_synack.flags.syn && dup_synack.flags.ack);
    let ev = alice.on_segment(t, &dup_synack);
    let reack = expect_one_segment(&ev);
    assert!(reack.flags.ack && !reack.flags.syn);
    let ev = bob.on_segment(t, &reack);
    assert!(ev.contains(&TcbEvent::Connected));
    assert_eq!(bob.state(), TcpState::Established);
}

// --- Data transfer ----------------------------------------------------------

#[test]
fn simple_data_transfer_both_directions() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let (n, ev) = alice.send(now, b"hello bob");
    assert_eq!(n, 9);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::DataReadable));
    let (data, _) = bob.recv(now);
    assert_eq!(data, b"hello bob");

    let (_, ev) = bob.send(now, b"hello alice");
    let (_, a_ev) = settle(now, ev, &mut bob, &mut alice);
    assert!(a_ev.contains(&TcbEvent::DataReadable));
    let (data, _) = alice.recv(now);
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
    let (n, ev) = alice.send(now, &data);
    assert_eq!(n, 3000);
    for seg in segments(&ev) {
        assert!(seg.payload.len() <= 100);
    }
    let (_, _) = settle(now, ev, &mut alice, &mut bob);
    let (got, _) = bob.recv(now);
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
    let (n, _) = alice.send(SimTime::ZERO, &[0u8; 500]);
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
    let (taken, ev) = alice.send(SimTime::ZERO, &[0u8; 2 * RECV_BUF]);
    assert_eq!(taken, 2 * RECV_BUF);
    let sent: usize = segments(&ev).iter().map(|s| s.payload.len()).sum();
    assert!(sent <= RECV_BUF, "sent {sent} > advertised window");
}

#[test]
fn lost_segment_is_retransmitted_and_delivery_resumes() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let mut now = SimTime::ZERO;
    let (_, ev) = alice.send(now, b"precious");
    let _lost = segments(&ev); // never delivered
    now = alice.next_deadline().expect("rtx timer");
    let ev = alice.on_timer(now);
    assert_eq!(alice.stats().retransmissions, 1);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::DataReadable));
    let (data, _) = bob.recv(now);
    assert_eq!(data, b"precious");
}

#[test]
fn duplicate_data_is_not_delivered_twice() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let (_, ev) = alice.send(now, b"once");
    let seg = segments(&ev).remove(0);
    bob.on_segment(now, &seg);
    let (data, _) = bob.recv(now);
    assert_eq!(data, b"once");
    let ev = bob.on_segment(now, &seg);
    assert!(
        !ev.contains(&TcbEvent::DataReadable),
        "duplicate delivered again"
    );
    let (data, _) = bob.recv(now);
    assert!(data.is_empty());
    // The duplicate still draws an ACK.
    assert!(!segments(&ev).is_empty());
}

#[test]
fn out_of_order_segment_draws_dup_ack_and_is_dropped() {
    let cfg = TcpConfig {
        mss: 4,
        ..TcpConfig::default()
    };
    let (mut alice, mut bob) = pair(cfg, cfg);
    let now = SimTime::ZERO;
    let (_, ev) = alice.send(now, b"aaaabbbb");
    let segs = segments(&ev);
    assert_eq!(segs.len(), 2);
    // Deliver only the second.
    let ev = bob.on_segment(now, &segs[1]);
    assert!(!ev.contains(&TcbEvent::DataReadable));
    let ack = expect_one_segment(&ev);
    assert_eq!(ack.ack, segs[0].seq, "dup ack points at the hole");
    assert_eq!(bob.stats().ooo_dropped, 1);
}

#[test]
fn recv_buffer_overflow_is_not_acked() {
    let (mut alice, mut bob) = pair(roomy_sender(), TcpConfig::default());
    let now = SimTime::ZERO;
    // Twice the window is queued, so alice sends only the window's worth.
    let payload: Vec<u8> = (0..2 * RECV_BUF).map(|i| i as u8).collect();
    let (_, ev) = alice.send(now, &payload);
    let sent: usize = segments(&ev).iter().map(|s| s.payload.len()).sum();
    assert_eq!(sent, RECV_BUF);
    settle(now, ev, &mut alice, &mut bob);
    let (data, ev2) = bob.recv(now);
    assert_eq!(data, &payload[..RECV_BUF]);
    // Draining reopens the window; bob announces it.
    let upd = segments(&ev2);
    assert_eq!(upd.len(), 1);
    assert!(usize::from(upd[0].window) >= RECV_BUF);
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
        let (_, ev) = alice.send(now, format!("msg{i}").as_bytes());
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
        let (_, ev) = alice.send(now, format!("msg{i}").as_bytes());
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
    let (_, ev) = alice.send(now, b"will be retransmitted");
    drop(ev); // lost
    now = alice.next_deadline().unwrap();
    let ev = alice.on_timer(now);
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
    let (_, ev) = alice.send(now, b"x");
    drop(ev);
    for _ in 0..2 {
        now = alice.next_deadline().unwrap();
        let _ = alice.on_timer(now);
    }
    let backed_off = alice.next_deadline().unwrap() - now;
    now = alice.next_deadline().unwrap();
    let ev = alice.on_timer(now);
    settle(now, ev, &mut alice, &mut bob);
    let (_, _ev) = alice.send(now, b"y");
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
    let (_, ev) = alice.send(now, b"x");
    drop(ev); // lost
    for _ in 0..2 {
        now = alice.next_deadline().unwrap();
        let _ = alice.on_timer(now);
    }
    // Third timeout delivers; its ack must not reset the backoff.
    now = alice.next_deadline().unwrap();
    let ev = alice.on_timer(now);
    settle(now, ev, &mut alice, &mut bob);
    let (_, y_ev) = alice.send(now, b"y");
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
    let (_, z_ev) = alice.send(now, b"z");
    assert!(!segments(&z_ev).is_empty());
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
    let ev = alice.close(now);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::PeerClosed));
    assert_eq!(bob.state(), TcpState::CloseWait);
    assert_eq!(alice.state(), TcpState::FinWait2);
    let ev = bob.close(now);
    let (b_ev2, a_ev2) = settle(now, ev, &mut bob, &mut alice);
    assert!(b_ev2
        .iter()
        .any(|e| matches!(e, TcbEvent::Closed { reset: false })));
    assert_eq!(bob.state(), TcpState::Closed);
    assert!(a_ev2.contains(&TcbEvent::PeerClosed));
    assert_eq!(alice.state(), TcpState::TimeWait);
    // TIME-WAIT expires.
    let t = alice.next_deadline().unwrap();
    let ev = alice.on_timer(t);
    assert!(ev
        .iter()
        .any(|e| matches!(e, TcbEvent::Closed { reset: false })));
    assert_eq!(alice.state(), TcpState::Closed);
}

#[test]
fn fin_carries_remaining_data() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let (_, ev1) = alice.send(now, b"last words");
    let ev2 = alice.close(now);
    let mut all = ev1;
    all.extend(ev2);
    let (_, b_ev) = settle(now, all, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::DataReadable));
    assert!(b_ev.contains(&TcbEvent::PeerClosed));
    let (data, _) = bob.recv(now);
    assert_eq!(data, b"last words");
    assert!(bob.at_eof());
}

#[test]
fn reset_tears_down_immediately() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let ev = alice.abort(now);
    let rst = expect_one_segment(&ev);
    assert!(rst.flags.rst);
    assert_eq!(alice.state(), TcpState::Closed);
    let ev = bob.on_segment(now, &rst);
    assert!(ev
        .iter()
        .any(|e| matches!(e, TcbEvent::Closed { reset: true })));
    assert_eq!(bob.state(), TcpState::Closed);
}

#[test]
fn send_after_close_is_refused() {
    let (mut alice, _bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    alice.close(now);
    let (n, ev) = alice.send(now, b"too late");
    assert_eq!(n, 0);
    assert!(ev.is_empty());
}

#[test]
fn simultaneous_close() {
    let (mut alice, mut bob) = pair(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let a_fin = segments(&alice.close(now));
    let b_fin = segments(&bob.close(now));
    // Cross the FINs.
    let a_resp = segments(&alice.on_segment(now, &b_fin[0]));
    let b_resp = segments(&bob.on_segment(now, &a_fin[0]));
    for s in b_resp {
        alice.on_segment(now, &s);
    }
    for s in a_resp {
        bob.on_segment(now, &s);
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
    let ev = alice.close(now);
    drop(ev); // FIN lost
    now = alice.next_deadline().unwrap();
    let ev = alice.on_timer(now);
    let fin = expect_one_segment(&ev);
    assert!(fin.flags.fin);
    let (_, b_ev) = settle(now, ev, &mut alice, &mut bob);
    assert!(b_ev.contains(&TcbEvent::PeerClosed));
}
