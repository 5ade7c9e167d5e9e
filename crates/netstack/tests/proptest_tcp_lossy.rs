//! Property test: two TCBs joined by an arbitrarily lossy, delayless
//! relay still deliver every byte in order, as long as the loss pattern
//! eventually lets retransmissions through. Segments cross the relay as
//! wire bytes: encoded out of the sender's buffer, decoded borrowed.

use netstack::tcp::{Tcb, TcbEvent, TcpConfig, TcpSegment};
use proptest::prelude::*;
use sim::{SimRng, SimTime};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Encodes every segment among `ev` — `tcb`'s last call's events — onto
/// `out`, and empties `ev` for the next call.
fn wire(tcb: &Tcb, ev: &mut Vec<TcbEvent>, out: &mut VecDeque<Vec<u8>>) {
    let (src, dst) = (tcb.local().0, tcb.remote().0);
    for e in ev.drain(..) {
        if let TcbEvent::Transmit(o) = e {
            out.push_back(tcb.segment(&o).encode(src, dst));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random per-segment loss up to 40%: the transfer still completes
    /// exactly, within a bounded number of timer firings.
    #[test]
    fn lossy_link_delivers_exactly_once(
        seed in any::<u64>(),
        loss in 0.0f64..0.4,
        payload_len in 1usize..3000,
    ) {
        let a_addr = (Ipv4Addr::new(10, 0, 0, 1), 1025u16);
        let b_addr = (Ipv4Addr::new(10, 0, 0, 2), 23u16);
        let mut rng = SimRng::seed_from(seed);
        let mut now = SimTime::ZERO;

        // One event list for every call, as the stack keeps one.
        let mut ev = Vec::new();
        let mut alice = Tcb::connect(now, a_addr, b_addr, 1, TcpConfig::default(), &mut ev);
        let mut to_bob: VecDeque<Vec<u8>> = VecDeque::new();
        let mut to_alice: VecDeque<Vec<u8>> = VecDeque::new();
        let mut received: Vec<u8> = Vec::new();
        wire(&alice, &mut ev, &mut to_bob);

        let mut bob: Option<Tcb> = None;
        let data: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let mut queued = false;
        let mut done = false;

        // Event loop: deliver (or drop) one queued segment at a time,
        // fire timers when queues drain.
        for _ in 0..200_000 {
            if let Some(bytes) = to_bob.pop_front() {
                if rng.chance(loss) {
                    continue;
                }
                let seg = TcpSegment::decode(&bytes, a_addr.0, b_addr.0);
                prop_assert!(seg.is_ok(), "the relay corrupts nothing");
                let seg = seg.unwrap();
                match &mut bob {
                    None if seg.header.flags.syn && !seg.header.flags.ack => {
                        let b = Tcb::accept(
                            now, b_addr, a_addr, &seg.header, 900, TcpConfig::default(), &mut ev,
                        );
                        wire(&b, &mut ev, &mut to_alice);
                        bob = Some(b);
                    }
                    Some(b) => {
                        b.on_segment(now, &seg, &mut ev);
                        let readable = ev.contains(&TcbEvent::DataReadable);
                        wire(b, &mut ev, &mut to_alice);
                        if readable {
                            b.recv(now, &mut received, &mut ev);
                            wire(b, &mut ev, &mut to_alice);
                        }
                    }
                    None => {}
                }
                continue;
            }
            if let Some(bytes) = to_alice.pop_front() {
                if rng.chance(loss) {
                    continue;
                }
                let seg = TcpSegment::decode(&bytes, b_addr.0, a_addr.0);
                prop_assert!(seg.is_ok(), "the relay corrupts nothing");
                alice.on_segment(now, &seg.unwrap(), &mut ev);
                let connected = ev.contains(&TcbEvent::Connected);
                wire(&alice, &mut ev, &mut to_bob);
                if connected && !queued {
                    queued = true;
                    let n = alice.send(now, &data, &mut ev);
                    prop_assert!(n <= data.len());
                    wire(&alice, &mut ev, &mut to_bob);
                }
                continue;
            }
            if queued {
                // Keep feeding until the whole payload is buffered.
                let buffered = alice.send_backlog();
                let fed = data.len().min(received.len() + buffered + alice.send_capacity());
                if received.len() + buffered < data.len() {
                    let lo = received.len() + buffered;
                    alice.send(now, &data[lo..fed.max(lo)], &mut ev);
                    wire(&alice, &mut ev, &mut to_bob);
                }
            }
            if received.len() >= data.len() {
                done = true;
                break;
            }
            let next = [alice.next_deadline(), bob.as_ref().and_then(|b| b.next_deadline())]
                .into_iter()
                .flatten()
                .min();
            match next {
                Some(t) => {
                    now = now.max(t);
                    alice.on_timer(now, &mut ev);
                    wire(&alice, &mut ev, &mut to_bob);
                    if let Some(b) = &mut bob {
                        b.on_timer(now, &mut ev);
                        wire(b, &mut ev, &mut to_alice);
                    }
                }
                None => break,
            }
        }
        prop_assert!(done, "transfer stalled: got {}/{} (loss {loss:.2})", received.len(), data.len());
        prop_assert_eq!(&received[..], &data[..], "bytes must arrive in order, exactly once");
    }
}
