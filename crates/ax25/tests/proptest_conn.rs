//! Property test: the AX.25 connected-mode machine delivers data in
//! order, exactly once, across an arbitrarily lossy link — the guarantee
//! every keyboard user and BBS in the paper's network relied on.

use ax25::addr::Ax25Addr;
use ax25::conn::{ConnEvent, Connection};
use ax25::frame::Frame;
use proptest::prelude::*;
use sim::{SimRng, SimTime};
use std::collections::VecDeque;

fn push_actions(
    events: Vec<ConnEvent>,
    wire: &mut VecDeque<Frame>,
    received: &mut Vec<u8>,
    established: &mut bool,
    released: &mut bool,
) {
    for ev in events {
        match ev {
            ConnEvent::SendFrame(f) => wire.push_back(f),
            ConnEvent::Data(d) => received.extend(d),
            ConnEvent::Established => *established = true,
            ConnEvent::Released(_) => *released = true,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lossy_link_preserves_order_and_exactness(
        seed in any::<u64>(),
        loss in 0.0f64..0.35,
        payload_len in 1usize..2000,
    ) {
        let a_addr = Ax25Addr::parse_or_panic("ALICE");
        let b_addr = Ax25Addr::parse_or_panic("BOB");
        let mut rng = SimRng::seed_from(seed);
        let mut alice = Connection::new(a_addr, b_addr);
        let mut bob = Connection::new(b_addr, a_addr);

        let data: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let mut to_bob: VecDeque<Frame> = VecDeque::new();
        let mut to_alice: VecDeque<Frame> = VecDeque::new();
        let mut received = Vec::new();
        let mut a_up = false;
        let mut b_up = false;
        let mut a_down = false;
        let mut b_down = false;
        let mut now = SimTime::ZERO;
        let mut queued = 0usize;

        push_actions(alice.connect(now), &mut to_bob, &mut received, &mut a_up, &mut a_down);

        for _ in 0..400_000 {
            if received.len() >= data.len() {
                break;
            }
            if let Some(f) = to_bob.pop_front() {
                if !rng.chance(loss) {
                    let ev = bob.on_frame(now, &f);
                    push_actions(ev, &mut to_alice, &mut received, &mut b_up, &mut b_down);
                }
                continue;
            }
            if let Some(f) = to_alice.pop_front() {
                if !rng.chance(loss) {
                    let mut sink = Vec::new();
                    let ev = alice.on_frame(now, &f);
                    push_actions(ev, &mut to_bob, &mut sink, &mut a_up, &mut a_down);
                    prop_assert!(sink.is_empty(), "alice sends, never receives data here");
                }
                continue;
            }
            // Feed more data once connected, then rely on timers.
            if a_up && queued < data.len() {
                let hi = (queued + 256).min(data.len());
                let ev = alice.send(now, &data[queued..hi]);
                queued = hi;
                push_actions(ev, &mut to_bob, &mut received, &mut a_up, &mut a_down);
                continue;
            }
            let next = [alice.next_deadline(), bob.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            let Some(t) = next else { break };
            now = now.max(t);
            let ev = alice.on_timer(now);
            push_actions(ev, &mut to_bob, &mut received, &mut a_up, &mut a_down);
            let ev = bob.on_timer(now);
            push_actions(ev, &mut to_alice, &mut received, &mut b_up, &mut b_down);
            prop_assert!(!a_down, "link must not die under N2={} retries at {loss:.2} loss", 10);
        }
        prop_assert_eq!(&received[..], &data[..], "in-order exactly-once delivery");
    }
}
