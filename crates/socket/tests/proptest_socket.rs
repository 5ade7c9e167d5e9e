//! Property test: a random interleaving of poll/send/recv driven through
//! the `SocketTable` behaves byte-for-byte like the same interleaving
//! driven through the raw `NetStack` API — the shim adds readiness
//! bookkeeping and nothing else.

use netstack::stack::{IfaceId, NetStack, StackAction};
use proptest::prelude::*;
use sim::{SimRng, SimTime};
use socket::{SockError, SocketTable};
use std::net::Ipv4Addr;

fn ipa(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Two stacks on a lossless wire, each fronted by a socket table (the raw
/// oracle world leaves its tables unused).
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of send/recv/poll on both sides: the socket
    /// API accepts the same byte counts, delivers the same bytes, and
    /// reports readiness consistent with the oracle's raw stack state at
    /// every step.
    #[test]
    fn socket_api_matches_raw_oracle(seed in any::<u64>(), n_ops in 1usize..60) {
        let now = SimTime::ZERO;

        // Socket-API world.
        let mut sw = Pair::new();
        let lh = sw.sb.listen(&mut sw.b, 7, None).unwrap();
        let s_client = sw.sa.connect(&mut sw.a, now, ipa(2), 7).unwrap();
        sw.settle(now);
        let s_server = sw.sb.accept(&mut sw.b, lh).unwrap();

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
                    let n_sock = match sw.sa.send(&mut sw.a, now, s_client, &data) {
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
                    let d_sock = match sw.sb.recv(&mut sw.b, now, s_server) {
                        Ok(d) => d,
                        Err(SockError::WouldBlock) => Vec::new(),
                        Err(e) => panic!("unexpected recv error: {e}"),
                    };
                    let d_raw = rw.b.tcp_recv(now, r_server);
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
                // oracle's stack state.
                3 => {
                    let r = sw.sa.poll(&sw.a, s_client);
                    prop_assert_eq!(
                        r.writable(),
                        rw.a.tcp_send_capacity(r_client) > 0,
                        "writable diverges from oracle"
                    );
                }
                // Poll the server likewise.
                _ => {
                    let r = sw.sb.poll(&sw.b, s_server);
                    prop_assert_eq!(
                        r.readable(),
                        rw.b.tcp_recv_available(r_server) > 0,
                        "readable diverges from oracle"
                    );
                    prop_assert_eq!(
                        r.eof(),
                        rw.b.tcp_at_eof(r_server),
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
            let d_sock = match sw.sb.recv(&mut sw.b, now, s_server) {
                Ok(d) => d,
                Err(SockError::WouldBlock) => Vec::new(),
                Err(e) => panic!("unexpected recv error: {e}"),
            };
            let d_raw = rw.b.tcp_recv(now, r_server);
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
