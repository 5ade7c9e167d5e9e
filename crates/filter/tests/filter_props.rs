//! Differential properties for the filter (DESIGN.md §13): with the
//! §4.3 gate on, the engine must be observationally identical to a
//! test-local executable spec of the paper's access table under TTL
//! expiry and control churn, and `PacketMeta::parse` must read hostile
//! wire bytes exactly as a literal-index reading of the header does.

use filter::{ControlOutcome, FilterConfig, FilterEngine, GateConfig, PacketMeta, Verdict};
use netstack::icmp::{GateAuth, IcmpMessage};
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The four /24s the pools draw from: two amateur (44/8), two foreign.
const NETS: [u32; 4] = [0x2C18_0000, 0x2C18_0100, 0x805F_0100, 0x0A00_0000];

/// Addresses clustered in [`NETS`] with tiny host parts, so random
/// packets keep landing on the pairs the stream opens and closes.
fn arb_addr() -> impl Strategy<Value = u32> {
    (0usize..4, 0u32..8).prop_map(|(net, host)| NETS[net] | host)
}

/// The non-address half of a packet: protocol, a port, and whether it
/// is a non-first fragment (which hides the port).
fn arb_transport() -> impl Strategy<Value = (u8, u16, bool)> {
    (
        0usize..4,
        prop_oneof![Just(23u16), 0u16..1024, any::<u16>()],
        any::<bool>(),
    )
        .prop_map(|(p, dport, frag)| ([6u8, 17, 1, 89][p], dport, frag))
}

fn meta(src: u32, dst: u32, (proto, dport, frag): (u8, u16, bool)) -> PacketMeta {
    let transport = proto == 6 || proto == 17;
    PacketMeta {
        src,
        dst,
        proto,
        dport: if transport { dport } else { 0 },
        has_port: transport && !frag,
    }
}

/// A packet over the same pool.
fn arb_packet() -> impl Strategy<Value = PacketMeta> {
    (arb_addr(), arb_addr(), arb_transport()).prop_map(|(src, dst, t)| meta(src, dst, t))
}

/// One of 16 `(amateur, foreign)` pairs: few enough that a stream keeps
/// returning to the same entries, opening, refreshing, expiring and
/// closing them.
fn arb_pair() -> impl Strategy<Value = (u32, u32)> {
    (0usize..2, 0u32..2, 2usize..4, 0u32..2)
        .prop_map(|(an, ah, fnet, fh)| (NETS[an] | ah, NETS[fnet] | fh))
}

/// Who sends a gate-control message, and with what credentials.
#[derive(Debug, Clone, Copy)]
enum Sender {
    /// Arrives on the amateur side: needs no credentials (§4.3).
    Amateur,
    /// Foreign side, the configured operator's callsign and password.
    Operator,
    /// Foreign side, the operator's callsign with a wrong password.
    WrongPassword,
    /// Foreign side, no credentials at all.
    Anonymous,
}

impl Sender {
    fn side_and_auth(self) -> (bool, Option<GateAuth>) {
        let auth = |password: &str| GateAuth {
            callsign: "N7AKR".into(),
            password: password.into(),
        };
        match self {
            Sender::Amateur => (true, None),
            Sender::Operator => (false, Some(auth("secret"))),
            Sender::WrongPassword => (false, Some(auth("wrong"))),
            Sender::Anonymous => (false, None),
        }
    }
}

fn arb_sender() -> impl Strategy<Value = Sender> {
    prop_oneof![
        Just(Sender::Amateur),
        Just(Sender::Operator),
        Just(Sender::WrongPassword),
        Just(Sender::Anonymous),
    ]
}

/// One step of a gate stream.
#[derive(Debug, Clone)]
enum Step {
    Packet(PacketMeta),
    Control(Sender, IcmpMessage),
}

/// A gate stream step: packets across a pair in either direction, any
/// packet over the pool, and GateOpen/GateClose from every kind of
/// sender. TTLs and clock steps are multiples of 10 s, so packets land
/// exactly on expiry instants.
fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_packet().prop_map(Step::Packet),
        (arb_pair(), arb_transport()).prop_map(|((a, f), t)| Step::Packet(meta(a, f, t))),
        (arb_pair(), arb_transport()).prop_map(|((a, f), t)| Step::Packet(meta(f, a, t))),
        (arb_pair(), arb_transport()).prop_map(|((a, f), t)| Step::Packet(meta(f, a, t))),
        (
            arb_pair(),
            prop_oneof![Just(30u16), Just(60u16), Just(600u16)],
            arb_sender()
        )
            .prop_map(|((a, f), ttl_secs, sender)| {
                let (_, auth) = sender.side_and_auth();
                Step::Control(
                    sender,
                    IcmpMessage::GateOpen {
                        amateur: Ipv4Addr::from(a),
                        foreign: Ipv4Addr::from(f),
                        ttl_secs,
                        auth,
                    },
                )
            }),
        (arb_pair(), arb_sender()).prop_map(|((a, f), sender)| {
            let (_, auth) = sender.side_and_auth();
            Step::Control(
                sender,
                IcmpMessage::GateClose {
                    amateur: Ipv4Addr::from(a),
                    foreign: Ipv4Addr::from(f),
                    auth,
                },
            )
        }),
    ]
}

/// §4.3 written down as plainly as possible: a map from `(amateur,
/// foreign)` to expiry. No sweep, no engine code.
struct GateSpec {
    ttl: SimDuration,
    entries: HashMap<(u32, u32), SimTime>,
    gate_opened: u64,
    gate_closed: u64,
    gate_denied: u64,
    /// Verdict-changing mutations: entries coming alive, live entries
    /// force-closed.
    generation: u32,
}

impl GateSpec {
    fn amateur(addr: u32) -> bool {
        addr >> 24 == 44
    }

    /// An entry admits until, and not at, its expiry.
    fn live(&self, now: SimTime, pair: (u32, u32)) -> bool {
        self.entries.get(&pair).is_some_and(|&exp| now < exp)
    }

    /// Sets `pair` to expire `ttl` from now; true when it was dead.
    fn open(&mut self, now: SimTime, pair: (u32, u32), ttl: SimDuration) -> bool {
        let was_live = self.live(now, pair);
        self.entries.insert(pair, now + ttl);
        if !was_live {
            self.generation += 1;
        }
        !was_live
    }

    fn eval(&mut self, now: SimTime, m: &PacketMeta) -> Verdict {
        let (src_am, dst_am) = (Self::amateur(m.src), Self::amateur(m.dst));
        if src_am && !dst_am {
            // "Entries … are created when packets are sent from the
            // amateur side", and every such packet refreshes its entry.
            if self.open(now, (m.src, m.dst), self.ttl) {
                self.gate_opened += 1;
            }
        } else if !src_am && dst_am && !self.live(now, (m.dst, m.src)) {
            self.gate_denied += 1;
            return Verdict::Deny;
        }
        Verdict::Allow
    }

    fn control(&mut self, now: SimTime, sender: Sender, msg: &IcmpMessage) -> ControlOutcome {
        if !matches!(sender, Sender::Amateur | Sender::Operator) {
            return ControlOutcome::AuthFailed;
        }
        match msg {
            IcmpMessage::GateOpen {
                amateur,
                foreign,
                ttl_secs,
                ..
            } => {
                let ttl = SimDuration::from_secs(u64::from(*ttl_secs));
                self.open(now, (u32::from(*amateur), u32::from(*foreign)), ttl);
                ControlOutcome::Applied
            }
            IcmpMessage::GateClose {
                amateur, foreign, ..
            } => {
                let pair = (u32::from(*amateur), u32::from(*foreign));
                let was_live = self.live(now, pair);
                self.entries.remove(&pair);
                if was_live {
                    self.gate_closed += 1;
                    self.generation += 1;
                    ControlOutcome::Applied
                } else {
                    ControlOutcome::NoEntry
                }
            }
            _ => unreachable!("the stream sends only gate messages"),
        }
    }
}

proptest! {
    /// The engine is §4.3: fed a timed stream — gate on, TTL expiries
    /// crossed and landed on exactly, GateOpen and GateClose from both
    /// sides with good, wrong and missing credentials, and the
    /// deadline-driven sweep run at some due instants and skipped at
    /// others — it gives the executable spec's verdict, control outcome
    /// and gate counters at every step.
    #[test]
    fn engine_matches_an_executable_gate_spec(
        steps in proptest::collection::vec(
            (
                arb_step(),
                prop_oneof![Just(0u64), Just(10u64), Just(30u64), Just(60u64)],
                any::<bool>(),
            ),
            1..96,
        ),
    ) {
        let ttl = SimDuration::from_secs(120);
        let mut engine = FilterEngine::new(FilterConfig {
            gate: Some(GateConfig {
                entry_ttl: ttl,
                operators: vec![("N7AKR".into(), "secret".into())],
            }),
        });
        let mut spec = GateSpec {
            ttl,
            entries: HashMap::new(),
            gate_opened: 0,
            gate_closed: 0,
            gate_denied: 0,
            generation: 0,
        };
        let mut now = SimTime::ZERO;
        for (i, (step, dt, sweep)) in steps.iter().enumerate() {
            now += SimDuration::from_secs(*dt);
            // Verdicts must not depend on whether the sweep has run.
            if *sweep && engine.next_deadline().is_some_and(|d| d <= now) {
                engine.expire(now);
            }
            match step {
                Step::Packet(m) => prop_assert_eq!(
                    engine.eval(now, m), spec.eval(now, m),
                    "verdicts diverged at step {} ({:?}, t={:?})", i, m, now
                ),
                Step::Control(sender, msg) => {
                    let (from_amateur_side, _) = sender.side_and_auth();
                    prop_assert_eq!(
                        engine.on_gate_message(now, from_amateur_side, msg),
                        spec.control(now, *sender, msg),
                        "control outcomes diverged at step {} ({:?}, t={:?})", i, msg, now
                    );
                }
            }
            let s = engine.stats();
            prop_assert_eq!(
                (s.gate_opened, s.gate_closed, s.gate_denied, engine.generation()),
                (spec.gate_opened, spec.gate_closed, spec.gate_denied, spec.generation),
                "gate counters diverged at step {} (t={:?})", i, now
            );
        }
    }
}

/// The header read by literal indices: the oracle for `PacketMeta::parse`,
/// which reads it bounds-checked. A short buffer or a version
/// other than 4 is `None`; an IHL under 5 reads the port from inside the
/// header; a non-first fragment, a non-TCP/UDP protocol or a buffer
/// shorter than `ihl + 4` hides the port.
#[allow(clippy::indexing_slicing)]
fn parse_by_index(bytes: &[u8]) -> Option<PacketMeta> {
    if bytes.len() < 20 || bytes[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(bytes[0] & 0x0F) * 4;
    let proto = bytes[9];
    let src = u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let dst = u32::from_be_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    let frag_offset = u16::from_be_bytes([bytes[6], bytes[7]]) & 0x1FFF;
    let mut meta = PacketMeta {
        src,
        dst,
        proto,
        dport: 0,
        has_port: false,
    };
    if (proto == 6 || proto == 17) && frag_offset == 0 && bytes.len() >= ihl + 4 {
        meta.dport = u16::from_be_bytes([bytes[ihl + 2], bytes[ihl + 3]]);
        meta.has_port = true;
    }
    Some(meta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// On arbitrary 0–80-octet buffers whose version nibble is forced
    /// (mostly to 4) and whose IHL, protocol and fragment field are drawn
    /// around the edges that matter, `parse` gives the literal-index
    /// reading's answer.
    #[test]
    fn parse_reads_hostile_bytes_like_literal_indices(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..81),
        version in prop_oneof![Just(4u8), Just(4u8), Just(4u8), 0u8..16],
        ihl in 0u8..16,
        proto in prop_oneof![Just(6u8), Just(17u8), any::<u8>()],
        frag in prop_oneof![Just(0u16), 0x2000u16..0x2001, 0u16..8, any::<u16>()],
    ) {
        if let Some(b) = bytes.get_mut(0) {
            *b = version << 4 | ihl;
        }
        if let Some(f) = bytes.get_mut(6..8) {
            f.copy_from_slice(&frag.to_be_bytes());
        }
        if let Some(p) = bytes.get_mut(9) {
            *p = proto;
        }
        prop_assert_eq!(
            PacketMeta::parse(&bytes),
            parse_by_index(&bytes),
            "{} octets: {:02x?}", bytes.len(), bytes
        );
    }
}
