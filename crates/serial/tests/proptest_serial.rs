//! Property tests for the serial line model.

use proptest::prelude::*;
use serial::{DirStats, End, Seal, SerialConfig, SerialLine, FRAME_END};
use sim::{SimDuration, SimRng, SimTime};

fn rx(line: &mut SerialLine, end: End) -> Vec<u8> {
    let mut out = Vec::new();
    line.drain_rx(end, &mut out);
    out
}

fn drain(line: &mut SerialLine) {
    while let Some(t) = line.next_deadline() {
        line.advance(t);
    }
}

/// One scripted action on a line under test.
#[derive(Debug, Clone)]
enum Op {
    /// `from` queues these bytes.
    Send(End, Vec<u8>),
    /// The receiver at this end is touched and catches up.
    CatchUp(End),
}

/// What a receiver at each end saw, and where the line was left.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(completion time, byte)` per receiving end (`[A, B]`).
    seen: [Vec<(SimTime, u8)>; 2],
    stats: [DirStats; 2],
    backlog: [usize; 2],
    next_deadline: Option<SimTime>,
}

fn outcome(line: &SerialLine, seen: [Vec<(SimTime, u8)>; 2]) -> Outcome {
    Outcome {
        seen,
        stats: [line.stats(End::A), line.stats(End::B)],
        backlog: [line.tx_backlog(End::A), line.tx_backlog(End::B)],
        next_deadline: line.next_deadline(),
    }
}

/// The oracle: one `advance` per character, FIFOs drained after each.
fn run_per_character(cfg: SerialConfig, script: &[(SimTime, Op)], exit: SimTime) -> Outcome {
    let mut line = SerialLine::new(cfg);
    let mut seen = [Vec::new(), Vec::new()];
    let mut step_to = |line: &mut SerialLine, upto: SimTime| {
        while let Some(t) = line.next_deadline().filter(|&t| t <= upto) {
            line.advance(t);
            for (i, end) in [End::A, End::B].into_iter().enumerate() {
                seen[i].extend(rx(line, end).into_iter().map(|b| (t, b)));
            }
        }
    };
    for (t, op) in script.iter().filter(|(t, _)| *t <= exit) {
        step_to(&mut line, *t);
        if let Op::Send(from, bytes) = op {
            line.send(*t, *from, bytes);
        }
    }
    step_to(&mut line, exit);
    outcome(&line, seen)
}

/// The frame-granular discipline under test: visit the line only at its
/// boundaries, catch one end up when the script touches it, flush both
/// ends on exit.
struct ByBoundaries {
    line: SerialLine,
    seen: [Vec<(SimTime, u8)>; 2],
    run: Vec<u8>,
}

impl ByBoundaries {
    fn pull(&mut self, to: End, now: SimTime) {
        let ct = self.line.config().char_time();
        while let Some(info) = self.line.take_run(to, now, &mut self.run, |_| false) {
            let n = self.run.len();
            assert_eq!(info.t_last, info.t0 + ct * (n as u64 - 1));
            assert!(info.t_last <= now);
            // Only a closing delimiter ends a run: any other one in it
            // directly follows a delimiter on the wire.
            let seen = &mut self.seen[usize::from(to == End::B)];
            let mut prev = seen.last().map_or(0, |&(_, b)| b);
            for &b in &self.run[..n - 1] {
                assert!(b != FRAME_END || prev == FRAME_END, "{:?}", self.run);
                prev = b;
            }
            let times = (0..n as u64).map(|k| info.t0 + ct * k);
            seen.extend(times.zip(self.run.iter().copied()));
        }
    }

    fn visit_to(&mut self, upto: SimTime) {
        while let Some(t) = self.line.next_boundary().filter(|&t| t <= upto) {
            self.pull(End::A, t);
            self.pull(End::B, t);
        }
    }
}

fn run_by_boundaries(cfg: SerialConfig, script: &[(SimTime, Op)], exit: SimTime) -> Outcome {
    let mut w = ByBoundaries {
        line: SerialLine::new(cfg),
        seen: [Vec::new(), Vec::new()],
        run: Vec::new(),
    };
    for (t, op) in script.iter().filter(|(t, _)| *t <= exit) {
        w.visit_to(*t);
        match op {
            Op::Send(from, bytes) => w.line.send(*t, *from, bytes),
            Op::CatchUp(end) => w.pull(*end, *t),
        }
    }
    w.visit_to(exit);
    w.pull(End::A, exit);
    w.pull(End::B, exit);
    outcome(&w.line, w.seen)
}

/// A line whose sender seals some of what it sends, and its twin: the
/// same bytes at the same instants, never sealed, taken the same way.
/// Whatever the seals do, the twins must stay indistinguishable — and a
/// seal may stand in for bytes only when the twin's run is exactly the
/// span it was sent with.
struct Twins {
    sealed: SerialLine,
    plain: SerialLine,
    /// Sealed spans not yet handed back: `(seal, sender, stream position
    /// of the first character, bytes)`.
    spans: Vec<(Seal, End, u64, Vec<u8>)>,
    next_seal: u64,
    handed_back: usize,
    run: [Vec<u8>; 2],
}

impl Twins {
    fn new(cfg: SerialConfig, noise_seed: Option<u64>) -> Twins {
        let line = || match noise_seed {
            Some(seed) => SerialLine::with_noise(cfg, SimRng::seed_from(seed)),
            None => SerialLine::new(cfg),
        };
        Twins {
            sealed: line(),
            plain: line(),
            spans: Vec::new(),
            next_seal: 0,
            handed_back: 0,
            run: [Vec::new(), Vec::new()],
        }
    }

    fn send(&mut self, now: SimTime, from: End, bytes: &[u8], seal: bool) {
        if seal {
            self.next_seal += 1;
            let seal = Seal(self.next_seal.to_le_bytes());
            let start = self.sealed.stats(from).sent;
            self.spans.push((seal, from, start, bytes.to_vec()));
            self.sealed.send_sealed(now, from, bytes, seal);
        } else {
            self.sealed.send(now, from, bytes);
        }
        self.plain.send(now, from, bytes);
        self.check();
    }

    /// Brings `to` up to `now` by runs on both lines.
    fn pull(&mut self, to: End, now: SimTime, accept: bool) {
        let [run, twin_run] = &mut self.run;
        loop {
            let s = self.sealed.stats(to.peer());
            let left_wire = s.delivered + s.overruns + s.errors;
            let got = self.sealed.take_run(to, now, run, |_| accept);
            let twin = self.plain.take_run(to, now, twin_run, |_| {
                panic!("nothing was sealed on this line")
            });
            let (Some(got), Some(twin)) = (got, twin) else {
                assert_eq!((got, twin), (None, None));
                break;
            };
            assert_eq!(twin.seal, None);
            assert_eq!(
                (got.t0, got.t_last, got.len),
                (twin.t0, twin.t_last, twin_run.len())
            );
            let Some(seal) = got.seal else {
                assert_eq!(run, twin_run);
                continue;
            };
            assert!(accept && run.is_empty());
            // Handed back once, for a run that is its span and nothing
            // else: first character to last, none delivered before.
            let k = self.spans.iter().position(|span| span.0 == seal);
            let (_, from, start, bytes) = self.spans.remove(k.expect("a live span's seal"));
            assert_eq!((from, start), (to.peer(), left_wire));
            assert_eq!(&bytes, twin_run);
            self.handed_back += 1;
        }
        self.check();
    }

    /// Per-character delivery on both lines, FIFOs drained.
    fn advance(&mut self, now: SimTime) {
        assert_eq!(self.sealed.advance(now), self.plain.advance(now));
        let [rx, twin_rx] = &mut self.run;
        for end in [End::A, End::B] {
            self.sealed.drain_rx(end, rx);
            self.plain.drain_rx(end, twin_rx);
            assert_eq!(rx, twin_rx);
        }
        self.check();
    }

    fn check(&self) {
        let view = |l: &SerialLine| {
            let per_end = [End::A, End::B].map(|e| (l.stats(e), l.tx_backlog(e), l.rx_len(e)));
            (per_end, l.next_deadline(), l.next_boundary())
        };
        assert_eq!(view(&self.sealed), view(&self.plain));
    }
}

/// The overrun pin: a span's place in the stream counts every character
/// that has left the wire, not only those that reached the FIFO.
#[test]
fn a_sealed_span_is_found_after_overruns() {
    let mut t = Twins::new(SerialConfig::baud(9600).with_rx_fifo(2), None);
    t.send(SimTime::ZERO, End::B, b"abcde\xC0", false);
    let later = SimTime::from_secs(1);
    t.advance(later);
    let s = t.sealed.stats(End::B);
    assert_eq!((s.delivered, s.overruns), (2, 4));
    t.send(later, End::B, b"\xC0\x00frame\xC0", true);
    t.pull(End::A, later + SimDuration::from_secs(1), true);
    assert_eq!(t.handed_back, 1);
}

/// Bytes with frame delimiters about one in twelve.
fn framed_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            Just(FRAME_END),
            Just(b'x'),
            (0u8..4).prop_map(|b| b + 0xBE)
        ],
        1..40,
    )
}

proptest! {
    /// Frame-granular delivery is indistinguishable from per-character
    /// delivery: for random send schedules in both directions, random
    /// catch-up instants at either end, and a random exit point, every
    /// receiver sees the same bytes at the same completion instants, and
    /// the line is left with the same statistics, backlog and character on
    /// the wire.
    #[test]
    fn boundary_delivery_matches_per_character_advance(
        baud in prop_oneof![Just(1200u32), Just(9600u32), Just(19_200u32)],
        steps in proptest::collection::vec(
            (0u64..40_000, 0u8..4, any::<bool>(), framed_bytes()),
            1..24,
        ),
        exit_permille in 0u64..1_200,
    ) {
        let cfg = SerialConfig::baud(baud);
        let mut now = SimTime::ZERO;
        let script: Vec<(SimTime, Op)> = steps
            .into_iter()
            .map(|(gap_us, kind, at_a, bytes)| {
                now += SimDuration::from_micros(gap_us);
                let end = if at_a { End::A } else { End::B };
                let op = if kind == 0 { Op::CatchUp(end) } else { Op::Send(end, bytes) };
                (now, op)
            })
            .collect();
        // Anywhere from before the first action to after the line drains.
        let span = now.as_nanos() + SimDuration::from_millis(50).as_nanos();
        let exit = SimTime::from_nanos(span / 1_000 * exit_permille);
        let expect = run_per_character(cfg, &script, exit);
        let got = run_by_boundaries(cfg, &script, exit);
        prop_assert_eq!(got, expect);
    }

    /// Seals never lie about bytes (see [`Twins`]): random sealed and
    /// plain sends in both directions — delimited frames and raw noise
    /// alike — takes at random instants (mid-span included) that accept
    /// or decline, boundary visits, and per-character `advance` +
    /// `drain_rx` in between, on clean, zero-depth-FIFO and noisy lines.
    #[test]
    fn sealed_sends_are_indistinguishable_from_plain_ones(
        line in 0u8..4,
        steps in proptest::collection::vec(
            (0u64..30_000, 0u8..10, any::<bool>(), any::<bool>(), framed_bytes()),
            1..40,
        ),
    ) {
        let cfg = SerialConfig::baud(9600);
        let mut t = match line {
            0 | 1 => Twins::new(cfg, None),
            2 => Twins::new(cfg.with_rx_fifo(0), None),
            _ => Twins::new(cfg.with_error_rate(0.3), Some(11)),
        };
        let mut now = SimTime::ZERO;
        for (gap_us, kind, at_a, flag, mut bytes) in steps {
            now += SimDuration::from_micros(gap_us);
            let end = if at_a { End::A } else { End::B };
            match kind {
                // Catch one end up, wherever in a span that falls.
                0 | 1 => t.pull(end, now, flag),
                // Visit every boundary so far, as the engine does.
                2 => {
                    while let Some(at) = t.sealed.next_boundary().filter(|&at| at <= now) {
                        t.pull(End::A, at, flag);
                        t.pull(End::B, at, !flag);
                    }
                }
                3 => t.advance(now),
                4 => t.send(now, end, &bytes, flag),
                // A delimited frame, as a TNC or driver would send it.
                _ => {
                    bytes.iter_mut().for_each(|b| *b = (*b).min(FRAME_END - 1));
                    bytes.insert(0, FRAME_END);
                    bytes.push(FRAME_END);
                    t.send(now, end, &bytes, kind < 9);
                }
            }
        }
        // Drain: everything still pending leaves as runs.
        let far = now + SimDuration::from_secs(60);
        t.pull(End::A, far, true);
        t.pull(End::B, far, true);
        prop_assert!(t.sealed.is_idle() && t.plain.is_idle());
        // Only a line that batches ever hands a seal back.
        prop_assert!(line < 2 || t.handed_back == 0);
    }

    /// Any byte stream arrives intact and in order on a clean line, and
    /// total transfer time is exactly n × char_time.
    #[test]
    fn clean_line_is_order_preserving(
        bytes in proptest::collection::vec(any::<u8>(), 1..500),
        baud in 300u32..115_200,
    ) {
        let cfg = SerialConfig::baud(baud).with_rx_fifo(usize::MAX);
        let mut line = SerialLine::new(cfg);
        line.send(SimTime::ZERO, End::A, &bytes);
        let mut last = SimTime::ZERO;
        while let Some(t) = line.next_deadline() {
            line.advance(t);
            last = t;
        }
        prop_assert_eq!(rx(&mut line, End::B), bytes.clone());
        let expected = SimTime::ZERO + cfg.char_time() * bytes.len() as u64;
        prop_assert_eq!(last, expected);
    }

    /// Full duplex: interleaved sends in both directions never cross.
    #[test]
    fn directions_never_interfere(
        a_bytes in proptest::collection::vec(any::<u8>(), 0..200),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let cfg = SerialConfig::baud(9600).with_rx_fifo(usize::MAX);
        let mut line = SerialLine::new(cfg);
        line.send(SimTime::ZERO, End::A, &a_bytes);
        line.send(SimTime::ZERO, End::B, &b_bytes);
        drain(&mut line);
        prop_assert_eq!(rx(&mut line, End::B), a_bytes);
        prop_assert_eq!(rx(&mut line, End::A), b_bytes);
    }

    /// Conservation: sent = delivered + overruns + errors, always.
    #[test]
    fn byte_conservation_with_small_fifo(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..50), 1..8),
        fifo in 1usize..16,
        drain_between in any::<bool>(),
    ) {
        let cfg = SerialConfig::baud(9600).with_rx_fifo(fifo);
        let mut line = SerialLine::new(cfg);
        let mut taken = 0u64;
        let mut now = SimTime::ZERO;
        for chunk in &chunks {
            line.send(now, End::A, chunk);
            while let Some(t) = line.next_deadline() {
                line.advance(t);
                now = t;
                if drain_between {
                    taken += rx(&mut line, End::B).len() as u64;
                }
            }
        }
        taken += rx(&mut line, End::B).len() as u64;
        let s = line.stats(End::A);
        prop_assert_eq!(s.sent, s.delivered + s.overruns + s.errors);
        prop_assert_eq!(taken, s.delivered);
        if drain_between {
            prop_assert_eq!(s.overruns, 0, "prompt draining avoids overruns");
        }
    }
}
