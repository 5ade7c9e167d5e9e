//! The AX.25 v2.0 connected-mode (level 2) state machine.
//!
//! Terminal users in the paper's network — the ones who *"simply typed
//! streams of data at each other"* (§1) — use this LAPB-style reliable
//! connection protocol, as does the BBS traffic and the §2.4
//! application-layer gateway ("a user program can then read from this
//! line, and maintain the state required to keep track of AX.25 level
//! connections"). This module implements a pragmatic modulo-8 subset:
//!
//! * SABM/UA connection establishment, DISC/UA release, DM refusal;
//! * sequenced I frames with a configurable window `k` ≤ 7;
//! * RR acknowledgements, REJ go-back-N recovery;
//! * T1 retransmission with N2 retry limit; T3 idle keepalive polls.
//!
//! The state machine is sans-io: every entry point takes `now` and returns
//! [`ConnEvent`] actions; [`Connection::next_deadline`] tells the caller
//! when to invoke [`Connection::on_timer`].
//!
//! # Examples
//!
//! ```
//! use ax25::addr::Ax25Addr;
//! use ax25::conn::{ConnEvent, Connection};
//! use sim::SimTime;
//!
//! let pc = Ax25Addr::parse_or_panic("N7AKR");
//! let bbs = Ax25Addr::parse_or_panic("KB7DZ");
//! let mut caller = Connection::new(pc, bbs);
//! let mut events = caller.connect(SimTime::ZERO);
//! assert!(matches!(events.remove(0), ConnEvent::SendFrame(_)));
//! ```

use std::collections::VecDeque;

use sim::{SimDuration, SimTime};

use crate::addr::Ax25Addr;
use crate::frame::{Frame, FrameKind, Pid};

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseReason {
    /// Clean DISC/UA exchange.
    Normal,
    /// The peer refused (DM) or reset the link.
    Refused,
    /// N2 retries of T1 expired without progress.
    Timeout,
}

/// Output actions from the state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnEvent {
    /// Transmit this frame on the link.
    SendFrame(Frame),
    /// In-order user data received from the peer.
    Data(Vec<u8>),
    /// The connection is now established.
    Established,
    /// The connection has ended.
    Released(ReleaseReason),
}

/// Maximum I-frame info length (PACLEN).
const MAX_INFO: usize = 128;
/// Retransmission timer. 10 s suits a 1200 bit/s channel where a full
/// frame takes about a second on the air.
const T1: SimDuration = SimDuration::from_secs(10);
/// Idle-link keepalive timer.
const T3: SimDuration = SimDuration::from_secs(180);
/// Retry limit before the link is declared dead.
const N2: u32 = 10;
/// Send window `k` (1–7 in modulo-8 operation).
const WINDOW: u8 = 4;

/// Connection states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// No link.
    Disconnected,
    /// SABM sent, awaiting UA.
    Connecting,
    /// Information transfer.
    Connected,
    /// DISC sent, awaiting UA.
    Disconnecting,
}

/// One AX.25 connected-mode endpoint.
#[derive(Debug)]
pub struct Connection {
    me: Ax25Addr,
    peer: Ax25Addr,
    path: Vec<Ax25Addr>,
    state: ConnState,
    /// Send state variable V(S).
    vs: u8,
    /// Acknowledge state variable V(A).
    va: u8,
    /// Receive state variable V(R).
    vr: u8,
    send_queue: VecDeque<Vec<u8>>,
    unacked: VecDeque<(u8, Vec<u8>)>,
    retries: u32,
    t1: Option<SimTime>,
    t3: Option<SimTime>,
    rej_outstanding: bool,
    peer_busy: bool,
}

impl Connection {
    /// Creates a disconnected endpoint for the pair (`me`, `peer`).
    pub fn new(me: Ax25Addr, peer: Ax25Addr) -> Connection {
        Connection {
            me,
            peer,
            path: Vec::new(),
            state: ConnState::Disconnected,
            vs: 0,
            va: 0,
            vr: 0,
            send_queue: VecDeque::new(),
            unacked: VecDeque::new(),
            retries: 0,
            t1: None,
            t3: None,
            rej_outstanding: false,
            peer_busy: false,
        }
    }

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Bytes queued locally but not yet acknowledged by the peer.
    pub fn backlog(&self) -> usize {
        self.send_queue.iter().map(Vec::len).sum::<usize>()
            + self.unacked.iter().map(|(_, d)| d.len()).sum::<usize>()
    }

    /// The earliest timer deadline, if any timer is running.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match (self.t1, self.t3) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    // --- User interface -----------------------------------------------

    /// Initiates a connection (sends SABM).
    pub fn connect(&mut self, now: SimTime) -> Vec<ConnEvent> {
        let mut ev = Vec::new();
        self.reset_vars();
        self.state = ConnState::Connecting;
        self.retries = 0;
        ev.push(self.send_u(FrameKind::Sabm { poll: true }, true));
        self.start_t1(now);
        ev
    }

    /// Queues user data; it is segmented into I frames and transmitted as
    /// the window allows.
    pub fn send(&mut self, now: SimTime, data: &[u8]) -> Vec<ConnEvent> {
        for chunk in data.chunks(MAX_INFO) {
            self.send_queue.push_back(chunk.to_vec());
        }
        if self.state == ConnState::Connected {
            self.pump(now)
        } else {
            Vec::new()
        }
    }

    /// Initiates link release (sends DISC).
    pub fn disconnect(&mut self, now: SimTime) -> Vec<ConnEvent> {
        match self.state {
            ConnState::Disconnected => vec![ConnEvent::Released(ReleaseReason::Normal)],
            _ => {
                let mut ev = Vec::new();
                self.state = ConnState::Disconnecting;
                self.retries = 0;
                ev.push(self.send_u(FrameKind::Disc { poll: true }, true));
                self.start_t1(now);
                self.t3 = None;
                ev
            }
        }
    }

    // --- Frame input ----------------------------------------------------

    /// Processes a frame addressed to this connection (caller has already
    /// matched source/destination).
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame) -> Vec<ConnEvent> {
        match self.state {
            ConnState::Disconnected => self.frame_disconnected(now, frame),
            ConnState::Connecting => self.frame_connecting(now, frame),
            ConnState::Connected => self.frame_connected(now, frame),
            ConnState::Disconnecting => self.frame_disconnecting(frame),
        }
    }

    fn frame_disconnected(&mut self, now: SimTime, frame: &Frame) -> Vec<ConnEvent> {
        match frame.kind {
            FrameKind::Sabm { .. } => {
                // Passive open: accept the connection.
                self.reset_vars();
                self.state = ConnState::Connected;
                let mut ev = vec![
                    self.send_u(FrameKind::Ua { fin: true }, false),
                    ConnEvent::Established,
                ];
                self.start_t3(now);
                ev.extend(self.pump(now));
                ev
            }
            FrameKind::Disc { .. } => {
                vec![self.send_u(FrameKind::Dm { fin: true }, false)]
            }
            FrameKind::I { .. }
            | FrameKind::Rr { .. }
            | FrameKind::Rnr { .. }
            | FrameKind::Rej { .. } => {
                // Not connected: tell the peer so.
                vec![self.send_u(FrameKind::Dm { fin: true }, false)]
            }
            _ => Vec::new(),
        }
    }

    fn frame_connecting(&mut self, now: SimTime, frame: &Frame) -> Vec<ConnEvent> {
        match frame.kind {
            FrameKind::Ua { .. } => {
                self.state = ConnState::Connected;
                self.stop_t1();
                self.start_t3(now);
                self.retries = 0;
                let mut ev = vec![ConnEvent::Established];
                ev.extend(self.pump(now));
                ev
            }
            FrameKind::Dm { .. } => {
                self.teardown();
                vec![ConnEvent::Released(ReleaseReason::Refused)]
            }
            FrameKind::Sabm { .. } => {
                // Simultaneous open: acknowledge and treat as established.
                self.state = ConnState::Connected;
                self.stop_t1();
                self.start_t3(now);
                vec![
                    self.send_u(FrameKind::Ua { fin: true }, false),
                    ConnEvent::Established,
                ]
            }
            _ => Vec::new(),
        }
    }

    fn frame_connected(&mut self, now: SimTime, frame: &Frame) -> Vec<ConnEvent> {
        let mut ev = Vec::new();
        match frame.kind {
            FrameKind::I { ns, nr, poll } => {
                self.ack_through(now, nr, &mut ev);
                if ns == self.vr {
                    self.vr = (self.vr + 1) % 8;
                    self.rej_outstanding = false;
                    ev.push(ConnEvent::Data(frame.info.clone()));
                    ev.push(self.send_s(FrameKind::Rr {
                        nr: self.vr,
                        pf: poll,
                    }));
                } else if !self.rej_outstanding {
                    self.rej_outstanding = true;
                    ev.push(self.send_s(FrameKind::Rej {
                        nr: self.vr,
                        pf: poll,
                    }));
                } else if poll {
                    ev.push(self.send_s(FrameKind::Rr {
                        nr: self.vr,
                        pf: true,
                    }));
                }
                self.start_t3(now);
                ev.extend(self.pump(now));
            }
            FrameKind::Rr { nr, pf } => {
                self.peer_busy = false;
                self.ack_through(now, nr, &mut ev);
                if frame.command && pf {
                    ev.push(self.send_s(FrameKind::Rr {
                        nr: self.vr,
                        pf: true,
                    }));
                }
                self.start_t3(now);
                ev.extend(self.pump(now));
            }
            FrameKind::Rnr { nr, pf } => {
                self.peer_busy = true;
                self.ack_through(now, nr, &mut ev);
                if frame.command && pf {
                    ev.push(self.send_s(FrameKind::Rr {
                        nr: self.vr,
                        pf: true,
                    }));
                }
            }
            FrameKind::Rej { nr, pf } => {
                self.peer_busy = false;
                self.ack_through(now, nr, &mut ev);
                if frame.command && pf {
                    ev.push(self.send_s(FrameKind::Rr {
                        nr: self.vr,
                        pf: true,
                    }));
                }
                self.retransmit_unacked(now, &mut ev);
            }
            FrameKind::Sabm { .. } => {
                // Link reset by peer.
                self.reset_vars();
                ev.push(self.send_u(FrameKind::Ua { fin: true }, false));
                self.start_t3(now);
            }
            FrameKind::Disc { .. } => {
                ev.push(self.send_u(FrameKind::Ua { fin: true }, false));
                self.teardown();
                ev.push(ConnEvent::Released(ReleaseReason::Normal));
            }
            FrameKind::Dm { .. } => {
                self.teardown();
                ev.push(ConnEvent::Released(ReleaseReason::Refused));
            }
            FrameKind::Ua { .. } | FrameKind::Frmr { .. } | FrameKind::Ui { .. } => {}
        }
        ev
    }

    fn frame_disconnecting(&mut self, frame: &Frame) -> Vec<ConnEvent> {
        match frame.kind {
            FrameKind::Ua { .. } | FrameKind::Dm { .. } => {
                self.teardown();
                vec![ConnEvent::Released(ReleaseReason::Normal)]
            }
            FrameKind::Disc { .. } => {
                vec![self.send_u(FrameKind::Ua { fin: true }, false)]
            }
            _ => Vec::new(),
        }
    }

    // --- Timers ---------------------------------------------------------

    /// Fires any timer whose deadline has passed.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<ConnEvent> {
        let mut ev = Vec::new();
        if self.t1.is_some_and(|t| t <= now) {
            self.t1 = None;
            self.t1_expired(now, &mut ev);
        }
        if self.t3.is_some_and(|t| t <= now) {
            self.t3 = None;
            self.t3_expired(now, &mut ev);
        }
        ev
    }

    fn t1_expired(&mut self, now: SimTime, ev: &mut Vec<ConnEvent>) {
        self.retries += 1;
        if self.retries > N2 {
            match self.state {
                ConnState::Connected | ConnState::Connecting | ConnState::Disconnecting => {
                    ev.push(self.send_u(FrameKind::Dm { fin: true }, false));
                    self.teardown();
                    ev.push(ConnEvent::Released(ReleaseReason::Timeout));
                }
                ConnState::Disconnected => {}
            }
            return;
        }
        match self.state {
            ConnState::Connecting => {
                ev.push(self.send_u(FrameKind::Sabm { poll: true }, true));
                self.start_t1(now);
            }
            ConnState::Disconnecting => {
                ev.push(self.send_u(FrameKind::Disc { poll: true }, true));
                self.start_t1(now);
            }
            ConnState::Connected => {
                if self.unacked.is_empty() {
                    // Poll the peer's state.
                    ev.push(self.send_s_cmd(FrameKind::Rr {
                        nr: self.vr,
                        pf: true,
                    }));
                } else {
                    self.retransmit_unacked(now, ev);
                }
                self.start_t1(now);
            }
            ConnState::Disconnected => {}
        }
    }

    fn t3_expired(&mut self, now: SimTime, ev: &mut Vec<ConnEvent>) {
        if self.state == ConnState::Connected && self.t1.is_none() {
            // Idle link: enquire.
            ev.push(self.send_s_cmd(FrameKind::Rr {
                nr: self.vr,
                pf: true,
            }));
            self.start_t1(now);
        }
    }

    // --- Internals -------------------------------------------------------

    fn reset_vars(&mut self) {
        self.vs = 0;
        self.va = 0;
        self.vr = 0;
        self.unacked.clear();
        self.retries = 0;
        self.rej_outstanding = false;
        self.peer_busy = false;
    }

    fn teardown(&mut self) {
        self.state = ConnState::Disconnected;
        self.t1 = None;
        self.t3 = None;
        self.send_queue.clear();
        self.unacked.clear();
    }

    fn start_t1(&mut self, now: SimTime) {
        self.t1 = Some(now + T1);
    }

    fn stop_t1(&mut self) {
        self.t1 = None;
    }

    fn start_t3(&mut self, now: SimTime) {
        self.t3 = Some(now + T3);
    }

    /// Window of outstanding frames, in modulo-8 arithmetic.
    fn in_flight(&self) -> u8 {
        (self.vs + 8 - self.va) % 8
    }

    /// Transmits queued data while the window is open.
    fn pump(&mut self, now: SimTime) -> Vec<ConnEvent> {
        let mut ev = Vec::new();
        while !self.peer_busy && self.in_flight() < WINDOW {
            let Some(data) = self.send_queue.pop_front() else {
                break;
            };
            let ns = self.vs;
            self.vs = (self.vs + 1) % 8;
            self.unacked.push_back((ns, data.clone()));
            ev.push(ConnEvent::SendFrame(self.i_frame(ns, data)));
            if self.t1.is_none() {
                self.start_t1(now);
            }
        }
        ev
    }

    fn ack_through(&mut self, now: SimTime, nr: u8, ev: &mut Vec<ConnEvent>) {
        // Validate that nr acknowledges something within va..=vs.
        let span = (self.vs + 8 - self.va) % 8;
        let offset = (nr + 8 - self.va) % 8;
        if offset > span {
            return; // Out-of-window N(R); ignore.
        }
        let mut progressed = false;
        while self.va != nr {
            let popped = self.unacked.pop_front();
            debug_assert!(popped.is_some(), "unacked queue out of sync");
            self.va = (self.va + 1) % 8;
            progressed = true;
        }
        if progressed {
            self.retries = 0;
        }
        if self.unacked.is_empty() {
            self.stop_t1();
            if !self.send_queue.is_empty() {
                // pump() restarts T1 for the new frames.
            }
        } else if progressed {
            self.start_t1(now);
        }
        let _ = ev;
    }

    fn retransmit_unacked(&mut self, now: SimTime, ev: &mut Vec<ConnEvent>) {
        let frames: Vec<Frame> = self
            .unacked
            .iter()
            .map(|(ns, data)| self.i_frame(*ns, data.clone()))
            .collect();
        for f in frames {
            ev.push(ConnEvent::SendFrame(f));
        }
        if !self.unacked.is_empty() {
            self.start_t1(now);
        }
    }

    fn i_frame(&self, ns: u8, data: Vec<u8>) -> Frame {
        let mut f = Frame {
            dest: self.peer,
            source: self.me,
            digipeaters: Vec::new(),
            command: true,
            kind: FrameKind::I {
                ns,
                nr: self.vr,
                poll: false,
            },
            pid: Some(Pid::Text),
            info: data,
        };
        f = f.via(&self.path);
        f
    }

    fn send_u(&self, kind: FrameKind, command: bool) -> ConnEvent {
        let f = Frame::control(self.peer, self.me, command, kind).via(&self.path);
        ConnEvent::SendFrame(f)
    }

    fn send_s(&self, kind: FrameKind) -> ConnEvent {
        let f = Frame::control(self.peer, self.me, false, kind).via(&self.path);
        ConnEvent::SendFrame(f)
    }

    fn send_s_cmd(&self, kind: FrameKind) -> ConnEvent {
        let f = Frame::control(self.peer, self.me, true, kind).via(&self.path);
        ConnEvent::SendFrame(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    /// Delivers every SendFrame from `from` into `to`, returning non-frame
    /// events from both sides (from's leftovers first).
    fn exchange(
        now: SimTime,
        from_events: Vec<ConnEvent>,
        to: &mut Connection,
    ) -> (Vec<ConnEvent>, Vec<ConnEvent>) {
        let mut local = Vec::new();
        let mut remote = Vec::new();
        let mut queue: VecDeque<ConnEvent> = from_events.into();
        while let Some(ev) = queue.pop_front() {
            match ev {
                ConnEvent::SendFrame(f) => {
                    remote.extend(to.on_frame(now, &f));
                }
                other => local.push(other),
            }
        }
        (local, remote)
    }

    /// Runs frames back and forth until neither side emits more frames.
    fn settle(
        now: SimTime,
        a_ev: Vec<ConnEvent>,
        alice: &mut Connection,
        bob: &mut Connection,
    ) -> (Vec<ConnEvent>, Vec<ConnEvent>) {
        let mut a_out = Vec::new();
        let mut b_out = Vec::new();
        let mut to_bob = a_ev;
        loop {
            let (a_local, b_resp) = exchange(now, to_bob, bob);
            a_out.extend(a_local);
            let (b_local, a_resp) = exchange(now, b_resp, alice);
            b_out.extend(b_local);
            if a_resp.iter().all(|e| !matches!(e, ConnEvent::SendFrame(_))) {
                a_out.extend(a_resp);
                break;
            }
            to_bob = a_resp;
        }
        (a_out, b_out)
    }

    fn connected_pair() -> (Connection, Connection) {
        let mut alice = Connection::new(a("ALICE"), a("BOB"));
        let mut bob = Connection::new(a("BOB"), a("ALICE"));
        let ev = alice.connect(SimTime::ZERO);
        let (a_ev, b_ev) = settle(SimTime::ZERO, ev, &mut alice, &mut bob);
        assert!(a_ev.contains(&ConnEvent::Established));
        assert!(b_ev.contains(&ConnEvent::Established));
        assert_eq!(alice.state(), ConnState::Connected);
        assert_eq!(bob.state(), ConnState::Connected);
        (alice, bob)
    }

    #[test]
    fn sabm_ua_establishes_both_sides() {
        let _ = connected_pair();
    }

    #[test]
    fn data_flows_in_order() {
        let (mut alice, mut bob) = connected_pair();
        let ev = alice.send(SimTime::ZERO, b"hello world");
        let (_, b_ev) = settle(SimTime::ZERO, ev, &mut alice, &mut bob);
        let data: Vec<u8> = b_ev
            .iter()
            .filter_map(|e| match e {
                ConnEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(data, b"hello world");
        assert_eq!(alice.backlog(), 0, "all data acknowledged");
    }

    #[test]
    fn data_larger_than_window_is_segmented_and_delivered() {
        let (mut alice, mut bob) = connected_pair();
        // 10 segments of 128 with window 4 -> several pump rounds.
        let big: Vec<u8> = (0..1280).map(|i| (i % 251) as u8).collect();
        let ev = alice.send(SimTime::ZERO, &big);
        assert!(ev.len() <= 4, "initial burst respects the window");
        let (_, b_ev) = settle(SimTime::ZERO, ev, &mut alice, &mut bob);
        let data: Vec<u8> = b_ev
            .iter()
            .filter_map(|e| match e {
                ConnEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(data, big);
    }

    #[test]
    fn disconnect_releases_cleanly() {
        let (mut alice, mut bob) = connected_pair();
        let ev = alice.disconnect(SimTime::ZERO);
        let (a_ev, b_ev) = settle(SimTime::ZERO, ev, &mut alice, &mut bob);
        assert!(a_ev.contains(&ConnEvent::Released(ReleaseReason::Normal)));
        assert!(b_ev.contains(&ConnEvent::Released(ReleaseReason::Normal)));
        assert_eq!(alice.state(), ConnState::Disconnected);
        assert_eq!(bob.state(), ConnState::Disconnected);
    }

    #[test]
    fn dm_refuses_connection() {
        let mut alice = Connection::new(a("ALICE"), a("BOB"));
        let ev = alice.connect(SimTime::ZERO);
        let ConnEvent::SendFrame(_sabm) = &ev[0] else {
            panic!("expected SABM")
        };
        let dm = Frame::control(a("ALICE"), a("BOB"), false, FrameKind::Dm { fin: true });
        let ev = alice.on_frame(SimTime::ZERO, &dm);
        assert!(ev.contains(&ConnEvent::Released(ReleaseReason::Refused)));
        assert_eq!(alice.state(), ConnState::Disconnected);
    }

    #[test]
    fn i_frame_when_disconnected_draws_dm() {
        let mut bob = Connection::new(a("BOB"), a("ALICE"));
        let mut i = Frame::ui(a("BOB"), a("ALICE"), Pid::Text, b"x".to_vec());
        i.kind = FrameKind::I {
            ns: 0,
            nr: 0,
            poll: false,
        };
        let ev = bob.on_frame(SimTime::ZERO, &i);
        assert!(matches!(
            &ev[0],
            ConnEvent::SendFrame(f) if matches!(f.kind, FrameKind::Dm { .. })
        ));
    }

    #[test]
    fn t1_retransmits_sabm_until_n2_then_gives_up() {
        let mut alice = Connection::new(a("ALICE"), a("BOB"));
        let mut now = SimTime::ZERO;
        let _ = alice.connect(now);
        let mut sabms = 0;
        let mut released = false;
        for _ in 0..2 * N2 {
            let Some(deadline) = alice.next_deadline() else {
                break;
            };
            now = deadline;
            for ev in alice.on_timer(now) {
                match ev {
                    ConnEvent::SendFrame(f) if matches!(f.kind, FrameKind::Sabm { .. }) => {
                        sabms += 1;
                    }
                    ConnEvent::Released(ReleaseReason::Timeout) => released = true,
                    _ => {}
                }
            }
        }
        assert_eq!(sabms, N2, "n2 retries");
        assert!(released);
        assert_eq!(alice.state(), ConnState::Disconnected);
    }

    #[test]
    fn lost_i_frame_is_recovered_by_t1_retransmission() {
        let (mut alice, mut bob) = connected_pair();
        // Send one frame and "lose" it (never deliver to bob).
        let ev = alice.send(SimTime::ZERO, b"lost");
        assert_eq!(ev.len(), 1);
        // T1 fires; alice retransmits; deliver this time.
        let t1 = alice.next_deadline().expect("t1 running");
        let retrans = alice.on_timer(t1);
        let frames: Vec<_> = retrans
            .iter()
            .filter(|e| matches!(e, ConnEvent::SendFrame(_)))
            .collect();
        assert_eq!(frames.len(), 1);
        let (_, b_ev) = settle(t1, retrans, &mut alice, &mut bob);
        assert!(b_ev
            .iter()
            .any(|e| matches!(e, ConnEvent::Data(d) if d == b"lost")));
        assert_eq!(alice.backlog(), 0);
    }

    #[test]
    fn out_of_order_i_frame_draws_rej_and_recovers() {
        let (mut alice, mut bob) = connected_pair();
        let ev = alice.send(SimTime::ZERO, &[b'a'; 200]); // two segments: 128 + 72
        let frames: Vec<Frame> = ev
            .into_iter()
            .filter_map(|e| match e {
                ConnEvent::SendFrame(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 2);
        // Deliver only the second (ns=1): bob must REJ with nr=0.
        let b_ev = bob.on_frame(SimTime::ZERO, &frames[1]);
        let rej = b_ev
            .iter()
            .find_map(|e| match e {
                ConnEvent::SendFrame(f) => match f.kind {
                    FrameKind::Rej { nr, .. } => Some(nr),
                    _ => None,
                },
                _ => None,
            })
            .expect("REJ expected");
        assert_eq!(rej, 0);
        // Feed the REJ to alice; she retransmits both; settle delivers all.
        let a_ev = alice.on_frame(
            SimTime::ZERO,
            &Frame::control(
                a("ALICE"),
                a("BOB"),
                false,
                FrameKind::Rej { nr: 0, pf: false },
            ),
        );
        let (_, b_ev) = settle(SimTime::ZERO, a_ev, &mut alice, &mut bob);
        let data: Vec<u8> = b_ev
            .iter()
            .filter_map(|e| match e {
                ConnEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(data, vec![b'a'; 200]);
    }

    #[test]
    fn rnr_pauses_transmission_until_rr() {
        let (mut alice, mut bob) = connected_pair();
        let rnr = Frame::control(
            a("ALICE"),
            a("BOB"),
            false,
            FrameKind::Rnr { nr: 0, pf: false },
        );
        alice.on_frame(SimTime::ZERO, &rnr);
        let ev = alice.send(SimTime::ZERO, b"held");
        assert!(
            ev.iter().all(|e| !matches!(e, ConnEvent::SendFrame(_))),
            "peer busy: nothing transmitted"
        );
        let rr = Frame::control(
            a("ALICE"),
            a("BOB"),
            false,
            FrameKind::Rr { nr: 0, pf: false },
        );
        let ev = alice.on_frame(SimTime::ZERO, &rr);
        let (_, b_ev) = settle(SimTime::ZERO, ev, &mut alice, &mut bob);
        assert!(b_ev
            .iter()
            .any(|e| matches!(e, ConnEvent::Data(d) if d == b"held")));
    }

    #[test]
    fn t3_idle_poll_is_answered() {
        let (mut alice, mut bob) = connected_pair();
        let t3 = alice.next_deadline().expect("t3 running");
        let ev = alice.on_timer(t3);
        // Idle poll: RR command with P.
        let poll = ev
            .iter()
            .find_map(|e| match e {
                ConnEvent::SendFrame(f) => Some(f.clone()),
                _ => None,
            })
            .expect("poll frame");
        assert!(poll.command);
        let b_ev = bob.on_frame(t3, &poll);
        let reply = b_ev
            .iter()
            .find_map(|e| match e {
                ConnEvent::SendFrame(f) => Some(f.clone()),
                _ => None,
            })
            .expect("final RR");
        assert!(matches!(reply.kind, FrameKind::Rr { pf: true, .. }));
        // Alice clears T1 on the ack.
        alice.on_frame(t3, &reply);
        assert_eq!(alice.state(), ConnState::Connected);
    }

    #[test]
    fn duplicate_i_frame_is_not_delivered_twice() {
        let (mut alice, mut bob) = connected_pair();
        let ev = alice.send(SimTime::ZERO, b"once");
        let frame = ev
            .iter()
            .find_map(|e| match e {
                ConnEvent::SendFrame(f) => Some(f.clone()),
                _ => None,
            })
            .unwrap();
        let b1 = bob.on_frame(SimTime::ZERO, &frame);
        assert!(b1.iter().any(|e| matches!(e, ConnEvent::Data(_))));
        let b2 = bob.on_frame(SimTime::ZERO, &frame);
        assert!(
            b2.iter().all(|e| !matches!(e, ConnEvent::Data(_))),
            "duplicate must not deliver again"
        );
    }

    #[test]
    fn window_never_exceeds_k() {
        let mut alice = Connection::new(a("ALICE"), a("BOB"));
        let mut bob = Connection::new(a("BOB"), a("ALICE"));
        let ev = alice.connect(SimTime::ZERO);
        settle(SimTime::ZERO, ev, &mut alice, &mut bob);
        let ev = alice.send(SimTime::ZERO, &[0u8; 128 * 6]);
        let sent = ev
            .iter()
            .filter(|e| matches!(e, ConnEvent::SendFrame(_)))
            .count();
        assert_eq!(sent, usize::from(WINDOW));
    }

    #[test]
    fn passive_side_answers_disc_when_disconnected() {
        let mut bob = Connection::new(a("BOB"), a("ALICE"));
        let disc = Frame::control(a("BOB"), a("ALICE"), true, FrameKind::Disc { poll: true });
        let ev = bob.on_frame(SimTime::ZERO, &disc);
        assert!(matches!(
            &ev[0],
            ConnEvent::SendFrame(f) if matches!(f.kind, FrameKind::Dm { .. })
        ));
    }
}
