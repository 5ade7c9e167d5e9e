//! A keystroke-at-a-time interactive client: the E13 workload.
//!
//! Models a human at a remote-echo terminal — the traffic RFC 1144 was
//! invented for: one character per segment, stop-and-wait (the next key
//! is not struck until the previous one echoes back), every echo's
//! round-trip time recorded. Pointed at an [`crate::echo::EchoServer`],
//! each keystroke costs two TCP data segments plus an ack on the radio
//! link, so header bytes dominate the airtime — exactly the regime where
//! VJ compression pays.
//!
//! Ported to the socket layer (DESIGN.md §10): the typist is a
//! [`SocketProgram`] — connect, strike on the first WRITABLE edge, strike
//! again on each READABLE echo, shutdown after the last echo, finish on
//! the HANGUP edge when the connection is fully torn down (the same
//! instant the stack reports `TcpClosed`, so session timings match an
//! event-driven client's exactly).

use std::net::Ipv4Addr;

use netstack::socket::{Readiness, SocketHandle};
use sim::{SimDuration, SimTime};

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// Results of a typing session.
#[derive(Debug, Default)]
pub struct TypistReport {
    /// Keystrokes sent.
    pub sent: usize,
    /// Keystrokes whose echo came back.
    pub echoed: usize,
    /// When the connection opened.
    pub started_at: Option<SimTime>,
    /// When the session closed.
    pub finished_at: Option<SimTime>,
    /// Sum of per-keystroke round-trip times.
    pub rtt_total: SimDuration,
    /// Slowest single echo.
    pub rtt_max: SimDuration,
    /// All keystrokes echoed and the connection closed cleanly.
    pub done: bool,
}

impl TypistReport {
    /// Mean keystroke round-trip time, if any echoes arrived.
    pub fn mean_rtt(&self) -> Option<SimDuration> {
        (self.echoed > 0)
            .then(|| SimDuration::from_secs_f64(self.rtt_total.as_secs_f64() / self.echoed as f64))
    }

    /// Wall-clock session length (connect to close).
    pub fn session(&self) -> Option<SimDuration> {
        Some(self.finished_at? - self.started_at?)
    }

    /// Keystrokes echoed per second of session time.
    pub fn chars_per_sec(&self) -> f64 {
        match self.session() {
            Some(d) if d.as_secs_f64() > 0.0 => self.echoed as f64 / d.as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// A stop-and-wait keystroke client (socket-layer implementation).
pub type Typist = SockApp<TypistProgram>;

/// The socket program behind [`Typist`].
pub struct TypistProgram {
    dst: Ipv4Addr,
    port: u16,
    count: usize,
    sock: Option<SocketHandle>,
    started: bool,
    sent_at: Option<SimTime>,
    awaiting: usize,
    report: TypistReport,
    /// The echoes a read brings in; kept between reads.
    rx: Vec<u8>,
}

impl Typist {
    /// A typist who will strike `count` keys against `dst:port`.
    pub fn new(dst: Ipv4Addr, port: u16, count: usize) -> Typist {
        SockApp::from(TypistProgram {
            dst,
            port,
            count,
            sock: None,
            started: false,
            sent_at: None,
            awaiting: 0,
            report: TypistReport::default(),
            rx: Vec::new(),
        })
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &TypistReport {
        &self.program.report
    }
}

impl TypistProgram {
    fn strike(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        let Some(sock) = self.sock else { return };
        let sent = self.report.sent;
        if sent >= self.count {
            return;
        }
        let key = [b'a' + (sent % 26) as u8];
        let _ = cx.host.stack_op(now, |st| st.sock_send(now, sock, &key));
        self.report.sent += 1;
        self.sent_at = Some(now);
        self.awaiting = 1;
    }

    fn finish(&mut self, now: SimTime, h: SocketHandle, cx: &mut SockCtx<'_>) {
        self.report.finished_at = Some(now);
        self.report.done = self.report.echoed == self.count;
        cx.close(now, h);
        self.sock = None;
    }
}

impl SocketProgram for TypistProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.sock = cx.connect(now, self.dst, self.port).ok();
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock {
            return;
        }
        if ready.error() {
            self.finish(now, h, cx);
            return;
        }
        if !self.started && ready.writable() {
            self.started = true;
            self.report.started_at = Some(now);
            self.strike(now, cx);
            return;
        }
        if ready.readable() {
            let rx = &mut self.rx;
            rx.clear();
            let got = cx.host.stack_op(now, |st| st.sock_recv(now, h, rx));
            if got.is_ok_and(|n| n > 0) && self.awaiting > 0 {
                // Stop-and-wait: one outstanding key, so any readable
                // data completes it.
                self.awaiting = 0;
                let r = &mut self.report;
                r.echoed += 1;
                if let Some(t0) = self.sent_at.take() {
                    let rtt = now - t0;
                    r.rtt_total += rtt;
                    if rtt > r.rtt_max {
                        r.rtt_max = rtt;
                    }
                }
                if self.report.sent >= self.count {
                    // Last echo in hand: half-close, let the server's FIN
                    // and TIME_WAIT run out, and finish on the HANGUP
                    // edge below.
                    let _ = cx.host.stack_op(now, |st| st.sock_shutdown(now, h));
                } else {
                    self.strike(now, cx);
                }
            }
            return;
        }
        if ready.hangup() {
            self.finish(now, h, cx);
        }
    }
}
