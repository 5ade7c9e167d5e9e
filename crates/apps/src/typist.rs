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
//! instant the raw API reported `TcpClosed`, so session timings match
//! the pre-socket reports exactly).

use std::net::Ipv4Addr;

use sim::{SimDuration, SimTime};
use socket::{Readiness, SocketHandle};

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
    report: crate::Shared<TypistReport>,
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
            report: crate::shared(TypistReport::default()),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<TypistReport> {
        self.program.report.clone()
    }
}

impl TypistProgram {
    fn strike(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        let Some(sock) = self.sock else { return };
        let r = self.report.borrow().sent;
        if r >= self.count {
            return;
        }
        let key = [b'a' + (r % 26) as u8];
        let _ = cx.host.sock_send(now, sock, &key);
        self.report.borrow_mut().sent += 1;
        self.sent_at = Some(now);
        self.awaiting = 1;
    }

    fn finish(&mut self, now: SimTime, h: SocketHandle, cx: &mut SockCtx<'_>) {
        {
            let mut r = self.report.borrow_mut();
            r.finished_at = Some(now);
            r.done = r.echoed == self.count;
        }
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
            self.report.borrow_mut().started_at = Some(now);
            self.strike(now, cx);
            return;
        }
        if ready.readable() {
            let data = cx.host.sock_recv(now, h).unwrap_or_default();
            if !data.is_empty() && self.awaiting > 0 {
                // Stop-and-wait: one outstanding key, so any readable
                // data completes it.
                self.awaiting = 0;
                {
                    let mut r = self.report.borrow_mut();
                    r.echoed += 1;
                    if let Some(t0) = self.sent_at.take() {
                        let rtt = now - t0;
                        r.rtt_total += rtt;
                        if rtt > r.rtt_max {
                            r.rtt_max = rtt;
                        }
                    }
                }
                if self.report.borrow().sent >= self.count {
                    // Last echo in hand: half-close, let the server's FIN
                    // and TIME_WAIT run out, and finish on the HANGUP
                    // edge below.
                    let _ = cx.host.sock_shutdown(now, h);
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
