//! Bulk TCP transfer: a sender and a sink, with the retransmission
//! accounting experiment E3 lives on. Both are [`SocketProgram`]s
//! (DESIGN.md §10); the sender pumps from `on_tick` and its connect, like
//! every active open, gives up after [`netstack::stack::CONNECT_TIMEOUT`].

use std::net::Ipv4Addr;

use netstack::socket::{Readiness, SocketHandle};
use netstack::tcp::{TcbStats, TcpConfig, TcpState};
use sim::{SimDuration, SimTime};

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// Results of one bulk send.
#[derive(Debug, Default)]
pub struct BulkSendReport {
    /// When the connect was issued.
    pub started_at: Option<SimTime>,
    /// When every byte (and the FIN) was acknowledged.
    pub finished_at: Option<SimTime>,
    /// Octets requested.
    pub bytes: usize,
    /// Final TCB statistics (segments, retransmissions, RTO…).
    pub tcb: TcbStats,
    /// True if the connection was reset rather than closed.
    pub reset: bool,
}

impl BulkSendReport {
    /// Transfer duration, if it completed.
    pub fn duration(&self) -> Option<SimDuration> {
        Some(self.finished_at?.saturating_since(self.started_at?))
    }

    /// Goodput in bits per second, if it completed.
    pub fn goodput_bps(&self) -> Option<f64> {
        let d = self.duration()?.as_secs_f64();
        (d > 0.0).then(|| self.bytes as f64 * 8.0 / d)
    }
}

/// Byte `i` of every bulk transfer.
fn pattern(i: usize) -> u8 {
    (i % 251) as u8
}

/// Largest write the sender makes at once.
const CHUNK: usize = 2048;

/// A one-shot bulk sender.
pub type BulkSender = SockApp<BulkSenderProgram>;

/// The socket program behind [`BulkSender`].
pub struct BulkSenderProgram {
    dst: Ipv4Addr,
    port: u16,
    total: usize,
    tcp_cfg: Option<TcpConfig>,
    start_delay: SimDuration,
    start_at: Option<SimTime>,
    sock: Option<SocketHandle>,
    connected: bool,
    sent: usize,
    closed: bool,
    /// The pattern bytes of the write in progress.
    chunk: Vec<u8>,
    report: crate::Shared<BulkSendReport>,
}

impl BulkSender {
    /// Sends `total` octets to `dst:port` once started.
    pub fn new(dst: Ipv4Addr, port: u16, total: usize) -> BulkSender {
        SockApp::from(BulkSenderProgram {
            dst,
            port,
            total,
            tcp_cfg: None,
            start_delay: SimDuration::ZERO,
            start_at: None,
            sock: None,
            connected: false,
            sent: 0,
            closed: false,
            chunk: Vec::with_capacity(CHUNK),
            report: crate::shared(BulkSendReport::default()),
        })
    }

    /// Uses a specific TCP configuration (fixed vs adaptive RTO).
    pub fn with_tcp(mut self, cfg: TcpConfig) -> BulkSender {
        self.program.tcp_cfg = Some(cfg);
        self
    }

    /// Delays the connect after world start.
    pub fn with_start_delay(mut self, d: SimDuration) -> BulkSender {
        self.program.start_delay = d;
        self
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<BulkSendReport> {
        self.program.report.clone()
    }
}

impl BulkSenderProgram {
    fn push_data(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        let Some(h) = self.sock else {
            return;
        };
        let Some(info) = cx.host.stack.sock_tcp_info(h) else {
            return;
        };
        // Keep the report's TCB statistics live (diagnostics read them
        // mid-transfer; the values are final once finished_at is set).
        self.report.borrow_mut().tcb = info.stats;
        if !self.connected {
            return;
        }
        while self.sent < self.total {
            let cap = cx.host.stack.sock_send_capacity(h);
            if cap == 0 {
                break;
            }
            let n = cap.min(self.total - self.sent).min(CHUNK);
            self.chunk.clear();
            self.chunk.extend((self.sent..self.sent + n).map(pattern));
            let accepted = cx
                .host
                .stack_op(now, |st| st.sock_send(now, h, &self.chunk))
                .unwrap_or(0);
            self.sent += accepted;
            if accepted == 0 {
                break;
            }
        }
        if self.sent >= self.total && !self.closed {
            self.closed = true;
            let _ = cx.host.stack_op(now, |st| st.sock_shutdown(now, h));
        }
        // Completion: everything (data + FIN) acknowledged.
        if self.closed && self.report.borrow().finished_at.is_none() {
            let Some(info) = cx.host.stack.sock_tcp_info(h) else {
                return;
            };
            if info.unacked == 0
                && matches!(
                    info.state,
                    TcpState::FinWait2 | TcpState::TimeWait | TcpState::Closed
                )
            {
                let mut r = self.report.borrow_mut();
                r.finished_at = Some(now);
                r.tcb = info.stats;
            }
        }
    }
}

impl SocketProgram for BulkSenderProgram {
    fn on_start(&mut self, now: SimTime, _cx: &mut SockCtx<'_>) {
        self.start_at = Some(now + self.start_delay);
    }

    fn on_tick(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        if self.start_at.is_some_and(|at| at <= now) {
            self.start_at = None;
            let mut r = self.report.borrow_mut();
            r.started_at = Some(now);
            r.bytes = self.total;
            drop(r);
            let opened = match self.tcp_cfg {
                Some(cfg) => cx.host.stack_op(now, |st| {
                    st.sock_connect_with(now, self.dst, self.port, cfg)
                }),
                None => cx
                    .host
                    .stack_op(now, |st| st.sock_connect(now, self.dst, self.port)),
            };
            if let Ok(h) = opened {
                cx.watch(h);
                self.sock = Some(h);
            }
        }
        self.push_data(now, cx);
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock {
            return;
        }
        if !self.connected && ready.writable() {
            self.connected = true;
            self.push_data(now, cx);
        }
        // The connection is gone: torn down after TIME_WAIT, reset,
        // refused or timed out.
        if ready.hangup() || ready.error() {
            let mut r = self.report.borrow_mut();
            r.reset = ready.error();
            if r.finished_at.is_none() && !r.reset {
                r.finished_at = Some(now);
            }
            if let Some(info) = cx.host.stack.sock_tcp_info(h) {
                r.tcb = info.stats;
            }
            drop(r);
            cx.close(now, h);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.start_at
    }
}

/// Results of a bulk sink.
#[derive(Debug, Default)]
pub struct BulkSinkReport {
    /// Octets received, verified against the sender's pattern.
    pub bytes: usize,
    /// True if any byte broke the pattern.
    pub corrupt: bool,
    /// When the peer's close completed.
    pub eof_at: Option<SimTime>,
}

/// A listener that drains and verifies one or more bulk transfers.
pub type BulkSink = SockApp<BulkSinkProgram>;

/// The socket program behind [`BulkSink`].
pub struct BulkSinkProgram {
    port: u16,
    listener: Option<SocketHandle>,
    /// Open transfers and the octets each has delivered so far.
    streams: Vec<(SocketHandle, usize)>,
    report: crate::Shared<BulkSinkReport>,
    /// What a read brings in, checked and dropped; kept between reads.
    rx: Vec<u8>,
}

impl BulkSink {
    /// Listens on `port`.
    pub fn new(port: u16) -> BulkSink {
        SockApp::from(BulkSinkProgram {
            port,
            listener: None,
            streams: Vec::with_capacity(1),
            report: crate::shared(BulkSinkReport::default()),
            rx: Vec::new(),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<BulkSinkReport> {
        self.program.report.clone()
    }
}

impl SocketProgram for BulkSinkProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.listener = Some(cx.listen(now, self.port, None).expect("sink port"));
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) == self.listener {
            while let Ok(stream) = cx.accept(now, h) {
                self.streams.push((stream, 0));
            }
            return;
        }
        let Some(i) = self.streams.iter().position(|&(s, _)| s == h) else {
            return;
        };
        if ready.readable() {
            let data = &mut self.rx;
            data.clear();
            let _ = cx.host.stack_op(now, |st| st.sock_recv(now, h, data));
            let offset = &mut self.streams[i].1;
            let mut r = self.report.borrow_mut();
            for &b in data.iter() {
                r.corrupt |= b != pattern(*offset);
                *offset += 1;
            }
            r.bytes += data.len();
        }
        if ready.eof() || ready.error() {
            if ready.eof() {
                self.report.borrow_mut().eof_at = Some(now);
            }
            self.streams.remove(i);
            cx.close(now, h);
        }
    }
}
