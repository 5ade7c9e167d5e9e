//! A TCP echo server: everything received goes straight back.
//!
//! Two implementations live here on purpose. [`EchoServer`] is the
//! production app, a [`SocketProgram`] on the BSD-style socket layer (DESIGN.md §10).
//! [`RawEchoServer`] is the pre-socket original driving
//! `NetStack::tcp_*` directly — kept as the executable reference for the
//! differential test (`tests/socket_differential.rs`) that proves the
//! ported server produces byte-identical wire traffic.

use std::collections::HashSet;

use gateway::world::App;
use gateway::Host;
use netstack::socket::{Readiness, SocketHandle};
use netstack::stack::{SockId, StackAction};
use sim::SimTime;

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// Echo server counters.
#[derive(Debug, Default)]
pub struct EchoReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Octets echoed.
    pub bytes_echoed: u64,
}

/// A TCP echo server on one port (socket-layer implementation).
pub type EchoServer = SockApp<EchoProgram>;

/// The socket program behind [`EchoServer`].
pub struct EchoProgram {
    port: u16,
    listener: Option<SocketHandle>,
    report: EchoReport,
    /// What a read brings in, sent straight back; kept between reads.
    buf: Vec<u8>,
}

impl EchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> EchoServer {
        SockApp::from(EchoProgram {
            port,
            listener: None,
            report: EchoReport::default(),
            buf: Vec::new(),
        })
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &EchoReport {
        &self.program.report
    }
}

impl SocketProgram for EchoProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.listener = Some(
            cx.listen(now, self.port, None)
                .expect("echo port available"),
        );
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) == self.listener {
            while let Ok(_sess) = cx.accept(now, h) {
                self.report.accepted += 1;
            }
            return;
        }
        if ready.readable() {
            let buf = &mut self.buf;
            buf.clear();
            if let Ok(n @ 1..) = cx.host.stack_op(now, |st| st.sock_recv(now, h, buf)) {
                self.report.bytes_echoed += n as u64;
                let _ = cx.host.stack_op(now, |st| st.sock_send(now, h, buf));
            }
        }
        if ready.eof() || ready.error() {
            cx.close(now, h);
        }
    }
}

/// The pre-socket echo server, kept verbatim as the raw-API reference.
pub struct RawEchoServer {
    port: u16,
    socks: HashSet<SockId>,
    report: EchoReport,
    buf: Vec<u8>,
}

impl RawEchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> RawEchoServer {
        RawEchoServer {
            port,
            socks: HashSet::new(),
            report: EchoReport::default(),
            buf: Vec::new(),
        }
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &EchoReport {
        &self.report
    }
}

impl App for RawEchoServer {
    fn on_start(&mut self, _now: SimTime, host: &mut Host) {
        host.stack
            .tcp_listen(self.port, None)
            .expect("echo port available");
    }

    fn on_event(&mut self, now: SimTime, event: &StackAction, host: &mut Host) {
        match event {
            StackAction::TcpAccepted { listener, sock } => {
                host.stack.tcp_accept(*listener);
                self.socks.insert(*sock);
                self.report.accepted += 1;
            }
            StackAction::TcpReadable(sock) if self.socks.contains(sock) => {
                let buf = &mut self.buf;
                buf.clear();
                let n = host.stack_op(now, |st| st.tcp_recv(now, *sock, buf));
                if n > 0 {
                    self.report.bytes_echoed += n as u64;
                    host.stack_op(now, |st| st.tcp_send(now, *sock, buf));
                }
            }
            StackAction::TcpPeerClosed(sock) if self.socks.contains(sock) => {
                host.stack_op(now, |st| st.tcp_close(now, *sock));
            }
            StackAction::TcpClosed { sock, .. } => {
                self.socks.remove(sock);
            }
            _ => {}
        }
    }
}
