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
use netstack::stack::{SockId, StackAction};
use sim::SimTime;
use socket::{Readiness, SocketHandle};

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
    report: crate::Shared<EchoReport>,
}

impl EchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> EchoServer {
        SockApp::from(EchoProgram {
            port,
            listener: None,
            report: crate::shared(EchoReport::default()),
        })
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<EchoReport> {
        self.program.report.clone()
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
                self.report.borrow_mut().accepted += 1;
            }
            return;
        }
        if ready.readable() {
            match cx.host.sock_recv(now, h) {
                Ok(data) if !data.is_empty() => {
                    self.report.borrow_mut().bytes_echoed += data.len() as u64;
                    let _ = cx.host.sock_send(now, h, &data);
                }
                _ => {}
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
    report: crate::Shared<EchoReport>,
}

impl RawEchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> RawEchoServer {
        RawEchoServer {
            port,
            socks: HashSet::new(),
            report: crate::shared(EchoReport::default()),
        }
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<EchoReport> {
        self.report.clone()
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
                self.report.borrow_mut().accepted += 1;
            }
            StackAction::TcpReadable(sock) if self.socks.contains(sock) => {
                let data = host.tcp_recv(now, *sock);
                if !data.is_empty() {
                    self.report.borrow_mut().bytes_echoed += data.len() as u64;
                    host.tcp_send(now, *sock, &data);
                }
            }
            StackAction::TcpPeerClosed(sock) if self.socks.contains(sock) => {
                host.tcp_close(now, *sock);
            }
            StackAction::TcpClosed { sock, .. } => {
                self.socks.remove(sock);
            }
            _ => {}
        }
    }
}
