//! A TCP echo server: everything received goes straight back.
//!
//! Two implementations live here on purpose, both on the stack's
//! `sock_*` verbs (DESIGN.md §10). [`EchoServer`] is the production app, a
//! [`SocketProgram`] the readiness runtime drives. [`EventEchoServer`]
//! reacts to the stack's events one by one instead — the event-driven
//! reference for the differential test (`tests/socket_differential.rs`)
//! that proves the readiness runtime produces byte-identical wire
//! traffic.

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

/// The same server written against the stack's events instead of the
/// readiness runtime: it reacts to each [`StackAction`] as it is
/// dispatched and calls the `sock_*` verbs itself. Kept as the
/// executable reference the readiness runtime is checked against.
pub struct EventEchoServer {
    port: u16,
    socks: HashSet<SockId>,
    report: EchoReport,
    buf: Vec<u8>,
}

impl EventEchoServer {
    /// Creates a server for `port`.
    pub fn new(port: u16) -> EventEchoServer {
        EventEchoServer {
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

impl App for EventEchoServer {
    fn on_start(&mut self, _now: SimTime, host: &mut Host) {
        host.stack
            .sock_listen(self.port, None)
            .expect("echo port available");
    }

    fn on_event(&mut self, now: SimTime, event: &StackAction, host: &mut Host) {
        match event {
            StackAction::TcpAccepted { listener, sock } => {
                let _ = host.stack.sock_accept(SocketHandle::Listener(*listener));
                self.socks.insert(*sock);
                self.report.accepted += 1;
            }
            StackAction::TcpReadable(sock) if self.socks.contains(sock) => {
                let (h, buf) = (SocketHandle::Stream(*sock), &mut self.buf);
                buf.clear();
                if let Ok(n @ 1..) = host.stack_op(now, |st| st.sock_recv(now, h, buf)) {
                    self.report.bytes_echoed += n as u64;
                    let _ = host.stack_op(now, |st| st.sock_send(now, h, buf));
                }
            }
            StackAction::TcpPeerClosed(sock) if self.socks.contains(sock) => {
                let h = SocketHandle::Stream(*sock);
                let _ = host.stack_op(now, |st| st.sock_shutdown(now, h));
            }
            StackAction::TcpClosed { sock, .. } => {
                self.socks.remove(sock);
            }
            _ => {}
        }
    }
}
