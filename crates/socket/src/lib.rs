//! A stateless `SocketTable` that forwards to [`NetStack`]'s own `sock_*`
//! verbs ([`netstack::socket`]). It exists only because the benchmark
//! harness names it, until the harness calls the stack directly (ROADMAP
//! item 2(a)); no workspace crate depends on this one.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

use netstack::socket::{Readiness, SockError, SocketHandle};
use netstack::NetStack;

/// Holds nothing: each method forwards to the stack it is given.
#[doc(hidden)] // serves benchmarks/src/probes.rs:22, :405 (ROADMAP 2(a))
#[derive(Debug, Default)]
pub struct SocketTable;

impl SocketTable {
    /// The empty stand-in.
    pub fn new() -> SocketTable {
        SocketTable
    }

    /// [`NetStack::sock_listen`].
    pub fn listen(
        &mut self,
        st: &mut NetStack,
        port: u16,
        backlog: Option<usize>,
    ) -> Result<SocketHandle, SockError> {
        st.sock_listen(port, backlog)
    }

    /// [`NetStack::sock_bind_udp`].
    pub fn bind_udp(&mut self, st: &mut NetStack, port: u16) -> Result<SocketHandle, SockError> {
        st.sock_bind_udp(port)
    }

    /// [`NetStack::sock_poll`].
    pub fn poll(&self, st: &NetStack, h: SocketHandle) -> Readiness {
        st.sock_poll(h)
    }
}
