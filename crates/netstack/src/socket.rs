//! The BSD-flavored socket layer (DESIGN.md §10): §2.4's "normal Ultrix
//! networking facilities" as [`NetStack`]'s own `sock_*` verbs.
//!
//! A [`SocketHandle`] *is* the stack's id, and what a socket knows sits on
//! it beside its TCB, as in 4.3BSD: `so_q`, `so_error`, `SS_CANTSENDMORE`.
//! Ids are never reused, so a closed handle is its own tombstone (a
//! released stream record, or the stack's `None` entry): it polls
//! [`Readiness::ERROR`] and every verb on it is [`SockError::BadHandle`].
//! A call that cannot proceed returns [`SockError::WouldBlock`]; the
//! runtime re-delivers readiness level-triggered, as a blocked process
//! would see it.

use std::collections::VecDeque;
use std::fmt;
use std::net::Ipv4Addr;

use sim::SimTime;

use crate::ip::{Ipv4Packet, Proto};
use crate::stack::{
    clamped_mss, ConnError, IfaceConfig, IfaceId, Listener, ListenerId, NetStack, SockId,
    StackAction, TcpSock, UdpId, UdpSock, CONNECT_TIMEOUT,
};
use crate::tcp::{Tcb, TcbStats, TcpConfig, TcpState};
use crate::udp::{self, UdpDatagram};

/// Readiness bitmask returned by [`NetStack::sock_poll`].
///
/// Combines the classic `select(2)` read/write sets with the extra facts
/// (`EOF`, `ERROR`) BSD surfaces through `read() == 0` and `SO_ERROR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readiness(u8);

impl Readiness {
    /// Nothing to report.
    pub const EMPTY: Readiness = Readiness(0);
    /// Data (or a pending accept — see [`Readiness::ACCEPTABLE`]) can be
    /// read without blocking.
    pub const READABLE: Readiness = Readiness(1);
    /// The send buffer has room.
    pub const WRITABLE: Readiness = Readiness(2);
    /// A completed connection is waiting in the accept queue.
    pub const ACCEPTABLE: Readiness = Readiness(4);
    /// The peer closed its direction; reads drain then return empty.
    pub const EOF: Readiness = Readiness(8);
    /// An asynchronous error is pending (refused, reset, unreachable,
    /// timed out, or the handle is closed/invalid).
    pub const ERROR: Readiness = Readiness(16);
    /// The connection is fully torn down (`POLLHUP`): both directions
    /// closed and the TCB has left TIME_WAIT. Distinct from
    /// [`Readiness::EOF`], which reports only the peer's half-close.
    pub const HANGUP: Readiness = Readiness(32);

    /// Raw bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// True when no condition is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when every bit of `other` is set in `self`.
    pub fn contains(self, other: Readiness) -> bool {
        self.0 & other.0 == other.0
    }

    /// Convenience accessor for [`Readiness::READABLE`].
    pub fn readable(self) -> bool {
        self.contains(Readiness::READABLE)
    }

    /// Convenience accessor for [`Readiness::WRITABLE`].
    pub fn writable(self) -> bool {
        self.contains(Readiness::WRITABLE)
    }

    /// Convenience accessor for [`Readiness::EOF`].
    pub fn eof(self) -> bool {
        self.contains(Readiness::EOF)
    }

    /// Convenience accessor for [`Readiness::ERROR`].
    pub fn error(self) -> bool {
        self.contains(Readiness::ERROR)
    }

    /// Convenience accessor for [`Readiness::HANGUP`].
    pub fn hangup(self) -> bool {
        self.contains(Readiness::HANGUP)
    }
}

impl std::ops::BitOr for Readiness {
    type Output = Readiness;
    fn bitor(self, rhs: Readiness) -> Readiness {
        Readiness(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Readiness {
    fn bitor_assign(&mut self, rhs: Readiness) {
        self.0 |= rhs.0;
    }
}

/// Errors surfaced by socket calls, the `errno` set of this layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockError {
    /// The operation cannot complete now; wait for readiness
    /// (`EWOULDBLOCK`).
    WouldBlock,
    /// The handle is closed, stale, or of the wrong kind (`EBADF`).
    BadHandle,
    /// TCP operation on a handle whose handshake has not finished
    /// (`ENOTCONN`).
    NotConnected,
    /// The peer reset the connection (`ECONNRESET`).
    ConnectionReset,
    /// The peer refused the connection — RST during handshake
    /// (`ECONNREFUSED`).
    Refused,
    /// A gateway reported the destination unreachable (`EHOSTUNREACH`).
    Unreachable,
    /// The connect timer expired with no handshake (`ETIMEDOUT`).
    TimedOut,
    /// The local port is taken (`EADDRINUSE`).
    InUse,
    /// No route to the destination (`ENETUNREACH` at call time).
    NoRoute,
}

impl fmt::Display for SockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SockError::WouldBlock => "operation would block",
            SockError::BadHandle => "bad socket handle",
            SockError::NotConnected => "socket is not connected",
            SockError::ConnectionReset => "connection reset by peer",
            SockError::Refused => "connection refused",
            SockError::Unreachable => "destination unreachable",
            SockError::TimedOut => "connection timed out",
            SockError::InUse => "address in use",
            SockError::NoRoute => "no route to host",
        };
        f.write_str(s)
    }
}

impl From<ConnError> for SockError {
    fn from(e: ConnError) -> SockError {
        match e {
            ConnError::Refused => SockError::Refused,
            ConnError::Reset => SockError::ConnectionReset,
            ConnError::Unreachable => SockError::Unreachable,
            ConnError::TimedOut => SockError::TimedOut,
        }
    }
}

/// One handle for every socket kind: the stack's own id for the socket.
///
/// Stack ids are never reused, so a stale handle reports
/// [`Readiness::ERROR`] instead of aliasing a newer socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketHandle {
    /// A passive TCP socket.
    Listener(ListenerId),
    /// A TCP connection, actively opened or accepted.
    Stream(SockId),
    /// A UDP socket.
    Dgram(UdpId),
}

/// What [`NetStack::sock_tcp_info`] reports about one stream.
#[derive(Debug, Clone, Copy)]
pub struct TcpInfo {
    /// The TCB's connection state.
    pub state: TcpState,
    /// Octets queued or in flight that the peer has not acknowledged.
    pub unacked: usize,
    /// Segment, retransmission and RTT counters.
    pub stats: TcbStats,
}

impl TcpSock {
    /// The readiness of a stream the application still holds.
    fn readiness(&self) -> Readiness {
        let mut r = Readiness::EMPTY;
        if self.error.is_some() {
            r |= Readiness::ERROR;
        }
        if self.synchronized {
            if self.tcb.recv_available() > 0 {
                r |= Readiness::READABLE;
            }
            if !self.shut && self.tcb.send_capacity() > 0 {
                r |= Readiness::WRITABLE;
            }
            if self.tcb.at_eof() {
                r |= Readiness::EOF;
            }
            if self.tcb.state() == TcpState::Closed {
                r |= Readiness::HANGUP;
            }
        }
        r
    }
}

impl NetStack {
    /// The stream behind `h`, unless `h` is no stream or was released.
    pub(crate) fn open_stream(&self, h: SocketHandle) -> Result<(SockId, &TcpSock), SockError> {
        let SocketHandle::Stream(id) = h else {
            return Err(SockError::BadHandle);
        };
        match self.socks.get(id.0) {
            Some(s) if !s.released => Ok((id, s)),
            _ => Err(SockError::BadHandle),
        }
    }

    /// A stream that can carry data: open, connected, no error latched.
    fn connected_stream(&self, h: SocketHandle) -> Result<(SockId, &TcpSock), SockError> {
        let (id, s) = self.open_stream(h)?;
        if let Some(e) = s.error {
            return Err(e.into());
        }
        if !s.synchronized {
            return Err(SockError::NotConnected);
        }
        Ok((id, s))
    }

    /// The port of the datagram socket behind `h`, unless `h` is none or
    /// was closed.
    fn dgram_port(&self, h: SocketHandle) -> Result<u16, SockError> {
        match h {
            SocketHandle::Dgram(id) => match self.udp.get(id.0) {
                Some(Some(u)) => Ok(u.port),
                _ => Err(SockError::BadHandle),
            },
            _ => Err(SockError::BadHandle),
        }
    }

    /// `socket` + `bind` + `listen` in one verb: opens a passive TCP
    /// socket on `port`. With `Some(backlog)`, fresh SYNs are refused
    /// (RST) whenever `backlog` completed-or-completing, unaccepted
    /// connections are already queued — 0 refuses everything, the classic
    /// closed shop; `None` queues without bound.
    pub fn sock_listen(
        &mut self,
        port: u16,
        backlog: Option<usize>,
    ) -> Result<SocketHandle, SockError> {
        if self.listener_on(port).is_some() {
            return Err(SockError::InUse);
        }
        let id = ListenerId(self.listeners.len());
        self.listeners.push(Some(Listener {
            port,
            cfg: self.cfg.tcp,
            backlog,
            completed: VecDeque::new(),
        }));
        Ok(SocketHandle::Listener(id))
    }

    /// Active open to `dst:dst_port`; the SYN lands in the pending-action
    /// queue. The handle becomes WRITABLE when the handshake completes, or
    /// ERROR-ready on refusal, an ICMP unreachable, or expiry of
    /// [`crate::stack::CONNECT_TIMEOUT`].
    pub fn sock_connect(
        &mut self,
        now: SimTime,
        dst: Ipv4Addr,
        dst_port: u16,
    ) -> Result<SocketHandle, SockError> {
        self.sock_connect_with(now, dst, dst_port, self.cfg.tcp)
    }

    /// [`NetStack::sock_connect`] with this connection's own TCP
    /// configuration in place of the stack's (the fixed vs adaptive RTO
    /// of §4.1, a small send buffer).
    pub fn sock_connect_with(
        &mut self,
        now: SimTime,
        dst: Ipv4Addr,
        dst_port: u16,
        mut cfg: TcpConfig,
    ) -> Result<SocketHandle, SockError> {
        let route = self.routes.lookup_fast(dst);
        let Some(&IfaceConfig { addr, mtu, .. }) =
            route.and_then(|r| self.ifaces.get(r.iface.index()))
        else {
            return Err(SockError::NoRoute);
        };
        let port = self.alloc_port();
        let iss = self.next_iss();
        if self.cfg.clamp_mss {
            cfg.mss = clamped_mss(cfg.mss, mtu);
        }
        let tcb = Tcb::connect(
            now,
            (addr, port),
            (dst, dst_port),
            iss,
            cfg,
            &mut self.tcb_events,
        );
        let sock = SockId(self.socks.len());
        let mut s = TcpSock::new(tcb, None);
        s.connect_timer = Some(now + CONNECT_TIMEOUT);
        self.socks.push(s);
        self.drive(sock);
        Ok(SocketHandle::Stream(sock))
    }

    /// Takes the oldest completed connection off a listener's accept
    /// queue as a stream handle and claims it for the application: it
    /// stops counting against the backlog, and errors latch on it from
    /// here on. Empty queue ⇒ [`SockError::WouldBlock`].
    pub fn sock_accept(&mut self, h: SocketHandle) -> Result<SocketHandle, SockError> {
        let SocketHandle::Listener(id) = h else {
            return Err(SockError::BadHandle);
        };
        let Some(Some(l)) = self.listeners.get_mut(id.0) else {
            return Err(SockError::BadHandle);
        };
        let sock = l.completed.pop_front().ok_or(SockError::WouldBlock)?;
        if let Some(s) = self.socks.get_mut(sock.0) {
            s.claimed = true;
        }
        Ok(SocketHandle::Stream(sock))
    }

    /// Queues bytes for transmission; returns how many the send buffer
    /// accepted. A full buffer with a nonempty `data` is
    /// [`SockError::WouldBlock`] — wait for WRITABLE.
    pub fn sock_send(
        &mut self,
        now: SimTime,
        h: SocketHandle,
        data: &[u8],
    ) -> Result<usize, SockError> {
        let (id, _) = self.connected_stream(h)?;
        let ev = &mut self.tcb_events;
        let n = self
            .socks
            .get_mut(id.0)
            .map_or(0, |s| s.tcb.send(now, data, ev));
        self.drive(id);
        if n == 0 && !data.is_empty() {
            return Err(SockError::WouldBlock);
        }
        Ok(n)
    }

    /// Drains received bytes, appended to `buf` — a buffer the caller
    /// keeps, so a warm reader allocates nothing (DESIGN.md §6) — and
    /// returns how many: BSD `read(2)`. `Ok(0)` means EOF (the peer
    /// finished); no data *before* EOF is [`SockError::WouldBlock`] —
    /// wait for READABLE. What `buf` held is left in front.
    pub fn sock_recv(
        &mut self,
        now: SimTime,
        h: SocketHandle,
        buf: &mut Vec<u8>,
    ) -> Result<usize, SockError> {
        let (id, _) = self.connected_stream(h)?;
        let ev = &mut self.tcb_events;
        let n = self
            .socks
            .get_mut(id.0)
            .map_or(0, |s| s.tcb.recv(now, buf, ev));
        self.drive(id);
        if n > 0 || self.socks.get(id.0).is_some_and(|s| s.tcb.at_eof()) {
            return Ok(n);
        }
        Err(SockError::WouldBlock)
    }

    /// Half-close: sends our FIN but keeps the handle readable so the
    /// peer's remaining data (and EOF) can still be drained.
    pub fn sock_shutdown(&mut self, now: SimTime, h: SocketHandle) -> Result<(), SockError> {
        let (id, _) = self.open_stream(h)?;
        if let Some(s) = self.socks.get_mut(id.0) {
            s.shut = true;
            s.tcb.close(now, &mut self.tcb_events);
        }
        self.drive(id);
        Ok(())
    }

    /// Releases the handle: a stream sends its FIN if still open and is
    /// marked released; a listener or datagram socket gives its port back.
    /// A listener also aborts with RST every child it spawned that was
    /// never accepted, as 4.3BSD's `soclose` aborts the connections still
    /// on a listener's queues; a datagram socket's unread datagrams go
    /// back to the pool. Closing a closed or bogus handle is a no-op, like
    /// `close(2)` on a stale fd.
    pub fn sock_close(&mut self, now: SimTime, h: SocketHandle) {
        match h {
            SocketHandle::Stream(id) => {
                let Some(s) = self.socks.get_mut(id.0).filter(|s| !s.released) else {
                    return;
                };
                s.released = true;
                if s.tcb.state() != TcpState::Closed {
                    s.tcb.close(now, &mut self.tcb_events);
                    self.drive(id);
                }
            }
            SocketHandle::Listener(id) => {
                let Some(slot) = self.listeners.get_mut(id.0) else {
                    return;
                };
                *slot = None;
                for i in 0..self.socks.len() {
                    let queued = self.socks.get(i).is_some_and(|s| {
                        s.parent == Some(id) && !s.claimed && s.tcb.state() != TcpState::Closed
                    });
                    if queued {
                        self.tcp_abort(now, SockId(i));
                    }
                }
            }
            SocketHandle::Dgram(id) => {
                if let Some(s) = self.udp.get_mut(id.0).and_then(Option::take) {
                    for (_, _, buf) in s.rx {
                        self.pool.give(buf);
                    }
                }
            }
        }
    }

    /// `socket` + `bind` for datagrams: opens a UDP socket on `port`.
    pub fn sock_bind_udp(&mut self, port: u16) -> Result<SocketHandle, SockError> {
        if self.udp.iter().flatten().any(|s| s.port == port) {
            return Err(SockError::InUse);
        }
        let id = UdpId(self.udp.len());
        self.udp.push(Some(UdpSock {
            port,
            rx: VecDeque::new(),
        }));
        Ok(SocketHandle::Dgram(id))
    }

    /// Sends one datagram. UDP never blocks; a datagram with no route is
    /// counted ([`crate::stack::StackStats::no_route`]) and dropped.
    pub fn sock_send_to(
        &mut self,
        h: SocketHandle,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Result<(), SockError> {
        let src_port = self.dgram_port(h)?;
        let route = self.routes.lookup_fast(dst);
        let Some(src) = route
            .and_then(|r| self.ifaces.get(r.iface.index()))
            .map(|i| i.addr)
        else {
            self.stats.no_route += 1;
            return Ok(());
        };
        let dg = UdpDatagram {
            src_port,
            dst_port,
            payload,
        };
        self.send_ip(Ipv4Packet::new(src, dst, Proto::Udp, dg.encode(src, dst)));
        Ok(())
    }

    /// Sends one limited-broadcast (255.255.255.255) datagram out of
    /// `iface`, bypassing the routing table — a broadcast has no route;
    /// the caller names the link (`SO_BROADCAST` with the interface's
    /// broadcast address). It stays on that link (TTL 1), and the drivers
    /// map the broadcast next hop to their link-layer broadcast address
    /// without ARP. An interface the stack does not have is
    /// [`SockError::NoRoute`].
    pub fn sock_send_broadcast(
        &mut self,
        h: SocketHandle,
        iface: IfaceId,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Result<(), SockError> {
        let src_port = self.dgram_port(h)?;
        let src = self.iface(iface).ok_or(SockError::NoRoute)?.addr;
        let dst = Ipv4Addr::BROADCAST;
        let dg = UdpDatagram {
            src_port,
            dst_port,
            payload,
        };
        let mut p = Ipv4Packet::new(src, dst, Proto::Udp, dg.encode(src, dst));
        p.id = self.next_ip_id();
        p.ttl = 1;
        self.stats.ip_out += 1;
        self.pending.push(StackAction::Egress {
            iface,
            next_hop: dst,
            packet: p,
        });
        Ok(())
    }

    /// Receives one datagram: lends `(source, source port, payload)` to
    /// `f` for the one call, in the buffer it arrived in, then gives that
    /// buffer to the pool as 4.3BSD's `soreceive` frees its mbufs. Empty
    /// queue ⇒ [`SockError::WouldBlock`], without calling `f`.
    pub fn sock_recv_from<R>(
        &mut self,
        h: SocketHandle,
        f: impl FnOnce(Ipv4Addr, u16, &[u8]) -> R,
    ) -> Result<R, SockError> {
        let SocketHandle::Dgram(id) = h else {
            return Err(SockError::BadHandle);
        };
        let Some(Some(u)) = self.udp.get_mut(id.0) else {
            return Err(SockError::BadHandle);
        };
        let (src, src_port, buf) = u.rx.pop_front().ok_or(SockError::WouldBlock)?;
        let r = f(
            src,
            src_port,
            buf.get(udp::HEADER_LEN..).unwrap_or_default(),
        );
        self.pool.give(buf);
        Ok(r)
    }

    /// Room in a stream's send buffer, for apps that pump bulk data on
    /// WRITABLE edges; 0 unless `h` is a connected stream.
    pub fn sock_send_capacity(&self, h: SocketHandle) -> usize {
        self.connected_stream(h)
            .map_or(0, |(_, s)| s.tcb.send_capacity())
    }

    /// `TCP_INFO`: a stream's connection state, the octets it holds that
    /// the peer has not acknowledged, and its TCB counters. `None` unless
    /// `h` is an open stream.
    pub fn sock_tcp_info(&self, h: SocketHandle) -> Option<TcpInfo> {
        let (_, s) = self.open_stream(h).ok()?;
        Some(TcpInfo {
            state: s.tcb.state(),
            unacked: s.tcb.send_backlog(),
            stats: s.tcb.stats(),
        })
    }

    /// The readiness mask of one handle, from the socket's current state.
    /// Pure — no side effects, no wire traffic. Closed and bogus handles
    /// report [`Readiness::ERROR`].
    pub fn sock_poll(&self, h: SocketHandle) -> Readiness {
        match h {
            SocketHandle::Listener(id) => match self.listeners.get(id.0) {
                Some(Some(l)) if l.completed.is_empty() => Readiness::EMPTY,
                Some(Some(_)) => Readiness::ACCEPTABLE | Readiness::READABLE,
                _ => Readiness::ERROR,
            },
            SocketHandle::Stream(_) => self
                .open_stream(h)
                .map_or(Readiness::ERROR, |(_, s)| s.readiness()),
            SocketHandle::Dgram(id) => match self.udp.get(id.0) {
                Some(Some(u)) if u.rx.is_empty() => Readiness::WRITABLE,
                Some(Some(_)) => Readiness::WRITABLE | Readiness::READABLE,
                _ => Readiness::ERROR,
            },
        }
    }
}

#[cfg(test)]
mod tests;
