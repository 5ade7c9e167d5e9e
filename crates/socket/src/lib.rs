//! A BSD-flavored socket layer over the sans-io [`NetStack`].
//!
//! The paper's §2.4 promise is that "user programs on the Ultrix system
//! can communicate with hosts on the packet radio network **using normal
//! Ultrix networking facilities**" — i.e. sockets, not hand-rolled state
//! machines. This crate supplies that missing layer for the reproduction:
//!
//! * one [`SocketHandle`] type unifying the stack's split
//!   `SockId`/`ListenerId`/`UdpId` handles;
//! * the classic verb set — [`SocketTable::listen`],
//!   [`SocketTable::accept`], [`SocketTable::connect`],
//!   [`SocketTable::send`], [`SocketTable::recv`],
//!   [`SocketTable::shutdown`], [`SocketTable::close`], plus
//!   [`SocketTable::bind_udp`] / [`SocketTable::send_to`] /
//!   [`SocketTable::recv_from`] for datagrams — `recv_from` lends the
//!   payload to a closure in the buffer it arrived in and gives that
//!   buffer back to the host's pool, so no caller holds a pool buffer;
//! * [`SocketTable::poll`] / [`SocketTable::select`] readiness bitmasks
//!   ([`Readiness`]) computed from existing TCB/UDP state — never by
//!   busy-polling: wakeups ride the deadline scheduler via
//!   [`SocketTable::next_deadline`] / [`SocketTable::on_deadline`];
//! * blocking semantics. A discrete-event world has no thread to park, so
//!   "blocking" is emulated cooperatively: a call that cannot proceed
//!   returns [`SockError::WouldBlock`] and the runtime re-delivers
//!   readiness level-triggered (every scheduler visit while the condition
//!   holds), which is what a process sleeping in a blocked syscall
//!   observes.
//!
//! The table is a *thin shim*: it never generates wire traffic of its own
//! and never reorders the stack's actions, so every byte on the air is
//! byte-identical to a program driving `NetStack` directly (the `apps`
//! crate carries a differential test proving exactly that for the echo
//! server).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::net::Ipv4Addr;

use netstack::icmp::IcmpMessage;
use netstack::stack::{ListenerId, NetStack, SockId, StackAction, UdpId};
use netstack::tcp::{TcbStats, TcpConfig, TcpState};
use netstack::NetError;
use sim::{SimDuration, SimTime};

/// Readiness bitmask returned by [`SocketTable::poll`].
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

    /// Convenience accessor for [`Readiness::ACCEPTABLE`].
    pub fn acceptable(self) -> bool {
        self.contains(Readiness::ACCEPTABLE)
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

impl From<NetError> for SockError {
    fn from(e: NetError) -> SockError {
        match e {
            NetError::NoRoute(_) => SockError::NoRoute,
            NetError::InUse => SockError::InUse,
            _ => SockError::BadHandle,
        }
    }
}

/// One handle for every socket kind — stream, listener, or datagram.
///
/// Handles are never reused within a table's lifetime, so a stale handle
/// reports [`Readiness::ERROR`] instead of aliasing a newer socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(usize);

impl SocketHandle {
    /// Raw slot index (stable for the table's lifetime).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// How long an active open may sit un-acknowledged before the table
/// aborts it and latches [`SockError::TimedOut`]. The TCB itself
/// retransmits forever; this is the 4.3BSD 75-second initial connection
/// timer.
pub const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(75);

/// What [`SocketTable::tcp_info`] reports about one stream.
#[derive(Debug, Clone, Copy)]
pub struct TcpInfo {
    /// The TCB's connection state.
    pub state: TcpState,
    /// Octets queued or in flight that the peer has not acknowledged.
    pub unacked: usize,
    /// Segment, retransmission and RTT counters.
    pub stats: TcbStats,
}

#[derive(Debug)]
struct TcpSlot {
    id: SockId,
    connected: bool,
    /// Latched asynchronous error, reported via ERROR readiness and the
    /// next send/recv, never overwritten once set.
    error: Option<SockError>,
    /// Active opens only: when to give up on the handshake.
    connect_deadline: Option<SimTime>,
    /// We sent our FIN via [`SocketTable::shutdown`].
    shut: bool,
}

#[derive(Debug)]
enum Slot {
    Listener {
        id: ListenerId,
        accept_q: VecDeque<SockId>,
    },
    Tcp(TcpSlot),
    Udp {
        id: UdpId,
    },
    /// Tombstone left by [`SocketTable::close`].
    Closed,
}

/// The per-host socket table: the descriptor layer between applications
/// and the [`NetStack`].
///
/// Every mutating verb takes `&mut NetStack` and leaves any stack actions
/// it provoked in the stack's pending queue (drain with
/// [`NetStack::drain_actions`]) — the table itself stores no wire state.
/// The owner must feed every action the stack emits back through
/// [`SocketTable::on_action`] so accept queues, connect completion, and
/// asynchronous errors stay current.
#[derive(Debug, Default)]
pub struct SocketTable {
    slots: Vec<Slot>,
}

impl SocketTable {
    /// Creates an empty table.
    pub fn new() -> SocketTable {
        SocketTable::default()
    }

    fn alloc(&mut self, slot: Slot) -> SocketHandle {
        let h = SocketHandle(self.slots.len());
        self.slots.push(slot);
        h
    }

    fn tcp(&self, h: SocketHandle) -> Result<&TcpSlot, SockError> {
        match self.slots.get(h.0) {
            Some(Slot::Tcp(t)) => Ok(t),
            _ => Err(SockError::BadHandle),
        }
    }

    fn tcp_mut(&mut self, h: SocketHandle) -> Result<&mut TcpSlot, SockError> {
        match self.slots.get_mut(h.0) {
            Some(Slot::Tcp(t)) => Ok(t),
            _ => Err(SockError::BadHandle),
        }
    }

    /// `socket` + `bind` + `listen` in one verb: opens a passive TCP
    /// socket on `port`. `backlog` bounds the accepted-but-unclaimed
    /// queue (`None` = unbounded, the legacy shape); overflow SYNs are
    /// refused with RST by the stack.
    pub fn listen(
        &mut self,
        st: &mut NetStack,
        port: u16,
        backlog: Option<usize>,
    ) -> Result<SocketHandle, SockError> {
        let id = match backlog {
            Some(b) => st.tcp_listen_with(port, b)?,
            None => st.tcp_listen(port)?,
        };
        Ok(self.alloc(Slot::Listener {
            id,
            accept_q: VecDeque::new(),
        }))
    }

    /// Active open to `dst:dst_port`. The handle becomes WRITABLE when
    /// the handshake completes, or ERROR-ready on refusal, an ICMP
    /// unreachable, or expiry of [`CONNECT_TIMEOUT`].
    pub fn connect(
        &mut self,
        st: &mut NetStack,
        now: SimTime,
        dst: Ipv4Addr,
        dst_port: u16,
    ) -> Result<SocketHandle, SockError> {
        let id = st.tcp_connect(now, dst, dst_port)?;
        Ok(self.connecting(id, now))
    }

    /// [`SocketTable::connect`] with this connection's own TCP
    /// configuration in place of the stack's (the fixed vs adaptive RTO
    /// of §4.1, a small send buffer).
    pub fn connect_with(
        &mut self,
        st: &mut NetStack,
        now: SimTime,
        dst: Ipv4Addr,
        dst_port: u16,
        cfg: TcpConfig,
    ) -> Result<SocketHandle, SockError> {
        let id = st.tcp_connect_with(now, dst, dst_port, cfg)?;
        Ok(self.connecting(id, now))
    }

    fn connecting(&mut self, id: SockId, now: SimTime) -> SocketHandle {
        self.alloc(Slot::Tcp(TcpSlot {
            id,
            connected: false,
            error: None,
            connect_deadline: Some(now + CONNECT_TIMEOUT),
            shut: false,
        }))
    }

    /// Pops one completed connection off a listener's accept queue,
    /// claiming it from the stack's backlog accounting and wrapping it in
    /// a fresh stream handle. Empty queue ⇒ [`SockError::WouldBlock`].
    pub fn accept(
        &mut self,
        st: &mut NetStack,
        h: SocketHandle,
    ) -> Result<SocketHandle, SockError> {
        let sock = match self.slots.get_mut(h.0) {
            Some(Slot::Listener { accept_q, .. }) => {
                accept_q.pop_front().ok_or(SockError::WouldBlock)?
            }
            _ => return Err(SockError::BadHandle),
        };
        st.tcp_claim(sock);
        Ok(self.alloc(Slot::Tcp(TcpSlot {
            id: sock,
            connected: true,
            error: None,
            connect_deadline: None,
            shut: false,
        })))
    }

    /// Queues bytes for transmission; returns how many the send buffer
    /// accepted. A full buffer with a nonempty `data` is
    /// [`SockError::WouldBlock`] — wait for WRITABLE.
    pub fn send(
        &mut self,
        st: &mut NetStack,
        now: SimTime,
        h: SocketHandle,
        data: &[u8],
    ) -> Result<usize, SockError> {
        let t = self.tcp(h)?;
        if let Some(e) = t.error {
            return Err(e);
        }
        if !t.connected {
            return Err(SockError::NotConnected);
        }
        let id = t.id;
        let n = st.tcp_send(now, id, data);
        if n == 0 && !data.is_empty() {
            return Err(SockError::WouldBlock);
        }
        Ok(n)
    }

    /// Drains received bytes. `Ok(empty)` means EOF (the peer finished);
    /// no data *before* EOF is [`SockError::WouldBlock`] — wait for
    /// READABLE.
    pub fn recv(
        &mut self,
        st: &mut NetStack,
        now: SimTime,
        h: SocketHandle,
    ) -> Result<Vec<u8>, SockError> {
        let t = self.tcp(h)?;
        if let Some(e) = t.error {
            return Err(e);
        }
        if !t.connected {
            return Err(SockError::NotConnected);
        }
        let id = t.id;
        let data = st.tcp_recv(now, id);
        if !data.is_empty() {
            return Ok(data);
        }
        if st.tcp_at_eof(id) {
            return Ok(Vec::new());
        }
        Err(SockError::WouldBlock)
    }

    /// Half-close: sends our FIN but keeps the handle readable so the
    /// peer's remaining data (and EOF) can still be drained.
    pub fn shutdown(
        &mut self,
        st: &mut NetStack,
        now: SimTime,
        h: SocketHandle,
    ) -> Result<(), SockError> {
        let t = self.tcp_mut(h)?;
        t.shut = true;
        let id = t.id;
        st.tcp_close(now, id);
        Ok(())
    }

    /// Releases the handle. Streams get an orderly close (FIN) if still
    /// open; the slot becomes a tombstone that reports ERROR readiness
    /// forever after. Closing an already-closed or bogus handle is a
    /// no-op, like `close(2)` on a stale fd.
    pub fn close(&mut self, st: &mut NetStack, now: SimTime, h: SocketHandle) {
        let Some(slot) = self.slots.get_mut(h.0) else {
            return;
        };
        match slot {
            Slot::Tcp(t) => {
                if st.tcp_state(t.id) != TcpState::Closed {
                    st.tcp_close(now, t.id);
                }
            }
            Slot::Listener { .. } | Slot::Udp { .. } | Slot::Closed => {}
        }
        *slot = Slot::Closed;
    }

    /// `socket` + `bind` for datagrams: opens a UDP socket on `port`.
    pub fn bind_udp(&mut self, st: &mut NetStack, port: u16) -> Result<SocketHandle, SockError> {
        let id = st.udp_bind(port)?;
        Ok(self.alloc(Slot::Udp { id }))
    }

    /// Sends one datagram. UDP never blocks.
    pub fn send_to(
        &mut self,
        st: &mut NetStack,
        h: SocketHandle,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Result<(), SockError> {
        match self.slots.get(h.0) {
            Some(Slot::Udp { id, .. }) => {
                st.udp_send(*id, dst, dst_port, payload);
                Ok(())
            }
            _ => Err(SockError::BadHandle),
        }
    }

    /// Receives one datagram: lends `(source, source port, payload)` to
    /// `f` for the one call and returns what `f` returns. The payload is
    /// the buffer the datagram arrived in, which goes back to the host's
    /// pool before this returns ([`NetStack::udp_recv`]). Empty queue ⇒
    /// [`SockError::WouldBlock`], without calling `f`.
    pub fn recv_from<R>(
        &mut self,
        st: &mut NetStack,
        h: SocketHandle,
        f: impl FnOnce(Ipv4Addr, u16, &[u8]) -> R,
    ) -> Result<R, SockError> {
        match self.slots.get(h.0) {
            Some(Slot::Udp { id, .. }) => st.udp_recv(*id, f).ok_or(SockError::WouldBlock),
            _ => Err(SockError::BadHandle),
        }
    }

    /// The remote `(address, port)` of a connected stream.
    pub fn peer_addr(&self, st: &NetStack, h: SocketHandle) -> Option<(Ipv4Addr, u16)> {
        match self.slots.get(h.0) {
            Some(Slot::Tcp(t)) => st.tcp_remote(t.id),
            _ => None,
        }
    }

    /// Room in a stream's send buffer, for apps that pump bulk data on
    /// WRITABLE edges.
    pub fn send_capacity(&self, st: &NetStack, h: SocketHandle) -> usize {
        match self.slots.get(h.0) {
            Some(Slot::Tcp(t)) if t.connected && t.error.is_none() => st.tcp_send_capacity(t.id),
            _ => 0,
        }
    }

    /// `TCP_INFO`: a stream's connection state, the octets it holds that
    /// the peer has not acknowledged, and its TCB counters. `None` unless
    /// `h` is an open stream.
    pub fn tcp_info(&self, st: &NetStack, h: SocketHandle) -> Option<TcpInfo> {
        let id = self.tcp(h).ok()?.id;
        Some(TcpInfo {
            state: st.tcp_state(id),
            unacked: st.tcp_send_backlog(id),
            stats: st.tcp_stats(id),
        })
    }

    /// The latched asynchronous error, if any — `SO_ERROR` without the
    /// clear-on-read.
    pub fn take_error(&self, h: SocketHandle) -> Option<SockError> {
        match self.slots.get(h.0) {
            Some(Slot::Tcp(t)) => t.error,
            _ => None,
        }
    }

    /// Computes the readiness mask for one handle from current stack
    /// state. Pure — no side effects, no wire traffic. Closed tombstones
    /// and bogus handles report [`Readiness::ERROR`].
    pub fn poll(&self, st: &NetStack, h: SocketHandle) -> Readiness {
        match self.slots.get(h.0) {
            Some(Slot::Listener { accept_q, .. }) => {
                if accept_q.is_empty() {
                    Readiness::EMPTY
                } else {
                    Readiness::ACCEPTABLE | Readiness::READABLE
                }
            }
            Some(Slot::Tcp(t)) => {
                let mut r = Readiness::EMPTY;
                if t.error.is_some() {
                    r |= Readiness::ERROR;
                }
                if t.connected {
                    if st.tcp_recv_available(t.id) > 0 {
                        r |= Readiness::READABLE;
                    }
                    if !t.shut && st.tcp_send_capacity(t.id) > 0 {
                        r |= Readiness::WRITABLE;
                    }
                    if st.tcp_at_eof(t.id) {
                        r |= Readiness::EOF;
                    }
                    if st.tcp_state(t.id) == TcpState::Closed {
                        r |= Readiness::HANGUP;
                    }
                }
                r
            }
            Some(Slot::Udp { id, .. }) => {
                let mut r = Readiness::WRITABLE;
                if st.udp_rx_queued(*id) > 0 {
                    r |= Readiness::READABLE;
                }
                r
            }
            Some(Slot::Closed) | None => Readiness::ERROR,
        }
    }

    /// `select(2)`: polls many handles, returning only the ready ones.
    pub fn select(
        &self,
        st: &NetStack,
        handles: &[SocketHandle],
    ) -> Vec<(SocketHandle, Readiness)> {
        handles
            .iter()
            .filter_map(|&h| {
                let r = self.poll(st, h);
                if r.is_empty() {
                    None
                } else {
                    Some((h, r))
                }
            })
            .collect()
    }

    /// The earliest moment [`SocketTable::on_deadline`] has work —
    /// currently the soonest pending connect timeout. Fold this into the
    /// host's scheduler deadline; never busy-poll.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Tcp(t) if !t.connected => t.connect_deadline,
                _ => None,
            })
            .min()
    }

    /// Fires expired connect timers: aborts the half-open TCB and latches
    /// [`SockError::TimedOut`] (unless a more specific error already
    /// arrived). Any actions the aborts provoke land in the stack's
    /// pending queue.
    pub fn on_deadline(&mut self, st: &mut NetStack, now: SimTime) {
        for slot in &mut self.slots {
            if let Slot::Tcp(t) = slot {
                if !t.connected && t.connect_deadline.is_some_and(|d| d <= now) {
                    t.connect_deadline = None;
                    if t.error.is_none() {
                        t.error = Some(SockError::TimedOut);
                    }
                    st.tcp_abort(now, t.id);
                }
            }
        }
    }

    /// Observes one stack action, updating accept queues, connect state,
    /// and latched errors. The owner must route **every** action the
    /// stack emits through here (before or after its own handling — the
    /// table only reads the stack).
    pub fn on_action(&mut self, st: &NetStack, act: &StackAction) {
        match act {
            StackAction::TcpAccepted { listener, sock } => {
                for slot in &mut self.slots {
                    if let Slot::Listener { id, accept_q, .. } = slot {
                        if id == listener {
                            accept_q.push_back(*sock);
                            return;
                        }
                    }
                }
            }
            StackAction::TcpConnected(sock) => {
                for slot in &mut self.slots {
                    if let Slot::Tcp(t) = slot {
                        if t.id == *sock {
                            t.connected = true;
                            t.connect_deadline = None;
                            return;
                        }
                    }
                }
            }
            StackAction::TcpClosed { sock, reset } => {
                for slot in &mut self.slots {
                    if let Slot::Tcp(t) = slot {
                        if t.id == *sock {
                            t.connect_deadline = None;
                            if t.error.is_none() {
                                if !t.connected {
                                    // RST during handshake is a refusal;
                                    // anything else that kills a half-open
                                    // connection reads as a reset too.
                                    t.error = Some(if *reset {
                                        SockError::Refused
                                    } else {
                                        SockError::ConnectionReset
                                    });
                                } else if *reset {
                                    t.error = Some(SockError::ConnectionReset);
                                }
                            }
                            return;
                        }
                    }
                }
            }
            StackAction::IcmpProblem {
                message: IcmpMessage::DestUnreachable { original, .. },
                ..
            } => {
                self.note_unreachable(st, original);
            }
            _ => {}
        }
    }

    /// Maps an ICMP destination-unreachable quote back to the in-flight
    /// connect it refers to and latches [`SockError::Unreachable`].
    fn note_unreachable(&mut self, st: &NetStack, original: &[u8]) {
        let Some((src, src_port, dst, dst_port)) = quoted_tcp_flow(original) else {
            return;
        };
        for slot in &mut self.slots {
            if let Slot::Tcp(t) = slot {
                if !t.connected
                    && t.error.is_none()
                    && st.tcp_local(t.id) == Some((src, src_port))
                    && st.tcp_remote(t.id) == Some((dst, dst_port))
                {
                    t.error = Some(SockError::Unreachable);
                    return;
                }
            }
        }
    }

    /// Reverse lookup: which handle (if any) does this stack action
    /// concern? Lets an app runtime route events without the table.
    pub fn handle_for_action(&self, act: &StackAction) -> Option<SocketHandle> {
        let find_tcp = |want: SockId| {
            self.slots.iter().position(|s| match s {
                Slot::Tcp(t) => t.id == want,
                _ => false,
            })
        };
        match act {
            StackAction::TcpAccepted { listener, .. } => self.slots.iter().position(|s| match s {
                Slot::Listener { id, .. } => id == listener,
                _ => false,
            }),
            StackAction::TcpConnected(sock)
            | StackAction::TcpReadable(sock)
            | StackAction::TcpPeerClosed(sock) => find_tcp(*sock),
            StackAction::TcpClosed { sock, .. } => find_tcp(*sock),
            StackAction::UdpReadable(udp) => self.slots.iter().position(|s| match s {
                Slot::Udp { id, .. } => id == udp,
                _ => false,
            }),
            _ => None,
        }
        .map(SocketHandle)
    }
}

/// Parses the flow 4-tuple out of an ICMP error's quoted original
/// datagram (IP header + 8 payload octets) when the quoted protocol is
/// TCP. The quote is *truncated* relative to its own total-length field,
/// so the full [`netstack::ip::Ipv4Packet::decode`] cannot be used here —
/// this reads the handful of fixed offsets directly.
fn quoted_tcp_flow(original: &[u8]) -> Option<(Ipv4Addr, u16, Ipv4Addr, u16)> {
    if original.len() < 20 {
        return None;
    }
    let ihl = usize::from(original[0] & 0x0F) * 4;
    if ihl < 20 || original.len() < ihl + 4 {
        return None;
    }
    if original[9] != 6 {
        return None; // not TCP
    }
    let ip = |o: usize| {
        Ipv4Addr::new(
            original[o],
            original[o + 1],
            original[o + 2],
            original[o + 3],
        )
    };
    let port = |o: usize| u16::from_be_bytes([original[o], original[o + 1]]);
    Some((ip(12), port(ihl), ip(16), port(ihl + 2)))
}

#[cfg(test)]
mod tests;
