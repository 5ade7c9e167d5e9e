//! The per-host network stack: IP input/output, demux, sockets, timers.
//!
//! One `NetStack` instance plays the role that "the existing Ultrix
//! network support" (Figure 2) plays on the MicroVAX and that the KA9Q
//! package plays on the PC: everything above the drivers and below the
//! applications. It is sans-io — drivers feed [`NetStack::input`], the
//! stack returns [`StackAction`]s, and link-layer concerns (ARP, AX.25 or
//! Ethernet encapsulation) stay in the `gateway` crate's drivers, as they
//! do in the paper.
//!
//! Forwarding is deliberately split: a packet that is not for this host
//! surfaces as [`StackAction::ForwardNeeded`], and the owner (the gateway,
//! which wants to apply §4.3 access control first) calls
//! [`NetStack::forward`] to complete it. A plain host leaves forwarding
//! disabled and the packet is dropped.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use sim::{SimDuration, SimTime};

use crate::icmp::{IcmpMessage, UnreachCode};
use crate::ip::{self, FragResult, Ipv4Packet, Proto, Reassembler};
use crate::pool::DgramPool;
use crate::route::{NextHop, Prefix, RouteTable};
use crate::tcp::{Tcb, TcbEvent, TcpConfig, TcpFlags, TcpHeader, TcpSegment, TcpState};
use crate::udp::{self, UdpDatagram};
use crate::NetError;

/// Datagrams a UDP socket holds unread; the next is dropped, as 4.3BSD's
/// `udp_input` drops one with no room in `so_rcv`. BSD sizes that for forty
/// 1 KiB datagrams; counted in datagrams, as each holds one pool buffer.
pub const UDP_RX_QUEUE: usize = 40;

/// How long an active open may go without completing its handshake before
/// the stack aborts it and latches [`ConnError::TimedOut`]. The TCB itself
/// retransmits forever; this is 4.3BSD's 75-second connection-establishment
/// timer (`TCPTV_KEEP_INIT`), which `tcp_timers` runs in TCP.
pub const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(75);

/// Identifies an interface within one host's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(usize);

impl IfaceId {
    /// Creates an id from an index (use the value returned by
    /// [`NetStack::add_iface`] in normal code).
    #[inline]
    pub fn new(n: usize) -> IfaceId {
        IfaceId(n)
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// An interface's IP-level parameters (the link itself lives elsewhere).
#[derive(Debug, Clone)]
pub struct IfaceConfig {
    /// The interface's name ("qe0", "pr0"…), a label the stack never reads.
    pub name: &'static str,
    /// The interface's IP address.
    pub addr: Ipv4Addr,
    /// Prefix length of the attached subnet.
    pub prefix_len: u8,
    /// Link MTU in octets.
    pub mtu: usize,
}

/// A TCP socket handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId(pub(crate) usize);

/// A TCP listener handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub(crate) usize);

/// A UDP socket handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpId(pub(crate) usize);

/// Why a connection failed, latched on the socket it concerns (4.3BSD's
/// `so_error`): only on a claimed socket — an active open, or a passive
/// one once accepted — and only the first cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnError {
    /// The peer answered the handshake with RST.
    Refused,
    /// The peer reset the connection, or a half-open one ended otherwise.
    Reset,
    /// An ICMP destination-unreachable quoted the handshake's SYN.
    Unreachable,
    /// [`CONNECT_TIMEOUT`] expired before the handshake completed.
    TimedOut,
}

/// Host-level stack configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackConfig {
    /// TCP defaults for sockets created on this host (§4.1: set
    /// `tcp.rto` to [`crate::tcp::RtoPolicy::Fixed`] to model the naive peer).
    pub tcp: TcpConfig,
    /// Surface not-for-us packets as [`StackAction::ForwardNeeded`].
    pub forwarding: bool,
    /// Decapsulate IPIP (protocol 4) packets addressed to this host and
    /// re-run the inner packet through input. Off, protocol 4 gets the
    /// stock protocol-unreachable treatment.
    pub ipip: bool,
    /// Clamp the TCP MSS — both what a connection advertises and what it
    /// uses — to the MTU of the interface it travels over, minus the
    /// 40-byte TCP/IP header. On an AX.25 radio interface (MTU 256) that
    /// is 216, so locally originated TCP never triggers E9-style
    /// fragmentation. Off by default: the 1988 stacks did not clamp, and
    /// E9's fragmentation experiment depends on the historic behaviour.
    pub clamp_mss: bool,
    /// Inert: the stack has no next-hop cache to size. Kept only because
    /// the benchmark harness still sets it (ROADMAP item 2(a)).
    #[doc(hidden)]
    pub fwd_cache_bits: u8,
}

/// An encapsulation table the stack consults on output *before* the plain
/// routing table: if it returns a tunnel endpoint for the destination, the
/// packet is wrapped in an outer IPIP header addressed to that endpoint
/// and routing proceeds on the outer header instead.
///
/// The stack owns the installed map; the implementation (the `encap`
/// crate's table) owns hit/miss accounting and entry expiry, and the
/// stack only asks the question. Whoever maintains the map — the RIP44
/// daemon learning and expiring entries at its deadlines, which is why
/// this hook takes no clock — reaches it through the stack, as its
/// concrete type, with [`NetStack::tunnel_map`] and
/// [`NetStack::tunnel_map_mut`].
pub trait TunnelMap: std::any::Any + std::fmt::Debug {
    /// The tunnel endpoint whose encapsulation should carry `dst`, if any.
    fn endpoint(&mut self, dst: Ipv4Addr) -> Option<Ipv4Addr>;
}

/// Actions the stack asks its owner to perform, and events it reports.
#[derive(Debug, Clone, PartialEq)]
pub enum StackAction {
    /// Transmit `packet` on `iface` toward `next_hop` (the driver
    /// resolves the link address — ARP in this workspace).
    Egress {
        /// Output interface.
        iface: IfaceId,
        /// IP address to resolve at the link layer.
        next_hop: Ipv4Addr,
        /// The (already fragmented, if needed) packet.
        packet: Ipv4Packet,
    },
    /// A packet not addressed to this host arrived and forwarding is on;
    /// the owner should apply policy and then call [`NetStack::forward`].
    ForwardNeeded {
        /// The interface it arrived on.
        ingress: IfaceId,
        /// The packet (TTL not yet decremented).
        packet: Ipv4Packet,
    },
    /// A TCP connect completed.
    TcpConnected(SockId),
    /// A listener produced a new connection.
    TcpAccepted {
        /// The listener that matched.
        listener: ListenerId,
        /// The new socket.
        sock: SockId,
    },
    /// New data is readable on a socket.
    TcpReadable(SockId),
    /// The peer closed its direction.
    TcpPeerClosed(SockId),
    /// The connection ended.
    TcpClosed {
        /// Which socket.
        sock: SockId,
        /// True for RST terminations.
        reset: bool,
    },
    /// A datagram is readable on a UDP socket.
    UdpReadable(UdpId),
    /// An echo reply arrived for a ping this host sent.
    PingReply {
        /// Who answered.
        from: Ipv4Addr,
        /// Echo identifier.
        id: u16,
        /// Echo sequence number.
        seq: u16,
        /// Payload length.
        len: usize,
    },
    /// A gateway-control ICMP message arrived (§4.3); the gateway crate
    /// interprets it.
    GateControl {
        /// Claimed sender.
        from: Ipv4Addr,
        /// Which interface it arrived on.
        ingress: IfaceId,
        /// The message (GateOpen / GateClose).
        message: IcmpMessage,
    },
    /// An ICMP error arrived concerning traffic we sent.
    IcmpProblem {
        /// Who reported it.
        from: Ipv4Addr,
        /// The message.
        message: IcmpMessage,
    },
}

/// Stack counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackStats {
    /// IP packets received on all interfaces.
    pub ip_in: u64,
    /// IP packets (fragments counted individually) emitted.
    pub ip_out: u64,
    /// Packets surfaced for forwarding.
    pub forward_requests: u64,
    /// Packets actually forwarded.
    pub forwarded: u64,
    /// Packets dropped: not for us, forwarding off.
    pub not_for_us: u64,
    /// Packets dropped: parse/checksum failures.
    pub bad_packets: u64,
    /// Output failures: no route.
    pub no_route: u64,
    /// TTL expiries while forwarding.
    pub ttl_expired: u64,
    /// Echo requests answered.
    pub echo_replies_sent: u64,
    /// Packets wrapped in an outer IPIP header on output.
    pub ipip_out: u64,
    /// IPIP packets decapsulated on input.
    pub ipip_in: u64,
    /// SYNs refused with RST because a listener's accept queue was full.
    pub accept_overflow: u64,
    /// UDP datagrams dropped on a full socket queue (`udps_fullsock`).
    pub udp_fullsock: u64,
    /// Fragments refused, or their datagrams dropped, at the reassembly
    /// bounds (`ips_fragdropped`; [`ip::REASSEMBLY_MAX_OCTETS`]).
    pub frag_dropped: u64,
    /// Always 0: the stack memoizes no forwarding decision. Kept, with
    /// `fwd_cache_misses` and `fwd_cache_stale`, only because the
    /// benchmark harness still reads them (ROADMAP item 2(a)).
    #[doc(hidden)]
    pub fwd_cache_hits: u64,
    #[doc(hidden)]
    pub fwd_cache_misses: u64,
    #[doc(hidden)]
    pub fwd_cache_stale: u64,
}

#[derive(Debug)]
pub(crate) struct TcpSock {
    pub(crate) tcb: Tcb,
    /// Listener that spawned this socket, if passive.
    parent: Option<ListenerId>,
    /// True for an active open, and for a passive socket once the
    /// application accepted it; claimed sockets no longer count against
    /// the listener's backlog.
    claimed: bool,
    /// The handshake completed (`soisconnected`).
    pub(crate) synchronized: bool,
    /// The first asynchronous error of a claimed socket.
    pub(crate) error: Option<ConnError>,
    /// Active opens until the handshake ends: when [`CONNECT_TIMEOUT`]
    /// fires.
    connect_timer: Option<SimTime>,
    /// The application shut its send side down (`SS_CANTSENDMORE`): the
    /// stream stops polling WRITABLE.
    pub(crate) shut: bool,
    /// The application closed its handle; the record stays as the
    /// handle's tombstone ([`crate::socket`]).
    pub(crate) released: bool,
}

impl TcpSock {
    fn new(tcb: Tcb, parent: Option<ListenerId>) -> TcpSock {
        TcpSock {
            tcb,
            parent,
            claimed: parent.is_none(),
            synchronized: false,
            error: None,
            connect_timer: None,
            shut: false,
            released: false,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Listener {
    port: u16,
    cfg: TcpConfig,
    /// Accept-queue bound: at most this many unclaimed, live children.
    /// `None` means unbounded.
    backlog: Option<usize>,
    /// Children whose handshake completed, in completion order, awaiting
    /// [`NetStack::tcp_accept`] (4.3BSD's `so_q`).
    pub(crate) completed: VecDeque<SockId>,
}

#[derive(Debug)]
pub(crate) struct UdpSock {
    port: u16,
    /// Unread datagrams, each in the buffer it arrived in, cut at its UDP length.
    pub(crate) rx: VecDeque<(Ipv4Addr, u16, Vec<u8>)>,
}

/// A host's network stack. See the [module docs](self).
#[derive(Debug)]
pub struct NetStack {
    cfg: StackConfig,
    ifaces: Vec<IfaceConfig>,
    routes: RouteTable,
    reasm: Reassembler,
    /// TCP connections by id, never removed, so an id is never reused.
    pub(crate) socks: Vec<TcpSock>,
    /// Listeners and UDP sockets by id; `None` once closed, so an id is
    /// never reused.
    pub(crate) listeners: Vec<Option<Listener>>,
    pub(crate) udp: Vec<Option<UdpSock>>,
    ip_id: u16,
    iss: u32,
    next_port: u16,
    tunnels: Option<Box<dyn TunnelMap>>,
    stats: StackStats,
    /// Actions produced by socket calls, awaiting [`NetStack::drain_actions`].
    pending: Vec<StackAction>,
    /// The host's datagram buffers (see [`crate::pool`]), lent to its
    /// link drivers through [`NetStack::pool_mut`].
    pool: DgramPool,
    /// What the last [`Tcb`] verb emitted, until `drive` routes it (empty
    /// between calls; kept for its capacity).
    tcb_events: Vec<TcbEvent>,
}

impl NetStack {
    /// Creates a stack with no interfaces.
    pub fn new(cfg: StackConfig) -> NetStack {
        NetStack {
            cfg,
            ifaces: Vec::new(),
            routes: RouteTable::new(),
            reasm: Reassembler::new(),
            socks: Vec::new(),
            listeners: Vec::new(),
            udp: Vec::new(),
            ip_id: 1,
            iss: 1_000_000,
            next_port: 1024,
            tunnels: None,
            stats: StackStats::default(),
            pending: Vec::new(),
            pool: DgramPool::new(),
            tcb_events: Vec::new(),
        }
    }

    /// Creates a stack with no interfaces yet, its interface list sized
    /// for `n` and its route table for their `n` connected routes and one
    /// default route, so a host's tables are born at the size its
    /// configuration names rather than in `Vec`'s four-slot minimum.
    pub fn with_ifaces(cfg: StackConfig, n: usize) -> NetStack {
        let mut stack = NetStack::new(cfg);
        stack.ifaces.reserve_exact(n);
        stack.routes.reserve(n + 1);
        stack
    }

    /// Turns IP forwarding on or off at runtime. Hosts built as plain
    /// endpoints leave it off; test and experiment harnesses that need a
    /// non-gateway box to route (E17's flood injector) flip it here.
    pub fn set_forwarding(&mut self, on: bool) {
        self.cfg.forwarding = on;
    }

    /// Takes every action the stack has produced since the last drain —
    /// socket and output calls (`tcp_send`, `udp_send`, `ping`, …) queue
    /// theirs here — in the order they were produced.
    pub fn drain_actions(&mut self) -> Vec<StackAction> {
        std::mem::take(&mut self.pending)
    }

    /// Appends pending actions to `out`, preserving both buffers'
    /// capacity — the zero-steady-state-allocation form of
    /// [`Self::drain_actions`].
    pub fn drain_actions_into(&mut self, out: &mut impl Extend<StackAction>) {
        out.extend(self.pending.drain(..));
    }

    /// Hands the pending actions over by swapping them with `empty`, so
    /// the caller's drained buffer (and its capacity) becomes the next
    /// pending queue — [`Self::drain_actions_into`] without moving the
    /// actions one by one.
    #[inline]
    pub fn swap_actions(&mut self, empty: &mut Vec<StackAction>) {
        debug_assert!(empty.is_empty());
        std::mem::swap(&mut self.pending, empty);
    }

    /// True when no produced action is awaiting a drain.
    #[inline]
    pub fn actions_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Installs the encapsulation table consulted by the output path (see
    /// [`TunnelMap`]). The stack owns it from here on; a gateway's
    /// route-exchange service maintains it through
    /// [`NetStack::tunnel_map_mut`].
    pub fn set_tunnel_map(&mut self, map: Box<dyn TunnelMap>) {
        self.tunnels = Some(map);
    }

    /// The installed tunnel map as its concrete type `T`: `None` when no
    /// map is installed or it is not a `T`.
    pub fn tunnel_map<T: TunnelMap>(&self) -> Option<&T> {
        let map: &dyn std::any::Any = self.tunnels.as_deref()?;
        map.downcast_ref()
    }

    /// [`NetStack::tunnel_map`], mutably: how the map's maintainer learns
    /// and expires entries in the table the stack consults.
    pub fn tunnel_map_mut<T: TunnelMap>(&mut self) -> Option<&mut T> {
        let map: &mut dyn std::any::Any = self.tunnels.as_deref_mut()?;
        map.downcast_mut()
    }

    /// Adds an interface and its connected route.
    pub fn add_iface(&mut self, cfg: IfaceConfig) -> IfaceId {
        let id = IfaceId(self.ifaces.len());
        self.routes
            .add(Prefix::new(cfg.addr, cfg.prefix_len), None, id);
        self.ifaces.push(cfg);
        id
    }

    /// An interface's configuration.
    #[inline]
    pub fn iface(&self, id: IfaceId) -> &IfaceConfig {
        &self.ifaces[id.0]
    }

    /// Mutable interface configuration (tests shrink MTUs, etc.).
    pub fn iface_mut(&mut self, id: IfaceId) -> &mut IfaceConfig {
        &mut self.ifaces[id.0]
    }

    /// Mutable routing table (experiments edit routes directly).
    pub fn routes_mut(&mut self) -> &mut RouteTable {
        &mut self.routes
    }

    /// The routing table.
    #[inline]
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// True if `ip` is one of this host's addresses.
    #[inline]
    pub fn is_local_addr(&self, ip: Ipv4Addr) -> bool {
        ip == Ipv4Addr::BROADCAST || self.ifaces.iter().any(|i| i.addr == ip)
    }

    /// Stack counters.
    #[inline]
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// The host's datagram-buffer pool, for its link drivers to borrow:
    /// they copy received datagrams into its buffers and give back the
    /// ones they have put on their link.
    #[inline]
    pub fn pool_mut(&mut self) -> &mut DgramPool {
        &mut self.pool
    }

    // --- Output path ------------------------------------------------------

    fn next_ip_id(&mut self) -> u16 {
        let id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1).max(1);
        id
    }

    /// Routes, fragments, and emits a locally generated packet.
    ///
    /// The encapsulation table (if installed) is consulted *before* the
    /// routing table: a destination matched there is wrapped in an outer
    /// IPIP header toward the tunnel endpoint, and the routing decision is
    /// then made for the endpoint instead. Packets that are already IPIP
    /// and local destinations are never wrapped.
    ///
    /// Every packet gets one fresh decision: the tunnel map's answer, then
    /// one walk of the compiled LPM (the linear table scan survives only as
    /// the differential oracle). Nothing is memoized, so no route or tunnel
    /// change can leave a stale decision behind (DESIGN.md §14).
    pub fn send_ip(&mut self, mut packet: Ipv4Packet) {
        let dst = packet.dst;
        if packet.proto != Proto::Other(ip::IPIP) && !self.is_local_addr(dst) {
            if let Some(endpoint) = self.tunnels.as_mut().and_then(|t| t.endpoint(dst)) {
                self.stats.ipip_out += 1;
                packet = ipip_wrap(packet, endpoint);
            }
        }
        match self.routes.lookup_fast(packet.dst) {
            None => self.stats.no_route += 1,
            Some(NextHop { iface, hop }) => self.emit_on(iface, hop, packet),
        }
    }

    /// The tail of the output path once the decision is made: source and
    /// id fill, fragmentation, egress actions.
    fn emit_on(&mut self, iface: IfaceId, hop: Ipv4Addr, mut packet: Ipv4Packet) {
        if packet.src.is_unspecified() {
            packet.src = self.ifaces[iface.0].addr;
        }
        if packet.id == 0 {
            packet.id = self.next_ip_id();
        }
        let mtu = self.ifaces[iface.0].mtu;
        match ip::fragment(packet, mtu) {
            FragResult::Fits(p) => {
                self.stats.ip_out += 1;
                self.pending.push(StackAction::Egress {
                    iface,
                    next_hop: hop,
                    packet: p,
                });
            }
            FragResult::Fragmented(ps) => {
                for p in ps {
                    self.stats.ip_out += 1;
                    self.pending.push(StackAction::Egress {
                        iface,
                        next_hop: hop,
                        packet: p,
                    });
                }
            }
            FragResult::WouldFragment => {
                self.stats.no_route += 1; // account as undeliverable
            }
        }
    }

    /// Completes a forward the owner approved: TTL, fragmentation, egress.
    /// Emits ICMP time-exceeded back to the source on TTL expiry.
    pub fn forward(&mut self, mut packet: Ipv4Packet) {
        if packet.ttl <= 1 {
            self.stats.ttl_expired += 1;
            let quote = IcmpMessage::quote_original(&packet.encode());
            self.send_icmp(packet.src, IcmpMessage::TimeExceeded { original: quote });
            return;
        }
        packet.ttl -= 1;
        self.stats.forwarded += 1;
        self.send_ip(packet);
    }

    /// Builds and sends an ICMP message to `dst`.
    pub fn send_icmp(&mut self, dst: Ipv4Addr, msg: IcmpMessage) {
        let packet = Ipv4Packet::new(Ipv4Addr::UNSPECIFIED, dst, Proto::Icmp, msg.encode());
        self.send_ip(packet);
    }

    /// Sends an echo request (ping).
    pub fn ping(&mut self, dst: Ipv4Addr, id: u16, seq: u16, len: usize) {
        let payload = vec![0xA5; len];
        self.send_icmp(dst, IcmpMessage::EchoRequest { id, seq, payload });
    }

    // --- Input path ----------------------------------------------------------

    /// Processes an IP packet arriving on `iface`, returning the actions
    /// it produced. Copies `bytes` once, into a pool buffer; a caller that
    /// owns them calls [`Self::input_owned`].
    pub fn input(&mut self, now: SimTime, iface: IfaceId, bytes: &[u8]) -> Vec<StackAction> {
        let bytes = self.pool.copy(bytes);
        self.input_owned(now, iface, bytes);
        self.drain_actions()
    }

    /// The one input body: takes the link driver's buffer by value and
    /// parses it in place ([`Ipv4Packet::decode_owned`]), so a forwarded
    /// datagram is still that one allocation when it reaches the egress
    /// driver. The actions stay queued for [`Self::drain_actions_into`].
    ///
    /// When the stack is done with the allocation — delivered to ICMP or
    /// TCP (each copies what it keeps), or dropped — it goes to the host's
    /// pool ([`Self::pool_mut`]). The bytes live on in a UDP socket's queue
    /// until [`Self::udp_recv`], in a forward in the action queue or in a
    /// fragment the reassembler holds; a malformed datagram's is dropped.
    pub fn input_owned(&mut self, now: SimTime, iface: IfaceId, bytes: Vec<u8>) {
        self.stats.ip_in += 1;
        let packet = match Ipv4Packet::decode_owned(bytes) {
            Ok(p) => p,
            Err(_) => {
                self.stats.bad_packets += 1;
                return;
            }
        };
        if !self.is_local_addr(packet.dst) {
            if self.cfg.forwarding {
                self.stats.forward_requests += 1;
                self.pending.push(StackAction::ForwardNeeded {
                    ingress: iface,
                    packet,
                });
                return;
            }
            self.stats.not_for_us += 1;
            self.pool.give(packet.payload);
            return;
        }
        let Some(whole) = self.reasm.push(now, packet, &mut self.pool) else {
            self.stats.frag_dropped = self.reasm.dropped;
            return;
        };
        match whole.proto {
            Proto::Icmp => self.input_icmp(iface, &whole),
            Proto::Tcp => self.input_tcp(now, iface, &whole),
            Proto::Udp => return self.input_udp(whole),
            Proto::Other(p) if p == ip::IPIP && self.cfg.ipip => {
                // A tunnel endpoint: strip the outer header and run the
                // inner packet through input again. The inner destination
                // is usually *not* local, so it surfaces as a normal
                // ForwardNeeded and crosses the gateway's policy exactly
                // like natively routed traffic. Nesting terminates because
                // every level removes a 20-byte header.
                self.stats.ipip_in += 1;
                return self.input_owned(now, iface, whole.payload);
            }
            Proto::Other(_) => {
                // Never generate ICMP errors about broadcasts.
                if whole.dst != Ipv4Addr::BROADCAST {
                    let quote = IcmpMessage::quote_original(&whole.encode());
                    let src = whole.src;
                    self.send_icmp(
                        src,
                        IcmpMessage::DestUnreachable {
                            code: UnreachCode::Protocol,
                            original: quote,
                        },
                    );
                }
            }
        }
        self.pool.give(whole.payload);
    }

    fn input_icmp(&mut self, iface: IfaceId, packet: &Ipv4Packet) {
        let msg = match IcmpMessage::decode(&packet.payload) {
            Ok(m) => m,
            Err(_) => {
                self.stats.bad_packets += 1;
                return;
            }
        };
        match msg {
            IcmpMessage::EchoRequest { id, seq, payload } => {
                self.stats.echo_replies_sent += 1;
                let mut reply = Ipv4Packet::new(
                    packet.dst,
                    packet.src,
                    Proto::Icmp,
                    IcmpMessage::EchoReply { id, seq, payload }.encode(),
                );
                // Reply from the address they pinged.
                reply.src = packet.dst;
                self.send_ip(reply);
            }
            IcmpMessage::EchoReply { id, seq, payload } => {
                self.pending.push(StackAction::PingReply {
                    from: packet.src,
                    id,
                    seq,
                    len: payload.len(),
                });
            }
            m @ (IcmpMessage::GateOpen { .. } | IcmpMessage::GateClose { .. }) => {
                self.pending.push(StackAction::GateControl {
                    from: packet.src,
                    ingress: iface,
                    message: m,
                });
            }
            m @ (IcmpMessage::DestUnreachable { .. } | IcmpMessage::TimeExceeded { .. }) => {
                if let IcmpMessage::DestUnreachable { original, .. } = &m {
                    self.latch_unreachable(original);
                }
                self.pending.push(StackAction::IcmpProblem {
                    from: packet.src,
                    message: m,
                });
            }
        }
    }

    /// Latches [`ConnError::Unreachable`] on the claimed, unsynchronized
    /// connection whose 4-tuple an ICMP unreachable's quote names (4.3BSD's
    /// `in_pcbnotify`).
    fn latch_unreachable(&mut self, original: &[u8]) {
        let Some((local, remote)) = quoted_tcp_flow(original) else {
            return;
        };
        if let Some(s) = self.socks.iter_mut().find(|s| {
            s.claimed
                && !s.synchronized
                && s.error.is_none()
                && s.tcb.local() == local
                && s.tcb.remote() == remote
        }) {
            s.error = Some(ConnError::Unreachable);
        }
    }

    /// Queues a datagram for its socket in the buffer it arrived in, as
    /// 4.3BSD's `udp_input` appends the mbuf chain to `so_rcv`.
    fn input_udp(&mut self, mut packet: Ipv4Packet) {
        let decoded = UdpDatagram::decode_ref(&packet.payload, packet.src, packet.dst)
            .map(|(src_port, dst_port, payload)| (src_port, dst_port, payload.len()));
        let Ok((src_port, dst_port, len)) = decoded else {
            self.stats.bad_packets += 1;
            return self.pool.give(packet.payload);
        };
        let bound = self.udp.iter_mut().enumerate().find_map(|(i, s)| {
            s.as_mut()
                .filter(|s| s.port == dst_port)
                .map(|s| (i, &mut s.rx))
        });
        if let Some((i, rx)) = bound {
            if rx.len() < UDP_RX_QUEUE {
                packet.payload.truncate(udp::HEADER_LEN + len);
                rx.push_back((packet.src, src_port, packet.payload));
                self.pending.push(StackAction::UdpReadable(UdpId(i)));
                return;
            }
            self.stats.udp_fullsock += 1;
        } else if packet.dst != Ipv4Addr::BROADCAST {
            // Broadcasts to an unbound port are silently ignored — a
            // subnet full of hosts must not answer every announcement
            // with a port-unreachable storm.
            let quote = IcmpMessage::quote_original(&packet.encode());
            let src = packet.src;
            self.send_icmp(
                src,
                IcmpMessage::DestUnreachable {
                    code: UnreachCode::Port,
                    original: quote,
                },
            );
        }
        self.pool.give(packet.payload);
    }

    fn input_tcp(&mut self, now: SimTime, iface: IfaceId, packet: &Ipv4Packet) {
        let seg = match TcpSegment::decode(&packet.payload, packet.src, packet.dst) {
            Ok(s) => s,
            Err(_) => {
                self.stats.bad_packets += 1;
                return;
            }
        };
        // Exact connection match first.
        let found = self.socks.iter().position(|s| {
            s.tcb.state() != TcpState::Closed
                && s.tcb.local() == (packet.dst, seg.header.dst_port)
                && s.tcb.remote() == (packet.src, seg.header.src_port)
        });
        if let Some(i) = found {
            self.socks[i]
                .tcb
                .on_segment(now, &seg, &mut self.tcb_events);
            self.drive(SockId(i));
            return;
        }
        // Listener match for a fresh SYN.
        let hdr = seg.header;
        if hdr.flags.syn && !hdr.flags.ack {
            if let Some((li, l)) = self.listener_on(hdr.dst_port) {
                // Accept-queue bound: a listener with a backlog refuses
                // fresh SYNs once it already holds `backlog` live,
                // unclaimed children. The refusal is an RST — the 4.3BSD
                // tcp_input drop, visible to the peer — rather than a
                // silent drop, so the simulation surfaces overload
                // immediately instead of after a retransmission timeout.
                let (backlog, mut cfg) = (l.backlog, l.cfg);
                if let Some(backlog) = backlog {
                    let queued = self
                        .socks
                        .iter()
                        .filter(|s| {
                            s.parent == Some(ListenerId(li))
                                && !s.claimed
                                && s.tcb.state() != TcpState::Closed
                        })
                        .count();
                    if queued >= backlog {
                        self.stats.accept_overflow += 1;
                        self.send_rst(packet, &seg);
                        return;
                    }
                }
                let iss = self.next_iss();
                if self.cfg.clamp_mss {
                    cfg.mss = clamped_mss(cfg.mss, self.ifaces[iface.0].mtu);
                }
                let tcb = Tcb::accept(
                    now,
                    (packet.dst, hdr.dst_port),
                    (packet.src, hdr.src_port),
                    &hdr,
                    iss,
                    cfg,
                    &mut self.tcb_events,
                );
                let sock = SockId(self.socks.len());
                self.socks.push(TcpSock::new(tcb, Some(ListenerId(li))));
                self.drive(sock);
                return;
            }
        }
        // No takers: RST (unless the stray segment was itself a RST).
        if !hdr.flags.rst {
            self.send_rst(packet, &seg);
        }
    }

    /// Answers a segment nobody wants with the standard RST.
    fn send_rst(&mut self, packet: &Ipv4Packet, seg: &TcpSegment<'_>) {
        let rst = TcpSegment {
            header: TcpHeader {
                src_port: seg.header.dst_port,
                dst_port: seg.header.src_port,
                seq: if seg.header.flags.ack {
                    seg.header.ack
                } else {
                    0
                },
                ack: seg.header.seq.wrapping_add(seg.seq_len()),
                flags: TcpFlags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
                window: 0,
                mss: None,
            },
            payload: &[],
        };
        let bytes = rst.encode_in(packet.dst, packet.src, &mut self.pool);
        self.send_ip(Ipv4Packet::new(packet.dst, packet.src, Proto::Tcp, bytes));
    }

    // --- TCP socket API ---------------------------------------------------------

    fn next_iss(&mut self) -> u32 {
        // 4.3BSD-style: a deterministic, monotonically advancing ISS.
        self.iss = self.iss.wrapping_add(64_000);
        self.iss
    }

    fn alloc_port(&mut self) -> u16 {
        loop {
            let p = self.next_port;
            self.next_port = if self.next_port >= 65_000 {
                1024
            } else {
                self.next_port + 1
            };
            let used = self
                .socks
                .iter()
                .any(|s| s.tcb.state() != TcpState::Closed && s.tcb.local().1 == p)
                || self.listener_on(p).is_some();
            if !used {
                return p;
            }
        }
    }

    /// The open listener on `port`, with its index.
    fn listener_on(&self, port: u16) -> Option<(usize, &Listener)> {
        self.listeners
            .iter()
            .enumerate()
            .find_map(|(i, l)| l.as_ref().filter(|l| l.port == port).map(|l| (i, l)))
    }

    /// Opens a TCP connection; the SYN lands in the pending-action queue
    /// (see [`Self::drain_actions`]). The connection is aborted if its
    /// handshake has not completed within [`CONNECT_TIMEOUT`].
    pub fn tcp_connect(
        &mut self,
        now: SimTime,
        dst: Ipv4Addr,
        dst_port: u16,
    ) -> Result<SockId, NetError> {
        self.connect_as(now, dst, dst_port, self.cfg.tcp)
    }

    /// [`Self::tcp_connect`] with `tcp_cfg` in place of the stack's TCP
    /// configuration.
    pub(crate) fn connect_as(
        &mut self,
        now: SimTime,
        dst: Ipv4Addr,
        dst_port: u16,
        mut tcp_cfg: TcpConfig,
    ) -> Result<SockId, NetError> {
        let Some(NextHop { iface, .. }) = self.routes.lookup_fast(dst) else {
            return Err(NetError::NoRoute(dst));
        };
        let local_ip = self.ifaces[iface.0].addr;
        let port = self.alloc_port();
        let iss = self.next_iss();
        if self.cfg.clamp_mss {
            tcp_cfg.mss = clamped_mss(tcp_cfg.mss, self.ifaces[iface.0].mtu);
        }
        let tcb = Tcb::connect(
            now,
            (local_ip, port),
            (dst, dst_port),
            iss,
            tcp_cfg,
            &mut self.tcb_events,
        );
        let sock = SockId(self.socks.len());
        let mut s = TcpSock::new(tcb, None);
        s.connect_timer = Some(now + CONNECT_TIMEOUT);
        self.socks.push(s);
        self.drive(sock);
        Ok(sock)
    }

    /// Starts listening on `port`. With `Some(backlog)`, fresh SYNs are
    /// refused (RST) whenever `backlog` completed-or-completing,
    /// unaccepted connections are already queued — 0 refuses everything,
    /// the classic closed shop; `None` queues without bound.
    pub fn tcp_listen(
        &mut self,
        port: u16,
        backlog: Option<usize>,
    ) -> Result<ListenerId, NetError> {
        if self.listener_on(port).is_some() {
            return Err(NetError::InUse);
        }
        let id = ListenerId(self.listeners.len());
        self.listeners.push(Some(Listener {
            port,
            cfg: self.cfg.tcp,
            backlog,
            completed: VecDeque::new(),
        }));
        Ok(id)
    }

    /// Takes the oldest completed connection off a listener's queue and
    /// claims it for the application: it stops counting against the
    /// backlog, and errors latch on it from here on. `None`: nothing
    /// queued, or no such listener.
    pub fn tcp_accept(&mut self, listener: ListenerId) -> Option<SockId> {
        let l = self.listeners.get_mut(listener.0)?.as_mut()?;
        let sock = l.completed.pop_front()?;
        if let Some(s) = self.socks.get_mut(sock.0) {
            s.claimed = true;
        }
        Some(sock)
    }

    /// Closes a listener: its port is free again, and every child it
    /// spawned that was never accepted is aborted with RST, as 4.3BSD's
    /// `soclose` aborts the connections still on a listener's queues. The
    /// id stays dead.
    pub fn tcp_unlisten(&mut self, now: SimTime, listener: ListenerId) {
        let Some(slot) = self.listeners.get_mut(listener.0) else {
            return;
        };
        *slot = None;
        for i in 0..self.socks.len() {
            let queued = self.socks.get(i).is_some_and(|s| {
                s.parent == Some(listener) && !s.claimed && s.tcb.state() != TcpState::Closed
            });
            if queued {
                self.tcp_abort(now, SockId(i));
            }
        }
    }

    /// Queues data on a socket; returns octets accepted.
    pub fn tcp_send(&mut self, now: SimTime, sock: SockId, data: &[u8]) -> usize {
        let Some(s) = self.socks.get_mut(sock.0) else {
            return 0;
        };
        let n = s.tcb.send(now, data, &mut self.tcb_events);
        self.drive(sock);
        n
    }

    /// Drains readable data from a socket, appended to `into`; returns
    /// the octets appended ([`Tcb::recv`]).
    pub fn tcp_recv(&mut self, now: SimTime, sock: SockId, into: &mut Vec<u8>) -> usize {
        let Some(s) = self.socks.get_mut(sock.0) else {
            return 0;
        };
        let n = s.tcb.recv(now, into, &mut self.tcb_events);
        self.drive(sock);
        n
    }

    /// Closes the send direction of a socket.
    pub fn tcp_close(&mut self, now: SimTime, sock: SockId) {
        let Some(s) = self.socks.get_mut(sock.0) else {
            return;
        };
        s.tcb.close(now, &mut self.tcb_events);
        self.drive(sock);
    }

    /// Aborts a socket with RST.
    pub fn tcp_abort(&mut self, now: SimTime, sock: SockId) {
        let Some(s) = self.socks.get_mut(sock.0) else {
            return;
        };
        s.tcb.abort(now, &mut self.tcb_events);
        self.drive(sock);
    }

    // --- UDP socket API -----------------------------------------------------------

    /// Binds a UDP socket to `port`.
    pub fn udp_bind(&mut self, port: u16) -> Result<UdpId, NetError> {
        if self.udp.iter().flatten().any(|s| s.port == port) {
            return Err(NetError::InUse);
        }
        let id = UdpId(self.udp.len());
        self.udp.push(Some(UdpSock {
            port,
            rx: VecDeque::new(),
        }));
        Ok(id)
    }

    /// Closes a UDP socket: its port is free again and its unread
    /// datagrams' buffers go back to the pool. The id stays dead.
    pub fn udp_unbind(&mut self, udp: UdpId) {
        if let Some(s) = self.udp.get_mut(udp.0).and_then(Option::take) {
            for (_, _, buf) in s.rx {
                self.pool.give(buf);
            }
        }
    }

    /// The port of an open UDP socket.
    fn udp_port(&self, udp: UdpId) -> Option<u16> {
        Some(self.udp.get(udp.0)?.as_ref()?.port)
    }

    /// Sends a datagram from a bound socket; a closed one sends nothing.
    pub fn udp_send(&mut self, udp: UdpId, dst: Ipv4Addr, dst_port: u16, payload: Vec<u8>) {
        let Some(src_port) = self.udp_port(udp) else {
            return;
        };
        let Some(NextHop { iface, .. }) = self.routes.lookup_fast(dst) else {
            self.stats.no_route += 1;
            return;
        };
        let src = self.ifaces[iface.0].addr;
        let dg = UdpDatagram {
            src_port,
            dst_port,
            payload,
        };
        self.send_ip(Ipv4Packet::new(src, dst, Proto::Udp, dg.encode(src, dst)));
    }

    /// Sends a limited-broadcast (255.255.255.255) datagram out of one
    /// specific interface, bypassing the routing table — a broadcast has
    /// no route; the caller names the link. The drivers map the broadcast
    /// next hop to their link-layer broadcast address without ARP.
    pub fn udp_send_broadcast(
        &mut self,
        udp: UdpId,
        iface: IfaceId,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let Some(src_port) = self.udp_port(udp) else {
            return;
        };
        let src = self.ifaces[iface.0].addr;
        let dst = Ipv4Addr::BROADCAST;
        let dg = UdpDatagram {
            src_port,
            dst_port,
            payload,
        };
        let mut p = Ipv4Packet::new(src, dst, Proto::Udp, dg.encode(src, dst));
        p.id = self.next_ip_id();
        // Broadcasts stay on the link.
        p.ttl = 1;
        self.stats.ip_out += 1;
        self.pending.push(StackAction::Egress {
            iface,
            next_hop: dst,
            packet: p,
        });
    }

    /// Lends the oldest received datagram to `f` as `(source, source port,
    /// payload)`, then gives its buffer to the pool as 4.3BSD's `soreceive`
    /// frees its mbufs. `None`, `f` uncalled: empty queue or unknown handle.
    pub fn udp_recv<R>(
        &mut self,
        udp: UdpId,
        f: impl FnOnce(Ipv4Addr, u16, &[u8]) -> R,
    ) -> Option<R> {
        let (src, src_port, buf) = self.udp.get_mut(udp.0)?.as_mut()?.rx.pop_front()?;
        let r = f(src, src_port, &buf[udp::HEADER_LEN..]);
        self.pool.give(buf);
        Some(r)
    }

    // --- Timers -----------------------------------------------------------------

    /// Earliest deadline across sockets (TCB and connect timers) and
    /// reassembly.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        let socks = self.socks.iter();
        let tcp = socks.flat_map(|s| [s.tcb.next_deadline(), s.connect_timer]);
        tcp.chain([self.reasm.next_deadline()]).flatten().min()
    }

    /// Fires expired timers (reassembly, TCB, connect); the actions they
    /// produce stay queued for the caller to drain.
    pub fn poll_queued(&mut self, now: SimTime) {
        self.reasm.expire(now, &mut self.pool);
        for i in 0..self.socks.len() {
            if self.socks[i].tcb.next_deadline().is_some_and(|t| t <= now) {
                self.socks[i].tcb.on_timer(now, &mut self.tcb_events);
                self.drive(SockId(i));
            }
        }
        // Connect timers fire after every TCB timer: their aborts' actions
        // follow the retransmissions.
        for i in 0..self.socks.len() {
            let Some(s) = self.socks.get_mut(i) else {
                break;
            };
            if s.connect_timer.is_some_and(|t| t <= now) {
                s.connect_timer = None;
                s.error.get_or_insert(ConnError::TimedOut);
                self.tcp_abort(now, SockId(i));
            }
        }
    }

    // --- Internals --------------------------------------------------------------

    /// Maps the events the last verb on `sock`'s TCB emitted to stack
    /// actions, encoding segments straight out of its send buffer.
    fn drive(&mut self, sock: SockId) {
        let mut events = std::mem::take(&mut self.tcb_events);
        let (local, remote, parent) = {
            let s = &self.socks[sock.0];
            (s.tcb.local(), s.tcb.remote(), s.parent)
        };
        for ev in events.drain(..) {
            match ev {
                TcbEvent::Transmit(out) => {
                    let seg = self.socks[sock.0].tcb.segment(&out);
                    let bytes = seg.encode_in(local.0, remote.0, &mut self.pool);
                    self.send_ip(Ipv4Packet::new(local.0, remote.0, Proto::Tcp, bytes));
                }
                TcbEvent::Connected => {
                    let s = &mut self.socks[sock.0];
                    s.synchronized = true;
                    s.connect_timer = None;
                    match parent {
                        Some(listener) => {
                            if let Some(Some(l)) = self.listeners.get_mut(listener.0) {
                                l.completed.push_back(sock);
                            }
                            self.pending
                                .push(StackAction::TcpAccepted { listener, sock })
                        }
                        None => self.pending.push(StackAction::TcpConnected(sock)),
                    }
                }
                TcbEvent::DataReadable => self.pending.push(StackAction::TcpReadable(sock)),
                TcbEvent::PeerClosed => self.pending.push(StackAction::TcpPeerClosed(sock)),
                TcbEvent::Closed { reset } => {
                    let s = &mut self.socks[sock.0];
                    s.connect_timer = None;
                    if s.claimed && s.error.is_none() {
                        // A RST during the handshake is a refusal; anything
                        // else that ends a half-open connection reads as a
                        // reset too, and so does a RST after it.
                        s.error = match (s.synchronized, reset) {
                            (false, true) => Some(ConnError::Refused),
                            (false, false) | (true, true) => Some(ConnError::Reset),
                            (true, false) => None,
                        };
                    }
                    self.pending.push(StackAction::TcpClosed { sock, reset })
                }
            }
        }
        self.tcb_events = events;
    }
}

/// Wraps `packet` in an outer IPIP header toward `endpoint` (source left
/// for the egress interface to fill). The inner datagram is encoded in its
/// own allocation, which is first given room for *both* headers: where
/// that grows the buffer it grows it once, and the outer
/// [`Ipv4Packet::into_wire`] at the driver finds its room already there.
fn ipip_wrap(mut packet: Ipv4Packet, endpoint: Ipv4Addr) -> Ipv4Packet {
    packet.payload.reserve_exact(2 * ip::HEADER_LEN);
    Ipv4Packet::new(
        Ipv4Addr::UNSPECIFIED,
        endpoint,
        Proto::Other(ip::IPIP),
        packet.into_wire(),
    )
}

/// The `((src, port), (dst, port))` of the TCP flow an ICMP error quotes:
/// its original datagram's IP header and first 8 payload octets. The quote
/// is *truncated* relative to its own total-length field, so
/// [`Ipv4Packet::decode`] cannot read it; this reads the fixed offsets.
type Flow = ((Ipv4Addr, u16), (Ipv4Addr, u16));

fn quoted_tcp_flow(original: &[u8]) -> Option<Flow> {
    let [vihl, _, _, _, _, _, _, _, _, proto, _, _, s0, s1, s2, s3, d0, d1, d2, d3] =
        *original.first_chunk::<20>()?;
    let ihl = usize::from(vihl & 0x0F) * 4;
    if ihl < 20 || proto != 6 {
        return None;
    }
    let [sp0, sp1, dp0, dp1] = *original.get(ihl..)?.first_chunk::<4>()?;
    Some((
        (
            Ipv4Addr::new(s0, s1, s2, s3),
            u16::from_be_bytes([sp0, sp1]),
        ),
        (
            Ipv4Addr::new(d0, d1, d2, d3),
            u16::from_be_bytes([dp0, dp1]),
        ),
    ))
}

/// Largest segment `mtu` can carry without IP fragmentation: the MTU minus
/// the 40 bytes of TCP/IP header, with a floor of 1 for degenerate
/// interfaces. On the AX.25 radio MTU of 256 this yields 216.
fn clamped_mss(mss: u16, mtu: usize) -> u16 {
    let cap = mtu.saturating_sub(40).clamp(1, usize::from(u16::MAX)) as u16;
    mss.min(cap)
}

impl NetStack {
    /// Creates a single-interface host stack with an optional default
    /// route — the shape of every plain host in the testbed.
    pub fn simple_host(
        addr: Ipv4Addr,
        prefix_len: u8,
        mtu: usize,
        gateway: Option<Ipv4Addr>,
    ) -> (NetStack, IfaceId) {
        let mut st = NetStack::new(StackConfig::default());
        let ifid = st.add_iface(IfaceConfig {
            name: "if0",
            addr,
            prefix_len,
            mtu,
        });
        if let Some(gw) = gateway {
            st.routes_mut().add(Prefix::default_route(), Some(gw), ifid);
        }
        (st, ifid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    fn ipa(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// Completed connections awaiting [`NetStack::tcp_accept`].
    fn accept_queued(st: &NetStack, listener: ListenerId) -> usize {
        st.listeners[listener.0]
            .as_ref()
            .map_or(0, |l| l.completed.len())
    }

    /// Datagrams awaiting [`NetStack::udp_recv`]; 0 once unbound.
    fn udp_queued(st: &NetStack, udp: UdpId) -> usize {
        st.udp[udp.0].as_ref().map_or(0, |s| s.rx.len())
    }

    /// A two-host wire: delivers Egress actions directly to the peer.
    struct Wire {
        a: NetStack,
        b: NetStack,
        a_if: IfaceId,
        b_if: IfaceId,
        /// Non-egress actions collected per side.
        a_ev: Vec<StackAction>,
        b_ev: Vec<StackAction>,
    }

    impl Wire {
        fn new() -> Wire {
            let (a, a_if) = NetStack::simple_host(ipa(1), 24, 1500, None);
            let (b, b_if) = NetStack::simple_host(ipa(2), 24, 1500, None);
            Wire {
                a,
                b,
                a_if,
                b_if,
                a_ev: Vec::new(),
                b_ev: Vec::new(),
            }
        }

        /// Pumps actions until quiet.
        fn run(
            &mut self,
            now: SimTime,
            mut from_a: Vec<StackAction>,
            mut from_b: Vec<StackAction>,
        ) {
            for _ in 0..10_000 {
                if from_a.is_empty() && from_b.is_empty() {
                    return;
                }
                let mut next_a = Vec::new();
                let mut next_b = Vec::new();
                for act in from_a.drain(..) {
                    match act {
                        StackAction::Egress { packet, .. } => {
                            next_b.extend(self.b.input(now, self.b_if, &packet.encode()));
                        }
                        other => self.a_ev.push(other),
                    }
                }
                for act in from_b.drain(..) {
                    match act {
                        StackAction::Egress { packet, .. } => {
                            next_a.extend(self.a.input(now, self.a_if, &packet.encode()));
                        }
                        other => self.b_ev.push(other),
                    }
                }
                from_a = next_a;
                from_b = next_b;
            }
            panic!("wire did not settle");
        }
    }

    #[test]
    fn ping_across_a_wire() {
        let mut w = Wire::new();
        w.a.ping(ipa(2), 7, 1, 56);
        let out = w.a.drain_actions();
        w.run(SimTime::ZERO, out, vec![]);
        assert_eq!(
            w.a_ev,
            vec![StackAction::PingReply {
                from: ipa(2),
                id: 7,
                seq: 1,
                len: 56
            }]
        );
        assert_eq!(w.b.stats().echo_replies_sent, 1);
    }

    #[test]
    fn tcp_connect_accept_and_exchange() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        w.b.tcp_listen(23, None).unwrap();
        let ca = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.a_ev.contains(&StackAction::TcpConnected(ca)));
        let accepted = w
            .b_ev
            .iter()
            .find_map(|e| match e {
                StackAction::TcpAccepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .expect("accept");
        // a -> b data.
        let n = w.a.tcp_send(now, ca, b"login: guest");
        assert_eq!(n, 12);
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.b_ev.contains(&StackAction::TcpReadable(accepted)));
        let mut data = Vec::new();
        assert_eq!(w.b.tcp_recv(now, accepted, &mut data), 12);
        assert_eq!(data, b"login: guest");
        let acks = w.b.drain_actions();
        w.run(now, vec![], acks);
        // b -> a data.
        w.b.tcp_send(now, accepted, b"welcome");
        let out = w.b.drain_actions();
        w.run(now, vec![], out);
        data.clear();
        w.a.tcp_recv(now, ca, &mut data);
        assert_eq!(data, b"welcome");
    }

    /// The TCP header inside the first Egress action.
    fn first_egress_segment(out: &[StackAction]) -> TcpHeader {
        out.iter()
            .find_map(|e| match e {
                StackAction::Egress { packet, .. } => Some(
                    TcpSegment::decode(&packet.payload, packet.src, packet.dst)
                        .unwrap()
                        .header,
                ),
                _ => None,
            })
            .expect("an egress segment")
    }

    #[test]
    fn clamp_mss_caps_connect_advertisement_to_radio_mtu() {
        for (clamp, want) in [(false, TcpConfig::default().mss), (true, 216)] {
            let mut st = NetStack::new(StackConfig {
                clamp_mss: clamp,
                ..StackConfig::default()
            });
            let ifid = st.add_iface(IfaceConfig {
                name: "pr0",
                addr: ipa(1),
                prefix_len: 24,
                mtu: 256,
            });
            let _ = ifid;
            st.tcp_connect(SimTime::ZERO, ipa(2), 23).unwrap();
            let out = st.drain_actions();
            let syn = first_egress_segment(&out);
            assert!(syn.flags.syn);
            assert_eq!(syn.mss, Some(want), "clamp={clamp}");
        }
    }

    #[test]
    fn clamp_mss_caps_accept_advertisement_on_the_ingress_iface() {
        for (clamp, want) in [(false, TcpConfig::default().mss), (true, 216)] {
            let mut st = NetStack::new(StackConfig {
                clamp_mss: clamp,
                ..StackConfig::default()
            });
            let ifid = st.add_iface(IfaceConfig {
                name: "pr0",
                addr: ipa(2),
                prefix_len: 24,
                mtu: 256,
            });
            st.tcp_listen(23, None).unwrap();
            let syn = TcpSegment {
                header: TcpHeader {
                    src_port: 1024,
                    dst_port: 23,
                    seq: 1000,
                    ack: 0,
                    flags: TcpFlags {
                        syn: true,
                        ..Default::default()
                    },
                    window: 4096,
                    mss: Some(TcpConfig::default().mss),
                },
                payload: &[],
            };
            let bytes = syn.encode(ipa(1), ipa(2));
            let packet = Ipv4Packet::new(ipa(1), ipa(2), Proto::Tcp, bytes);
            let out = st.input(SimTime::ZERO, ifid, &packet.encode());
            let synack = first_egress_segment(&out);
            assert!(synack.flags.syn && synack.flags.ack);
            assert_eq!(synack.mss, Some(want), "clamp={clamp}");
        }
    }

    #[test]
    fn clamped_connection_never_emits_fragmentable_segments() {
        // A bulk send over a 256-MTU interface with the clamp on must
        // produce only unfragmented, MTU-sized-or-smaller packets.
        let mut st = NetStack::new(StackConfig {
            clamp_mss: true,
            ..StackConfig::default()
        });
        st.add_iface(IfaceConfig {
            name: "pr0",
            addr: ipa(1),
            prefix_len: 24,
            mtu: 256,
        });
        let now = SimTime::ZERO;
        let sock = st.tcp_connect(now, ipa(2), 23).unwrap();
        let out = st.drain_actions();
        // Complete the handshake by hand so the window opens.
        let syn = first_egress_segment(&out);
        let synack = TcpSegment {
            header: TcpHeader {
                src_port: 23,
                dst_port: syn.src_port,
                seq: 5000,
                ack: syn.seq.wrapping_add(1),
                flags: TcpFlags {
                    syn: true,
                    ack: true,
                    ..Default::default()
                },
                window: 8192,
                mss: Some(1460),
            },
            payload: &[],
        };
        let bytes = synack.encode(ipa(2), ipa(1));
        let packet = Ipv4Packet::new(ipa(2), ipa(1), Proto::Tcp, bytes);
        let mut actions = st.input(now, ifid_of(&st), &packet.encode());
        st.tcp_send(now, sock, &vec![0xAB; 1000]);
        st.drain_actions_into(&mut actions);
        let mut saw_data = false;
        for a in &actions {
            if let StackAction::Egress { packet, .. } = a {
                assert!(packet.encode().len() <= 256, "fits the radio MTU");
                assert!(!packet.is_fragment(), "never fragmented");
                saw_data |= packet.payload.len() > 20;
            }
        }
        assert!(saw_data, "the send actually produced segments");
    }

    fn ifid_of(_st: &NetStack) -> IfaceId {
        IfaceId(0)
    }

    #[test]
    fn tcp_close_sequence_via_stack() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        w.b.tcp_listen(23, None).unwrap();
        let ca = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        let accepted = w
            .b_ev
            .iter()
            .find_map(|e| match e {
                StackAction::TcpAccepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .unwrap();
        w.a.tcp_close(now, ca);
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.b_ev.contains(&StackAction::TcpPeerClosed(accepted)));
        w.b.tcp_close(now, accepted);
        let out = w.b.drain_actions();
        w.run(now, vec![], out);
        assert!(w
            .b_ev
            .iter()
            .any(|e| matches!(e, StackAction::TcpClosed { reset: false, .. })));
        assert_eq!(w.a.socks[ca.0].tcb.state(), TcpState::TimeWait);
    }

    #[test]
    fn syn_to_closed_port_draws_rst() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        let ca = w.a.tcp_connect(now, ipa(2), 9999).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w
            .a_ev
            .iter()
            .any(|e| matches!(e, StackAction::TcpClosed { reset: true, .. })));
        assert_eq!(w.a.socks[ca.0].tcb.state(), TcpState::Closed);
    }

    #[test]
    fn listen_backlog_overflows_with_rst_until_claimed() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        let listener = w.b.tcp_listen(23, Some(1)).unwrap();
        // First connection fills the queue of one.
        let c1 = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.a_ev.contains(&StackAction::TcpConnected(c1)));
        let queued = w
            .b_ev
            .iter()
            .find_map(|e| match e {
                StackAction::TcpAccepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .expect("first connection queued");
        // Second SYN overflows: refused with RST, counted.
        let c2 = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.a_ev.contains(&StackAction::TcpClosed {
            sock: c2,
            reset: true
        }));
        assert_eq!(w.b.stats().accept_overflow, 1);
        // The application accepts the queued connection; the freed slot
        // admits the next SYN.
        assert_eq!(w.b.tcp_accept(listener), Some(queued));
        let c3 = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.a_ev.contains(&StackAction::TcpConnected(c3)));
        assert_eq!(w.b.stats().accept_overflow, 1);
    }

    #[test]
    fn legacy_listen_stays_unbounded() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        w.b.tcp_listen(23, None).unwrap();
        for _ in 0..8 {
            let c = w.a.tcp_connect(now, ipa(2), 23).unwrap();
            let out = w.a.drain_actions();
            w.run(now, out, vec![]);
            assert!(w.a_ev.contains(&StackAction::TcpConnected(c)));
        }
        assert_eq!(w.b.stats().accept_overflow, 0);
    }

    #[test]
    fn udp_exchange_and_port_unreachable() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        let ub = w.b.udp_bind(4242).unwrap();
        let ua = w.a.udp_bind(2001).unwrap();
        w.a.udp_send(ua, ipa(2), 4242, b"callbook? N7AKR".to_vec());
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.b_ev.contains(&StackAction::UdpReadable(ub)));
        let (from, from_port, payload) =
            w.b.udp_recv(ub, |from, port, payload| (from, port, payload.to_vec()))
                .expect("one datagram");
        assert_eq!(from, ipa(1));
        assert_eq!(from_port, 2001);
        assert_eq!(payload, b"callbook? N7AKR");
        assert!(w.b.udp_recv(ub, |_, _, _| ()).is_none(), "queue drained");

        // To a closed port: ICMP port unreachable comes back.
        w.a.udp_send(ua, ipa(2), 5555, b"hello?".to_vec());
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.a_ev.iter().any(|e| matches!(
            e,
            StackAction::IcmpProblem {
                message: IcmpMessage::DestUnreachable {
                    code: UnreachCode::Port,
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn forwarding_disabled_drops_and_counts() {
        let mut w = Wire::new();
        let p = Ipv4Packet::new(ipa(1), ipa(77), Proto::Udp, vec![0; 12]);
        let acts = w.b.input(SimTime::ZERO, w.b_if, &p.encode());
        assert!(acts.is_empty());
        assert_eq!(w.b.stats().not_for_us, 1);
    }

    #[test]
    fn forwarding_enabled_surfaces_and_forwards() {
        let mut st = NetStack::new(StackConfig {
            forwarding: true,
            ..StackConfig::default()
        });
        let eth = st.add_iface(IfaceConfig {
            name: "qe0",
            addr: Ipv4Addr::new(128, 95, 1, 100),
            prefix_len: 24,
            mtu: 1500,
        });
        let radio = st.add_iface(IfaceConfig {
            name: "pr0",
            addr: Ipv4Addr::new(44, 24, 0, 28),
            prefix_len: 16,
            mtu: 256,
        });
        let mut p = Ipv4Packet::new(
            Ipv4Addr::new(128, 95, 1, 4),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Udp,
            vec![0; 500],
        );
        p.id = 42;
        let acts = st.input(SimTime::ZERO, eth, &p.encode());
        let [StackAction::ForwardNeeded { ingress, packet }] = &acts[..] else {
            panic!("{acts:?}");
        };
        assert_eq!(*ingress, eth);
        let ttl_before = packet.ttl;
        st.forward(packet.clone());
        let out = st.drain_actions();
        // 500B payload over 256B MTU: fragmented onto the radio interface.
        assert!(out.len() >= 3, "{out:?}");
        for act in &out {
            let StackAction::Egress { iface, packet, .. } = act else {
                panic!("{act:?}");
            };
            assert_eq!(*iface, radio);
            assert!(packet.total_len() <= 256);
            assert_eq!(packet.ttl, ttl_before - 1, "ttl decremented");
        }
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded() {
        let mut st = NetStack::new(StackConfig {
            forwarding: true,
            ..StackConfig::default()
        });
        let _eth = st.add_iface(IfaceConfig {
            name: "qe0",
            addr: Ipv4Addr::new(128, 95, 1, 100),
            prefix_len: 24,
            mtu: 1500,
        });
        let mut p = Ipv4Packet::new(
            Ipv4Addr::new(128, 95, 1, 4),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Udp,
            vec![0; 10],
        );
        p.ttl = 1;
        st.forward(p);
        let out = st.drain_actions();
        let [StackAction::Egress { packet, .. }] = &out[..] else {
            panic!("{out:?}");
        };
        assert_eq!(packet.dst, Ipv4Addr::new(128, 95, 1, 4));
        let msg = IcmpMessage::decode(&packet.payload).unwrap();
        assert!(matches!(msg, IcmpMessage::TimeExceeded { .. }));
        assert_eq!(st.stats().ttl_expired, 1);
    }

    #[test]
    fn fragmented_ping_reassembles_and_replies() {
        let mut w = Wire::new();
        // Shrink a's MTU so the request fragments.
        w.a.iface_mut(w.a_if).mtu = 256;
        w.a.ping(ipa(2), 9, 3, 600);
        let out = w.a.drain_actions();
        assert!(out.len() >= 3, "request fragmented: {}", out.len());
        w.run(SimTime::ZERO, out, vec![]);
        assert_eq!(
            w.a_ev,
            vec![StackAction::PingReply {
                from: ipa(2),
                id: 9,
                seq: 3,
                len: 600
            }]
        );
    }

    #[test]
    fn fragments_of_datagrams_past_the_count_bound_are_refused() {
        let (mut st, iface) = NetStack::simple_host(ipa(1), 24, 1500, None);
        for id in 0..ip::REASSEMBLY_MAX_DATAGRAMS as u16 + 10 {
            let mut f = Ipv4Packet::new(ipa(2), ipa(1), Proto::Udp, vec![0; 8]);
            f.id = id;
            f.more_fragments = true;
            st.input(SimTime::ZERO, iface, &f.encode());
        }
        assert_eq!(st.reasm.pending_count(), ip::REASSEMBLY_MAX_DATAGRAMS);
        assert_eq!(st.stats().frag_dropped, 10);
    }

    #[test]
    fn no_route_is_counted() {
        let (mut st, _) = NetStack::simple_host(ipa(1), 24, 1500, None);
        st.ping(Ipv4Addr::new(99, 99, 99, 99), 1, 1, 8);
        assert!(st.drain_actions().is_empty());
        assert_eq!(st.stats().no_route, 1);
    }

    #[test]
    fn listener_port_conflicts_rejected() {
        let (mut st, _) = NetStack::simple_host(ipa(1), 24, 1500, None);
        st.tcp_listen(23, None).unwrap();
        assert_eq!(st.tcp_listen(23, Some(1)), Err(NetError::InUse));
        st.udp_bind(53).unwrap();
        assert_eq!(st.udp_bind(53), Err(NetError::InUse));
    }

    #[test]
    fn distinct_ephemeral_ports() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        w.b.tcp_listen(23, None).unwrap();
        let mut seen = Map::new();
        for i in 0..5 {
            let s = w.a.tcp_connect(now, ipa(2), 23).unwrap();
            let out = w.a.drain_actions();
            w.run(now, out, vec![]);
            let port = w.a.socks[s.0].tcb.local().1;
            assert!(seen.insert(port, i).is_none(), "port {port} reused");
        }
    }

    #[test]
    fn stack_timers_drive_tcp_retransmission() {
        let now = SimTime::ZERO;
        let (mut a, _aif) = NetStack::simple_host(ipa(1), 24, 1500, None);
        let _s = a.tcp_connect(now, ipa(2), 23).unwrap();
        assert_eq!(a.drain_actions().len(), 1, "SYN egress");
        let t = a.next_deadline().expect("rtx timer armed");
        a.poll_queued(t);
        let acts = a.drain_actions();
        assert!(
            acts.iter().any(|e| matches!(e, StackAction::Egress { .. })),
            "SYN retransmitted via stack poll"
        );
    }

    #[test]
    fn gate_control_messages_surface() {
        let (mut st, ifid) = NetStack::simple_host(Ipv4Addr::new(44, 24, 0, 28), 16, 256, None);
        let msg = IcmpMessage::GateClose {
            amateur: Ipv4Addr::new(44, 24, 0, 5),
            foreign: Ipv4Addr::new(128, 95, 1, 4),
            auth: None,
        };
        let p = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 5),
            Ipv4Addr::new(44, 24, 0, 28),
            Proto::Icmp,
            msg.encode(),
        );
        let acts = st.input(SimTime::ZERO, ifid, &p.encode());
        assert!(matches!(
            &acts[..],
            [StackAction::GateControl { from, .. }] if *from == Ipv4Addr::new(44, 24, 0, 5)
        ));
    }

    /// A toy tunnel map: exact destination -> endpoint.
    #[derive(Debug)]
    struct FixedTunnel(Map<Ipv4Addr, Ipv4Addr>);

    impl TunnelMap for FixedTunnel {
        fn endpoint(&mut self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
            self.0.get(&dst).copied()
        }
    }

    #[test]
    fn tunnel_map_wraps_output_before_routing() {
        let (mut st, ifid) = NetStack::simple_host(ipa(1), 24, 1500, None);
        // The only route to 44/8 would be the connected /24's gateway —
        // none exists, so without the tunnel this send would be no_route.
        let far = Ipv4Addr::new(44, 56, 0, 5);
        let mut map = Map::new();
        map.insert(far, ipa(2));
        st.set_tunnel_map(Box::new(FixedTunnel(map)));
        st.ping(far, 1, 1, 8);
        let out = st.drain_actions();
        let [StackAction::Egress {
            iface,
            next_hop,
            packet,
        }] = &out[..]
        else {
            panic!("{out:?}");
        };
        assert_eq!(*iface, ifid);
        assert_eq!(*next_hop, ipa(2), "routed by the tunnel endpoint");
        assert_eq!(packet.dst, ipa(2));
        assert_eq!(packet.proto, Proto::Other(ip::IPIP));
        let inner = Ipv4Packet::decode(&packet.payload).expect("inner packet");
        assert_eq!(inner.dst, far, "inner packet intact");
        assert_eq!(inner.proto, Proto::Icmp);
        assert_eq!(st.stats().ipip_out, 1);
        assert_eq!(st.stats().no_route, 0);
    }

    #[test]
    fn input_owned_pools_exactly_the_buffers_nothing_kept() {
        let now = SimTime::ZERO;
        // The driver's copy: the datagram plus room for one more header.
        let from_driver = |p: &Ipv4Packet| {
            let mut v = Vec::with_capacity(p.total_len() + ip::HEADER_LEN);
            v.extend_from_slice(&p.encode());
            v
        };
        let (mut st, ifid) = NetStack::simple_host(ipa(2), 24, 1500, None);
        st.cfg.ipip = true;
        let sock = st.udp_bind(520).unwrap();
        let dg = UdpDatagram {
            src_port: 520,
            dst_port: 520,
            payload: b"hello".to_vec(),
        };
        let local = Ipv4Packet::new(ipa(1), ipa(2), Proto::Udp, dg.encode(ipa(1), ipa(2)));
        // Whether input_owned left the allocation at `ptr` in the pool,
        // which this empties for the next case.
        let pooled = |st: &mut NetStack, ptr: *const u8| {
            let free: [Vec<u8>; crate::pool::DEPTH] =
                std::array::from_fn(|_| st.pool_mut().take(0));
            free.iter().any(|b| b.as_ptr() == ptr)
        };
        // What recvfrom lends: "hello", read where it arrived.
        let lent_in_place = |st: &mut NetStack, ptr: *const u8| {
            st.udp_recv(sock, |_, _, p| {
                p == b"hello" && p.as_ptr() == ptr.wrapping_add(udp::HEADER_LEN)
            })
        };
        // Delivered here: the socket queues the allocation that came in,
        // and recvfrom hands it back once it has lent the payload out.
        let wire = from_driver(&local);
        let ptr = wire.as_ptr();
        st.input_owned(now, ifid, wire);
        assert!(!pooled(&mut st, ptr), "queued on the socket");
        assert_eq!(lent_in_place(&mut st, ptr), Some(true));
        assert!(pooled(&mut st, ptr), "the allocation that came in");
        // Delivered through a tunnel: the inner datagram is still the
        // outer buffer, queued and handed back the same way.
        let outer = Ipv4Packet::new(ipa(1), ipa(2), Proto::Other(ip::IPIP), local.encode());
        let wire = from_driver(&outer);
        let ptr = wire.as_ptr();
        st.input_owned(now, ifid, wire);
        assert_eq!(lent_in_place(&mut st, ptr), Some(true));
        assert!(pooled(&mut st, ptr));
        // To a port nobody bound: answered, and handed back at once.
        let dg = UdpDatagram { dst_port: 9, ..dg };
        let closed = Ipv4Packet::new(ipa(1), ipa(2), Proto::Udp, dg.encode(ipa(1), ipa(2)));
        let wire = from_driver(&closed);
        let ptr = wire.as_ptr();
        st.input_owned(now, ifid, wire);
        assert!(pooled(&mut st, ptr));
        st.drain_actions();
        // Not ours, not forwarding: dropped, handed back.
        let stray = Ipv4Packet::new(ipa(1), ipa(9), Proto::Udp, vec![0; 8]);
        let wire = from_driver(&stray);
        let ptr = wire.as_ptr();
        st.input_owned(now, ifid, wire);
        assert!(pooled(&mut st, ptr));
        assert_eq!(st.stats().not_for_us, 1);
        // A fragment the reassembler holds lives on; so does a forward.
        let mut frag = local.clone();
        frag.id = 77;
        frag.more_fragments = true;
        let wire = from_driver(&frag);
        let ptr = wire.as_ptr();
        st.input_owned(now, ifid, wire);
        assert!(!pooled(&mut st, ptr));
        st.cfg.forwarding = true;
        let wire = from_driver(&stray);
        let ptr = wire.as_ptr();
        st.input_owned(now, ifid, wire);
        assert!(!pooled(&mut st, ptr));
        let acts = st.drain_actions();
        let Some(StackAction::ForwardNeeded { packet, .. }) = acts.last() else {
            panic!("{acts:?}");
        };
        assert_eq!(packet.payload, stray.payload);
        assert_eq!(packet.payload.as_ptr(), ptr);
        // Malformed: counted, and the buffer goes with it.
        let wire = vec![0x45; 10];
        let ptr = wire.as_ptr();
        st.input_owned(now, ifid, wire);
        assert!(!pooled(&mut st, ptr));
        assert_eq!(st.stats().bad_packets, 1);
    }

    #[test]
    fn a_forward_into_a_tunnel_is_wrapped_and_sent_in_the_drivers_buffer() {
        let (mut st, ifid) = NetStack::simple_host(ipa(1), 24, 1500, None);
        st.cfg.forwarding = true;
        let far = Ipv4Addr::new(44, 56, 0, 5);
        let mut map = Map::new();
        map.insert(far, ipa(2));
        st.set_tunnel_map(Box::new(FixedTunnel(map)));
        let transit = Ipv4Packet::new(ipa(7), far, Proto::Udp, vec![0x5A; 64]);
        // As a link driver copies it: room for one more header behind.
        let mut wire = Vec::with_capacity(transit.total_len() + ip::HEADER_LEN);
        wire.extend_from_slice(&transit.encode());
        let ptr = wire.as_ptr();
        st.input_owned(SimTime::ZERO, ifid, wire);
        let acts = st.drain_actions();
        let [StackAction::ForwardNeeded { packet, .. }] = <[_; 1]>::try_from(acts).unwrap() else {
            panic!("one forward");
        };
        st.forward(packet);
        let acts = st.drain_actions();
        let [StackAction::Egress { packet, .. }] = <[_; 1]>::try_from(acts).unwrap() else {
            panic!("one egress");
        };
        assert_eq!(packet.proto, Proto::Other(ip::IPIP));
        let on_wire = packet.into_wire();
        assert_eq!(
            on_wire.as_ptr(),
            ptr,
            "parsed, wrapped and encoded in place"
        );
        let outer = Ipv4Packet::decode(&on_wire).unwrap();
        let mut inner = Ipv4Packet::decode(&outer.payload).unwrap();
        inner.ttl += 1;
        assert_eq!(inner, transit);
    }

    #[test]
    fn ipip_input_decapsulates_and_forwards_inner() {
        let (mut st, ifid) = NetStack::simple_host(ipa(2), 24, 1500, None);
        st.cfg.ipip = true;
        st.cfg.forwarding = true;
        let inner = Ipv4Packet::new(ipa(1), Ipv4Addr::new(44, 56, 0, 5), Proto::Udp, vec![0; 8]);
        let outer = Ipv4Packet::new(ipa(1), ipa(2), Proto::Other(ip::IPIP), inner.encode());
        let acts = st.input(SimTime::ZERO, ifid, &outer.encode());
        let [StackAction::ForwardNeeded { packet, .. }] = &acts[..] else {
            panic!("{acts:?}");
        };
        assert_eq!(packet.dst, inner.dst, "inner surfaced for forwarding");
        assert_eq!(st.stats().ipip_in, 1);
    }

    #[test]
    fn ipip_input_delivers_inner_local_payload() {
        let (mut st, ifid) = NetStack::simple_host(ipa(2), 24, 1500, None);
        st.cfg.ipip = true;
        let sock = st.udp_bind(520).unwrap();
        let dg = UdpDatagram {
            src_port: 520,
            dst_port: 520,
            payload: b"hello".to_vec(),
        };
        let inner = Ipv4Packet::new(ipa(1), ipa(2), Proto::Udp, dg.encode(ipa(1), ipa(2)));
        let outer = Ipv4Packet::new(ipa(1), ipa(2), Proto::Other(ip::IPIP), inner.encode());
        let acts = st.input(SimTime::ZERO, ifid, &outer.encode());
        assert!(acts.contains(&StackAction::UdpReadable(sock)));
        assert_eq!(st.udp_recv(sock, |_, _, p| p == b"hello"), Some(true));
    }

    #[test]
    fn udp_lends_only_the_payload_its_length_covers() {
        // The IP payload runs past the UDP length field (trailing link
        // padding, say); the checksum covers only the UDP length, so the
        // datagram is valid and recvfrom lends exactly its payload.
        let (mut st, ifid) = NetStack::simple_host(ipa(2), 24, 1500, None);
        let sock = st.udp_bind(520).unwrap();
        let dg = UdpDatagram {
            src_port: 520,
            dst_port: 520,
            payload: b"hello".to_vec(),
        };
        let mut body = dg.encode(ipa(1), ipa(2));
        body.extend_from_slice(b"padding");
        let packet = Ipv4Packet::new(ipa(1), ipa(2), Proto::Udp, body);
        st.input(SimTime::ZERO, ifid, &packet.encode());
        assert_eq!(
            st.udp_recv(sock, |_, _, p| p.to_vec()).as_deref(),
            Some(&b"hello"[..])
        );
    }

    #[test]
    fn udp_queue_stops_at_its_bound_and_counts_the_rest() {
        let (mut st, ifid) = NetStack::simple_host(ipa(2), 24, 1500, None);
        let sock = st.udp_bind(520).unwrap();
        let wire = |n: u8| {
            let dg = UdpDatagram {
                src_port: 520,
                dst_port: 520,
                payload: vec![n],
            };
            Ipv4Packet::new(ipa(1), ipa(2), Proto::Udp, dg.encode(ipa(1), ipa(2))).encode()
        };
        // Bound, never read: the queue fills to its bound, and every
        // datagram past it is dropped and counted.
        const EXTRA: usize = 5;
        for n in 0..UDP_RX_QUEUE + EXTRA {
            st.input_owned(SimTime::ZERO, ifid, wire(n as u8));
        }
        assert_eq!(udp_queued(&st, sock), UDP_RX_QUEUE);
        assert_eq!(st.stats().udp_fullsock, EXTRA as u64);
        let readable = st
            .drain_actions()
            .iter()
            .filter(|a| **a == StackAction::UdpReadable(sock))
            .count();
        assert_eq!(readable, UDP_RX_QUEUE, "a dropped datagram wakes nobody");
        // The queue kept the oldest; reading one makes room for one more.
        assert_eq!(st.udp_recv(sock, |_, _, p| p[0]), Some(0));
        st.input_owned(SimTime::ZERO, ifid, wire(0xFF));
        assert_eq!(udp_queued(&st, sock), UDP_RX_QUEUE);
        assert_eq!(st.stats().udp_fullsock, EXTRA as u64);
    }

    #[test]
    fn ipip_without_decap_stays_protocol_unreachable() {
        let (mut st, ifid) = NetStack::simple_host(ipa(2), 24, 1500, None);
        let inner = Ipv4Packet::new(ipa(1), ipa(9), Proto::Udp, vec![0; 8]);
        let outer = Ipv4Packet::new(ipa(1), ipa(2), Proto::Other(ip::IPIP), inner.encode());
        let acts = st.input(SimTime::ZERO, ifid, &outer.encode());
        let [StackAction::Egress { packet, .. }] = &acts[..] else {
            panic!("{acts:?}");
        };
        assert_eq!(packet.proto, Proto::Icmp);
        assert_eq!(st.stats().ipip_in, 0);
    }

    #[test]
    fn udp_broadcast_bypasses_routing_and_draws_no_icmp() {
        let (mut a, a_if) = NetStack::simple_host(ipa(1), 24, 1500, None);
        let ua = a.udp_bind(520).unwrap();
        a.udp_send_broadcast(ua, a_if, 520, b"route 44.56/16".to_vec());
        let out = a.drain_actions();
        let [StackAction::Egress {
            next_hop, packet, ..
        }] = &out[..]
        else {
            panic!("{out:?}");
        };
        assert_eq!(*next_hop, Ipv4Addr::BROADCAST);
        assert_eq!(packet.dst, Ipv4Addr::BROADCAST);
        assert_eq!(packet.ttl, 1, "broadcasts stay on the link");

        // A listener receives it; a host with no socket stays silent
        // (no port-unreachable storm back at the announcer).
        let (mut b, b_if) = NetStack::simple_host(ipa(2), 24, 1500, None);
        let ub = b.udp_bind(520).unwrap();
        let acts = b.input(SimTime::ZERO, b_if, &packet.encode());
        assert!(acts.contains(&StackAction::UdpReadable(ub)));
        assert_eq!(b.udp_recv(ub, |from, _, _| from), Some(ipa(1)));
        let (mut c, c_if) = NetStack::simple_host(ipa(3), 24, 1500, None);
        let acts = c.input(SimTime::ZERO, c_if, &packet.encode());
        assert!(acts.is_empty(), "no ICMP about a broadcast: {acts:?}");
    }

    /// A hand-made segment from 10.0.0.1 to 10.0.0.2, as IP bytes.
    fn segment_to_b(src_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Vec<u8> {
        let seg = TcpSegment {
            header: TcpHeader {
                src_port,
                dst_port: 23,
                seq,
                ack,
                flags,
                window: 4096,
                mss: None,
            },
            payload: &[],
        };
        let bytes = seg.encode(ipa(1), ipa(2));
        Ipv4Packet::new(ipa(1), ipa(2), Proto::Tcp, bytes).encode()
    }

    #[test]
    fn children_are_accepted_in_handshake_completion_order() {
        let (mut b, b_if) = NetStack::simple_host(ipa(2), 24, 1500, None);
        let listener = b.tcp_listen(23, None).unwrap();
        let syn = TcpFlags {
            syn: true,
            ..Default::default()
        };
        let ack = TcpFlags {
            ack: true,
            ..Default::default()
        };
        // Two SYNs: the first spawns the lower SockId.
        let mut synack_seq = Vec::new();
        for port in [1025, 1026] {
            let out = b.input(SimTime::ZERO, b_if, &segment_to_b(port, 100, 0, syn));
            synack_seq.push(first_egress_segment(&out).seq);
        }
        // The second handshake completes first.
        let mut accepted = Vec::new();
        for (port, i) in [(1026, 1), (1025, 0)] {
            let bytes = segment_to_b(port, 101, synack_seq[i].wrapping_add(1), ack);
            for act in b.input(SimTime::ZERO, b_if, &bytes) {
                if let StackAction::TcpAccepted { sock, .. } = act {
                    accepted.push(sock);
                }
            }
        }
        assert_eq!(accepted.len(), 2);
        assert_eq!(accept_queued(&b, listener), 2);
        assert_eq!(b.socks[accepted[0].0].tcb.remote(), (ipa(1), 1026));
        assert_eq!(b.tcp_accept(listener), Some(accepted[0]));
        assert_eq!(b.tcp_accept(listener), Some(accepted[1]));
        assert_eq!(b.tcp_accept(listener), None);
    }

    #[test]
    fn the_handshake_disarms_the_connect_timer() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        w.b.tcp_listen(23, None).unwrap();
        let ca = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        assert!(w
            .a
            .next_deadline()
            .is_some_and(|t| t <= now + CONNECT_TIMEOUT));
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert!(w.a_ev.contains(&StackAction::TcpConnected(ca)));
        assert_eq!(w.a.next_deadline(), None, "an idle connection has no timer");
        w.a.poll_queued(now + CONNECT_TIMEOUT);
        assert!(w.a.actions_empty());
        assert_eq!(w.a.socks[ca.0].tcb.state(), TcpState::Established);
        assert_eq!(w.a.socks[ca.0].error, None);
    }

    #[test]
    fn a_closed_listener_frees_its_port_and_aborts_its_queue() {
        let mut w = Wire::new();
        let now = SimTime::ZERO;
        let listener = w.b.tcp_listen(23, None).unwrap();
        let ca = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert_eq!(accept_queued(&w.b, listener), 1);
        // Closing aborts the child nobody accepted: the client is reset.
        w.b.tcp_unlisten(now, listener);
        let out = w.b.drain_actions();
        w.run(now, vec![], out);
        assert!(w.a_ev.contains(&StackAction::TcpClosed {
            sock: ca,
            reset: true
        }));
        assert_eq!(w.b.tcp_accept(listener), None);
        // A SYN to the port now draws a RST.
        let c2 = w.a.tcp_connect(now, ipa(2), 23).unwrap();
        let out = w.a.drain_actions();
        w.run(now, out, vec![]);
        assert_eq!(w.a.socks[c2.0].error, Some(ConnError::Refused));
        // The port can be listened on again, under a fresh id.
        let again = w.b.tcp_listen(23, None).unwrap();
        assert_ne!(again, listener);
    }

    #[test]
    fn a_closed_udp_socket_frees_its_port_and_gives_back_its_buffers() {
        let (mut st, ifid) = NetStack::simple_host(ipa(2), 24, 1500, None);
        let sock = st.udp_bind(520).unwrap();
        let dg = UdpDatagram {
            src_port: 520,
            dst_port: 520,
            payload: b"hello".to_vec(),
        };
        let wire = Ipv4Packet::new(ipa(1), ipa(2), Proto::Udp, dg.encode(ipa(1), ipa(2))).encode();
        let mut queued = Vec::new();
        for _ in 0..crate::pool::DEPTH {
            let buf = wire.clone();
            queued.push(buf.as_ptr());
            st.input_owned(SimTime::ZERO, ifid, buf);
        }
        assert_eq!(udp_queued(&st, sock), crate::pool::DEPTH);
        st.udp_unbind(sock);
        assert_eq!(udp_queued(&st, sock), 0);
        // The pool holds exactly the buffers the socket had queued.
        let free: [Vec<u8>; crate::pool::DEPTH] = std::array::from_fn(|_| st.pool_mut().take(0));
        let mut free: Vec<_> = free.iter().map(|b| b.as_ptr()).collect();
        free.sort_unstable();
        queued.sort_unstable();
        assert_eq!(free, queued);
        // The port is free again; a datagram to the dead id goes nowhere.
        let again = st.udp_bind(520).unwrap();
        assert_ne!(again, sock);
        st.udp_send(sock, ipa(1), 520, b"late".to_vec());
        assert!(st
            .drain_actions()
            .iter()
            .all(|a| !matches!(a, StackAction::Egress { .. })));
    }

    #[test]
    fn quoted_flow_parser_handles_garbage() {
        assert_eq!(quoted_tcp_flow(&[]), None);
        assert_eq!(quoted_tcp_flow(&[0u8; 19]), None);
        // Non-TCP quote.
        let mut udp_quote = vec![0u8; 28];
        udp_quote[0] = 0x45;
        udp_quote[9] = 17;
        assert_eq!(quoted_tcp_flow(&udp_quote), None);
        // Options-bearing header (ihl 6) with too little room for ports.
        let mut short = vec![0u8; 25];
        short[0] = 0x46;
        short[9] = 6;
        assert_eq!(quoted_tcp_flow(&short), None);
        // A well-formed quote parses.
        let mut ok = vec![0u8; 28];
        ok[0] = 0x45;
        ok[9] = 6;
        ok[12..16].copy_from_slice(&[10, 0, 0, 1]);
        ok[16..20].copy_from_slice(&[44, 99, 0, 7]);
        ok[20..22].copy_from_slice(&1025u16.to_be_bytes());
        ok[22..24].copy_from_slice(&23u16.to_be_bytes());
        assert_eq!(
            quoted_tcp_flow(&ok),
            Some(((ipa(1), 1025), (Ipv4Addr::new(44, 99, 0, 7), 23)))
        );
    }
}
