//! The packet radio pseudo-device driver — the heart of the paper.
//!
//! §2.2: *"a pseudo-device driver for the packet radio controller was
//! implemented … Since the packet controller does not sit on the bus,
//! communication with it is through a serial line, and hence the driver
//! is a pseudo-driver."* The pieces reproduced here, faithfully:
//!
//! * [`PacketRadioDriver::rint`] — the receive interrupt handler, *"the
//!   most difficult routine to write"*, entered once per run of
//!   characters the tty delivers and charged per character: characters are
//!   buffered as they arrive, *"escaped frame end characters that are
//!   embedded in the packet are decoded"* on the fly (the incremental
//!   KISS deframer), and on the final frame end the header is checked —
//!   recipient callsign must be *"either its own, or the broadcast
//!   address"* — and the protocol ID field demultiplexed: IP packets go
//!   up to the IP input queue, anything else is diverted to a tty-style
//!   queue a user program can read (§2.4's application-gateway hook).
//! * [`PacketRadioDriver::output`] — encapsulates IP packets in AX.25 UI
//!   frames and KISS-frames them for the serial line, resolving the
//!   destination with the driver's own AX.25 ARP (digipeater paths
//!   included).

use ax25::addr::Ax25Addr;
use ax25::frame::{Frame, FrameHeader, Pid};
use filter::{FilterEngine, PacketMeta};
use kiss::{Command, Deframer};
use netstack::arp::{hw_type, ArpPacket};
use netstack::ip::{self, Ipv4Packet};
use netstack::pool::DgramPool;
use serial::Seal;
use sim::{PoolStats, SimTime};
use std::net::Ipv4Addr;

use crate::arp_engine::{ArpEngine, Resolution};
use crate::hwaddr::Ax25Hw;
use crate::ifnet::IfNet;
use vj::{VjCompressor, VjDecompressor, VjOutcome};

/// AX.25 interface MTU: the default N1 info-field limit.
pub const AX25_MTU: usize = 256;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct PrConfig {
    /// This station's callsign (the interface's link address).
    pub my_call: Ax25Addr,
    /// Destination addresses accepted as broadcast besides `QST`, which
    /// every driver accepts.
    pub broadcast: Vec<Ax25Addr>,
}

impl PrConfig {
    /// A driver for `my_call` accepting `QST` broadcasts and no others.
    pub fn new(my_call: Ax25Addr) -> PrConfig {
        PrConfig {
            my_call,
            broadcast: Vec::new(),
        }
    }
}

/// Driver counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrStats {
    /// Characters pushed through the interrupt handler.
    pub rint_chars: u64,
    /// Complete frames assembled.
    pub frames_in: u64,
    /// Frames discarded: not our callsign or broadcast.
    pub not_for_us: u64,
    /// Frames discarded: still carrying an untraversed digipeater path.
    pub not_repeated: u64,
    /// Frames discarded: undecodable AX.25.
    pub bad_frames: u64,
    /// IP packets passed up.
    pub ip_in: u64,
    /// ARP packets consumed.
    pub arp_in: u64,
    /// Non-IP frames diverted to the tty queue (§2.4).
    pub diverted: u64,
    /// IP packets encapsulated and transmitted.
    pub ip_out: u64,
    /// Info-field bytes of transmitted IP-bearing frames (after any VJ
    /// compression) — the TCP/IP bytes actually put on the air.
    pub ip_bytes_out: u64,
    /// VJ frames (PID 0x06/0x07) dropped by the decompressor: tossed
    /// while awaiting a refresh, or failing reconstruction.
    pub vj_drop: u64,
    /// Inbound IP packets dropped by the packet-filter engine before
    /// reaching the input queue (DESIGN.md §13).
    pub filter_drop_in: u64,
    /// Outbound IP packets dropped by the packet-filter engine before
    /// ARP resolution.
    pub filter_drop_out: u64,
}

/// Why the §2.2 address test turns a frame away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discard {
    /// Not a decodable AX.25 frame.
    Bad,
    /// Still carrying an untraversed digipeater path.
    NotRepeated,
    /// Addressed to neither our callsign nor a broadcast address.
    NotForUs,
}

/// [`Seal`] flag: the header peek succeeded.
const SEAL_PEEKED: u8 = 1;
/// [`Seal`] flag: every digipeater hop has been traversed.
const SEAL_REPEATED: u8 = 2;

/// Packs what the §2.2 address test needs of a frame's peeked header
/// (`None`: the peek failed) into a [`Seal`]: the destination's callsign
/// and SSID, then the two flags. A pure function of the frame's bytes —
/// nothing of the station that will judge it.
pub fn seal(header: Option<&FrameHeader>) -> Seal {
    let mut octets = [0; 8];
    if let Some(hdr) = header {
        octets[..6].copy_from_slice(hdr.dest.call.as_bytes());
        octets[6] = hdr.dest.ssid;
        octets[7] = SEAL_PEEKED | if hdr.fully_repeated { SEAL_REPEATED } else { 0 };
    }
    Seal(octets)
}

/// What `rint` hands the rest of the kernel when a frame completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrEvent {
    /// An encapsulated IP packet (raw bytes for the IP input queue).
    IpPacket(Vec<u8>),
    /// A non-IP frame for the tty divert queue (§2.4).
    Divert(Frame),
}

/// The packet radio pseudo-device driver.
#[derive(Debug)]
pub struct PacketRadioDriver {
    /// The `if_net` entry ("pr0").
    pub ifnet: IfNet,
    cfg: PrConfig,
    deframer: Deframer,
    /// The tty's output queue (BSD's `t_outq`): KISS-framed bytes for the
    /// serial line to the TNC, not yet handed to it.
    outq: Vec<u8>,
    arp: ArpEngine,
    stats: PrStats,
    /// RFC 1144 header compression state, when enabled on this link; out
    /// of line, as only the paper topology's link with `vj` set has it.
    vj: Option<Box<VjLink>>,
}

/// Both halves of the RFC 1144 state for one radio link: this station
/// compresses what it transmits and decompresses what it hears.
#[derive(Debug)]
struct VjLink {
    comp: VjCompressor,
    decomp: VjDecompressor,
}

impl PacketRadioDriver {
    /// Creates the driver for an interface numbered `my_ip`.
    pub fn new(cfg: PrConfig, my_ip: Ipv4Addr) -> PacketRadioDriver {
        let my_hw = Ax25Hw::direct(cfg.my_call).encode();
        let arp = ArpEngine::new(hw_type::AX25, my_hw, my_ip);
        PacketRadioDriver {
            ifnet: IfNet::default(),
            cfg,
            deframer: Deframer::new(),
            outq: Vec::new(),
            arp,
            stats: PrStats::default(),
            vj: None,
        }
    }

    /// Turns on RFC 1144 TCP/IP header compression for this link (both
    /// directions). Must be enabled at every station sharing the link;
    /// with it off, PIDs 0x06/0x07 divert to the §2.4 tty queue like any
    /// other unknown protocol.
    pub(crate) fn enable_vj(&mut self) {
        self.vj = Some(Box::new(VjLink {
            comp: VjCompressor::new(),
            decomp: VjDecompressor::new(),
        }));
    }

    /// Compressor/decompressor counters, when VJ is enabled.
    pub fn vj_stats(&self) -> Option<(vj::VjCompStats, vj::VjDecompStats)> {
        self.vj.as_ref().map(|l| (l.comp.stats(), l.decomp.stats()))
    }

    /// The interface's callsign.
    pub fn my_call(&self) -> Ax25Addr {
        self.cfg.my_call
    }

    /// Driver counters.
    pub fn stats(&self) -> PrStats {
        self.stats
    }

    /// The KISS deframer's counters.
    pub fn deframer_stats(&self) -> kiss::DeframerStats {
        self.deframer.stats()
    }

    /// The driver's ARP engine (for static digipeater-path entries, per
    /// §2.3's "some entries may contain additional callsigns for
    /// digipeaters").
    pub fn arp_mut(&mut self) -> &mut ArpEngine {
        &mut self.arp
    }

    /// The ARP engine, read-only.
    pub fn arp(&self) -> &ArpEngine {
        &self.arp
    }

    /// The tty's output queue: KISS-framed bytes for the serial line to
    /// the TNC, in order. Whoever hands them to the line clears it.
    pub fn tty_outq(&mut self) -> &mut Vec<u8> {
        &mut self.outq
    }

    /// Accepts an additional destination address as broadcast (e.g. the
    /// `NODES` address a NET/ROM router listens to).
    pub fn add_broadcast_addr(&mut self, addr: Ax25Addr) {
        if addr != Ax25Addr::broadcast() && !self.cfg.broadcast.contains(&addr) {
            self.cfg.broadcast.push(addr);
        }
    }

    /// Always zero: the driver leases no transmit buffer.
    #[doc(hidden)] // serves benchmarks/src/layers.rs:82 (ROADMAP 2(a))
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }

    // --- Receive path ------------------------------------------------------

    /// Drops what the tty had buffered both ways (the host lost power):
    /// the output queue, and the half-received KISS frame a receiver that
    /// stops listening must not keep for the next `FEND` (DESIGN.md §6).
    pub(crate) fn power_down(&mut self) {
        self.outq.clear();
        self.deframer.reset();
    }

    /// The receive interrupt handler, entered once per run of serial
    /// characters the tty delivers.
    ///
    /// Characters are buffered as they arrive and frames found by the bulk
    /// KISS deframer: clean frame bodies are located with word-at-a-time
    /// scanning and copied in bulk instead of stepping the per-byte state
    /// machine, with events and transmissions identical to one call per
    /// character. Each completed frame is classified and its event
    /// delivered through `on_event` with the slice index of its closing
    /// `FEND`; any frames the driver itself wants transmitted (ARP replies,
    /// packets released by an ARP resolution) are KISS-framed onto its
    /// tty output queue. [`PrStats::rint_chars`] counts every
    /// character, so the paper's §3 per-character cost model holds
    /// whatever the run length.
    ///
    /// `filter` is the host's packet-filter engine, lent for the call
    /// (DESIGN.md §13): an inbound IP datagram is judged before its info
    /// field is even copied out of the deframer buffer — a denied flood
    /// costs the fast-path classification and nothing else. `None` means
    /// no policy.
    ///
    /// The fast path is allocation-free: mid-frame characters only touch
    /// the deframer's reusable buffer, and a completed frame is classified
    /// from an [`FrameHeader::peek`] of the wire bytes — a frame addressed
    /// to another station (§3: under a promiscuous TNC, *most* frames) is
    /// counted and dropped without the heap ever being involved. An IP
    /// datagram for us is copied once, into a buffer from the host's
    /// `pool` ([`DgramPool::copy`]); only digipeated and diverted frames
    /// pay for a full [`Frame::decode`].
    ///
    /// `now` stamps every frame completed in this slice (ARP learning);
    /// callers that need exact per-frame timestamps end each batch at a
    /// frame boundary, as the world's run delivery does (DESIGN.md §6).
    pub fn rint(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        pool: &mut DgramPool,
        mut filter: Option<&mut FilterEngine>,
        mut on_event: impl FnMut(usize, PrEvent),
    ) {
        self.stats.rint_chars += bytes.len() as u64;
        // Detach the deframer so each completed frame (which borrows the
        // deframer's buffer) can be classified against `&mut self`.
        let mut deframer = std::mem::replace(&mut self.deframer, Deframer::placeholder());
        deframer.push_slice(bytes, |idx, kiss_frame| {
            let filter = filter.as_deref_mut();
            if let Some(event) = self.classify_frame(now, kiss_frame, pool, filter) {
                on_event(idx, event);
            }
        });
        self.deframer = deframer;
    }

    /// [`rint`](PacketRadioDriver::rint) with an empty
    /// pool and no filter; what it transmits leaves the tty output queue
    /// for `tx`, as one buffer.
    #[doc(hidden)] // serves benchmarks/src/probes.rs:219 (ROADMAP 2(a))
    pub fn rint_slice(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        tx: &mut Vec<sim::PacketBuf>,
        on_event: impl FnMut(usize, PrEvent),
    ) {
        let queued = self.outq.len();
        self.rint(now, bytes, &mut DgramPool::new(), None, on_event);
        if self.outq.len() > queued {
            tx.push(sim::PacketBuf::from_vec(self.outq.split_off(queued)));
        }
    }

    /// The §2.2 address test, on what [`seal`] keeps of a frame: the
    /// recipient callsign must be *"either its own, or the broadcast
    /// address"*, and a frame still being digipeated is not ours to
    /// consume even if our callsign is the final destination.
    fn address_test(&self, seal: Seal) -> Option<Discard> {
        let [call @ .., ssid, flags] = seal.0;
        if flags & SEAL_PEEKED == 0 {
            return Some(Discard::Bad);
        }
        if flags & SEAL_REPEATED == 0 {
            return Some(Discard::NotRepeated);
        }
        let is_dest = |a: &Ax25Addr| *a.call.as_bytes() == call && a.ssid == ssid;
        let for_us = is_dest(&self.cfg.my_call)
            || is_dest(&Ax25Addr::broadcast())
            || self.cfg.broadcast.iter().any(is_dest);
        (!for_us).then_some(Discard::NotForUs)
    }

    fn count_discard(&mut self, why: Discard) {
        match why {
            Discard::Bad => {
                self.stats.bad_frames += 1;
                self.ifnet.stats.ierrors += 1;
            }
            Discard::NotRepeated => self.stats.not_repeated += 1,
            Discard::NotForUs => self.stats.not_for_us += 1,
        }
    }

    /// Whether the data frame behind `seal`, arriving whole right now,
    /// would do nothing but be counted and dropped — and why: the
    /// deframer holds no part of an earlier frame, and the address test
    /// turns this one away. Asked at delivery, of the driver as it is
    /// configured then.
    #[inline]
    pub(crate) fn would_discard(&self, seal: Seal) -> Option<Discard> {
        if !self.deframer.at_rest() {
            return None;
        }
        self.address_test(seal)
    }

    /// Takes the `n` serial characters of a frame that
    /// [`would_discard`](PacketRadioDriver::would_discard) just turned
    /// away, without reading them: every counter
    /// [`rint`](PacketRadioDriver::rint) moves for such a
    /// frame moves here.
    pub(crate) fn rint_discarded(&mut self, n: usize, why: Discard) {
        self.stats.rint_chars += n as u64;
        self.deframer.skip_frame(n);
        self.stats.frames_in += 1;
        self.count_discard(why);
    }

    /// Classifies one completed KISS frame: the §2.2 address filter and
    /// PID demultiplex.
    fn classify_frame(
        &mut self,
        now: SimTime,
        kiss_frame: kiss::KissFrameRef<'_>,
        pool: &mut DgramPool,
        filter: Option<&mut FilterEngine>,
    ) -> Option<PrEvent> {
        if kiss_frame.command != Command::Data {
            return None;
        }
        self.stats.frames_in += 1;
        let payload = kiss_frame.payload;
        let hdr = FrameHeader::peek(payload);
        if let Some(why) = self.address_test(seal(hdr.as_ref().ok())) {
            self.count_discard(why);
            return None;
        }
        let hdr = hdr.expect("a failed peek is discarded as Bad");
        self.ifnet.stats.ipackets += 1;
        match hdr.pid {
            Some(Pid::Ip) => {
                self.stats.ip_in += 1;
                // The filter judges the datagram in place, before the
                // info field is copied, before ARP learns anything from
                // the frame: a denied flood teaches us nothing and
                // costs no allocation.
                if !self.inbound_allowed(now, filter, &payload[hdr.info_start..]) {
                    return None;
                }
                if hdr.num_digipeaters == 0 {
                    // Direct traffic: hand the info field up without even
                    // materializing a Frame.
                    let datagram = &payload[hdr.info_start..];
                    return Some(PrEvent::IpPacket(pool.copy(datagram)));
                }
                // Digipeated traffic: glean a path-aware ARP entry (§2.3) —
                // the sender is reachable back through the reversed relay
                // list, which no broadcast ARP could teach us across the
                // hidden segment. This needs the digipeater list, so decode
                // fully (peek already validated, so this cannot fail).
                let frame = Frame::decode(payload).expect("peek-validated frame");
                if let Some(src_ip) = ip_source(&frame.info) {
                    let path: Vec<Ax25Addr> =
                        frame.digipeaters.iter().rev().map(|d| d.addr).collect();
                    let hw = Ax25Hw::via(frame.source, &path);
                    self.arp.insert_learned(now, src_ip, hw.encode());
                    for p in self.arp.release_held(src_ip) {
                        self.encapsulate_ip(p, &hw, pool);
                    }
                }
                Some(PrEvent::IpPacket(frame.info))
            }
            Some(Pid::UncompressedTcp) if self.vj.is_some() => {
                // RFC 1144 refresh: the full datagram with the protocol
                // byte carrying the slot number. Re-seed the decompressor
                // and hand the restored datagram up.
                let mut bytes = pool.copy(&payload[hdr.info_start..]);
                let link = self.vj.as_mut().expect("guarded");
                let restored = link.decomp.refresh(&mut bytes).is_ok();
                self.count_vj_in(now, restored, bytes, pool, filter)
            }
            Some(Pid::CompressedTcp) if self.vj.is_some() => {
                let mut out = pool.take(AX25_MTU + ip::HEADER_LEN);
                let link = self.vj.as_mut().expect("guarded");
                // Tossed or failed reconstruction: drop here and let TCP's
                // retransmission (sent as a refresh) resynchronise the slot.
                let restored = link
                    .decomp
                    .decompress(&payload[hdr.info_start..], &mut out)
                    .is_ok();
                self.count_vj_in(now, restored, out, pool, filter)
            }
            Some(Pid::Arp) => {
                self.stats.arp_in += 1;
                // §2.3: ARP entries "may contain additional callsigns for
                // digipeaters". A digipeated request teaches us the
                // reverse path to the sender, so only the originating
                // station needs manual path configuration.
                let reverse_path: Vec<Ax25Addr> = if hdr.num_digipeaters == 0 {
                    Vec::new()
                } else {
                    let frame = Frame::decode(payload).expect("peek-validated frame");
                    frame.digipeaters.iter().rev().map(|d| d.addr).collect()
                };
                let info = &payload[hdr.info_start..];
                self.handle_arp_info(now, info, hdr.source, &reverse_path, pool);
                None
            }
            _ => {
                // "Packets that are received from the TNC that are not of
                // type IP can be placed on the input queue for the
                // appropriate tty line." (§2.4)
                self.stats.diverted += 1;
                let frame = Frame::decode(payload).expect("peek-validated frame");
                Some(PrEvent::Divert(frame))
            }
        }
    }

    /// The tail both RFC 1144 arms share: a datagram the decompressor
    /// restored into `bytes` is counted and judged like any other, one it
    /// could not restore is a `vj_drop`; a buffer that does not go up goes
    /// back to the pool it came from.
    fn count_vj_in(
        &mut self,
        now: SimTime,
        restored: bool,
        bytes: Vec<u8>,
        pool: &mut DgramPool,
        filter: Option<&mut FilterEngine>,
    ) -> Option<PrEvent> {
        if restored {
            self.stats.ip_in += 1;
            if self.inbound_allowed(now, filter, &bytes) {
                return Some(PrEvent::IpPacket(bytes));
            }
        } else {
            self.stats.vj_drop += 1;
        }
        pool.give(bytes);
        None
    }

    /// Judges an inbound IP datagram against the lent filter, counting
    /// the drop. Malformed headers pass through unjudged — the stack's own
    /// input validation owns that accounting.
    #[inline]
    fn inbound_allowed(
        &mut self,
        now: SimTime,
        filter: Option<&mut FilterEngine>,
        ip_bytes: &[u8],
    ) -> bool {
        let Some(engine) = filter else {
            return true;
        };
        let Some(meta) = PacketMeta::parse(ip_bytes) else {
            return true;
        };
        if engine.eval(now, &meta).is_allow() {
            true
        } else {
            self.stats.filter_drop_in += 1;
            false
        }
    }

    fn handle_arp_info(
        &mut self,
        now: SimTime,
        info: &[u8],
        link_source: Ax25Addr,
        reverse_path: &[Ax25Addr],
        pool: &mut DgramPool,
    ) {
        let Ok(arp) = ArpPacket::decode(info) else {
            self.stats.bad_frames += 1;
            return;
        };
        // When the frame was digipeated, the sender's usable hardware
        // address is its link address plus the reversed relay path — the
        // flat ARP wire format cannot carry that, so the path-aware entry
        // is learned here, out of band.
        let path_override = (!reverse_path.is_empty()
            && reverse_path.len() <= ax25::MAX_DIGIPEATERS
            && Ax25Hw::decode(&arp.sender_hw)
                .map(|hw| hw.station == link_source)
                .unwrap_or(false))
        .then(|| Ax25Hw::via(link_source, reverse_path));

        let (reply, released) = self.arp.on_arp(now, &arp);
        if let Some(reply) = reply {
            // Reply directly to the asker, via the learned path if any.
            let dest_hw = match &path_override {
                Some(hw) => Some(hw.clone()),
                None => Ax25Hw::decode(&reply.target_hw).ok(),
            };
            if let Some(hw) = dest_hw {
                self.encapsulate_arp(&reply, &hw, pool);
            }
        }
        if let Ok(hw) = Ax25Hw::decode(&arp.sender_hw) {
            for packet in released {
                self.encapsulate_ip(packet, &hw, pool);
            }
        }
        if let Some(hw) = &path_override {
            // The path-aware entry replaces the flat one `on_arp` learned,
            // and releases what `on_arp` did not (it ignores a foreign
            // hardware type).
            self.arp.insert_learned(now, arp.sender_ip, hw.encode());
            for packet in self.arp.release_held(arp.sender_ip) {
                self.encapsulate_ip(packet, hw, pool);
            }
        }
    }

    // --- Transmit path --------------------------------------------------------

    /// Outputs an IP packet toward `next_hop`, resolving its AX.25
    /// address; the frame is KISS-framed onto the tty output queue
    /// (possibly an ARP request while the packet waits). A broadcast
    /// next hop (RIP44 announcements) bypasses ARP and goes out as a UI
    /// frame to the `QST` broadcast address. Once the datagram is on the
    /// queue its buffer goes to the host's `pool`, which also supplies the
    /// buffer an ARP request is built in. The lent `filter` judges the
    /// packet before ARP resolution, so denied traffic never generates
    /// ARP queries.
    pub fn output(
        &mut self,
        now: SimTime,
        packet: Ipv4Packet,
        next_hop: Ipv4Addr,
        pool: &mut DgramPool,
        filter: Option<&mut FilterEngine>,
    ) {
        if next_hop == Ipv4Addr::BROADCAST {
            self.stats.ip_out += 1;
            self.ifnet.stats.opackets += 1;
            let bytes = packet.into_wire();
            self.stats.ip_bytes_out += bytes.len() as u64;
            let frame = Frame::ui(Ax25Addr::broadcast(), self.cfg.my_call, Pid::Ip, bytes);
            self.emit_kiss(frame, pool);
            return;
        }
        // Outbound policy runs before ARP: a denied packet (a spoofed
        // flood in transit toward the channel, say) must not trigger a
        // resolution broadcast or hold a pending-queue slot. Broadcast
        // announcements above are link control and bypass the filter.
        if let Some(engine) = filter {
            let meta = PacketMeta::of(&packet);
            if !engine.eval(now, &meta).is_allow() {
                self.stats.filter_drop_out += 1;
                return;
            }
        }
        match self.arp.resolve(now, next_hop, packet) {
            Resolution::Send(hw_bytes, packet) => match Ax25Hw::decode(&hw_bytes) {
                Ok(hw) => self.encapsulate_ip(packet, &hw, pool),
                Err(_) => {
                    self.ifnet.stats.oerrors += 1;
                }
            },
            Resolution::Pending(Some(request)) => self.broadcast_arp(&request, pool),
            Resolution::Pending(None) => {}
            Resolution::Dropped => {
                self.ifnet.stats.oerrors += 1;
            }
        }
    }

    /// The ARP engine's clock ([`ArpEngine::age`]); requests to retransmit
    /// go onto the tty output queue.
    pub(crate) fn age_arp(&mut self, now: SimTime, pool: &mut DgramPool) {
        for r in self.arp.age(now) {
            self.broadcast_arp(&r, pool);
        }
    }

    /// Sends a raw AX.25 frame from "user space" (the §2.4 application
    /// gateway writing back down the tty), KISS-framed onto the tty
    /// output queue.
    pub(crate) fn send_raw_frame(&mut self, frame: &Frame) {
        self.ifnet.stats.opackets += 1;
        kiss_onto(&mut self.outq, frame);
    }

    fn encapsulate_ip(&mut self, packet: Ipv4Packet, hw: &Ax25Hw, pool: &mut DgramPool) {
        self.stats.ip_out += 1;
        self.ifnet.stats.opackets += 1;
        let mut bytes = packet.into_wire();
        // RFC 1144 classification: TCP segments shrink their header to a
        // handful of delta bytes; everything else rides PID 0xCC as ever.
        let pid = match &mut self.vj {
            Some(link) => match link.comp.compress(&mut bytes) {
                VjOutcome::Ip => Pid::Ip,
                VjOutcome::Uncompressed => Pid::UncompressedTcp,
                VjOutcome::Compressed { start } => {
                    bytes.drain(..start);
                    Pid::CompressedTcp
                }
            },
            None => Pid::Ip,
        };
        self.stats.ip_bytes_out += bytes.len() as u64;
        let frame = Frame::ui(hw.station, self.cfg.my_call, pid, bytes).via(&hw.path);
        self.emit_kiss(frame, pool);
    }

    fn encapsulate_arp(&mut self, arp: &ArpPacket, hw: &Ax25Hw, pool: &mut DgramPool) {
        self.ifnet.stats.opackets += 1;
        // Encoded in a pool buffer, which goes straight back.
        let mut info = pool.take(arp.wire_len());
        arp.encode_into(&mut info);
        let frame = Frame::ui(hw.station, self.cfg.my_call, Pid::Arp, info).via(&hw.path);
        self.emit_kiss(frame, pool);
    }

    fn broadcast_arp(&mut self, arp: &ArpPacket, pool: &mut DgramPool) {
        self.encapsulate_arp(arp, &Ax25Hw::direct(Ax25Addr::broadcast()), pool);
    }

    /// KISS-frames an AX.25 frame onto the tty output queue
    /// ([`kiss_onto`]). The frame lives on in those bytes; its info
    /// field's own allocation goes to the host's datagram `pool`.
    fn emit_kiss(&mut self, frame: Frame, pool: &mut DgramPool) {
        kiss_onto(&mut self.outq, &frame);
        pool.give(frame.info);
    }
}

/// Room one KISS frame can take: header + MTU with every octet a
/// FEND/FESC escape, plus the delimiters.
const KISS_FRAME_MAX: usize = 2 * (AX25_MTU + 72) + 3;

/// KISS-frames `frame` onto the tty output queue `tx`, the AX.25 encoder
/// streaming through the escaper. Reserving a worst-case frame first makes
/// the queue grow a frame at a time, not by doubling from a few bytes.
fn kiss_onto(tx: &mut Vec<u8>, frame: &Frame) {
    tx.reserve(KISS_FRAME_MAX);
    kiss::encode_frame_into(0, Command::Data, tx, |esc| frame.encode_into(esc));
}

/// Extracts the source address of an IPv4 header without a full decode.
fn ip_source(bytes: &[u8]) -> Option<Ipv4Addr> {
    let [vihl, _, _, _, _, _, _, _, _, _, _, _, s0, s1, s2, s3, ..] = *bytes.first_chunk::<20>()?;
    (vihl >> 4 == 4).then(|| Ipv4Addr::new(s0, s1, s2, s3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::ip::Proto;

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    fn gw_ip() -> Ipv4Addr {
        Ipv4Addr::new(44, 24, 0, 28)
    }

    fn pc_ip() -> Ipv4Addr {
        Ipv4Addr::new(44, 24, 0, 5)
    }

    fn driver() -> PacketRadioDriver {
        PacketRadioDriver::new(PrConfig::new(a("N7AKR-1")), gw_ip())
    }

    /// `rint` once per byte of `bytes`, lending the driver `pool` and no
    /// filter; returns the events and takes the tty output queue.
    fn feed_in(
        drv: &mut PacketRadioDriver,
        pool: &mut DgramPool,
        bytes: &[u8],
    ) -> (Vec<PrEvent>, Vec<u8>) {
        let mut events = Vec::new();
        for b in bytes.chunks(1) {
            drv.rint(SimTime::ZERO, b, pool, None, |_, ev| events.push(ev));
        }
        (events, std::mem::take(drv.tty_outq()))
    }

    /// [`feed_in`] with an empty pool.
    fn feed(drv: &mut PacketRadioDriver, bytes: &[u8]) -> (Vec<PrEvent>, Vec<u8>) {
        feed_in(drv, &mut DgramPool::new(), bytes)
    }

    /// [`PacketRadioDriver::output`] with an empty pool and no filter;
    /// takes the tty output queue.
    fn send(drv: &mut PacketRadioDriver, packet: Ipv4Packet, next_hop: Ipv4Addr) -> Vec<u8> {
        drv.output(SimTime::ZERO, packet, next_hop, &mut DgramPool::new(), None);
        std::mem::take(drv.tty_outq())
    }

    /// Every AX.25 frame KISS-framed on a tty output queue, in order.
    fn frames(tx: &[u8]) -> Vec<Frame> {
        kiss::decode_stream(tx)
            .iter()
            .map(|k| Frame::decode(&k.payload).unwrap())
            .collect()
    }

    /// The one AX.25 frame on a tty output queue.
    fn single_frame(tx: &[u8]) -> Frame {
        let [f] = &frames(tx)[..] else {
            panic!("{tx:?}");
        };
        f.clone()
    }

    fn kiss_bytes(frame: &Frame) -> Vec<u8> {
        kiss::encode(0, Command::Data, &frame.encode())
    }

    #[test]
    fn ip_frame_for_us_goes_to_ip_queue() {
        let mut drv = driver();
        let ip = Ipv4Packet::new(pc_ip(), gw_ip(), Proto::Udp, vec![9; 16]);
        let frame = Frame::ui(a("N7AKR-1"), a("KB7DZ"), Pid::Ip, ip.encode());
        let (events, tx) = feed(&mut drv, &kiss_bytes(&frame));
        assert_eq!(events, vec![PrEvent::IpPacket(ip.encode())]);
        assert!(tx.is_empty());
        assert_eq!(drv.stats().ip_in, 1);
        assert_eq!(drv.ifnet.stats.ipackets, 1);
    }

    #[test]
    fn a_short_datagram_after_a_long_one_is_only_its_own_bytes() {
        // The IP bytes `output` has just KISS-encoded go to the pool; the
        // next for-us frame is copied into them. A 20-octet datagram after
        // a 236-octet one must come up as its own 20 octets, through the
        // plain and both RFC 1144 arms.
        let mut drv = driver();
        let mut pool = DgramPool::new();
        drv.enable_vj();
        drv.arp_mut()
            .insert_static(pc_ip(), Ax25Hw::direct(a("KB7DZ")).encode());
        let long = Ipv4Packet::new(gw_ip(), pc_ip(), Proto::Udp, vec![0xAA; 216]);
        drv.output(SimTime::ZERO, long, pc_ip(), &mut pool, None);
        drv.tty_outq().clear();
        let short = Ipv4Packet::new(pc_ip(), gw_ip(), Proto::Other(99), Vec::new());
        assert_eq!(short.total_len(), 20);
        let frame = Frame::ui(a("N7AKR-1"), a("KB7DZ"), Pid::Ip, short.encode());
        let (events, _) = feed_in(&mut drv, &mut pool, &kiss_bytes(&frame));
        let [PrEvent::IpPacket(up)] = &events[..] else {
            panic!("{events:?}");
        };
        assert_eq!(*up, short.encode());
        assert!(up.capacity() >= 236, "rode in the long one's buffer");
        // The same through the decompressor: a refresh, then deltas.
        let mut pc = PacketRadioDriver::new(PrConfig::new(a("KB7DZ")), pc_ip());
        pc.enable_vj();
        pc.arp_mut()
            .insert_static(gw_ip(), Ax25Hw::direct(a("N7AKR-1")).encode());
        for (id, seq, body) in [(1u16, 100u32, &[0x55u8; 180][..]), (2, 280, b"ok")] {
            let p = tcp_packet(pc_ip(), gw_ip(), id, seq, body);
            let tx = send(&mut pc, p.clone(), gw_ip());
            let (events, _) = feed_in(&mut drv, &mut pool, &tx);
            assert_eq!(events, vec![PrEvent::IpPacket(p.encode())]);
            for event in events {
                if let PrEvent::IpPacket(up) = event {
                    pool.give(up);
                }
            }
        }
    }

    #[test]
    fn broadcast_destination_is_accepted() {
        let mut drv = driver();
        let ip = Ipv4Packet::new(pc_ip(), gw_ip(), Proto::Udp, vec![1]);
        let frame = Frame::ui(Ax25Addr::broadcast(), a("KB7DZ"), Pid::Ip, ip.encode());
        let (events, _) = feed(&mut drv, &kiss_bytes(&frame));
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn frames_for_others_are_dropped_and_counted() {
        let mut drv = driver();
        let frame = Frame::ui(a("W1GOH"), a("KB7DZ"), Pid::Ip, vec![0x45; 21]);
        let (events, _) = feed(&mut drv, &kiss_bytes(&frame));
        assert!(events.is_empty());
        assert_eq!(drv.stats().not_for_us, 1);
        assert_eq!(drv.ifnet.stats.ipackets, 0, "not charged as input");
    }

    #[test]
    fn undigipeated_frames_are_not_consumed() {
        let mut drv = driver();
        let frame =
            Frame::ui(a("N7AKR-1"), a("KB7DZ"), Pid::Ip, vec![0x45; 21]).via(&[a("WA6BEV")]);
        let (events, _) = feed(&mut drv, &kiss_bytes(&frame));
        assert!(events.is_empty());
        assert_eq!(drv.stats().not_repeated, 1);
    }

    #[test]
    fn non_ip_frames_divert_to_tty_queue() {
        let mut drv = driver();
        let frame = Frame::ui(a("N7AKR-1"), a("KB7DZ"), Pid::Text, b"hi om".to_vec());
        let (events, _) = feed(&mut drv, &kiss_bytes(&frame));
        let [PrEvent::Divert(f)] = &events[..] else {
            panic!("{events:?}");
        };
        assert_eq!(f.info, b"hi om");
        assert_eq!(drv.stats().diverted, 1);
    }

    #[test]
    fn garbage_bytes_never_panic_and_count_errors() {
        let mut drv = driver();
        let mut wire = vec![kiss::FEND, 0x00];
        wire.extend(vec![0xAA; 30]);
        wire.push(kiss::FEND);
        let (events, _) = feed(&mut drv, &wire);
        assert!(events.is_empty());
        assert_eq!(drv.stats().bad_frames, 1);
        assert_eq!(drv.ifnet.stats.ierrors, 1);
    }

    #[test]
    fn output_unresolved_broadcasts_arp_then_sends_on_reply() {
        let mut drv = driver();
        let packet = Ipv4Packet::new(gw_ip(), pc_ip(), Proto::Udp, vec![7; 32]);
        // The transmitted frame is an ARP who-has to QST.
        let f = single_frame(&send(&mut drv, packet.clone(), pc_ip()));
        assert_eq!(f.dest, Ax25Addr::broadcast());
        assert_eq!(f.pid, Some(Pid::Arp));
        let req = ArpPacket::decode(&f.info).unwrap();
        assert_eq!(req.target_ip, pc_ip());

        // The PC answers; the held packet is released.
        let pc_hw = Ax25Hw::direct(a("KB7DZ")).encode();
        let reply = req.reply_to(pc_hw);
        let reply_frame = Frame::ui(a("N7AKR-1"), a("KB7DZ"), Pid::Arp, reply.encode());
        let (events, tx) = feed(&mut drv, &kiss_bytes(&reply_frame));
        assert!(events.is_empty());
        // The released IP packet is transmitted.
        let f = single_frame(&tx);
        assert_eq!(f.dest, a("KB7DZ"));
        assert_eq!(f.pid, Some(Pid::Ip));
        assert_eq!(f.info, packet.encode());
    }

    #[test]
    fn incoming_arp_request_is_answered_directly() {
        let mut drv = driver();
        let pc_hw = Ax25Hw::direct(a("KB7DZ")).encode();
        let req = ArpPacket::request(hw_type::AX25, pc_hw, pc_ip(), gw_ip());
        let req_frame = Frame::ui(Ax25Addr::broadcast(), a("KB7DZ"), Pid::Arp, req.encode());
        let (events, tx) = feed(&mut drv, &kiss_bytes(&req_frame));
        assert!(events.is_empty());
        let f = single_frame(&tx);
        assert_eq!(f.dest, a("KB7DZ"), "reply is unicast to the asker");
        let rep = ArpPacket::decode(&f.info).unwrap();
        assert_eq!(rep.sender_ip, gw_ip());
        assert_eq!(
            Ax25Hw::decode(&rep.sender_hw).unwrap().station,
            a("N7AKR-1")
        );
    }

    #[test]
    fn static_digipeater_path_is_used_on_output() {
        let mut drv = driver();
        let hw = Ax25Hw::via(a("KD7NM"), &[a("WA6BEV-1"), a("K3MC")]);
        drv.arp_mut().insert_static(pc_ip(), hw.encode());
        let packet = Ipv4Packet::new(gw_ip(), pc_ip(), Proto::Udp, vec![1]);
        let f = single_frame(&send(&mut drv, packet, pc_ip()));
        assert_eq!(f.dest, a("KD7NM"));
        assert_eq!(f.digipeaters.len(), 2);
        assert_eq!(f.digipeaters[0].addr, a("WA6BEV-1"));
        assert!(!f.digipeaters[0].repeated);
    }

    #[test]
    fn raw_frames_from_user_space_are_kiss_encoded() {
        let mut drv = driver();
        let frame = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Text, b"bbs".to_vec());
        drv.send_raw_frame(&frame);
        assert_eq!(single_frame(drv.tty_outq()), frame);
    }

    #[test]
    fn digipeated_arp_request_teaches_the_reverse_path() {
        // The PC asks who-has via two digipeaters; our reply — and all
        // subsequent IP to the PC — must retrace the reversed path even
        // though we never configured it.
        let mut drv = driver();
        let pc_hw = Ax25Hw::direct(a("KB7DZ")).encode();
        let req = ArpPacket::request(hw_type::AX25, pc_hw, pc_ip(), gw_ip());
        let mut req_frame = Frame::ui(Ax25Addr::broadcast(), a("KB7DZ"), Pid::Arp, req.encode())
            .via(&[a("D1"), a("D2")]);
        for d in &mut req_frame.digipeaters {
            d.repeated = true; // fully traversed when we hear it
        }
        let (_, tx) = feed(&mut drv, &kiss_bytes(&req_frame));
        let reply = single_frame(&tx);
        assert_eq!(reply.dest, a("KB7DZ"));
        assert_eq!(
            reply.digipeaters.iter().map(|d| d.addr).collect::<Vec<_>>(),
            vec![a("D2"), a("D1")],
            "reply retraces the reversed digipeater path"
        );
        // And outgoing IP now uses the learned path too.
        let packet = Ipv4Packet::new(gw_ip(), pc_ip(), Proto::Udp, vec![1]);
        let f = single_frame(&send(&mut drv, packet, pc_ip()));
        assert_eq!(f.dest, a("KB7DZ"));
        assert_eq!(f.digipeaters.len(), 2);
        assert_eq!(f.digipeaters[0].addr, a("D2"));
    }

    #[test]
    fn rint_counts_every_character() {
        let mut drv = driver();
        let frame = Frame::ui(a("W1GOH"), a("KB7DZ"), Pid::Ip, vec![0x45; 21]);
        let wire = kiss_bytes(&frame);
        feed(&mut drv, &wire);
        assert_eq!(drv.stats().rint_chars, wire.len() as u64);
    }

    #[test]
    fn rint_slice_matches_per_byte_rint() {
        // A mixed stream — ours, another station's, an ARP request that
        // triggers a transmission, line noise — through both handlers, at
        // several chunkings, must yield identical events, transmissions,
        // and counters.
        let ip = Ipv4Packet::new(pc_ip(), gw_ip(), Proto::Udp, vec![9; 16]);
        let mut wire = kiss_bytes(&Frame::ui(a("N7AKR-1"), a("KB7DZ"), Pid::Ip, ip.encode()));
        wire.extend(kiss_bytes(&Frame::ui(
            a("W1GOH"),
            a("KB7DZ"),
            Pid::Ip,
            vec![0x45; 21],
        )));
        let pc_hw = Ax25Hw::direct(a("KB7DZ")).encode();
        let req = ArpPacket::request(hw_type::AX25, pc_hw, pc_ip(), gw_ip());
        wire.extend(kiss_bytes(&Frame::ui(
            Ax25Addr::broadcast(),
            a("KB7DZ"),
            Pid::Arp,
            req.encode(),
        )));
        wire.extend([0x55, 0xAA]); // trailing noise, frame left open
        let mut per_byte = driver();
        let (ref_events, ref_tx) = feed(&mut per_byte, &wire);
        for chunk in [1, 3, 7, wire.len()] {
            let mut bulk = driver();
            let mut events = Vec::new();
            let mut pool = DgramPool::new();
            for piece in wire.chunks(chunk) {
                bulk.rint(SimTime::ZERO, piece, &mut pool, None, |_, ev| {
                    events.push(ev)
                });
            }
            assert_eq!(events, ref_events, "chunk {chunk}");
            assert_eq!(*bulk.tty_outq(), ref_tx, "chunk {chunk}");
            let (s, r) = (bulk.stats(), per_byte.stats());
            assert_eq!(s.rint_chars, r.rint_chars, "chunk {chunk}");
            assert_eq!(s.frames_in, r.frames_in, "chunk {chunk}");
            assert_eq!(s.not_for_us, r.not_for_us, "chunk {chunk}");
            assert_eq!(s.ip_in, r.ip_in, "chunk {chunk}");
            assert_eq!(s.arp_in, r.arp_in, "chunk {chunk}");
        }
    }

    #[test]
    fn rint_slice_reports_the_closing_fend_index() {
        let mut drv = driver();
        let ip = Ipv4Packet::new(pc_ip(), gw_ip(), Proto::Udp, vec![1; 8]);
        let wire = kiss_bytes(&Frame::ui(a("N7AKR-1"), a("KB7DZ"), Pid::Ip, ip.encode()));
        let mut seen = Vec::new();
        let mut pool = DgramPool::new();
        drv.rint(SimTime::ZERO, &wire, &mut pool, None, |idx, _| {
            seen.push(idx)
        });
        assert_eq!(seen, vec![wire.len() - 1]);
    }

    #[test]
    fn frames_for_others_never_touch_the_pool() {
        // The §3 promiscuous case: the channel is full of other stations'
        // traffic. The fast path must classify and drop it without writing
        // to the tty output queue or taking a buffer from the host's pool.
        let mut drv = driver();
        let mut wire = Vec::new();
        for i in 0..50 {
            let frame = Frame::ui(
                a(&format!("W{}", i % 10)),
                a("KB7DZ"),
                Pid::Ip,
                vec![0x45; 64],
            );
            wire.extend(kiss_bytes(&frame));
        }
        // The host's pool holds one spare buffer: the first thing a copy
        // would take.
        let mut pool = DgramPool::new();
        pool.give(Vec::with_capacity(999));
        let (events, tx) = feed_in(&mut drv, &mut pool, &wire);
        assert!(events.is_empty());
        assert!(tx.is_empty(), "nothing queued for the serial line");
        assert_eq!(drv.stats().not_for_us, 50);
        assert_eq!(pool.take(0).capacity(), 999, "the host's pool untouched");
    }

    /// A correctly checksummed TCP/IP datagram, as the stack would emit.
    fn tcp_packet(src: Ipv4Addr, dst: Ipv4Addr, id: u16, seq: u32, body: &[u8]) -> Ipv4Packet {
        let seg = netstack::tcp::TcpSegment {
            header: netstack::tcp::TcpHeader {
                src_port: 1024,
                dst_port: 23,
                seq,
                ack: 5000,
                flags: netstack::tcp::TcpFlags {
                    ack: true,
                    psh: true,
                    ..Default::default()
                },
                window: 4096,
                mss: None,
            },
            payload: body,
        };
        let mut p = Ipv4Packet::new(src, dst, Proto::Tcp, seg.encode(src, dst));
        p.id = id;
        p
    }

    #[test]
    fn vj_link_compresses_tcp_and_rebuilds_it_byte_identically() {
        // Gateway side compresses on output; PC side decompresses in rint.
        let mut gw = driver();
        gw.enable_vj();
        let mut pc = PacketRadioDriver::new(PrConfig::new(a("KB7DZ")), pc_ip());
        pc.enable_vj();
        gw.arp_mut()
            .insert_static(pc_ip(), Ax25Hw::direct(a("KB7DZ")).encode());

        // First segment travels as an uncompressed refresh (PID 0x07)…
        let p1 = tcp_packet(gw_ip(), pc_ip(), 1, 100, b"login:");
        let f1 = single_frame(&send(&mut gw, p1.clone(), pc_ip()));
        assert_eq!(f1.pid, Some(Pid::UncompressedTcp));
        let (events, _) = feed(&mut pc, &kiss_bytes(&f1));
        assert_eq!(events, vec![PrEvent::IpPacket(p1.encode())]);

        // …and the next one shrinks its 40-byte header to a few deltas.
        let p2 = tcp_packet(gw_ip(), pc_ip(), 2, 106, b"ok");
        let f2 = single_frame(&send(&mut gw, p2.clone(), pc_ip()));
        assert_eq!(f2.pid, Some(Pid::CompressedTcp));
        assert!(
            f2.info.len() < p2.encode().len() - 30,
            "compressed {} vs full {}",
            f2.info.len(),
            p2.encode().len()
        );
        let (events, _) = feed(&mut pc, &kiss_bytes(&f2));
        assert_eq!(events, vec![PrEvent::IpPacket(p2.encode())]);
        assert_eq!(pc.stats().ip_in, 2);
        let (cs, ds) = gw.vj_stats().unwrap();
        assert_eq!((cs.refreshes, cs.compressed), (1, 1));
        assert_eq!(ds, vj::VjDecompStats::default(), "gw heard nothing");
        let (_, ds) = pc.vj_stats().unwrap();
        assert_eq!((ds.uncompressed_in, ds.compressed_in), (1, 1));
    }

    #[test]
    fn vj_non_tcp_and_disabled_paths_are_untouched() {
        // With VJ on, UDP still rides PID 0xCC.
        let mut gw = driver();
        gw.enable_vj();
        gw.arp_mut()
            .insert_static(pc_ip(), Ax25Hw::direct(a("KB7DZ")).encode());
        let udp = Ipv4Packet::new(gw_ip(), pc_ip(), Proto::Udp, vec![7; 16]);
        let f = single_frame(&send(&mut gw, udp.clone(), pc_ip()));
        assert_eq!(f.pid, Some(Pid::Ip));
        assert_eq!(f.info, udp.encode());

        // With VJ off, inbound 0x06/0x07 divert to the §2.4 tty queue —
        // an unknown protocol, exactly like any other PID.
        let mut plain = driver();
        for pid in [Pid::CompressedTcp, Pid::UncompressedTcp] {
            let frame = Frame::ui(a("N7AKR-1"), a("KB7DZ"), pid, vec![0x0F, 0xAB, 0xCD]);
            let (events, _) = feed(&mut plain, &kiss_bytes(&frame));
            assert!(matches!(&events[..], [PrEvent::Divert(_)]), "{events:?}");
        }
        assert_eq!(plain.stats().diverted, 2);
    }

    #[test]
    fn vj_receiver_drops_desynchronised_frames_until_refresh() {
        let mut gw = driver();
        gw.enable_vj();
        let mut pc = PacketRadioDriver::new(PrConfig::new(a("KB7DZ")), pc_ip());
        pc.enable_vj();
        gw.arp_mut()
            .insert_static(pc_ip(), Ax25Hw::direct(a("KB7DZ")).encode());

        let send_tcp = |gw: &mut PacketRadioDriver, id, seq, body: &[u8]| {
            single_frame(&send(
                gw,
                tcp_packet(gw_ip(), pc_ip(), id, seq, body),
                pc_ip(),
            ))
        };
        let f1 = send_tcp(&mut gw, 1, 100, b"aa");
        feed(&mut pc, &kiss_bytes(&f1));
        let _lost = send_tcp(&mut gw, 2, 102, b"bb"); // compressed, never delivered
        let f3 = send_tcp(&mut gw, 3, 104, b"cc");
        assert_eq!(f3.pid, Some(Pid::CompressedTcp));
        let (events, _) = feed(&mut pc, &kiss_bytes(&f3));
        assert!(events.is_empty(), "mis-delta'd frame must not be delivered");
        assert_eq!(pc.stats().vj_drop, 1);
        // The retransmission goes out as a refresh and resynchronises.
        let f4 = send_tcp(&mut gw, 4, 100, b"aabbcc");
        assert_eq!(f4.pid, Some(Pid::UncompressedTcp));
        let (events, _) = feed(&mut pc, &kiss_bytes(&f4));
        let expect = tcp_packet(gw_ip(), pc_ip(), 4, 100, b"aabbcc");
        assert_eq!(events, vec![PrEvent::IpPacket(expect.encode())]);
    }

    #[test]
    fn ip_bytes_out_counts_post_compression_sizes() {
        let mut gw = driver();
        gw.enable_vj();
        gw.arp_mut()
            .insert_static(pc_ip(), Ax25Hw::direct(a("KB7DZ")).encode());
        let mut total = 0u64;
        for (id, seq) in [(1u16, 100u32), (2, 101), (3, 102)] {
            let tx = send(
                &mut gw,
                tcp_packet(gw_ip(), pc_ip(), id, seq, b"x"),
                pc_ip(),
            );
            total += single_frame(&tx).info.len() as u64;
        }
        assert_eq!(gw.stats().ip_bytes_out, total);
        // One 41-byte refresh + two few-byte compressed packets.
        assert!(total < 41 + 2 * 10, "got {total}");
    }
}
