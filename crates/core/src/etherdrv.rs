//! The Ethernet (DEQNA-style) driver: the gateway's other leg.
//!
//! §2.2: the packet radio driver "supports the same calls as the drivers
//! for other network devices such as the DEQNA". This is that DEQNA-side
//! driver: Ethernet encapsulation plus the *untouched* Ethernet ARP that
//! the paper was careful not to modify ("because we did not want to
//! modify the code for our system that is used on the Ethernet side of
//! the gateway").

use ether::{EtherFrame, EtherType, MacAddr};
use netstack::arp::{hw_type, ArpPacket, HwAddr};
use netstack::ip::Ipv4Packet;
use netstack::pool::DgramPool;
use sim::SimTime;
use std::borrow::Cow;
use std::net::Ipv4Addr;

use crate::arp_engine::{ArpEngine, Resolution};
use crate::ifnet::IfNet;

/// Driver counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct EtherDrvStats {
    /// Frames received.
    pub frames_in: u64,
    /// IP packets passed up.
    pub ip_in: u64,
    /// ARP packets consumed.
    pub arp_in: u64,
    /// Frames with unhandled EtherTypes.
    pub other_in: u64,
    /// IP packets transmitted.
    pub ip_out: u64,
}

/// The Ethernet driver for one NIC.
#[derive(Debug)]
pub struct EtherDriver {
    /// The `if_net` entry ("qe0").
    pub ifnet: IfNet,
    mac: MacAddr,
    /// Frames for the segment, not yet handed to it (BSD's `if_snd`).
    outbox: Vec<EtherFrame>,
    arp: ArpEngine,
    stats: EtherDrvStats,
}

impl EtherDriver {
    /// Creates the driver for a NIC with address `mac` numbered `my_ip`.
    pub fn new(mac: MacAddr, my_ip: Ipv4Addr) -> EtherDriver {
        EtherDriver {
            ifnet: IfNet::default(),
            mac,
            outbox: Vec::new(),
            arp: ArpEngine::new(hw_type::ETHERNET, mac_hw(mac), my_ip),
            stats: EtherDrvStats::default(),
        }
    }

    /// The NIC's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Driver counters.
    pub fn stats(&self) -> EtherDrvStats {
        self.stats
    }

    /// The ARP engine, read-only.
    pub fn arp(&self) -> &ArpEngine {
        &self.arp
    }

    /// Hands the frames queued for the segment over by swapping them with
    /// `empty`, so the caller's drained buffer (and its capacity) becomes
    /// the next queue.
    pub fn swap_outbox(&mut self, empty: &mut Vec<EtherFrame>) {
        debug_assert!(empty.is_empty());
        std::mem::swap(&mut self.outbox, empty);
    }

    /// Drops the frames queued for the segment (the host lost power).
    pub(crate) fn power_down(&mut self) {
        self.outbox.clear();
    }

    /// Processes a received frame. Returns the decapsulated IP packet
    /// bytes (if any) — the frame's own payload when the caller hands the
    /// frame over ([`Cow::Owned`]: the segment's last recipient, or a
    /// unicast frame moved across a shard boundary), a copy in a buffer
    /// from the host's `pool` otherwise; frames the driver wants
    /// transmitted (ARP replies, released holds) are queued for the
    /// segment.
    pub fn input(
        &mut self,
        now: SimTime,
        frame: Cow<'_, EtherFrame>,
        pool: &mut DgramPool,
    ) -> Option<Vec<u8>> {
        self.stats.frames_in += 1;
        self.ifnet.stats.ipackets += 1;
        match frame.ethertype {
            EtherType::Ipv4 => {
                self.stats.ip_in += 1;
                Some(match frame {
                    Cow::Owned(f) => f.payload,
                    Cow::Borrowed(f) => pool.copy(&f.payload),
                })
            }
            EtherType::Arp => {
                self.stats.arp_in += 1;
                self.input_arp(now, &frame.payload, pool);
                // An ARP frame handed over leaves its buffer behind.
                if let Cow::Owned(f) = frame {
                    pool.give(f.payload);
                }
                None
            }
            EtherType::Other(_) => {
                self.stats.other_in += 1;
                None
            }
        }
    }

    fn input_arp(&mut self, now: SimTime, payload: &[u8], pool: &mut DgramPool) {
        let Ok(arp) = ArpPacket::decode(payload) else {
            self.ifnet.stats.ierrors += 1;
            return;
        };
        let (reply, released) = self.arp.on_arp(now, &arp);
        if let Some(reply) = reply {
            self.emit_arp(mac_from_bytes(&reply.target_hw), &reply, pool);
        }
        let dst = mac_from_bytes(&arp.sender_hw);
        for packet in released {
            self.send_ip(dst, packet);
        }
    }

    /// Outputs an IP packet toward `next_hop`, resolving its MAC; frames
    /// to transmit (possibly an ARP request, built in a `pool` buffer,
    /// while the packet waits) are queued for the segment. A broadcast
    /// next hop (RIP44 announcements) bypasses ARP and goes straight to
    /// the all-ones MAC.
    pub fn output(
        &mut self,
        now: SimTime,
        packet: Ipv4Packet,
        next_hop: Ipv4Addr,
        pool: &mut DgramPool,
    ) {
        if next_hop == Ipv4Addr::BROADCAST {
            self.send_ip(MacAddr::BROADCAST, packet);
            return;
        }
        match self.arp.resolve(now, next_hop, packet) {
            Resolution::Send(hw, packet) => self.send_ip(mac_from_bytes(&hw), packet),
            Resolution::Pending(Some(request)) => self.emit_arp(MacAddr::BROADCAST, &request, pool),
            Resolution::Pending(None) => {}
            Resolution::Dropped => {
                self.ifnet.stats.oerrors += 1;
            }
        }
    }

    /// The ARP engine's clock ([`ArpEngine::age`]); requests to retransmit
    /// are queued for the segment.
    pub(crate) fn age_arp(&mut self, now: SimTime, pool: &mut DgramPool) {
        for r in self.arp.age(now) {
            self.emit_arp(MacAddr::BROADCAST, &r, pool);
        }
    }

    fn send_ip(&mut self, dst: MacAddr, packet: Ipv4Packet) {
        self.stats.ip_out += 1;
        self.emit(dst, EtherType::Ipv4, packet.into_wire());
    }

    /// Sends an ARP packet, encoded in a pool buffer: the frame takes the
    /// allocation with it.
    fn emit_arp(&mut self, dst: MacAddr, arp: &ArpPacket, pool: &mut DgramPool) {
        let mut payload = pool.take(arp.wire_len());
        arp.encode_into(&mut payload);
        self.emit(dst, EtherType::Arp, payload);
    }

    fn emit(&mut self, dst: MacAddr, ethertype: EtherType, payload: Vec<u8>) {
        self.ifnet.stats.opackets += 1;
        let frame = EtherFrame::new(dst, self.mac, ethertype, payload);
        self.outbox.push(frame);
    }
}

/// A MAC as the ARP engine's opaque hardware address.
fn mac_hw(mac: MacAddr) -> HwAddr {
    HwAddr::new(&mac.octets()).expect("six octets")
}

fn mac_from_bytes(bytes: &[u8]) -> MacAddr {
    let mut octets = [0u8; 6];
    for (o, b) in octets.iter_mut().zip(bytes) {
        *o = *b;
    }
    MacAddr::new(octets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::ip::Proto;

    fn ipa(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(128, 95, 1, n)
    }

    fn driver() -> EtherDriver {
        EtherDriver::new(MacAddr::local(1), ipa(100))
    }

    /// The host's pool, as a test lends it.
    fn pool() -> DgramPool {
        DgramPool::new()
    }

    /// Takes the frames the driver queued for the segment.
    fn sent(drv: &mut EtherDriver) -> Vec<EtherFrame> {
        let mut tx = Vec::new();
        drv.swap_outbox(&mut tx);
        tx
    }

    #[test]
    fn ip_frames_pass_up() {
        let mut drv = driver();
        let p = Ipv4Packet::new(ipa(4), ipa(100), Proto::Udp, vec![1; 10]);
        let f = EtherFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Ipv4,
            p.encode(),
        );
        let ip = drv.input(SimTime::ZERO, Cow::Borrowed(&f), &mut pool());
        assert!(sent(&mut drv).is_empty());
        assert_eq!(ip.unwrap(), p.encode());
        assert_eq!(drv.stats().ip_in, 1);
    }

    #[test]
    fn a_short_datagram_after_a_long_one_is_only_its_own_bytes() {
        // Borrowed frames are copied into a pool buffer; the stack's
        // finished buffer goes back to the pool. A 20-octet datagram
        // received into what a 576-octet one left behind must not carry
        // its tail.
        let mut drv = driver();
        let mut pool = pool();
        let receive = |drv: &mut EtherDriver, pool: &mut DgramPool, len: usize, fill: u8| {
            let p = Ipv4Packet::new(ipa(4), ipa(100), Proto::Udp, vec![fill; len - 20]);
            let f = EtherFrame::new(
                MacAddr::local(1),
                MacAddr::local(2),
                EtherType::Ipv4,
                p.encode(),
            );
            let up = drv.input(SimTime::ZERO, Cow::Borrowed(&f), pool).unwrap();
            assert_eq!(up, f.payload, "{len}-octet datagram");
            up
        };
        let long = receive(&mut drv, &mut pool, 576, 0xAA);
        let ptr = long.as_ptr();
        pool.give(long);
        let short = receive(&mut drv, &mut pool, 20, 0x11);
        assert_eq!(short.len(), 20);
        assert_eq!(short.as_ptr(), ptr, "received into the traded buffer");
    }

    #[test]
    fn arp_request_answered_and_cache_primed() {
        let mut drv = driver();
        let req = ArpPacket::request(
            hw_type::ETHERNET,
            mac_hw(MacAddr::local(2)),
            ipa(4),
            ipa(100),
        );
        let f = EtherFrame::new(
            MacAddr::BROADCAST,
            MacAddr::local(2),
            EtherType::Arp,
            req.encode(),
        );
        let ip = drv.input(SimTime::ZERO, Cow::Borrowed(&f), &mut pool());
        assert!(ip.is_none());
        let tx = sent(&mut drv);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].dst, MacAddr::local(2));
        assert_eq!(tx[0].ethertype, EtherType::Arp);
        // Now output to that host is a cache hit.
        let p = Ipv4Packet::new(ipa(100), ipa(4), Proto::Udp, vec![0; 4]);
        drv.output(SimTime::ZERO, p, ipa(4), &mut pool());
        let frames = sent(&mut drv);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].ethertype, EtherType::Ipv4);
        assert_eq!(frames[0].dst, MacAddr::local(2));
    }

    #[test]
    fn unresolved_output_broadcasts_request_then_releases() {
        let mut drv = driver();
        let p = Ipv4Packet::new(ipa(100), ipa(4), Proto::Udp, vec![9; 8]);
        drv.output(SimTime::ZERO, p.clone(), ipa(4), &mut pool());
        let frames = sent(&mut drv);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].dst, MacAddr::BROADCAST);
        assert_eq!(frames[0].ethertype, EtherType::Arp);
        // Reply releases the packet.
        let req = ArpPacket::decode(&frames[0].payload).unwrap();
        let reply = req.reply_to(mac_hw(MacAddr::local(7)));
        let rf = EtherFrame::new(
            MacAddr::local(1),
            MacAddr::local(7),
            EtherType::Arp,
            reply.encode(),
        );
        let _ = drv.input(SimTime::ZERO, Cow::Owned(rf), &mut pool());
        let tx = sent(&mut drv);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].dst, MacAddr::local(7));
        assert_eq!(tx[0].payload, p.encode());
    }

    #[test]
    fn unknown_ethertype_counted() {
        let mut drv = driver();
        let f = EtherFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Other(0x6004),
            vec![0; 10],
        );
        let ip = drv.input(SimTime::ZERO, Cow::Borrowed(&f), &mut pool());
        assert!(ip.is_none() && sent(&mut drv).is_empty());
        assert_eq!(drv.stats().other_in, 1);
    }
}
