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
    arp: ArpEngine,
    stats: EtherDrvStats,
}

impl EtherDriver {
    /// Creates the driver for a NIC with address `mac` numbered `my_ip`.
    pub fn new(mac: MacAddr, my_ip: Ipv4Addr) -> EtherDriver {
        EtherDriver {
            ifnet: IfNet::new("qe0", ether::MTU),
            mac,
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

    /// The driver's ARP engine.
    pub fn arp_mut(&mut self) -> &mut ArpEngine {
        &mut self.arp
    }

    /// The ARP engine, read-only.
    pub fn arp(&self) -> &ArpEngine {
        &self.arp
    }

    /// Processes a received frame. Returns the decapsulated IP packet
    /// bytes (if any) — the frame's own payload when the caller hands the
    /// frame over ([`Cow::Owned`]: the segment's last recipient, or a
    /// unicast frame moved across a shard boundary), a copy in a buffer
    /// from the host's `pool` otherwise; frames the driver wants
    /// transmitted (ARP replies, released holds) are pushed onto `tx`.
    pub fn input(
        &mut self,
        now: SimTime,
        frame: Cow<'_, EtherFrame>,
        pool: &mut DgramPool,
        tx: &mut Vec<EtherFrame>,
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
                self.input_arp(now, &frame.payload, pool, tx);
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

    fn input_arp(
        &mut self,
        now: SimTime,
        payload: &[u8],
        pool: &mut DgramPool,
        tx: &mut Vec<EtherFrame>,
    ) {
        let Ok(arp) = ArpPacket::decode(payload) else {
            self.ifnet.stats.ierrors += 1;
            return;
        };
        let (reply, released) = self.arp.on_arp(now, &arp);
        if let Some(reply) = reply {
            self.emit_arp(mac_from_bytes(&reply.target_hw), &reply, pool, tx);
        }
        let dst = mac_from_bytes(&arp.sender_hw);
        for packet in released {
            self.stats.ip_out += 1;
            let f = self.build_frame(dst, EtherType::Ipv4, packet.into_wire());
            tx.push(f);
        }
    }

    /// Outputs an IP packet toward `next_hop`, resolving its MAC; frames
    /// to transmit (possibly an ARP request, built in a `pool` buffer,
    /// while the packet waits) are pushed onto `tx`. A broadcast next hop
    /// (RIP44 announcements) bypasses ARP and goes straight to the all-ones
    /// MAC.
    pub fn output(
        &mut self,
        now: SimTime,
        packet: Ipv4Packet,
        next_hop: Ipv4Addr,
        pool: &mut DgramPool,
        tx: &mut Vec<EtherFrame>,
    ) {
        if next_hop == Ipv4Addr::BROADCAST {
            self.stats.ip_out += 1;
            let f = self.build_frame(MacAddr::BROADCAST, EtherType::Ipv4, packet.into_wire());
            tx.push(f);
            return;
        }
        match self.arp.resolve(now, next_hop, packet) {
            Resolution::Send(hw, packet) => {
                self.stats.ip_out += 1;
                let dst = mac_from_bytes(&hw);
                let f = self.build_frame(dst, EtherType::Ipv4, packet.into_wire());
                tx.push(f);
            }
            Resolution::Pending(Some(request)) => {
                self.emit_arp(MacAddr::BROADCAST, &request, pool, tx)
            }
            Resolution::Pending(None) => {}
            Resolution::Dropped => {
                self.ifnet.stats.oerrors += 1;
            }
        }
    }

    /// Periodic ARP maintenance; requests to retransmit go onto `tx`.
    pub fn age_arp(&mut self, now: SimTime, pool: &mut DgramPool, tx: &mut Vec<EtherFrame>) {
        for r in self.arp.age(now, sim::SimDuration::from_secs(30)) {
            self.emit_arp(MacAddr::BROADCAST, &r, pool, tx);
        }
    }

    /// Sends an ARP packet, encoded in a pool buffer: the frame takes the
    /// allocation with it.
    fn emit_arp(
        &mut self,
        dst: MacAddr,
        arp: &ArpPacket,
        pool: &mut DgramPool,
        tx: &mut Vec<EtherFrame>,
    ) {
        let mut payload = pool.take(arp.wire_len());
        arp.encode_into(&mut payload);
        let f = self.build_frame(dst, EtherType::Arp, payload);
        tx.push(f);
    }

    fn build_frame(&mut self, dst: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> EtherFrame {
        self.ifnet.stats.opackets += 1;
        EtherFrame::new(dst, self.mac, ethertype, payload)
    }
}

/// A MAC as the ARP engine's opaque hardware address.
fn mac_hw(mac: MacAddr) -> HwAddr {
    HwAddr::new(&mac.octets()).expect("six octets")
}

fn mac_from_bytes(bytes: &[u8]) -> MacAddr {
    let mut octets = [0u8; 6];
    let n = bytes.len().min(6);
    octets[..n].copy_from_slice(&bytes[..n]);
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
        let mut tx: Vec<EtherFrame> = Vec::new();
        let ip = drv.input(SimTime::ZERO, Cow::Borrowed(&f), &mut pool(), &mut tx);
        assert!(tx.is_empty());
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
        let mut tx: Vec<EtherFrame> = Vec::new();
        let mut receive = |drv: &mut EtherDriver, pool: &mut DgramPool, len: usize, fill: u8| {
            let p = Ipv4Packet::new(ipa(4), ipa(100), Proto::Udp, vec![fill; len - 20]);
            let f = EtherFrame::new(
                MacAddr::local(1),
                MacAddr::local(2),
                EtherType::Ipv4,
                p.encode(),
            );
            let up = drv
                .input(SimTime::ZERO, Cow::Borrowed(&f), pool, &mut tx)
                .unwrap();
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
        let mut tx: Vec<EtherFrame> = Vec::new();
        let ip = drv.input(SimTime::ZERO, Cow::Borrowed(&f), &mut pool(), &mut tx);
        assert!(ip.is_none());
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].dst, MacAddr::local(2));
        assert_eq!(tx[0].ethertype, EtherType::Arp);
        // Now output to that host is a cache hit.
        let p = Ipv4Packet::new(ipa(100), ipa(4), Proto::Udp, vec![0; 4]);
        let mut frames: Vec<EtherFrame> = Vec::new();
        drv.output(SimTime::ZERO, p, ipa(4), &mut pool(), &mut frames);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].ethertype, EtherType::Ipv4);
        assert_eq!(frames[0].dst, MacAddr::local(2));
    }

    #[test]
    fn unresolved_output_broadcasts_request_then_releases() {
        let mut drv = driver();
        let p = Ipv4Packet::new(ipa(100), ipa(4), Proto::Udp, vec![9; 8]);
        let mut frames: Vec<EtherFrame> = Vec::new();
        drv.output(SimTime::ZERO, p.clone(), ipa(4), &mut pool(), &mut frames);
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
        let mut tx: Vec<EtherFrame> = Vec::new();
        let _ = drv.input(SimTime::ZERO, Cow::Owned(rf), &mut pool(), &mut tx);
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
        let mut tx: Vec<EtherFrame> = Vec::new();
        let ip = drv.input(SimTime::ZERO, Cow::Borrowed(&f), &mut pool(), &mut tx);
        assert!(ip.is_none() && tx.is_empty());
        assert_eq!(drv.stats().other_in, 1);
    }
}
