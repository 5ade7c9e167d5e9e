//! The per-driver ARP resolver.
//!
//! §2.3: *"ARP lookup occurs at layer two, and thus, gets called inside
//! either the Ethernet driver, or the AX.25 driver. The routing tables at
//! the IP layer determine which driver is called. Since the ARP lookup
//! occurs inside our code, a separate routine that deals specifically
//! with AX.25 addresses can be called."* Each driver owns one
//! [`ArpEngine`]; the engine is agnostic to the hardware-address format
//! (opaque octets in an inline [`HwAddr`] — [`crate::hwaddr`] for AX.25, a
//! MAC for Ethernet) and provides the classic cache, pending-packet queue
//! and request/retry machinery of RFC 826 implementations. Addresses and
//! held packets are values that move: a request → reply → learn → release
//! round trip allocates nothing.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netstack::arp::{ArpOp, ArpPacket, HwAddr};
use netstack::ip::Ipv4Packet;
use sim::{SimDuration, SimTime};

/// Cache entry lifetime.
const ENTRY_TTL: SimDuration = SimDuration::from_secs(20 * 60);
/// Gap between repeated requests for the same address.
const RETRY_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// How long a wait may go unanswered before its held packets are dropped,
/// measured from the wait's last request.
const GIVE_UP: SimDuration = SimDuration::from_secs(30);
/// Packets held per unresolved address (4.3BSD held exactly one).
const MAX_HELD: usize = 4;

/// Engine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArpStats {
    /// Cache hits on resolve.
    pub hits: u64,
    /// Resolve calls that had to queue the packet.
    pub misses: u64,
    /// Requests transmitted.
    pub requests_sent: u64,
    /// Replies transmitted.
    pub replies_sent: u64,
    /// Entries learned or refreshed from traffic.
    pub learned: u64,
    /// Held packets dropped (queue full or entry never resolved).
    pub held_dropped: u64,
}

#[derive(Debug)]
struct CacheEntry {
    hw: HwAddr,
    expires: SimTime,
}

/// The packets held for one unresolved address: at most `MAX_HELD`,
/// inline, in arrival order. Iterating by value yields them.
#[derive(Debug, Default)]
pub struct Held([Option<Ipv4Packet>; MAX_HELD]);

impl Held {
    /// Takes `packet` into the first free slot, or hands it back when
    /// every slot is taken.
    fn push(&mut self, packet: Ipv4Packet) -> Result<(), Ipv4Packet> {
        match self.0.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => {
                *slot = Some(packet);
                Ok(())
            }
            None => Err(packet),
        }
    }

    /// Packets held.
    pub fn len(&self) -> usize {
        self.0.iter().flatten().count()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl IntoIterator for Held {
    type Item = Ipv4Packet;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Ipv4Packet>, MAX_HELD>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

#[derive(Debug, Default)]
struct Waiting {
    packets: Held,
    last_request: Option<SimTime>,
}

/// What to do with a packet handed to [`ArpEngine::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Transmit the packet to this hardware address.
    Send(HwAddr, Ipv4Packet),
    /// The packet is held; transmit this ARP request (if `Some`).
    Pending(Option<ArpPacket>),
    /// The packet was dropped (hold queue full).
    Dropped,
}

/// A link-type-agnostic ARP resolver for one interface.
#[derive(Debug)]
pub struct ArpEngine {
    hw_type: u16,
    my_hw: HwAddr,
    my_ip: Ipv4Addr,
    cache: HashMap<Ipv4Addr, CacheEntry>,
    /// Unresolved addresses, sorted, so aging visits them in address
    /// order in every process. A few at most: a `Vec` is born at four
    /// slots, where a `BTreeMap`'s eleven-slot leaf of inline held
    /// packets would keep 2.7 kB in every engine that ever waited.
    waiting: Vec<(Ipv4Addr, Waiting)>,
    stats: ArpStats,
}

impl ArpEngine {
    /// Creates an engine for an interface with hardware address `my_hw`
    /// (already encoded) and protocol address `my_ip`.
    pub fn new(hw_type: u16, my_hw: HwAddr, my_ip: Ipv4Addr) -> ArpEngine {
        ArpEngine {
            hw_type,
            my_hw,
            my_ip,
            cache: HashMap::new(),
            waiting: Vec::new(),
            stats: ArpStats::default(),
        }
    }

    /// Installs a permanent (never-expiring) entry; the paper's gateway
    /// seeds digipeater paths this way, since a path cannot be learned
    /// from a broadcast reply alone.
    pub fn insert_static(&mut self, ip: Ipv4Addr, hw: HwAddr) {
        self.cache.insert(
            ip,
            CacheEntry {
                hw,
                expires: SimTime::MAX,
            },
        );
    }

    /// Installs or refreshes a dynamically learned entry with the normal
    /// TTL (the driver uses this for path-aware AX.25 addresses that the
    /// flat ARP wire format cannot carry).
    pub fn insert_learned(&mut self, now: SimTime, ip: Ipv4Addr, hw: HwAddr) {
        self.stats.learned += 1;
        self.cache.insert(
            ip,
            CacheEntry {
                hw,
                expires: now + ENTRY_TTL,
            },
        );
    }

    /// Releases any packets held for `ip` (paired with
    /// [`ArpEngine::insert_learned`]).
    pub fn release_held(&mut self, ip: Ipv4Addr) -> Held {
        match self.wait_index(ip) {
            Ok(i) => self.waiting.remove(i).1.packets,
            Err(_) => Held::default(),
        }
    }

    /// Where `ip`'s wait is in the sorted `waiting` (`Ok`), or would go.
    fn wait_index(&self, ip: Ipv4Addr) -> Result<usize, usize> {
        self.waiting.binary_search_by_key(&ip, |&(addr, _)| addr)
    }

    /// Looks up an address without side effects.
    pub fn lookup(&self, now: SimTime, ip: Ipv4Addr) -> Option<&[u8]> {
        self.cache
            .get(&ip)
            .filter(|e| e.expires > now)
            .map(|e| e.hw.as_slice())
    }

    /// Resolves `next_hop` for `packet`: either releases it with a
    /// hardware address, or holds it and (rate-limited) asks who-has.
    pub fn resolve(&mut self, now: SimTime, next_hop: Ipv4Addr, packet: Ipv4Packet) -> Resolution {
        if let Some(entry) = self.cache.get(&next_hop) {
            if entry.expires > now {
                self.stats.hits += 1;
                return Resolution::Send(entry.hw, packet);
            }
            self.cache.remove(&next_hop);
        }
        self.stats.misses += 1;
        let at = self.wait_index(next_hop).unwrap_or_else(|at| at);
        let (_, w) = match self.waiting.get_mut(at) {
            Some(wait) if wait.0 == next_hop => wait,
            _ => self.waiting.insert_mut(at, (next_hop, Waiting::default())),
        };
        if w.packets.push(packet).is_err() {
            self.stats.held_dropped += 1;
            return Resolution::Dropped;
        }
        let ask = match w.last_request {
            None => true,
            Some(at) => now.saturating_since(at) >= RETRY_INTERVAL,
        };
        if ask {
            w.last_request = Some(now);
            self.stats.requests_sent += 1;
            Resolution::Pending(Some(ArpPacket::request(
                self.hw_type,
                self.my_hw,
                self.my_ip,
                next_hop,
            )))
        } else {
            Resolution::Pending(None)
        }
    }

    /// Processes an incoming ARP packet. Returns an optional reply to
    /// transmit and any held packets now released — they go to the
    /// packet's `sender_hw`.
    pub fn on_arp(&mut self, now: SimTime, arp: &ArpPacket) -> (Option<ArpPacket>, Held) {
        if arp.hw != self.hw_type {
            return (None, Held::default());
        }
        let mut released = Held::default();
        // RFC 826 merge: refresh if we know the sender; add if we are the
        // target (or we were waiting on them).
        let for_us = arp.target_ip == self.my_ip;
        let known = self.cache.contains_key(&arp.sender_ip);
        let wanted = self.wait_index(arp.sender_ip);
        if for_us || known || wanted.is_ok() {
            self.stats.learned += 1;
            if let Ok(i) = wanted {
                released = self.waiting.remove(i).1.packets;
            }
            self.cache.insert(
                arp.sender_ip,
                CacheEntry {
                    hw: arp.sender_hw,
                    expires: now + ENTRY_TTL,
                },
            );
        }
        let reply = if for_us && arp.op == ArpOp::Request {
            self.stats.replies_sent += 1;
            Some(arp.reply_to(self.my_hw))
        } else {
            None
        };
        (reply, released)
    }

    /// Re-issues requests for stale waits and drops the ones unanswered
    /// for `GIVE_UP`; call periodically (e.g. once a second).
    pub fn age(&mut self, now: SimTime) -> Vec<ArpPacket> {
        // Most ticks nothing is due: look before collecting anything.
        let since = |w: &Waiting| now.saturating_since(w.last_request.unwrap_or(SimTime::ZERO));
        if !self.waiting.iter().any(|(_, w)| since(w) >= RETRY_INTERVAL) {
            return Vec::new();
        }
        let mut requests = Vec::new();
        self.waiting.retain_mut(|(ip, w)| {
            if since(w) >= GIVE_UP {
                self.stats.held_dropped += w.packets.len() as u64;
                return false;
            }
            if since(w) >= RETRY_INTERVAL {
                w.last_request = Some(now);
                requests.push(ArpPacket::request(
                    self.hw_type,
                    self.my_hw,
                    self.my_ip,
                    *ip,
                ));
            }
            true
        });
        self.stats.requests_sent += requests.len() as u64;
        requests
    }

    /// Counters.
    pub fn stats(&self) -> ArpStats {
        self.stats
    }

    /// Number of addresses with packets waiting on resolution.
    pub fn pending_resolutions(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::arp::hw_type;
    use netstack::ip::Proto;

    fn ipa(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(44, 24, 0, n)
    }

    fn pkt(dst: Ipv4Addr) -> Ipv4Packet {
        Ipv4Packet::new(ipa(28), dst, Proto::Udp, vec![1, 2, 3])
    }

    fn hw(octets: &[u8]) -> HwAddr {
        HwAddr::new(octets).expect("fits the inline cap")
    }

    fn engine() -> ArpEngine {
        ArpEngine::new(hw_type::AX25, hw(b"GW"), ipa(28))
    }

    #[test]
    fn miss_queues_and_requests_then_reply_releases() {
        let mut e = engine();
        let now = SimTime::ZERO;
        let r = e.resolve(now, ipa(5), pkt(ipa(5)));
        let Resolution::Pending(Some(req)) = r else {
            panic!("{r:?}");
        };
        assert_eq!(req.target_ip, ipa(5));
        assert_eq!(req.op, ArpOp::Request);
        // Reply arrives.
        let reply = ArpPacket {
            hw: hw_type::AX25,
            op: ArpOp::Reply,
            sender_hw: hw(b"PC"),
            sender_ip: ipa(5),
            target_hw: hw(b"GW"),
            target_ip: ipa(28),
        };
        let (resp, released) = e.on_arp(now, &reply);
        assert!(resp.is_none());
        assert_eq!(released.len(), 1);
        // Next resolve is a hit.
        let r = e.resolve(now, ipa(5), pkt(ipa(5)));
        assert!(matches!(r, Resolution::Send(hw, _) if &*hw == b"PC"));
        assert_eq!(e.stats().hits, 1);
    }

    #[test]
    fn repeated_misses_rate_limit_requests() {
        let mut e = engine();
        let now = SimTime::ZERO;
        assert!(matches!(
            e.resolve(now, ipa(5), pkt(ipa(5))),
            Resolution::Pending(Some(_))
        ));
        assert!(matches!(
            e.resolve(now + SimDuration::from_secs(1), ipa(5), pkt(ipa(5))),
            Resolution::Pending(None)
        ));
        assert!(matches!(
            e.resolve(now + SimDuration::from_secs(6), ipa(5), pkt(ipa(5))),
            Resolution::Pending(Some(_))
        ));
        assert_eq!(e.stats().requests_sent, 2);
    }

    #[test]
    fn hold_queue_bounded() {
        let mut e = engine();
        let now = SimTime::ZERO;
        for _ in 0..4 {
            let r = e.resolve(now, ipa(5), pkt(ipa(5)));
            assert!(matches!(r, Resolution::Pending(_)));
        }
        assert_eq!(e.resolve(now, ipa(5), pkt(ipa(5))), Resolution::Dropped);
        assert_eq!(e.stats().held_dropped, 1);
    }

    #[test]
    fn request_for_us_draws_reply_and_learns() {
        let mut e = engine();
        let req = ArpPacket::request(hw_type::AX25, hw(b"PC"), ipa(5), ipa(28));
        let (reply, released) = e.on_arp(SimTime::ZERO, &req);
        let reply = reply.expect("must answer who-has for our IP");
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_hw, hw(b"GW"));
        assert_eq!(reply.target_ip, ipa(5));
        assert!(released.is_empty());
        // We learned the asker.
        assert_eq!(e.lookup(SimTime::ZERO, ipa(5)), Some(b"PC".as_ref()));
    }

    #[test]
    fn request_not_for_us_is_not_answered_or_learned() {
        let mut e = engine();
        let req = ArpPacket::request(hw_type::AX25, hw(b"PC"), ipa(5), ipa(99));
        let (reply, _) = e.on_arp(SimTime::ZERO, &req);
        assert!(reply.is_none());
        assert_eq!(e.lookup(SimTime::ZERO, ipa(5)), None);
    }

    #[test]
    fn wrong_hw_type_ignored() {
        let mut e = engine();
        let req = ArpPacket::request(hw_type::ETHERNET, hw(&[1; 6]), ipa(5), ipa(28));
        let (reply, released) = e.on_arp(SimTime::ZERO, &req);
        assert!(reply.is_none());
        assert!(released.is_empty());
    }

    #[test]
    fn entries_expire() {
        let mut e = engine();
        let now = SimTime::ZERO;
        e.on_arp(
            now,
            &ArpPacket::request(hw_type::AX25, hw(b"PC"), ipa(5), ipa(28)),
        );
        assert!(e.lookup(now, ipa(5)).is_some());
        let later = now + SimDuration::from_secs(21 * 60);
        assert!(e.lookup(later, ipa(5)).is_none());
        // Resolve after expiry re-queues.
        assert!(matches!(
            e.resolve(later, ipa(5), pkt(ipa(5))),
            Resolution::Pending(Some(_))
        ));
    }

    #[test]
    fn static_entries_never_expire() {
        let mut e = engine();
        e.insert_static(ipa(7), hw(b"DIGIPATH"));
        let far = SimTime::from_secs(1_000_000);
        assert_eq!(e.lookup(far, ipa(7)), Some(b"DIGIPATH".as_ref()));
    }

    #[test]
    fn age_retries_then_gives_up() {
        let mut e = engine();
        let t0 = SimTime::ZERO;
        e.resolve(t0, ipa(5), pkt(ipa(5)));
        let t1 = t0 + SimDuration::from_secs(6);
        let reqs = e.age(t1);
        assert_eq!(reqs.len(), 1);
        let t2 = t1 + SimDuration::from_secs(31);
        let reqs = e.age(t2);
        assert!(reqs.is_empty());
        assert_eq!(e.stats().held_dropped, 1);
    }

    #[test]
    fn age_asks_in_address_order_whatever_order_the_waits_began_in() {
        let mut e = engine();
        let t0 = SimTime::ZERO;
        for n in [9, 3, 7, 5] {
            e.resolve(t0, ipa(n), pkt(ipa(n)));
        }
        assert_eq!(e.release_held(ipa(7)).len(), 1);
        let asked: Vec<Ipv4Addr> = (e.age(t0 + SimDuration::from_secs(6)).iter())
            .map(|r| r.target_ip)
            .collect();
        assert_eq!(asked, [ipa(3), ipa(5), ipa(9)]);
        assert_eq!(e.pending_resolutions(), 3);
    }
}
