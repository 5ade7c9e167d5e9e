//! RIP44-style route announcements: wire format and timers.
//!
//! Gateways broadcast the radio subnets they serve as UDP datagrams on the
//! wired network (the real AMPRnet used RIP over the tunnel mesh; this is
//! the same shape reduced to what the reproduction needs). A listener that
//! hears an announcement installs `subnet → announcing gateway` into its
//! [`EncapTable`](crate::EncapTable) or routing table with a lifetime; the
//! announcer re-broadcasts periodically with **jittered** timers so
//! gateways that boot together do not synchronize, and sends **triggered**
//! updates when its own routes change so convergence does not wait for the
//! next period.

use std::fmt;
use std::net::Ipv4Addr;

use netstack::Prefix;
use sim::wire::{Reader, Writer};
use sim::{SimDuration, SimRng, SimTime};

/// UDP port the announcements travel on (the historical RIP port).
pub const RIP44_PORT: u16 = 520;

/// Metric meaning "unreachable"; entries at or above this are withdrawals.
pub const METRIC_INFINITY: u8 = 16;

const MAGIC: u16 = 0x5234; // "R4"
const VERSION: u8 = 1;
const ENTRY_LEN: usize = 6;
const HEADER_LEN: usize = 8;

/// Why a datagram failed to parse as a RIP44 update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RipError {
    /// Shorter than the fixed header or the count requires.
    Truncated,
    /// First two octets are not the RIP44 magic.
    BadMagic,
    /// Unsupported version octet.
    BadVersion,
    /// Entry count disagrees with the datagram length.
    BadCount,
    /// An entry carried a prefix length over 32.
    BadPrefixLen,
}

impl fmt::Display for RipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RipError::Truncated => write!(f, "truncated update"),
            RipError::BadMagic => write!(f, "bad magic"),
            RipError::BadVersion => write!(f, "unsupported version"),
            RipError::BadCount => write!(f, "entry count/length mismatch"),
            RipError::BadPrefixLen => write!(f, "prefix length over 32"),
        }
    }
}

impl std::error::Error for RipError {}

/// One announced subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RipEntry {
    /// The subnet reachable through the announcing gateway.
    pub prefix: Prefix,
    /// Hop distance; [`METRIC_INFINITY`] withdraws the route.
    pub metric: u8,
}

/// One announcement datagram: who is announcing, and which subnets.
///
/// `origin` is the announcing gateway's address *as it wants to be
/// tunneled to* (its wired address); UDP source addresses are not trusted
/// for this because a broadcast relayed through a helper would corrupt
/// the mapping.
///
/// # Examples
///
/// ```
/// use encap::rip::{RipEntry, RipUpdate};
/// use netstack::Prefix;
/// use std::net::Ipv4Addr;
///
/// let u = RipUpdate {
///     origin: Ipv4Addr::new(128, 95, 1, 101),
///     entries: vec![RipEntry {
///         prefix: Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16),
///         metric: 1,
///     }],
/// };
/// assert_eq!(RipUpdate::decode(&u.encode()).unwrap(), u);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RipUpdate {
    /// Wired address of the announcing gateway (the tunnel endpoint).
    pub origin: Ipv4Addr,
    /// Announced subnets with metrics.
    pub entries: Vec<RipEntry>,
}

impl RipUpdate {
    /// The wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(self.entries.len() <= usize::from(u8::MAX));
        let mut w = Writer::with_capacity(HEADER_LEN + self.entries.len() * ENTRY_LEN);
        w.u16(MAGIC);
        w.u8(VERSION);
        w.u8(self.entries.len() as u8);
        w.bytes(&self.origin.octets());
        for e in &self.entries {
            w.u32(u32::from(e.prefix.addr));
            w.u8(e.prefix.len);
            w.u8(e.metric);
        }
        w.into_bytes()
    }

    /// Parses one update from a UDP payload.
    pub fn decode(bytes: &[u8]) -> Result<RipUpdate, RipError> {
        let mut r = Reader::new(bytes);
        if r.u16().map_err(|_| RipError::Truncated)? != MAGIC {
            return Err(RipError::BadMagic);
        }
        if r.u8().map_err(|_| RipError::Truncated)? != VERSION {
            return Err(RipError::BadVersion);
        }
        let count = r.u8().map_err(|_| RipError::Truncated)?;
        let origin = Ipv4Addr::from(r.u32().map_err(|_| RipError::Truncated)?);
        if r.remaining() != usize::from(count) * ENTRY_LEN {
            return Err(RipError::BadCount);
        }
        let mut entries = Vec::with_capacity(usize::from(count));
        for _ in 0..count {
            let addr = Ipv4Addr::from(r.u32().map_err(|_| RipError::Truncated)?);
            let len = r.u8().map_err(|_| RipError::Truncated)?;
            let metric = r.u8().map_err(|_| RipError::Truncated)?;
            if len > 32 {
                return Err(RipError::BadPrefixLen);
            }
            entries.push(RipEntry {
                prefix: Prefix::new(addr, len),
                metric,
            });
        }
        Ok(RipUpdate { origin, entries })
    }
}

/// The announce-timer state machine: periodic announcements with jitter,
/// plus triggered updates pulled earlier (but rate-limited) when routes
/// change.
///
/// Deadline contract: [`next_deadline`](Announcer::next_deadline) is the
/// next instant [`due`](Announcer::due) will return `true`; the owning
/// service surfaces it through its `App::next_deadline` so the scheduler
/// polls at exactly the right time. All randomness comes from the caller's
/// [`SimRng`], keeping runs reproducible.
#[derive(Debug)]
pub struct Announcer {
    interval: SimDuration,
    /// Fractional jitter `j`: each period is drawn from
    /// `interval * [1-j, 1+j)`.
    jitter: f64,
    /// Delay before a triggered update fires (lets several changes batch).
    trigger_delay: SimDuration,
    /// Minimum spacing between consecutive announcements, so a route flap
    /// cannot turn triggered updates into a broadcast storm.
    min_gap: SimDuration,
    next_at: Option<SimTime>,
    last_sent: Option<SimTime>,
}

impl Announcer {
    /// Creates a stopped announcer. `jitter` is clamped to `[0, 0.9]`.
    pub fn new(interval: SimDuration, jitter: f64) -> Announcer {
        Announcer {
            interval,
            jitter: jitter.clamp(0.0, 0.9),
            trigger_delay: SimDuration::from_millis(500),
            min_gap: SimDuration::from_secs(1),
            next_at: None,
            last_sent: None,
        }
    }

    /// Schedules the first announcement shortly after `now` (a random
    /// fraction of one interval, so co-booting gateways desynchronize).
    pub fn start(&mut self, now: SimTime, rng: &mut SimRng) {
        let first = SimDuration::from_secs_f64(self.interval.as_secs_f64() * rng.unit());
        self.next_at = Some(now.saturating_add(first));
    }

    /// True exactly when an announcement should be sent now; rescheduling
    /// for the next jittered period happens as a side effect.
    pub fn due(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        match self.next_at {
            Some(t) if t <= now => {
                self.last_sent = Some(now);
                self.next_at = Some(now.saturating_add(self.jittered(rng)));
                true
            }
            _ => false,
        }
    }

    /// Requests a triggered update: pulls the next announcement to roughly
    /// `now + trigger_delay`, never closer than `min_gap` after the last
    /// one, and never *later* than already scheduled.
    pub fn trigger(&mut self, now: SimTime, rng: &mut SimRng) {
        let Some(next) = self.next_at else {
            return; // not started
        };
        let soon =
            SimDuration::from_secs_f64(self.trigger_delay.as_secs_f64() * (1.0 + rng.unit()));
        let mut candidate = now.saturating_add(soon);
        if let Some(last) = self.last_sent {
            candidate = candidate.max(last.saturating_add(self.min_gap));
        }
        if candidate < next {
            self.next_at = Some(candidate);
        }
    }

    /// When [`due`](Announcer::due) will next fire; `None` before
    /// [`start`](Announcer::start).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.next_at
    }

    fn jittered(&self, rng: &mut SimRng) -> SimDuration {
        let scale = 1.0 - self.jitter + 2.0 * self.jitter * rng.unit();
        SimDuration::from_secs_f64(self.interval.as_secs_f64() * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update() -> RipUpdate {
        RipUpdate {
            origin: Ipv4Addr::new(128, 95, 1, 101),
            entries: vec![
                RipEntry {
                    prefix: Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16),
                    metric: 1,
                },
                RipEntry {
                    prefix: Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0),
                    metric: 1,
                },
            ],
        }
    }

    #[test]
    fn update_roundtrips() {
        let u = update();
        assert_eq!(RipUpdate::decode(&u.encode()).unwrap(), u);
    }

    #[test]
    fn malformed_updates_are_rejected() {
        let bytes = update().encode();
        assert_eq!(RipUpdate::decode(&bytes[..3]), Err(RipError::Truncated));
        assert_eq!(
            RipUpdate::decode(&bytes[..bytes.len() - 1]),
            Err(RipError::BadCount)
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(RipUpdate::decode(&wrong_magic), Err(RipError::BadMagic));
        let mut wrong_ver = bytes.clone();
        wrong_ver[2] = 9;
        assert_eq!(RipUpdate::decode(&wrong_ver), Err(RipError::BadVersion));
        let mut bad_len = bytes.clone();
        bad_len[HEADER_LEN + 4] = 40; // first entry's prefix length
        assert_eq!(RipUpdate::decode(&bad_len), Err(RipError::BadPrefixLen));
    }

    #[test]
    fn announcer_periods_stay_within_jitter_bounds() {
        let interval = SimDuration::from_secs(10);
        let mut a = Announcer::new(interval, 0.2);
        let mut rng = SimRng::seed_from(7);
        a.start(SimTime::ZERO, &mut rng);
        let first = a.next_deadline().unwrap();
        assert!(first <= SimTime::from_secs(10), "first announce is early");

        let mut now = first;
        let mut prev = now;
        for _ in 0..50 {
            assert!(a.due(now, &mut rng));
            let next = a.next_deadline().unwrap();
            let gap = next.saturating_since(now).as_secs_f64();
            assert!((8.0..12.0).contains(&gap), "gap {gap} outside jitter band");
            prev = now;
            now = next;
        }
        assert!(prev < now);
    }

    #[test]
    fn due_is_false_before_deadline_and_before_start() {
        let mut a = Announcer::new(SimDuration::from_secs(10), 0.0);
        let mut rng = SimRng::seed_from(1);
        assert!(!a.due(SimTime::from_secs(100), &mut rng));
        a.start(SimTime::ZERO, &mut rng);
        let t = a.next_deadline().unwrap();
        if t > SimTime::ZERO {
            assert!(!a.due(SimTime::ZERO, &mut rng));
        }
        assert!(a.due(t, &mut rng));
    }

    #[test]
    fn trigger_pulls_the_next_announcement_earlier_but_respects_min_gap() {
        let mut a = Announcer::new(SimDuration::from_secs(30), 0.0);
        let mut rng = SimRng::seed_from(3);
        a.start(SimTime::ZERO, &mut rng);
        let t0 = a.next_deadline().unwrap();
        assert!(a.due(t0, &mut rng));
        let periodic = a.next_deadline().unwrap();

        // A change right after an announcement: the triggered update may
        // not come sooner than min_gap after it.
        a.trigger(t0, &mut rng);
        let pulled = a.next_deadline().unwrap();
        assert!(pulled < periodic, "trigger did not pull the deadline in");
        assert!(
            pulled >= t0.saturating_add(SimDuration::from_secs(1)),
            "trigger violated the minimum announcement gap"
        );

        // A later trigger never pushes the deadline back out.
        a.trigger(t0, &mut rng);
        assert!(a.next_deadline().unwrap() <= pulled.max(a.next_deadline().unwrap()));
    }
}
