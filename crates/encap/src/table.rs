//! The encap table: 44/8 subnets → tunnel endpoints.
//!
//! Each gateway keeps one of these. Before the ordinary routing table is
//! consulted, the stack asks the encap table whether the destination falls
//! in a subnet some *other* gateway announced; on a hit the datagram is
//! wrapped ([`crate::ipip`]) and sent to that gateway directly instead of
//! following the class-A aggregate across the country.
//!
//! Entries are either static (configured, never expire) or learned from
//! RIP44 announcements with an expiry deadline. Expiry is *deadline-driven*:
//! the owning service calls [`EncapTable::expire`] exactly at
//! [`EncapTable::next_deadline`], which is why [`EncapTable::lookup`] takes
//! no clock — a live entry is live by construction. When a learned entry
//! expires, its prefix enters **hold-down**: re-learns are rejected until
//! the hold-down period passes, so a flapping gateway cannot whipsaw the
//! table (traffic falls back to the aggregate route instead).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::net::Ipv4Addr;
use std::rc::Rc;

use netstack::stack::TunnelMap;
use netstack::Prefix;
use sim::{SimDuration, SimTime};

/// One subnet → endpoint mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncapEntry {
    /// The radio subnet reachable through [`endpoint`](Self::endpoint).
    pub subnet: Prefix,
    /// Wired address of the gateway serving that subnet.
    pub endpoint: Ipv4Addr,
    /// Announced distance; lower replaces higher for the same subnet.
    pub metric: u8,
    /// When this entry dies; `None` for static (configured) entries.
    pub expires_at: Option<SimTime>,
    /// Packets encapsulated through this entry.
    pub hits: u64,
}

impl EncapEntry {
    /// True for entries learned from announcements (they expire).
    pub fn is_learned(&self) -> bool {
        self.expires_at.is_some()
    }
}

/// Aggregate counters for one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncapStats {
    /// Lookups that matched an entry (packet was tunneled).
    pub hits: u64,
    /// Lookups that matched nothing (packet took the routing table).
    pub misses: u64,
    /// Learned entries removed at their deadline.
    pub expired: u64,
    /// New subnets accepted from announcements.
    pub learned: u64,
    /// Announcements that refreshed an existing entry's deadline.
    pub refreshed: u64,
    /// Announcements rejected because the prefix was in hold-down.
    pub holddown_rejects: u64,
}

/// What [`EncapTable::learn`] did with an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnOutcome {
    /// Previously unknown subnet; entry installed.
    New,
    /// Known subnet, better metric from a different endpoint; replaced.
    Updated,
    /// Same endpoint re-announced; deadline pushed out.
    Refreshed,
    /// Prefix is in hold-down after an expiry; announcement dropped.
    HeldDown,
    /// Worse or equal metric from a different endpoint; announcement
    /// ignored (the incumbent keeps its deadline).
    Worse,
}

/// The subnet → tunnel-endpoint table. See the module docs for the expiry
/// and hold-down contract.
///
/// # Examples
///
/// ```
/// use encap::table::EncapTable;
/// use netstack::Prefix;
/// use sim::{SimDuration, SimTime};
/// use std::net::Ipv4Addr;
///
/// let mut t = EncapTable::new(SimDuration::from_secs(20));
/// let east = Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16);
/// let gw = Ipv4Addr::new(128, 95, 1, 101);
/// t.learn(SimTime::ZERO, east, gw, 1, SimDuration::from_secs(25));
/// assert_eq!(t.lookup(Ipv4Addr::new(44, 56, 0, 5)), Some(gw));
/// assert_eq!(t.lookup(Ipv4Addr::new(44, 24, 0, 5)), None);
/// ```
#[derive(Debug)]
pub struct EncapTable {
    entries: Vec<EncapEntry>,
    /// Prefixes whose learned entry recently expired, closed to re-learns
    /// until the stored time.
    holddown_until: Vec<(Prefix, SimTime)>,
    holddown: SimDuration,
    stats: EncapStats,
}

impl EncapTable {
    /// Creates an empty table with the given hold-down period.
    pub fn new(holddown: SimDuration) -> EncapTable {
        EncapTable {
            entries: Vec::new(),
            holddown_until: Vec::new(),
            holddown,
            stats: EncapStats::default(),
        }
    }

    /// Installs a static (never-expiring) mapping.
    pub fn add_static(&mut self, subnet: Prefix, endpoint: Ipv4Addr, metric: u8) {
        self.entries.retain(|e| e.subnet != subnet);
        self.entries.push(EncapEntry {
            subnet,
            endpoint,
            metric,
            expires_at: None,
            hits: 0,
        });
        self.sort();
    }

    /// Longest-prefix match. On a hit the entry's counter and the table's
    /// hit counter advance and the tunnel endpoint is returned; on a miss
    /// the miss counter advances and the caller falls through to the
    /// ordinary routing table.
    pub fn lookup(&mut self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        match self.entries.iter_mut().find(|e| e.subnet.contains(dst)) {
            Some(e) => {
                e.hits += 1;
                self.stats.hits += 1;
                Some(e.endpoint)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Applies one announced `(subnet, endpoint, metric)` with lifetime
    /// `ttl`. See [`LearnOutcome`] for the possible dispositions.
    pub fn learn(
        &mut self,
        now: SimTime,
        subnet: Prefix,
        endpoint: Ipv4Addr,
        metric: u8,
        ttl: SimDuration,
    ) -> LearnOutcome {
        self.holddown_until.retain(|&(_, until)| until > now);
        if self.holddown_until.iter().any(|&(p, _)| p == subnet) {
            self.stats.holddown_rejects += 1;
            return LearnOutcome::HeldDown;
        }
        let deadline = now.saturating_add(ttl);
        if let Some(e) = self.entries.iter_mut().find(|e| e.subnet == subnet) {
            if !e.is_learned() {
                // Static entries are configuration; announcements never
                // override them.
                return LearnOutcome::Worse;
            }
            if e.endpoint == endpoint {
                e.expires_at = Some(deadline);
                e.metric = metric;
                self.stats.refreshed += 1;
                return LearnOutcome::Refreshed;
            }
            if metric < e.metric {
                e.endpoint = endpoint;
                e.metric = metric;
                e.expires_at = Some(deadline);
                self.sort();
                return LearnOutcome::Updated;
            }
            return LearnOutcome::Worse;
        }
        self.entries.push(EncapEntry {
            subnet,
            endpoint,
            metric,
            expires_at: Some(deadline),
            hits: 0,
        });
        self.stats.learned += 1;
        self.sort();
        LearnOutcome::New
    }

    /// Removes every learned entry whose deadline has arrived, placing its
    /// prefix in hold-down. Returns the removed entries (the service uses
    /// them to withdraw any routes it installed).
    pub fn expire(&mut self, now: SimTime) -> Vec<EncapEntry> {
        let mut dead = Vec::new();
        self.entries.retain(|e| match e.expires_at {
            Some(t) if t <= now => {
                dead.push(*e);
                false
            }
            _ => true,
        });
        for e in &dead {
            self.stats.expired += 1;
            self.holddown_until
                .push((e.subnet, now.saturating_add(self.holddown)));
        }
        dead
    }

    /// The earliest learned-entry expiry, for the scheduler.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.entries.iter().filter_map(|e| e.expires_at).min()
    }

    /// True while `subnet` is closed to re-learns.
    pub fn in_holddown(&self, subnet: Prefix, now: SimTime) -> bool {
        self.holddown_until
            .iter()
            .any(|&(p, until)| p == subnet && until > now)
    }

    /// The current entries, longest prefix (then best metric) first.
    pub fn entries(&self) -> &[EncapEntry] {
        &self.entries
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EncapStats {
        self.stats
    }

    fn sort(&mut self) {
        self.entries
            .sort_by_key(|e| (Reverse(e.subnet.len), e.metric));
    }
}

/// A cloneable handle to an [`EncapTable`], installable as a stack's
/// [`TunnelMap`]. The RIP44 service keeps one clone for learning and
/// expiry; the stack keeps another for per-packet lookups.
#[derive(Debug, Clone)]
pub struct SharedEncapTable(Rc<RefCell<EncapTable>>);

impl SharedEncapTable {
    /// Wraps a table for sharing.
    pub fn new(table: EncapTable) -> SharedEncapTable {
        SharedEncapTable(Rc::new(RefCell::new(table)))
    }

    /// Runs `f` with the table borrowed mutably.
    pub fn with<R>(&self, f: impl FnOnce(&mut EncapTable) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> EncapStats {
        self.0.borrow().stats
    }
}

impl TunnelMap for SharedEncapTable {
    fn endpoint(&mut self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.0.borrow_mut().lookup(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn east() -> Prefix {
        Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16)
    }

    fn gw_a() -> Ipv4Addr {
        Ipv4Addr::new(128, 95, 1, 101)
    }

    fn gw_b() -> Ipv4Addr {
        Ipv4Addr::new(128, 95, 1, 102)
    }

    fn table() -> EncapTable {
        EncapTable::new(SimDuration::from_secs(20))
    }

    const TTL: SimDuration = SimDuration::from_secs(25);

    #[test]
    fn lpm_prefers_the_longer_prefix() {
        let mut t = table();
        t.add_static(Prefix::new(Ipv4Addr::new(44, 0, 0, 0), 8), gw_a(), 5);
        t.learn(SimTime::ZERO, east(), gw_b(), 1, TTL);
        assert_eq!(t.lookup(Ipv4Addr::new(44, 56, 9, 9)), Some(gw_b()));
        assert_eq!(t.lookup(Ipv4Addr::new(44, 24, 0, 5)), Some(gw_a()));
        assert_eq!(t.entries()[0].hits + t.entries()[1].hits, 2);
        assert_eq!(t.stats().hits, 2);
    }

    #[test]
    fn refresh_extends_and_update_replaces() {
        let mut t = table();
        assert_eq!(
            t.learn(SimTime::ZERO, east(), gw_a(), 2, TTL),
            LearnOutcome::New
        );
        let later = SimTime::from_secs(10);
        assert_eq!(
            t.learn(later, east(), gw_a(), 2, TTL),
            LearnOutcome::Refreshed
        );
        assert_eq!(t.entries()[0].expires_at, Some(later.saturating_add(TTL)));
        // A worse metric from elsewhere is ignored; a better one replaces.
        assert_eq!(t.learn(later, east(), gw_b(), 3, TTL), LearnOutcome::Worse);
        assert_eq!(t.entries()[0].endpoint, gw_a());
        assert_eq!(
            t.learn(later, east(), gw_b(), 1, TTL),
            LearnOutcome::Updated
        );
        assert_eq!(t.entries()[0].endpoint, gw_b());
    }

    #[test]
    fn expiry_enters_holddown_then_reopens() {
        let mut t = table();
        t.learn(SimTime::ZERO, east(), gw_a(), 1, TTL);
        assert_eq!(t.next_deadline(), Some(SimTime::from_secs(25)));

        let dead = t.expire(SimTime::from_secs(25));
        assert_eq!(dead.len(), 1);
        assert!(t.entries().is_empty());
        assert!(t.in_holddown(east(), SimTime::from_secs(30)));
        assert_eq!(t.lookup(Ipv4Addr::new(44, 56, 0, 5)), None);

        // Re-learn inside the hold-down window (25s + 20s) is rejected...
        assert_eq!(
            t.learn(SimTime::from_secs(40), east(), gw_a(), 1, TTL),
            LearnOutcome::HeldDown
        );
        assert_eq!(t.stats().holddown_rejects, 1);
        // ...and accepted after it ends.
        assert_eq!(
            t.learn(SimTime::from_secs(46), east(), gw_a(), 1, TTL),
            LearnOutcome::New
        );
    }

    #[test]
    fn static_entries_never_expire_or_yield_to_announcements() {
        let mut t = table();
        t.add_static(east(), gw_a(), 5);
        assert_eq!(
            t.learn(SimTime::ZERO, east(), gw_b(), 0, TTL),
            LearnOutcome::Worse
        );
        assert_eq!(t.next_deadline(), None);
        assert!(t.expire(SimTime::MAX).is_empty());
        assert_eq!(t.entries()[0].endpoint, gw_a());
    }

    #[test]
    fn shared_handle_serves_as_tunnel_map() {
        let shared = SharedEncapTable::new(table());
        shared.with(|t| {
            t.learn(SimTime::ZERO, east(), gw_a(), 1, TTL);
        });
        let mut map: Box<dyn TunnelMap> = Box::new(shared.clone());
        assert_eq!(map.endpoint(Ipv4Addr::new(44, 56, 1, 2)), Some(gw_a()));
        assert_eq!(map.endpoint(Ipv4Addr::new(10, 0, 0, 1)), None);
        assert_eq!(shared.stats().hits, 1);
        assert_eq!(shared.stats().misses, 1);
    }
}
