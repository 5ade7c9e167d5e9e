//! §4.3 soft state: the amateur-initiated access table, engine-grade.
//!
//! Same contract as the paper (this table replaced the minimal
//! standalone ACL the E5 model started with): traffic from the amateur side
//! opens or refreshes a `(amateur, foreign)` pair entry; traffic from
//! the foreign side is admitted only through a live entry; entries decay
//! on a TTL; the authenticated GateOpen/GateClose ICMP messages manage
//! entries remotely. The differences are engine concerns:
//!
//! * liveness is judged lazily against the stored expiry (a verdict
//!   never depends on when the sweep last ran), and the sweep itself is
//!   deadline-driven through [`GateTable::next_deadline`] so hosts fold
//!   it into the PR 2 scheduler instead of polling;
//! * every mutation reports whether it *changed a verdict* — new entry,
//!   forced close — which the engine counts as its generation. A
//!   refresh, whether it moves the expiry later or earlier, changes no
//!   verdict at that instant.

use sim::fxhash::FxHashMap;
use sim::{SimDuration, SimTime};

use netstack::icmp::{GateAuth, IcmpMessage};
use netstack::route::Prefix;

/// Gate policy parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateConfig {
    /// How long an entry lives without amateur-side traffic.
    pub entry_ttl: SimDuration,
    /// Control operators authorized to manage entries from the
    /// non-amateur side: `(callsign, password)`.
    pub operators: Vec<(String, String)>,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            entry_ttl: SimDuration::from_secs(600),
            operators: Vec::new(),
        }
    }
}

/// Whether `addr` is on the amateur network (44/8 in the paper).
#[inline]
pub(crate) fn is_amateur(addr: u32) -> bool {
    Prefix::amprnet().contains(std::net::Ipv4Addr::from(addr))
}

/// Outcome of a gateway-control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOutcome {
    /// The table was updated.
    Applied,
    /// Credentials were missing or wrong.
    AuthFailed,
    /// Nothing to do (closing a nonexistent entry, or no gate at all).
    NoEntry,
}

/// What a table mutation did, verdict-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mutation {
    /// A pair that was dead (absent or expired) is now live: its
    /// foreign side's packets flip from deny to allow.
    Opened,
    /// A live pair got a new expiry: no verdict changed.
    Refreshed,
    /// A live pair was force-closed: its foreign side's packets flip
    /// from allow to deny.
    Closed,
    /// Nothing happened.
    NoOp,
}

/// The soft-state table.
#[derive(Debug)]
pub(crate) struct GateTable {
    cfg: GateConfig,
    /// `(amateur, foreign)` → expiry.
    entries: FxHashMap<(u32, u32), SimTime>,
    /// Lower bound on the earliest expiry (exact after each sweep;
    /// refreshes may leave it early, which only costs a no-op wakeup).
    next_expiry: SimTime,
}

impl GateTable {
    pub(crate) fn new(cfg: GateConfig) -> GateTable {
        GateTable {
            cfg,
            entries: FxHashMap::default(),
            next_expiry: SimTime::MAX,
        }
    }

    pub(crate) fn cfg(&self) -> &GateConfig {
        &self.cfg
    }

    /// Whether `(amateur, foreign)` has a live entry at `now`.
    #[inline]
    pub(crate) fn is_live(&self, now: SimTime, amateur: u32, foreign: u32) -> bool {
        self.entries
            .get(&(amateur, foreign))
            .is_some_and(|&exp| exp > now)
    }

    /// Opens or refreshes `(amateur, foreign)` for `ttl` from `now`.
    pub(crate) fn open(
        &mut self,
        now: SimTime,
        amateur: u32,
        foreign: u32,
        ttl: SimDuration,
    ) -> Mutation {
        let exp = now + ttl;
        let old = self.entries.insert((amateur, foreign), exp);
        self.next_expiry = self.next_expiry.min(exp);
        match old {
            Some(prev) if prev > now => Mutation::Refreshed,
            _ => Mutation::Opened,
        }
    }

    /// Force-closes `(amateur, foreign)`.
    pub(crate) fn close(&mut self, now: SimTime, amateur: u32, foreign: u32) -> Mutation {
        match self.entries.remove(&(amateur, foreign)) {
            Some(exp) if exp > now => Mutation::Closed,
            Some(_) => Mutation::NoOp,
            None => Mutation::NoOp,
        }
    }

    /// Sweeps expired entries; returns how many were dropped. Verdicts
    /// already treat them as dead ([`GateTable::is_live`]); the sweep
    /// only reclaims them.
    pub(crate) fn expire(&mut self, now: SimTime) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, exp| *exp > now);
        self.next_expiry = self.entries.values().copied().min().unwrap_or(SimTime::MAX);
        (before - self.entries.len()) as u64
    }

    /// When the earliest entry could expire (fold into the host's
    /// scheduler deadline).
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.next_expiry)
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn auth_ok(&self, from_amateur_side: bool, auth: &Option<GateAuth>) -> bool {
        if from_amateur_side {
            // §4.3: messages arriving on the amateur side are inherently
            // from a licensed operator (the FCC identification rule).
            return true;
        }
        match auth {
            Some(a) => self
                .cfg
                .operators
                .iter()
                .any(|(call, pw)| *call == a.callsign && *pw == a.password),
            None => false,
        }
    }

    /// Applies a §4.3 control message. `from_amateur_side` is judged by
    /// the ingress interface, never the claimed source address.
    pub(crate) fn on_message(
        &mut self,
        now: SimTime,
        from_amateur_side: bool,
        msg: &IcmpMessage,
    ) -> (ControlOutcome, Mutation) {
        match msg {
            IcmpMessage::GateOpen {
                amateur,
                foreign,
                ttl_secs,
                auth,
            } => {
                if !self.auth_ok(from_amateur_side, auth) {
                    return (ControlOutcome::AuthFailed, Mutation::NoOp);
                }
                let ttl = SimDuration::from_secs(u64::from(*ttl_secs));
                let m = self.open(now, u32::from(*amateur), u32::from(*foreign), ttl);
                (ControlOutcome::Applied, m)
            }
            IcmpMessage::GateClose {
                amateur,
                foreign,
                auth,
            } => {
                if !self.auth_ok(from_amateur_side, auth) {
                    return (ControlOutcome::AuthFailed, Mutation::NoOp);
                }
                match self.close(now, u32::from(*amateur), u32::from(*foreign)) {
                    Mutation::Closed => (ControlOutcome::Applied, Mutation::Closed),
                    m => (ControlOutcome::NoEntry, m),
                }
            }
            _ => (ControlOutcome::NoEntry, Mutation::NoOp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> GateTable {
        let mut cfg = GateConfig::default();
        cfg.operators.push(("N7AKR".into(), "secret".into()));
        GateTable::new(cfg)
    }

    const A: u32 = 0x2C18_0005; // 44.24.0.5
    const F: u32 = 0x805F_0104; // 128.95.1.4

    #[test]
    fn open_refresh_close_report_their_verdict_effect() {
        let mut g = gate();
        let t0 = SimTime::ZERO;
        let ttl = SimDuration::from_secs(600);
        assert_eq!(g.open(t0, A, F, ttl), Mutation::Opened);
        assert_eq!(g.open(t0, A, F, ttl), Mutation::Refreshed);
        assert_eq!(g.close(t0, A, F), Mutation::Closed);
        assert_eq!(g.close(t0, A, F), Mutation::NoOp);
        // Re-opening a pair whose entry expired counts as Opened again.
        g.open(t0, A, F, ttl);
        let late = t0 + SimDuration::from_secs(601);
        assert_eq!(g.open(late, A, F, ttl), Mutation::Opened);
    }

    #[test]
    fn liveness_is_judged_lazily() {
        let mut g = gate();
        let t0 = SimTime::ZERO;
        g.open(t0, A, F, SimDuration::from_secs(60));
        assert!(g.is_live(t0 + SimDuration::from_secs(59), A, F));
        // Never swept, but already dead to verdicts.
        assert!(!g.is_live(t0 + SimDuration::from_secs(60), A, F));
        assert_eq!(g.len(), 1);
        assert_eq!(g.expire(t0 + SimDuration::from_secs(60)), 1);
        assert_eq!(g.len(), 0);
        assert_eq!(g.next_deadline(), None);
    }

    #[test]
    fn deadline_tracks_earliest_entry() {
        let mut g = gate();
        let t0 = SimTime::ZERO;
        g.open(t0, A, F, SimDuration::from_secs(600));
        g.open(t0, A + 1, F, SimDuration::from_secs(60));
        assert_eq!(g.next_deadline(), Some(t0 + SimDuration::from_secs(60)));
        assert_eq!(g.expire(t0 + SimDuration::from_secs(60)), 1);
        assert_eq!(g.next_deadline(), Some(t0 + SimDuration::from_secs(600)));
    }

    #[test]
    fn foreign_side_messages_need_credentials() {
        let mut g = gate();
        let open = |auth| IcmpMessage::GateOpen {
            amateur: std::net::Ipv4Addr::from(A),
            foreign: std::net::Ipv4Addr::from(F),
            ttl_secs: 300,
            auth,
        };
        let (o, m) = g.on_message(SimTime::ZERO, false, &open(None));
        assert_eq!((o, m), (ControlOutcome::AuthFailed, Mutation::NoOp));
        let bad = GateAuth {
            callsign: "N7AKR".into(),
            password: "wrong".into(),
        };
        let (o, _) = g.on_message(SimTime::ZERO, false, &open(Some(bad)));
        assert_eq!(o, ControlOutcome::AuthFailed);
        let good = GateAuth {
            callsign: "N7AKR".into(),
            password: "secret".into(),
        };
        let (o, m) = g.on_message(SimTime::ZERO, false, &open(Some(good)));
        assert_eq!((o, m), (ControlOutcome::Applied, Mutation::Opened));
        // Amateur side needs none.
        let close = IcmpMessage::GateClose {
            amateur: std::net::Ipv4Addr::from(A),
            foreign: std::net::Ipv4Addr::from(F),
            auth: None,
        };
        let (o, m) = g.on_message(SimTime::ZERO, true, &close);
        assert_eq!((o, m), (ControlOutcome::Applied, Mutation::Closed));
    }
}
