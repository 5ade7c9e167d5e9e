//! The filter engine: the §4.3 gate on every packet.
//!
//! Foreign→amateur traffic without a live soft-state entry is denied
//! outright; amateur→foreign traffic opens or refreshes the return
//! entry (the paper's main mechanism); everything else is allowed.
//!
//! Nothing is memoized, so no table change needs invalidating: the next
//! packet sees a gate open, close or expiry as it is.

use netstack::icmp::IcmpMessage;
use sim::SimTime;

use crate::gate::{is_amateur, ControlOutcome, GateConfig, GateTable, Mutation};
use crate::rule::PacketMeta;

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterConfig {
    /// §4.3 soft-state gate; `None` disables it (every packet allowed).
    pub gate: Option<GateConfig>,
}

impl FilterConfig {
    /// Everything allowed, no gate — policy-transparent: the E1–E16
    /// scenarios run byte-identically with this installed, which the
    /// transparency test asserts.
    pub fn permissive() -> FilterConfig {
        FilterConfig { gate: None }
    }

    /// The paper's gateway posture: §4.3 gate on with defaults.
    pub fn gateway() -> FilterConfig {
        FilterConfig {
            gate: Some(GateConfig::default()),
        }
    }
}

/// The filter's answer for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Pass it on.
    Allow,
    /// Drop it.
    Deny,
}

impl Verdict {
    /// True for [`Verdict::Allow`].
    #[inline]
    pub fn is_allow(self) -> bool {
        self == Verdict::Allow
    }
}

/// Engine counters (E17's scoreboard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Always 0: the engine keeps no decision cache. Kept, with
    /// `cache_misses`, because the benchmark harness still reads both.
    pub cache_hits: u64,
    /// Evaluations: every packet is judged afresh.
    pub cache_misses: u64,
    /// Final allow verdicts.
    pub allowed: u64,
    /// Final deny verdicts (each one also a `gate_denied`).
    pub denied: u64,
    /// Denials because no live gate entry admitted the foreign source.
    pub gate_denied: u64,
    /// Gate entries opened by amateur-side traffic.
    pub gate_opened: u64,
    /// Gate entries refreshed by amateur-side traffic.
    pub gate_refreshed: u64,
    /// Gate entries removed by TTL expiry.
    pub gate_expired: u64,
    /// Gate entries force-closed by GateClose.
    pub gate_closed: u64,
    /// Gate entries opened/refreshed by authorized GateOpen messages.
    pub opened_by_message: u64,
    /// Control messages rejected for bad or missing credentials.
    pub auth_failures: u64,
}

/// The §4.3 packet-filter engine (DESIGN.md §13).
#[derive(Debug)]
pub struct FilterEngine {
    gate: Option<GateTable>,
    /// Verdict-changing mutations so far: gate opens and gate closes.
    generation: u32,
    stats: FilterStats,
}

impl FilterEngine {
    /// Builds the engine.
    pub fn new(cfg: FilterConfig) -> FilterEngine {
        FilterEngine {
            gate: cfg.gate.map(GateTable::new),
            generation: 0,
            stats: FilterStats::default(),
        }
    }

    /// Judges one packet at the gate. This is the per-packet hot path,
    /// allocation-free (asserted by the `filter_eval` ratchet).
    #[inline]
    pub fn eval(&mut self, now: SimTime, m: &PacketMeta) -> Verdict {
        self.stats.cache_misses += 1;
        if let Some(g) = &mut self.gate {
            let src_am = is_amateur(m.src);
            let dst_am = is_amateur(m.dst);
            if src_am && !dst_am {
                let ttl = g.cfg().entry_ttl;
                if g.open(now, m.src, m.dst, ttl) == Mutation::Opened {
                    self.bump_generation();
                    self.stats.gate_opened += 1;
                } else {
                    self.stats.gate_refreshed += 1;
                }
            } else if !src_am && dst_am && !g.is_live(now, m.dst, m.src) {
                self.stats.gate_denied += 1;
                return self.apply(Verdict::Deny);
            }
        }
        self.apply(Verdict::Allow)
    }

    /// Counts one verdict-changing mutation.
    fn bump_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Counts a final verdict and returns it.
    #[inline]
    fn apply(&mut self, v: Verdict) -> Verdict {
        match v {
            Verdict::Allow => self.stats.allowed += 1,
            Verdict::Deny => self.stats.denied += 1,
        }
        v
    }

    // --- Control plane ------------------------------------------------------

    /// Applies a §4.3 gate-control ICMP message; counts a generation
    /// when (and only when) a verdict changed.
    pub fn on_gate_message(
        &mut self,
        now: SimTime,
        from_amateur_side: bool,
        msg: &IcmpMessage,
    ) -> ControlOutcome {
        let Some(g) = &mut self.gate else {
            return ControlOutcome::NoEntry;
        };
        let (outcome, mutation) = g.on_message(now, from_amateur_side, msg);
        match mutation {
            Mutation::Opened => {
                self.bump_generation();
                self.stats.opened_by_message += 1;
            }
            Mutation::Refreshed => self.stats.opened_by_message += 1,
            Mutation::Closed => {
                self.bump_generation();
                self.stats.gate_closed += 1;
            }
            Mutation::NoOp => {}
        }
        if outcome == ControlOutcome::AuthFailed {
            self.stats.auth_failures += 1;
        }
        outcome
    }

    // --- Soft-state maintenance ---------------------------------------------

    /// Sweeps expired gate entries (called when
    /// [`next_deadline`](FilterEngine::next_deadline) comes due; verdicts
    /// never depend on the sweep, see `crate::gate`).
    pub fn expire(&mut self, now: SimTime) {
        if let Some(g) = &mut self.gate {
            self.stats.gate_expired += g.expire(now);
        }
    }

    /// The earliest instant soft state can decay — folded into the
    /// host's scheduler deadline, per the PR 2 discipline.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.gate.as_ref().and_then(|g| g.next_deadline())
    }

    // --- Introspection ------------------------------------------------------

    /// Counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Verdict-changing mutations so far: gate opens and gate closes.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The engine itself.
    #[doc(hidden)]
    #[allow(clippy::should_implement_trait)] // serves benchmarks/src/layers.rs:104 (ROADMAP 2(a))
    pub fn borrow(&self) -> &Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;
    use std::net::Ipv4Addr;

    fn meta(src: [u8; 4], dst: [u8; 4], proto: u8) -> PacketMeta {
        PacketMeta {
            src: u32::from(Ipv4Addr::from(src)),
            dst: u32::from(Ipv4Addr::from(dst)),
            proto,
            dport: 0,
            has_port: false,
        }
    }

    const AM: [u8; 4] = [44, 24, 0, 5];
    const FO: [u8; 4] = [128, 95, 1, 4];

    #[test]
    fn gate_round_trip_through_the_engine() {
        let mut e = FilterEngine::new(FilterConfig::gateway());
        let t0 = SimTime::ZERO;
        // Unsolicited foreign→amateur: denied, every time.
        assert_eq!(e.eval(t0, &meta(FO, AM, 6)), Verdict::Deny);
        assert_eq!(e.eval(t0, &meta(FO, AM, 6)), Verdict::Deny);
        assert_eq!(e.stats().gate_denied, 2);
        assert_eq!(e.stats().cache_misses, 2, "every packet is evaluated");
        // Amateur initiates: opens the pair, and the next foreign packet
        // is admitted.
        assert_eq!(e.eval(t0, &meta(AM, FO, 6)), Verdict::Allow);
        assert_eq!(e.generation(), 1);
        assert_eq!(e.eval(t0, &meta(FO, AM, 6)), Verdict::Allow);
        // Pairwise only.
        assert_eq!(e.eval(t0, &meta([128, 95, 1, 9], AM, 6)), Verdict::Deny);
        assert_eq!(e.stats().gate_opened, 1);
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn amateur_flow_keeps_refreshing_the_entry() {
        let mut e = FilterEngine::new(FilterConfig::gateway());
        let mut t = SimTime::ZERO;
        // Steady amateur→foreign traffic, one packet per 400 s: every
        // one refreshes the 600 s entry, so the return path stays open
        // far beyond the original TTL.
        for _ in 0..5 {
            assert_eq!(e.eval(t, &meta(AM, FO, 17)), Verdict::Allow);
            t += SimDuration::from_secs(400);
        }
        assert_eq!(e.stats().gate_refreshed, 4);
        assert_eq!(e.eval(t, &meta(FO, AM, 17)), Verdict::Allow);
    }

    #[test]
    fn entry_expiry_closes_the_return_path_without_a_sweep() {
        let mut e = FilterEngine::new(FilterConfig::gateway());
        let t0 = SimTime::ZERO;
        e.eval(t0, &meta(AM, FO, 17));
        assert_eq!(e.eval(t0, &meta(FO, AM, 17)), Verdict::Allow);
        let late = t0 + SimDuration::from_secs(601);
        // Liveness is judged against the stored expiry, unswept.
        assert_eq!(e.eval(late, &meta(FO, AM, 17)), Verdict::Deny);
        // Deadline-driven sweep accounts for it.
        assert_eq!(e.next_deadline(), Some(t0 + SimDuration::from_secs(600)));
        e.expire(late);
        assert_eq!(e.stats().gate_expired, 1);
        assert_eq!(e.next_deadline(), None, "the sweep left no entry");
    }

    #[test]
    fn gate_close_ends_an_admission() {
        let mut e = FilterEngine::new(FilterConfig::gateway());
        let t0 = SimTime::ZERO;
        e.eval(t0, &meta(AM, FO, 6));
        assert_eq!(e.eval(t0, &meta(FO, AM, 6)), Verdict::Allow);
        let gen = e.generation();
        let close = IcmpMessage::GateClose {
            amateur: Ipv4Addr::from(AM),
            foreign: Ipv4Addr::from(FO),
            auth: None,
        };
        assert_eq!(e.on_gate_message(t0, true, &close), ControlOutcome::Applied);
        assert_eq!(e.generation(), gen + 1);
        assert_eq!(e.eval(t0, &meta(FO, AM, 6)), Verdict::Deny);
    }

    #[test]
    fn permissive_engine_is_inert() {
        let mut e = FilterEngine::new(FilterConfig::permissive());
        assert_eq!(e.next_deadline(), None);
        assert_eq!(e.eval(SimTime::ZERO, &meta(FO, AM, 6)), Verdict::Allow);
        assert_eq!(e.eval(SimTime::ZERO, &meta(AM, FO, 6)), Verdict::Allow);
        assert_eq!(e.next_deadline(), None, "no soft state accrues");
    }
}
