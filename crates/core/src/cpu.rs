//! The host CPU cost model.
//!
//! §2.2 of the paper: *"For each character in the packet, the tty driver
//! calls the packet radio interrupt handler to process the character."*
//! On a MicroVAX II a DZ-style serial line interrupts once per character;
//! with a promiscuous TNC (§3) every frame on the channel — wanted or not
//! — turns into a burst of such interrupts plus packet-level protocol
//! work. This model charges those costs against a single serially-busy
//! CPU so the gateway's forwarding latency genuinely degrades as the
//! subnet load climbs (experiment E2).
//!
//! Defaults are calibrated to the era: several hundred microseconds per
//! character interrupt (DZ11s were notorious CPU hogs) and a couple of
//! milliseconds of protocol processing per packet.

use sim::{SimDuration, SimTime};

/// CPU cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Cost of one serial-character interrupt.
    pub char_cost: SimDuration,
    /// Cost of protocol processing for one packet.
    pub packet_cost: SimDuration,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            char_cost: SimDuration::from_micros(600),
            packet_cost: SimDuration::from_millis(2),
        }
    }
}

impl CpuConfig {
    /// A free CPU, for experiments that want pure link behaviour.
    pub fn free() -> CpuConfig {
        CpuConfig {
            char_cost: SimDuration::ZERO,
            packet_cost: SimDuration::ZERO,
        }
    }
}

/// CPU utilization counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStats {
    /// Character interrupts serviced.
    pub char_interrupts: u64,
    /// Packets processed.
    pub packets: u64,
    /// Total busy time accumulated.
    pub busy_ns: u64,
}

/// A single serially-busy CPU.
#[derive(Debug)]
pub struct Cpu {
    cfg: CpuConfig,
    busy_until: SimTime,
    stats: CpuStats,
}

impl Cpu {
    /// Creates an idle CPU.
    pub fn new(cfg: CpuConfig) -> Cpu {
        Cpu {
            cfg,
            busy_until: SimTime::ZERO,
            stats: CpuStats::default(),
        }
    }

    /// The model parameters.
    pub fn config(&self) -> CpuConfig {
        self.cfg
    }

    /// Charges one character interrupt arriving at `now`; returns when
    /// its processing completes. The reference that
    /// [`charge_chars_paced`](Cpu::charge_chars_paced) is tested against.
    #[cfg(test)]
    fn charge_char(&mut self, now: SimTime) -> SimTime {
        self.stats.char_interrupts += 1;
        self.charge(now, self.cfg.char_cost)
    }

    /// Charges one packet's protocol processing; returns completion time.
    pub(crate) fn charge_packet(&mut self, now: SimTime) -> SimTime {
        self.stats.packets += 1;
        self.charge(now, self.cfg.packet_cost)
    }

    /// Charges `n` character interrupts arriving back-to-back at uniform
    /// spacing: character `i` at `t0 + i·char_time`. Returns when the last
    /// completes.
    ///
    /// Exactly equivalent to the per-character sequence
    /// `charge_char(t0 + i·char_time)` for `i in 0..n`: unrolling the
    /// recurrence `busy = max(busy, tᵢ) + c` gives
    /// `max(busy₀ + n·c, max_j(tⱼ + (n−j)·c))`, and the inner term is
    /// monotone in `j`, so only the first or last arrival can dominate.
    /// This is the indexed engine charging a whole run of line-paced
    /// deliveries in one call (DESIGN.md §6).
    pub(crate) fn charge_chars_paced(
        &mut self,
        t0: SimTime,
        char_time: SimDuration,
        n: u64,
    ) -> SimTime {
        if n == 0 {
            return self.busy_until;
        }
        self.stats.char_interrupts += n;
        let c = self.cfg.char_cost;
        let backlogged = self.busy_until + c * n;
        let paced = if char_time >= c {
            // The CPU drains between arrivals: the last character's own
            // service time dominates.
            t0 + char_time * (n - 1) + c
        } else {
            // Arrivals outpace service: work queues from the first one.
            t0 + c * n
        };
        self.busy_until = backlogged.max(paced);
        self.stats.busy_ns += c.as_nanos() * n;
        self.busy_until
    }

    fn charge(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + cost;
        self.stats.busy_ns += cost.as_nanos();
        self.busy_until
    }

    /// When the CPU drains its current backlog.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Counters.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Fraction of `[SimTime::ZERO, now]` the CPU spent busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.as_nanos();
        if span == 0 {
            0.0
        } else {
            (self.stats.busy_ns as f64 / span as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(char_us: u64, pkt_us: u64) -> CpuConfig {
        CpuConfig {
            char_cost: SimDuration::from_micros(char_us),
            packet_cost: SimDuration::from_micros(pkt_us),
        }
    }

    #[test]
    fn idle_cpu_processes_immediately() {
        let mut cpu = Cpu::new(cfg(100, 1000));
        let done = cpu.charge_char(SimTime::from_millis(10));
        assert_eq!(
            done,
            SimTime::from_millis(10) + SimDuration::from_micros(100)
        );
    }

    #[test]
    fn backlog_serializes_work() {
        let mut cpu = Cpu::new(cfg(100, 1000));
        let t = SimTime::ZERO;
        let d1 = cpu.charge_char(t);
        let d2 = cpu.charge_char(t);
        let d3 = cpu.charge_packet(t);
        assert_eq!(d1, SimTime::from_micros(100));
        assert_eq!(d2, SimTime::from_micros(200));
        assert_eq!(d3, SimTime::from_micros(1200));
        assert_eq!(cpu.busy_until(), d3);
    }

    #[test]
    fn gap_lets_cpu_idle() {
        let mut cpu = Cpu::new(cfg(100, 0));
        cpu.charge_char(SimTime::ZERO);
        let later = SimTime::from_secs(1);
        let done = cpu.charge_char(later);
        assert_eq!(done, later + SimDuration::from_micros(100));
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut cpu = Cpu::new(cfg(0, 500_000)); // 0.5s per packet
        cpu.charge_packet(SimTime::ZERO);
        let u = cpu.utilization(SimTime::from_secs(1));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn charge_chars_paced_matches_iterated_charge_char() {
        // Every regime: CPU drains between chars (char_time > cost), work
        // queues (char_time < cost), exact pacing, and a busy head start
        // that out-lasts part of the run. The zero-spacing rows are a run
        // of characters all arriving at one instant, before a head start
        // or after it has drained.
        for (char_us, spacing_us, backlog_us, n) in [
            (600u64, 1042u64, 0u64, 8u64),
            (600, 1042, 20_000, 8),
            (600, 300, 0, 5),
            (600, 600, 1000, 4),
            (600, 1042, 3000, 1),
            (600, 0, 0, 1),
            (600, 0, 0, 7),
            (600, 0, 300, 3),
            (600, 0, 2000, 12),
        ] {
            let mut bulk = Cpu::new(cfg(char_us, backlog_us));
            let mut scalar = Cpu::new(cfg(char_us, backlog_us));
            if backlog_us > 0 {
                bulk.charge_packet(SimTime::ZERO);
                scalar.charge_packet(SimTime::ZERO);
            }
            let t0 = SimTime::from_micros(500);
            let ct = SimDuration::from_micros(spacing_us);
            let mut last = SimTime::ZERO;
            for i in 0..n {
                last = scalar.charge_char(t0 + ct * i);
            }
            assert_eq!(
                bulk.charge_chars_paced(t0, ct, n),
                last,
                "{char_us} {spacing_us} {backlog_us} {n}"
            );
            assert_eq!(bulk.busy_until(), scalar.busy_until());
            assert_eq!(bulk.stats().char_interrupts, scalar.stats().char_interrupts);
            assert_eq!(bulk.stats().busy_ns, scalar.stats().busy_ns);
        }
    }

    #[test]
    fn zero_chars_charge_nothing() {
        let mut cpu = Cpu::new(cfg(600, 0));
        let before = cpu.busy_until();
        assert_eq!(
            cpu.charge_chars_paced(SimTime::from_secs(1), SimDuration::from_micros(1042), 0),
            before
        );
        assert_eq!(cpu.stats().char_interrupts, 0);
        assert_eq!(cpu.busy_until(), before, "no floor to now without work");
    }

    #[test]
    fn free_cpu_costs_nothing() {
        let mut cpu = Cpu::new(CpuConfig::free());
        let done = cpu.charge_packet(SimTime::from_secs(5));
        assert_eq!(done, SimTime::from_secs(5));
        assert_eq!(cpu.stats().packets, 1);
    }
}
