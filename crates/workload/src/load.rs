//! Load models: session classes, mixes, arrival processes, and the
//! pure schedule generator.
//!
//! A [`FleetSchedule`] is a *plan*, not behavior: [`build_schedule`]
//! expands a [`FleetSpec`] into per-client session lists using only the
//! in-tree xoshiro [`SimRng`], forking one child generator per client in
//! deterministic (island, client) order. The same spec therefore yields
//! byte-identical schedules on any engine, any run —
//! the determinism anchor the E16 equivalence claim and the
//! `workload_determinism` proptest both hang off.

use std::fmt::Write;

use sim::rng::SimRng;
use sim::{Fnv1a, SimDuration};

/// The four session classes a fleet can run (§2.3's uses of the
/// gateway: remote login, file transfer, name lookup, echo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionClass {
    /// Stop-and-wait keystrokes against a TCP echo server (interactive).
    Typist,
    /// A bulk `GET` from the FTP-style file server.
    Ftp,
    /// A UDP A-record query against the island's DNS server.
    Dns,
    /// A short TCP echo burst (one write, wait for it back).
    Echo,
}

impl SessionClass {
    /// All classes, in weight-array order.
    pub const ALL: [SessionClass; 4] = [
        SessionClass::Typist,
        SessionClass::Ftp,
        SessionClass::Dns,
        SessionClass::Echo,
    ];

    /// Stable index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            SessionClass::Typist => 0,
            SessionClass::Ftp => 1,
            SessionClass::Dns => 2,
            SessionClass::Echo => 3,
        }
    }

    /// Human-readable label for report rows.
    pub fn label(self) -> &'static str {
        match self {
            SessionClass::Typist => "typist",
            SessionClass::Ftp => "ftp",
            SessionClass::Dns => "dns",
            SessionClass::Echo => "echo",
        }
    }
}

/// A named traffic mix: per-class weights, drawn by integer cumulative
/// weight (no float in the pick, so mixes are portable bit-for-bit).
#[derive(Debug, Clone)]
pub struct Mix {
    /// Display name ("interactive", "bulk", ...).
    pub name: &'static str,
    /// Weights in [`SessionClass::ALL`] order; zero disables a class.
    pub weights: [u32; 4],
}

impl Mix {
    /// A custom mix.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn new(name: &'static str, weights: [u32; 4]) -> Mix {
        assert!(weights.iter().any(|&w| w > 0), "mix needs a nonzero weight");
        Mix { name, weights }
    }

    /// Interactive city: mostly typists, a little of everything else.
    pub fn interactive() -> Mix {
        Mix::new("interactive", [6, 1, 2, 1])
    }

    /// Bulk transfer city: FTP-heavy.
    pub fn bulk() -> Mix {
        Mix::new("bulk", [1, 6, 1, 2])
    }

    /// Resolver city: DNS-heavy with echo probes.
    pub fn resolve() -> Mix {
        Mix::new("resolve", [1, 1, 6, 2])
    }

    /// Everything equally.
    pub fn balanced() -> Mix {
        Mix::new("balanced", [1, 1, 1, 1])
    }

    /// Draws one class according to the weights.
    pub fn pick(&self, rng: &mut SimRng) -> SessionClass {
        let total: u64 = self.weights.iter().map(|&w| u64::from(w)).sum();
        let mut x = rng.below(total);
        for (class, &w) in SessionClass::ALL.iter().zip(self.weights.iter()) {
            let w = u64::from(w);
            if x < w {
                return *class;
            }
            x -= w;
        }
        unreachable!("cumulative weights cover below(total)")
    }
}

/// An arrival (or think-time) process.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Poisson: exponentially distributed gaps with the given mean.
    Poisson(SimDuration),
    /// Deterministic: a fixed gap.
    Fixed(SimDuration),
}

impl Arrival {
    /// Draws the next gap.
    pub fn gap(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            Arrival::Poisson(mean) => {
                SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()))
            }
            Arrival::Fixed(gap) => gap,
        }
    }

    /// The process mean.
    pub fn mean(&self) -> SimDuration {
        match *self {
            Arrival::Poisson(mean) | Arrival::Fixed(mean) => mean,
        }
    }
}

/// Open- vs closed-loop pacing.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Open loop: session `k` is *due* at the `k`-th arrival instant,
    /// regardless of completions (a backlogged client starts it as soon
    /// as the previous session ends). This is the load model that can
    /// push an island past its knee.
    Open(Arrival),
    /// Closed loop: the client thinks for a drawn gap after each
    /// session ends before starting the next — load self-limits the way
    /// a human at a terminal does.
    Closed(Arrival),
}

// Session sizes, matched to a 1200 b/s island: over the two radio hops one
// small-packet RTT is ~10–14 s simulated (E14: 5.4 s for one hop) and bulk
// transfer sustains ~15 B/s end to end, so a session finishes inside a
// `FleetSpec::session_timeout`.

/// Keystrokes per typist session (inclusive range).
const TYPIST_KEYS: (u32, u32) = (2, 3);
/// FTP sessions draw one of this many catalogue entries.
pub(crate) const FTP_FILES: u32 = 3;
/// Octets per echo burst (inclusive range).
const ECHO_BYTES: (u32, u32) = (8, 24);
/// DNS sessions draw one of this many zone names.
pub(crate) const DNS_NAMES: u32 = 8;

/// Everything that determines a fleet, and nothing else.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Master seed; forked per client.
    pub seed: u64,
    /// Clients attached per island (after the reserved server hosts).
    pub clients_per_island: usize,
    /// Sessions in each client's plan.
    pub sessions_per_client: usize,
    /// Open- or closed-loop pacing.
    pub pacing: Pacing,
    /// Traffic mix.
    pub mix: Mix,
    /// Client start times stagger uniformly over this window.
    pub start_window: SimDuration,
    /// A session that has not finished this long after starting is
    /// abandoned and counted as a timeout.
    pub session_timeout: SimDuration,
}

impl Default for FleetSpec {
    fn default() -> FleetSpec {
        FleetSpec {
            seed: 1988,
            clients_per_island: 1,
            sessions_per_client: 2,
            pacing: Pacing::Closed(Arrival::Fixed(SimDuration::from_secs(2))),
            mix: Mix::balanced(),
            start_window: SimDuration::from_secs(2),
            session_timeout: SimDuration::from_secs(90),
        }
    }
}

/// One planned session.
#[derive(Debug, Clone, Copy)]
pub struct SessionSpec {
    /// What to run.
    pub class: SessionClass,
    /// Open loop: gap from the previous arrival instant. Closed loop:
    /// think time after the previous session ends.
    pub gap: SimDuration,
    /// Class-dependent size (keystrokes, octets, file index, or name
    /// index).
    pub size: u32,
}

/// One client's plan.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// Which island the client lives on.
    pub island: usize,
    /// Client slot within the island (host = reserved servers + slot).
    pub slot: usize,
    /// The island whose servers this client talks to.
    pub target: usize,
    /// First-session start offset from world start.
    pub start: SimDuration,
    /// The sessions, in order.
    pub sessions: Vec<SessionSpec>,
}

/// The expanded, engine-independent fleet plan.
#[derive(Debug, Clone)]
pub struct FleetSchedule {
    /// One plan per client, islands in order, slots in order.
    pub plans: Vec<ClientPlan>,
}

impl FleetSchedule {
    /// FNV-1a digest of the canonical schedule rendering — the value
    /// the determinism suite pins across engines and processes.
    pub fn digest(&self) -> u64 {
        let mut digest = Fnv1a::new();
        for p in &self.plans {
            let start = p.start.as_nanos();
            writeln!(digest, "i{} c{} t{} s{start}", p.island, p.slot, p.target)
                .expect("a digest takes any string");
            for s in &p.sessions {
                writeln!(digest, "  {:?} g{} z{}", s.class, s.gap.as_nanos(), s.size)
                    .expect("a digest takes any string");
            }
        }
        digest.finish()
    }

    /// Total planned sessions.
    pub fn sessions(&self) -> usize {
        self.plans.iter().map(|p| p.sessions.len()).sum()
    }
}

fn draw_size(class: SessionClass, rng: &mut SimRng) -> u32 {
    let (lo, hi) = match class {
        SessionClass::Typist => TYPIST_KEYS,
        SessionClass::Echo => ECHO_BYTES,
        SessionClass::Ftp => (0, FTP_FILES - 1),
        SessionClass::Dns => (0, DNS_NAMES - 1),
    };
    rng.range(u64::from(lo), u64::from(hi) + 1) as u32
}

/// Expands a spec into the full fleet plan for `islands` islands. Pure:
/// no engine, no wall clock, only the spec's seed.
pub fn build_schedule(islands: usize, spec: &FleetSpec) -> FleetSchedule {
    let mut master = SimRng::seed_from(spec.seed ^ 0x57_4f_52_4b_4c_4f_41_44); // "WORKLOAD"
    let mut plans = Vec::with_capacity(islands * spec.clients_per_island);
    for island in 0..islands {
        for slot in 0..spec.clients_per_island {
            let mut rng = master.fork();
            let start = if spec.start_window.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos(rng.below(spec.start_window.as_nanos()))
            };
            // Deterministic cross-island pairing: clients never talk to
            // their own island (unless there is only one), and
            // successive slots fan out over successive islands so load
            // spreads and every session crosses a shard boundary.
            let target = if islands > 1 {
                (island + 1 + (slot % (islands - 1))) % islands
            } else {
                island
            };
            let arrival = match spec.pacing {
                Pacing::Open(a) | Pacing::Closed(a) => a,
            };
            let sessions = (0..spec.sessions_per_client)
                .map(|_| {
                    let class = spec.mix.pick(&mut rng);
                    SessionSpec {
                        class,
                        gap: arrival.gap(&mut rng),
                        size: draw_size(class, &mut rng),
                    }
                })
                .collect();
            plans.push(ClientPlan {
                island,
                slot,
                target,
                start,
                sessions,
            });
        }
    }
    FleetSchedule { plans }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_same_schedule() {
        let spec = FleetSpec {
            clients_per_island: 3,
            sessions_per_client: 5,
            pacing: Pacing::Open(Arrival::Poisson(SimDuration::from_secs(3))),
            mix: Mix::interactive(),
            ..FleetSpec::default()
        };
        let a = build_schedule(7, &spec);
        let b = build_schedule(7, &spec);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.sessions(), 7 * 3 * 5);
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = build_schedule(4, &FleetSpec::default());
        let b = build_schedule(
            4,
            &FleetSpec {
                seed: 1989,
                ..FleetSpec::default()
            },
        );
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn mix_zero_weight_class_never_drawn() {
        let mix = Mix::new("no-ftp", [1, 0, 1, 1]);
        let mut rng = SimRng::seed_from(42);
        for _ in 0..500 {
            assert_ne!(mix.pick(&mut rng), SessionClass::Ftp);
        }
    }

    #[test]
    fn clients_avoid_their_own_island() {
        let spec = FleetSpec {
            clients_per_island: 4,
            ..FleetSpec::default()
        };
        let s = build_schedule(5, &spec);
        for p in &s.plans {
            assert_ne!(p.island, p.target, "session must cross islands");
        }
    }

    #[test]
    fn fixed_arrival_is_fixed() {
        let a = Arrival::Fixed(SimDuration::from_millis(750));
        let mut rng = SimRng::seed_from(1);
        assert_eq!(a.gap(&mut rng), SimDuration::from_millis(750));
        assert_eq!(a.gap(&mut rng), SimDuration::from_millis(750));
    }
}
