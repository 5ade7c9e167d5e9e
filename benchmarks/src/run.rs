//! One whole-experiment run: build, step, read back.

use std::time::Instant;

use gateway::world::HostId;
use netstack::stack::StackAction;
use sim::{SimDuration, SimTime};

use crate::alloc;
use crate::layers::Counts;
use crate::spans::{in_span, Spans};
use crate::workloads::{self, SetupClock, SimResults, Workload};

/// Timed and traced runs step the world in this many equal `run_for`
/// chunks, each timed on its own.
pub const CHUNKS: u64 = 100;

/// Everything one run produced.
pub struct RunResult {
    /// Wall-clock seconds of building the world and deploying the load.
    pub setup_s: f64,
    /// Wall-clock seconds of the `World::run_for` loop alone.
    pub run_s: f64,
    /// Heap allocations during the run loop (all threads).
    pub allocs: u64,
    /// Process user+system CPU seconds during the run loop.
    pub cpu_s: f64,
    /// Wall-clock milliseconds of each chunk (empty for a whole-horizon run).
    pub chunk_ms: Vec<f64>,
    /// FNV-1a digest of the full event log, and its length.
    pub digest: u64,
    pub events: usize,
    /// Digest of the events stamped at or before the prefix time.
    pub prefix_digest: u64,
    pub sim: SimResults,
    pub counts: Counts,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over the rendered event log — the same digest the repo's
/// `shard_equivalence` and workload determinism suites pin. Returns the
/// digest of the whole log and of the events at or before `prefix`.
pub fn event_digest(events: &[(HostId, SimTime, StackAction)], prefix: SimTime) -> (u64, u64) {
    use std::fmt::Write;
    let mut hash = FNV_OFFSET;
    let mut prefix_hash = FNV_OFFSET;
    let mut in_prefix = true;
    let mut line = String::new();
    for (h, t, e) in events {
        if in_prefix && *t > prefix {
            in_prefix = false;
            prefix_hash = hash;
        }
        line.clear();
        writeln!(line, "{h:?} {t} {e:?}").expect("writing to a String cannot fail");
        for b in line.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    if in_prefix {
        prefix_hash = hash;
    }
    (hash, prefix_hash)
}

/// How the world is stepped over the horizon.
pub enum Stepping {
    /// One `run_for` call over the whole horizon (the traced mode's
    /// baseline: its digest must equal the chunked run's).
    Whole,
    /// [`CHUNKS`] equal `run_for` calls (the timed repeats, and the traced
    /// run, where each is a `run.chunk` span).
    Chunked,
}

/// Builds `w` from `seed`, runs it over its fixed horizon, and reads
/// everything back. With `spans`, every phase is recorded as a span.
pub fn run_once(
    w: Workload,
    seed: u64,
    stepping: Stepping,
    mut spans: Option<&mut Spans>,
) -> RunResult {
    let mut clock = SetupClock::new(spans.as_deref_mut());
    let mut built = workloads::build(w, seed, &mut clock);
    let setup_s = clock.total_s;
    let horizon = SimDuration::from_secs(w.horizon_secs());

    let run_span = spans.as_deref_mut().map(|s| s.begin("run", None));
    let mut chunk_ms = Vec::new();
    let allocs0 = alloc::allocations();
    let cpu0 = alloc::cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    match stepping {
        Stepping::Whole => built.world.run_for(horizon),
        Stepping::Chunked => {
            let chunk = SimDuration::from_nanos(horizon.as_nanos() / CHUNKS);
            for _ in 0..CHUNKS {
                let c0 = Instant::now();
                built.world.run_for(chunk);
                let secs = c0.elapsed().as_secs_f64();
                chunk_ms.push(secs * 1e3);
                if let Some(s) = spans.as_deref_mut() {
                    s.record("run.chunk", run_span, secs);
                }
            }
        }
    }
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = alloc::cpu_seconds().unwrap_or(0.0) - cpu0;
    let allocs = alloc::allocations() - allocs0;
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), run_span) {
        s.end(id);
    }

    let events = in_span(spans.as_deref_mut(), "collect.take_events", || {
        built.world.take_events()
    });
    let prefix = SimTime::ZERO + SimDuration::from_secs(PREFIX_SECS);
    let (digest, prefix_digest) = in_span(spans.as_deref_mut(), "collect.digest", || {
        event_digest(&events, prefix)
    });
    let (sim, counts) = in_span(spans, "collect.report", || {
        (built.sim_results(), Counts::read(&built, w))
    });
    RunResult {
        setup_s,
        run_s,
        allocs,
        cpu_s,
        chunk_ms,
        digest,
        events: events.len(),
        prefix_digest,
        sim,
        counts,
    }
}

/// The first simulated seconds of a run, which a second engine re-steps
/// as a cross-check (the city workloads do).
pub const PREFIX_SECS: u64 = 20;

/// Which engine re-steps the prefix.
pub enum CrossEngine {
    /// `World::run_until_reference` (the full-scan executable spec).
    Reference,
    /// The indexed engine on one worker thread.
    OneWorker,
}

/// Seconds one more set-up of `w` takes (the world is dropped unrun).
pub fn setup_only(w: Workload, seed: u64) -> f64 {
    let mut clock = SetupClock::new(None);
    drop(workloads::build(w, seed, &mut clock));
    clock.total_s
}

/// Digest of a fresh world of `w` stepped to the prefix time by `engine`.
pub fn prefix_digest(w: Workload, seed: u64, engine: CrossEngine) -> u64 {
    let mut built = workloads::build(w, seed, &mut SetupClock::new(None));
    let until = SimTime::ZERO + SimDuration::from_secs(PREFIX_SECS);
    match engine {
        CrossEngine::Reference => built.world.run_until_reference(until),
        CrossEngine::OneWorker => {
            built.world.set_workers(1);
            built.world.run_until(until);
        }
    }
    event_digest(&built.world.take_events(), until).0
}
