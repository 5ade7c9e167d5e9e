//! One workload in this process: timed untraced repeats (`--trace 0`,
//! the end-to-end metrics) or one traced, chunked run plus the unit-cost
//! probes (`--trace 1`, the per-layer metrics), with the correctness
//! checks of each.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::layers::{self, Metric};
use crate::probes;
use crate::run::{self, CrossEngine, RunResult, Stepping};
use crate::spans::Spans;
use crate::workloads::Workload;

/// Untraced repeats are made until `--seconds` of run loop have been
/// measured, and never fewer than this.
const MIN_REPEATS: usize = 3;
/// Set-up is sampled again after every repeat — this many further
/// set-ups, each dropped unrun, or as many as fit the budget — so that
/// the samples are spread over the whole run and some meet a quiet
/// machine.
const SETUPS_PER_REPEAT: usize = 25;
const SETUP_BUDGET_PER_REPEAT: Duration = Duration::from_millis(250);
/// No new repeat starts after this much wall clock in one process.
const REPEAT_DEADLINE: Duration = Duration::from_secs(100);

/// A named pass/fail with its evidence.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one process run reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Per-repeat raw values behind the reported ones (`--trace 0`).
    pub raw: Vec<(&'static str, Vec<f64>)>,
    pub checks: Vec<Check>,
    /// Simulated user operations issued, and how many had a wrong result.
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub repeats: usize,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The run loop's wall clock with the machine's interference voted out.
///
/// Every repeat does the identical deterministic work in the identical
/// 100 chunks, and interference on a shared box only ever *adds* time —
/// on the reference box whole-run times of unchanged code swing 1.7×
/// for seconds at a stretch, in process CPU time too, so it is not
/// preemption and no per-run median escapes it. Each chunk's cost is
/// therefore taken from its fastest repetition, and the chunks summed.
/// Over twelve processes of one seed this composite spread 3 %
/// (interquartile ÷ median) where the median of whole-run times spread
/// 10 %. The per-repeat whole-run times are printed as `raw` beside it.
fn quiet_run_seconds(runs: &[RunResult]) -> f64 {
    (0..run::CHUNKS as usize)
        .map(|i| {
            runs.iter()
                .map(|r| r.chunk_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum::<f64>()
        / 1e3
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Checks every run of one process shares: determinism across runs and
/// the workload's own invariants, read from the first run. Scheduler
/// counters depend on how often `run_for` is entered, so per-layer counts
/// are compared only between runs stepped the same way.
fn common_checks(w: Workload, seed: u64, runs: &[&RunResult], same_stepping: bool) -> Vec<Check> {
    let first = runs[0];
    let mut out = Vec::new();
    out.push(check(
        "digest_repeats",
        runs.iter().all(|r| r.digest == first.digest),
        format!(
            "event digests {:x?} over {} events",
            runs.iter().map(|r| r.digest).collect::<Vec<_>>(),
            first.events
        ),
    ));
    out.push(check(
        "sim_results_repeat",
        runs.iter().all(|r| r.sim == first.sim),
        "every sim_* value and operation count identical across runs".into(),
    ));
    if same_stepping {
        out.push(check(
            "layer_counts_repeat",
            runs.iter()
                .all(|r| format!("{:?}", r.counts) == format!("{:?}", first.counts)),
            "every per-layer count identical across runs".into(),
        ));
    }
    out.push(check(
        "latency_samples",
        first.sim.rtt_samples >= 200,
        format!(
            "{} latency samples (p95 needs 10 beyond it)",
            first.sim.rtt_samples
        ),
    ));
    out.push(check(
        "mailbox_balanced",
        first.counts.mailbox.pushed == first.counts.mailbox.popped,
        format!(
            "mailbox pushed {} popped {}",
            first.counts.mailbox.pushed, first.counts.mailbox.popped
        ),
    ));
    match w {
        Workload::PaperPromisc => {}
        Workload::GwFlood => {
            let s = &first.sim;
            out.push(check(
                "flood_dropped",
                s.flood_sent > 0 && s.flood_dropped * 100 >= s.flood_sent * 99,
                format!(
                    "{} of {} flood datagrams dropped",
                    s.flood_dropped, s.flood_sent
                ),
            ));
            out.push(check(
                "bulk_intact",
                s.bulk.as_ref().is_some_and(|b| b.ok()),
                format!("8 KiB transfer must finish intact: {:?}", s.bulk),
            ));
        }
        Workload::CityFleet { workers } => {
            out.push(check(
                "crosses_shards",
                first.counts.mailbox.pushed > 0,
                "fleet traffic crossed shard boundaries".into(),
            ));
            // A second engine re-steps the first simulated seconds of the
            // same world: the reference stepper checks the one-worker
            // run, the one-worker engine checks the two-worker run.
            let (engine, label) = if workers == 1 {
                (CrossEngine::Reference, "run_until_reference")
            } else {
                (CrossEngine::OneWorker, "the one-worker engine")
            };
            let other = run::prefix_digest(w, seed, engine);
            out.push(check(
                "prefix_cross_engine",
                other == first.prefix_digest,
                format!(
                    "first {} sim-s: {:016x} here, {other:016x} on {label}",
                    run::PREFIX_SECS,
                    first.prefix_digest
                ),
            ));
        }
    }
    out
}

fn operations(r: &RunResult) -> (u64, u64) {
    (r.sim.issued + r.sim.flood_sent, r.sim.wrong)
}

/// `--trace 0`: timed untraced repeats → the end-to-end metrics.
pub fn untraced(w: Workload, seed: u64, seconds: f64) -> Report {
    let begun = Instant::now();
    let mut runs: Vec<RunResult> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut measured = 0.0;
    // Memory one whole experiment needs — build, run, read back — read
    // after the first repeat: later repeats only add allocator
    // fragmentation, and how many there are depends on the host's speed.
    let mut peak_rss_mib = 0.0;
    while runs.len() < MIN_REPEATS || measured < seconds {
        if !runs.is_empty() && begun.elapsed() > REPEAT_DEADLINE {
            break;
        }
        let r = run::run_once(w, seed, Stepping::Chunked, None);
        if runs.is_empty() {
            peak_rss_mib = alloc::peak_rss_mib().unwrap_or(0.0);
        }
        measured += r.run_s;
        setup_s.push(r.setup_s);
        runs.push(r);
        let extra = Instant::now();
        for _ in 0..SETUPS_PER_REPEAT {
            setup_s.push(run::setup_only(w, seed));
            if extra.elapsed() > SETUP_BUDGET_PER_REPEAT {
                break;
            }
        }
    }
    let sim_secs = w.horizon_secs() as f64;
    let run_s: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let allocs: Vec<f64> = runs.iter().map(|r| r.allocs as f64).collect();
    let first = &runs[0];
    let sim = &first.sim;
    let metric = Metric::new;
    let metrics = vec![
        metric(
            "host_us_per_sim_s",
            quiet_run_seconds(&runs) * 1e6 / sim_secs,
            "us/sim-s",
        ),
        // Identical deterministic work every time, so — as with the run
        // loop's chunks — the fastest sample is the undisturbed cost.
        metric(
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mib, "MiB"),
        metric(
            "allocs_per_sim_s",
            median(&allocs) / sim_secs,
            "count/sim-s",
        ),
        metric("sim_rtt_p50_ms", sim.rtt_p50_ms, "sim-ms"),
        metric("sim_rtt_p95_ms", sim.rtt_p95_ms, "sim-ms"),
        metric(
            "sim_goodput_Bps",
            sim.goodput_bytes as f64 / sim_secs,
            "B/sim-s",
        ),
        metric(
            "sim_delivered_share",
            sim.delivered as f64 / sim.issued.max(1) as f64,
            "ratio",
        ),
    ];
    let refs: Vec<&RunResult> = runs.iter().collect();
    let checks = common_checks(w, seed, &refs, true);
    let (attempted, failed) = operations(first);
    Report {
        metrics,
        raw: vec![
            (
                "host_us_per_sim_s",
                run_s.iter().map(|s| s * 1e6 / sim_secs).collect(),
            ),
            ("setup_s", setup_s),
            (
                "allocs_per_sim_s",
                allocs.iter().map(|a| a / sim_secs).collect(),
            ),
        ],
        checks,
        attempted,
        failed,
        digest: first.digest,
        repeats: runs.len(),
    }
}

/// `--trace 1`: one untraced run (the overhead baseline), one traced and
/// chunked run, then the probes → the per-layer metrics. Returns the
/// report and the trace to write.
pub fn traced(w: Workload, seed: u64) -> (Report, Spans) {
    let baseline = run::run_once(w, seed, Stepping::Whole, None);
    let mut spans = Spans::new();
    let traced = run::run_once(w, seed, Stepping::Chunked, Some(&mut spans));
    let costs = probes::measure(&traced.counts, &mut spans);
    let table = layers::layer_table(&traced, &costs, baseline.run_s, w.horizon_secs() as f64);

    let mut checks = common_checks(w, seed, &[&baseline, &traced], false);
    checks.push(check(
        "est_share_sum",
        table.est_share_sum <= 1.05,
        format!("sum of est_share = {:.4}", table.est_share_sum),
    ));
    let (attempted, failed) = operations(&traced);
    (
        Report {
            metrics: table.metrics,
            raw: Vec::new(),
            checks,
            attempted,
            failed,
            digest: traced.digest,
            repeats: 2,
        },
        spans,
    )
}
