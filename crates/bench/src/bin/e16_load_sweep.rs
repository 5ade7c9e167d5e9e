//! E16 — load-model-driven socket-app fleets on the city-scale engine.
//!
//! E15 proved the sharded engine bit-equivalent to the reference stepper
//! under scripted pings. This experiment raises the stakes: the traffic
//! is now a *fleet* — load-model-generated typist/FTP/DNS/echo sessions
//! (crates/workload) whose every connection crosses a radio island
//! boundary through the IPIP tunnels (§4.2), i.e. the cross-shard path.
//!
//! Two phases, both deterministic (the printed tables are byte-stable;
//! wall-clock numbers appear only under `E16_BENCH=1`):
//!
//! 1. **Equivalence under load**: one fleet, run on the reference
//!    stepper and on the sharded engine at 1, 2, and 4 workers. The FNV
//!    event digest AND the rendered telemetry report (per-class fleet
//!    table + server totals) must be bit-identical across all four runs
//!    — the report is a pure function of the simulation, so a single
//!    reordered packet anywhere in the city shows up here.
//! 2. **Knee of the curve**: 3 mixes x 3 intensities on the sharded
//!    engine. Closed-loop think times self-limit; the open-loop column
//!    pushes islands past saturation — completion counts stall, p95
//!    latency and timeouts climb, and channel utilization pins. This is
//!    the "as the number of users of this network grows" (§5) sweep.
//!
//! Knobs: `E16_GATEWAYS` (default 250), `E16_HOSTS` (default 40 per
//! island; 250x40 = 10,251 simulated machines), `E16_SECONDS` (default
//! 120 simulated), `E16_CLIENTS` (clients per island, default 1),
//! `E16_WORKERS` (sweep worker count, default 4), `E16_SWEEP=0` to skip
//! phase 2, `E16_BENCH=1` for ns/iter lines (run by hand).

use bench::{banner, bench_mode, drain_event_digest, env_usize};
use gateway::scenario::{self, MeshNet};
use sim::stats::render_table;
use sim::{SimDuration, SimTime};
use std::time::Instant;
use workload::load::{Arrival, Mix, Pacing};
use workload::report::EngineTelemetry;
use workload::{deploy, Fleet, FleetSpec};

struct Cfg {
    gateways: usize,
    hosts: usize,
    secs: u64,
    clients: usize,
}

fn base_spec(cfg: &Cfg) -> FleetSpec {
    FleetSpec {
        seed: 1988,
        clients_per_island: cfg.clients,
        sessions_per_client: 3,
        pacing: Pacing::Closed(Arrival::Poisson(SimDuration::from_secs(20))),
        mix: Mix::balanced(),
        start_window: SimDuration::from_secs(10),
        session_timeout: SimDuration::from_secs(60),
        ..FleetSpec::default()
    }
}

fn build(cfg: &Cfg, spec: &FleetSpec) -> (MeshNet, Fleet) {
    let mut m = scenario::mesh(cfg.gateways, cfg.hosts, spec.seed);
    let fleet = deploy(&mut m, spec);
    (m, fleet)
}

/// One full run; returns (event digest, events, report, fleet, telemetry).
fn run(
    cfg: &Cfg,
    spec: &FleetSpec,
    workers: Option<usize>,
) -> (
    u64,
    usize,
    String,
    Fleet,
    EngineTelemetry,
    std::time::Duration,
) {
    let (mut m, fleet) = build(cfg, spec);
    let t0 = Instant::now();
    match workers {
        None => m
            .world
            .run_until_reference(SimTime::from_millis(cfg.secs * 1000)),
        Some(n) => {
            m.world.set_workers(n);
            m.world.run_for(SimDuration::from_secs(cfg.secs));
        }
    }
    let wall = t0.elapsed();
    let (digest, events, _) = drain_event_digest(&mut m.world);
    let span = SimDuration::from_secs(cfg.secs);
    let report = format!("{}\n{}", fleet.class_table(span), fleet.server_table());
    let telemetry = EngineTelemetry::gather(&m);
    (digest, events, report, fleet, telemetry, wall)
}

fn main() {
    let cfg = Cfg {
        gateways: env_usize("E16_GATEWAYS", 250),
        hosts: env_usize("E16_HOSTS", 40),
        secs: env_usize("E16_SECONDS", 120) as u64,
        clients: env_usize("E16_CLIENTS", 1),
    };
    let sweep_workers = env_usize("E16_WORKERS", 4);
    let do_sweep = env_usize("E16_SWEEP", 1) == 1;
    let bench_mode = bench_mode("E16");

    banner(
        "E16",
        "load-model fleets: mixed socket-app traffic on the sharded engine",
        "the city under load — generated typist/FTP/DNS/echo sessions cross \
         every island boundary; the sharded engine stays bit-equivalent to \
         the reference, and the telemetry layer finds the knee of the curve",
    );
    println!(
        "({} islands x {} stations = {} simulated machines, {} client(s)/island, {} s simulated)\n",
        cfg.gateways,
        cfg.hosts + 1,
        cfg.gateways * (cfg.hosts + 1) + 1,
        cfg.clients,
        cfg.secs,
    );

    // --- Phase 1: equivalence under fleet load --------------------------
    let spec = base_spec(&cfg);
    let mut rows = vec![vec![
        "engine".to_string(),
        "workers".to_string(),
        "events".to_string(),
        "sessions done".to_string(),
        "event digest".to_string(),
        "report fnv".to_string(),
    ]];
    let mut digests = Vec::new();
    let mut reports = Vec::new();
    let mut walls = Vec::new();

    let runs: [(String, Option<usize>); 4] = [
        ("reference".into(), None),
        ("sharded_1w".into(), Some(1)),
        ("sharded_2w".into(), Some(2)),
        ("sharded_4w".into(), Some(4)),
    ];
    let mut first_report = String::new();
    let mut first_telemetry = None;
    for (name, workers) in runs {
        let (digest, events, report, fleet, telemetry, wall) = run(&cfg, &spec, workers);
        if workers.is_some() {
            let mb = m_stats(&telemetry);
            assert!(mb.0 > 0, "fleet traffic must cross shards");
            assert_eq!(mb.0, mb.1, "every cross-shard hand-off is consumed");
        }
        rows.push(vec![
            name.clone(),
            workers.map_or("-".into(), |w| w.to_string()),
            events.to_string(),
            fleet.completed().to_string(),
            format!("{digest:016x}"),
            format!("{:016x}", sim::fnv1a(report.as_bytes())),
        ]);
        walls.push((name, wall));
        digests.push(digest);
        if first_report.is_empty() {
            first_report = report.clone();
            first_telemetry = Some(telemetry);
        }
        reports.push(report);
    }
    println!("{}", render_table(&rows));

    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "event digest mismatch across engines: {digests:x?}"
    );
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "rendered report mismatch across engines"
    );
    println!(
        "\nall {} event digests AND rendered reports bit-identical across the\n\
         reference stepper and every sharded worker count (DESIGN.md §12).\n",
        digests.len()
    );
    println!("fleet report (identical on every engine):\n{first_report}");
    if let Some(t) = first_telemetry {
        println!("engine telemetry (reference run):\n{}", t.table());
    }

    // --- Phase 2: knee of the curve --------------------------------------
    if do_sweep {
        let mixes = [Mix::interactive(), Mix::bulk(), Mix::resolve()];
        let intensities: [(&str, Pacing); 3] = [
            (
                "light",
                Pacing::Closed(Arrival::Poisson(SimDuration::from_secs(45))),
            ),
            (
                "steady",
                Pacing::Closed(Arrival::Poisson(SimDuration::from_secs(12))),
            ),
            (
                "overload",
                Pacing::Open(Arrival::Poisson(SimDuration::from_secs(15))),
            ),
        ];
        let mut sweep = vec![vec![
            "mix".to_string(),
            "intensity".to_string(),
            "started".to_string(),
            "done".to_string(),
            "t/o".to_string(),
            "err".to_string(),
            "goodput B/s".to_string(),
            "p50 ms".to_string(),
            "p95 ms".to_string(),
            "p99 ms".to_string(),
            "util %".to_string(),
            "offered %".to_string(),
        ]];
        for mix in &mixes {
            for (label, pacing) in &intensities {
                let spec = FleetSpec {
                    mix: mix.clone(),
                    pacing: *pacing,
                    ..base_spec(&cfg)
                };
                let (_, _, _, fleet, telemetry, wall) = run(&cfg, &spec, Some(sweep_workers));
                walls.push((format!("sweep_{}_{label}", mix.name), wall));
                let merged = fleet.merged();
                let mut total = workload::report::FlowRecorder::new();
                for r in &merged {
                    total.merge(r);
                }
                let span = SimDuration::from_secs(cfg.secs).as_secs_f64();
                sweep.push(vec![
                    mix.name.to_string(),
                    label.to_string(),
                    total.started.to_string(),
                    total.completed.to_string(),
                    total.timeouts.to_string(),
                    total.errors.to_string(),
                    format!("{:.1}", total.goodput_bytes as f64 / span),
                    q_ms(total.latency.p50()),
                    q_ms(total.latency.p95()),
                    q_ms(total.latency.p99()),
                    format!("{:.1}", telemetry.chan_util_mean),
                    format!("{:.1}", telemetry.chan_offered_mean),
                ]);
            }
        }
        println!(
            "\nknee of the curve ({sweep_workers} workers; open-loop overload pushes past it):\n"
        );
        println!("{}", render_table(&sweep));
    }

    // --- Bench mode: wall clock ------------------------------------------
    if bench_mode {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("\nwall-clock (host machine: {cores} core(s)):");
        for (name, wall) in &walls {
            let ns = wall.as_nanos();
            println!(
                "e16/city{}x{}_{}s_{name} ... bench: {ns} ns/iter",
                cfg.gateways, cfg.hosts, cfg.secs
            );
        }
    }
}

fn q_ms(us: Option<u64>) -> String {
    match us {
        Some(us) => format!("{:.1}", us as f64 / 1_000.0),
        None => "-".into(),
    }
}

fn m_stats(t: &EngineTelemetry) -> (u64, u64) {
    (t.mailboxes.pushed, t.mailboxes.popped)
}
