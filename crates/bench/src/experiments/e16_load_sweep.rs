//! E16 — load-model-driven socket-app fleets on the city-scale engine.
//!
//! E15 proved the sharded engine bit-equivalent to the reference stepper
//! under scripted pings. This experiment raises the stakes: the traffic
//! is now a *fleet* — load-model-generated typist/FTP/DNS/echo sessions
//! (crates/workload) whose every connection crosses a radio island
//! boundary through the IPIP tunnels (§4.2), i.e. the cross-shard path.
//!
//! Two phases, both deterministic (the printed tables are byte-stable):
//!
//! 1. **Equivalence under load**: one fleet, run on the reference
//!    stepper and on the sharded engine. The FNV event digest AND the
//!    rendered telemetry report (per-class fleet table + server totals)
//!    must be bit-identical across the two runs — the report is a pure
//!    function of the simulation, so a single reordered packet anywhere
//!    in the city shows up here.
//! 2. **Knee of the curve**: 3 mixes x 3 intensities on the sharded
//!    engine. Closed-loop think times self-limit; the open-loop column
//!    pushes islands past saturation — completion counts stall, p95
//!    latency and timeouts climb, and channel utilization pins. This is
//!    the "as the number of users of this network grows" (§5) sweep.
//!
//! The mesh is 4 islands of 4 stations each with one client per island,
//! run for 150 simulated seconds.

use bench::report::Report;
use bench::drain_event_digest;
use gateway::scenario::{self, MeshNet};
use sim::{SimDuration, SimTime};
use workload::load::{Arrival, Mix, Pacing};
use workload::report::EngineTelemetry;
use workload::{deploy, Fleet, FleetSpec};

/// Islands in the mesh.
const GATEWAYS: usize = 4;
/// Stations per island besides its gateway.
const HOSTS: usize = 4;
/// Simulated seconds of every run.
const SECS: u64 = 150;
/// Fleet clients per island.
const CLIENTS: usize = 1;

fn base_spec() -> FleetSpec {
    FleetSpec {
        seed: 1988,
        clients_per_island: CLIENTS,
        sessions_per_client: 3,
        pacing: Pacing::Closed(Arrival::Poisson(SimDuration::from_secs(20))),
        mix: Mix::balanced(),
        start_window: SimDuration::from_secs(10),
        session_timeout: SimDuration::from_secs(60),
    }
}

fn build(spec: &FleetSpec) -> (MeshNet, Fleet) {
    let mut m = scenario::mesh(GATEWAYS, HOSTS, spec.seed);
    let fleet = deploy(&mut m, spec);
    (m, fleet)
}

/// One full run on the sharded engine or, if `!sharded`, the reference
/// stepper; returns (event digest, events, report, fleet, telemetry).
fn simulate(spec: &FleetSpec, sharded: bool) -> (u64, usize, String, Fleet, EngineTelemetry) {
    let (mut m, fleet) = build(spec);
    if sharded {
        m.world.run_for(SimDuration::from_secs(SECS));
    } else {
        m.world.run_until_reference(SimTime::from_millis(SECS * 1000));
    }
    let (digest, events, _) = drain_event_digest(&mut m.world);
    let span = SimDuration::from_secs(SECS);
    let report = format!("{}\n{}", fleet.class_table(span), fleet.server_table());
    let telemetry = EngineTelemetry::gather(&m);
    (digest, events, report, fleet, telemetry)
}

fn q_ms(us: Option<u64>) -> String {
    us.map_or("-".into(), |us| format!("{:.1}", us as f64 / 1_000.0))
}

pub fn run(x: &mut Report) {
    x.banner(
        "E16",
        "load-model fleets: mixed socket-app traffic on the sharded engine",
        "the city under load — generated typist/FTP/DNS/echo sessions cross \
         every island boundary; the sharded engine stays bit-equivalent to \
         the reference, and the telemetry layer finds the knee of the curve",
    );
    x.text(format_args!(
        "({} islands x {} stations = {} simulated machines, {} client(s)/island, {} s simulated)\n",
        GATEWAYS,
        HOSTS + 1,
        GATEWAYS * (HOSTS + 1) + 1,
        CLIENTS,
        SECS,
    ));

    // --- Phase 1: equivalence under fleet load --------------------------
    let spec = base_spec();
    let mut digests = Vec::new();
    let mut reports = Vec::new();
    let mut handoffs_consumed = true;
    let mut first_telemetry = None;
    for (name, sharded) in [("reference", false), ("sharded", true)] {
        let (digest, events, report, fleet, telemetry) = simulate(&spec, sharded);
        if sharded {
            let mb = telemetry.mailboxes;
            handoffs_consumed &= mb.pushed > 0 && mb.pushed == mb.popped;
        }
        x.row(&[
            ("engine", &name),
            ("events", &events),
            ("sessions done", &fleet.completed()),
            ("event digest", &format_args!("{digest:016x}")),
            (
                "report fnv",
                &format_args!("{:016x}", sim::fnv1a(report.as_bytes())),
            ),
        ]);
        digests.push(digest);
        reports.push(report);
        first_telemetry.get_or_insert(telemetry);
    }
    x.end_table();

    let identical = x.claim(
        "DESIGN.md §12",
        "under fleet load the event digest and the rendered telemetry report of the reference stepper equal the sharded engine's",
        digests.windows(2).all(|w| w[0] == w[1]) && reports.windows(2).all(|w| w[0] == w[1]),
    );
    x.claim(
        "DESIGN.md §12",
        "every session crosses a shard boundary: on the sharded run hand-offs are pushed (> 0) and every one pushed is popped",
        handoffs_consumed,
    );
    x.text(format_args!(
        "\nboth event digests AND rendered reports {} across the\n\
         reference stepper and the sharded engine (DESIGN.md §12).\n",
        if identical {
            "bit-identical"
        } else {
            "NOT bit-identical"
        }
    ));
    x.text(format_args!(
        "fleet report (identical on every engine):\n{}",
        reports[0]
    ));
    if let Some(t) = first_telemetry {
        x.text(format_args!(
            "engine telemetry (reference run):\n{}",
            t.table()
        ));
    }

    // --- Phase 2: knee of the curve --------------------------------------
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
    x.text(format_args!(
        "\nknee of the curve (sharded engine; open-loop overload pushes past it):\n"
    ));
    let mut overload_backs_up = true;
    let mut offered_covers_carried = true;
    for mix in &mixes {
        let mut p95s = Vec::new();
        for (label, pacing) in &intensities {
            let spec = FleetSpec {
                mix: mix.clone(),
                pacing: *pacing,
                ..base_spec()
            };
            let (_, _, _, fleet, telemetry) = simulate(&spec, true);
            let mut total = workload::report::FlowRecorder::new();
            for r in &fleet.merged() {
                total.merge(r);
            }
            let span = SimDuration::from_secs(SECS).as_secs_f64();
            x.row(&[
                ("mix", &mix.name),
                ("intensity", label),
                ("started", &total.started),
                ("done", &total.completed),
                ("t/o", &total.timeouts),
                ("err", &total.errors),
                (
                    "goodput B/s",
                    &format_args!("{:.1}", total.goodput_bytes as f64 / span),
                ),
                ("p50 ms", &q_ms(total.latency.p50())),
                ("p95 ms", &q_ms(total.latency.p95())),
                ("p99 ms", &q_ms(total.latency.p99())),
                ("util %", &format_args!("{:.1}", telemetry.chan_util_mean)),
                (
                    "offered %",
                    &format_args!("{:.1}", telemetry.chan_offered_mean),
                ),
            ]);
            p95s.push(total.latency.p95());
            offered_covers_carried &= telemetry.chan_offered_mean >= telemetry.chan_util_mean;
        }
        // light, steady, overload.
        overload_backs_up &= p95s[2] >= p95s[1] && p95s[2] >= p95s[0];
    }
    x.end_table();
    x.claim(
        "§5",
        "as load grows past the knee sessions back up: for every mix the open-loop overload p95 latency is at least the light and the steady closed-loop p95",
        overload_backs_up,
    );
    x.claim(
        "§5",
        "at every sweep point the airtime offered to the channels is at least the airtime they carry",
        offered_covers_carried,
    );

}
