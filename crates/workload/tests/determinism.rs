//! Workload determinism across engines (ISSUE 8, DESIGN.md §12):
//! same seed ⇒ identical fleet schedule, identical event digest, and an
//! identical rendered report on the reference stepper and the sharded
//! engine.
//!
//! This is the fleet-level extension of the `shard_equivalence` suite:
//! instead of scripted pings, the traffic is the full mixed socket-app
//! load (typist/FTP/DNS/echo sessions crossing islands through the
//! IPIP tunnels), and the comparison covers not just the event log but
//! the telemetry layer's output — merged recorders rendered to text.

use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use workload::load::{Arrival, FleetSpec, Mix, Pacing};
use workload::{build_schedule, deploy};

#[derive(Clone, Copy, Debug)]
enum Driver {
    Reference,
    Sharded,
}

fn spec_for(seed: u64) -> FleetSpec {
    FleetSpec {
        seed,
        clients_per_island: 2,
        sessions_per_client: 3,
        pacing: Pacing::Closed(Arrival::Poisson(SimDuration::from_secs(2))),
        mix: Mix::balanced(),
        start_window: SimDuration::from_secs(2),
        session_timeout: SimDuration::from_secs(60),
    }
}

/// Runs a 3-island fleet for `secs` and returns
/// `(event digest, schedule digest, rendered report, completed)`.
fn fleet_run(seed: u64, secs: u64, driver: Driver) -> (u64, u64, String, u64) {
    let mut m = gateway::scenario::mesh(3, 5, seed);
    let spec = spec_for(seed);
    let fleet = deploy(&mut m, &spec);
    let sched_digest = fleet.schedule.digest();
    match driver {
        Driver::Reference => m
            .world
            .run_until_reference(SimTime::from_millis(secs * 1000)),
        Driver::Sharded => m.world.run_for(SimDuration::from_secs(secs)),
    }
    let mut log = String::new();
    for (h, t, e) in m.world.take_events() {
        log.push_str(&format!("{h:?} {t} {e:?}\n"));
    }
    let span = SimDuration::from_secs(secs);
    let report = format!("{}\n{}", fleet.class_table(span), fleet.server_table());
    (
        sim::fnv1a(log.as_bytes()),
        sched_digest,
        report,
        fleet.completed(),
    )
}

#[test]
fn schedule_is_engine_independent_and_reproducible() {
    let spec = spec_for(7);
    let a = build_schedule(6, &spec);
    let b = build_schedule(6, &spec);
    assert_eq!(a.digest(), b.digest());
    // And a different seed diverges.
    let c = build_schedule(6, &spec_for(8));
    assert_ne!(a.digest(), c.digest());
}

#[test]
fn reference_and_sharded_agree_on_digest_and_report() {
    let (d_ref, s_ref, r_ref, done_ref) = fleet_run(1988, 150, Driver::Reference);
    assert!(done_ref > 0, "sessions must complete:\n{r_ref}");
    let (d, s, r, done) = fleet_run(1988, 150, Driver::Sharded);
    assert_eq!(s, s_ref, "schedule digest");
    assert_eq!(d, d_ref, "event digest");
    assert_eq!(r, r_ref, "report");
    assert_eq!(done, done_ref, "completions");
}

#[test]
fn open_loop_fleet_also_agrees() {
    fn run(driver: Driver) -> (u64, String) {
        let mut m = gateway::scenario::mesh(2, 5, 11);
        let spec = FleetSpec {
            seed: 11,
            pacing: Pacing::Open(Arrival::Fixed(SimDuration::from_secs(6))),
            ..spec_for(11)
        };
        let fleet = deploy(&mut m, &spec);
        match driver {
            Driver::Reference => m.world.run_until_reference(SimTime::from_secs(45)),
            Driver::Sharded => m.world.run_for(SimDuration::from_secs(45)),
        }
        let mut log = String::new();
        for (h, t, e) in m.world.take_events() {
            log.push_str(&format!("{h:?} {t} {e:?}\n"));
        }
        (
            sim::fnv1a(log.as_bytes()),
            fleet.class_table(SimDuration::from_secs(45)),
        )
    }
    let (d_ref, r_ref) = run(Driver::Reference);
    let (d, r) = run(Driver::Sharded);
    assert_eq!(d_ref, d);
    assert_eq!(r_ref, r);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds: the reference stepper and the sharded engine agree
    /// bit-for-bit on both the event log and the rendered report.
    #[test]
    fn seed_sweep_fleet_digests_match(seed in 1u64..1_000_000u64) {
        let (d_ref, s_ref, r_ref, _) = fleet_run(seed, 40, Driver::Reference);
        let (d, s, r, _) = fleet_run(seed, 40, Driver::Sharded);
        prop_assert_eq!(s_ref, s);
        prop_assert_eq!(d_ref, d);
        prop_assert_eq!(r_ref, r);
    }
}
