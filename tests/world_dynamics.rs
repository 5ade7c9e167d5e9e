//! World-level dynamics: hidden terminals end to end, concurrent
//! services sharing the channel, and determinism of whole scenarios.

use apps::ping::Pinger;
use apps::telnet::{TelnetClient, TelnetServer};
use ax25::addr::Ax25Addr;
use gateway::host::{HostConfig, RadioIfConfig};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use netstack::stack::StackAction;
use radio::channel::StationId;
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use radio::traffic::BeaconConfig;
use sim::{SimDuration, SimTime};

#[test]
fn hidden_terminal_hurts_where_carrier_sense_cannot_help() {
    // A second radio PC that the first PC cannot hear (and vice versa):
    // both talk to the gateway, colliding at it despite perfect CSMA.
    let run = |hidden: bool| {
        let mut s = paper_topology(PaperConfig::default(), 1001);
        let mut cfg2 = HostConfig::named("pc2");
        cfg2.radio = Some(RadioIfConfig {
            call: Ax25Addr::parse_or_panic("W1GOH"),
            ip: std::net::Ipv4Addr::new(44, 24, 0, 6),
            prefix_len: 16,
        });
        let pc2 = s.world.add_host(cfg2);
        s.world
            .attach_radio(pc2, s.chan, 9600, RxMode::Promiscuous, MacConfig::default());
        let pc2_if = s.world.host(pc2).radio_iface().unwrap();
        s.world.host_mut(pc2).stack.routes_mut().add(
            netstack::route::Prefix::default_route(),
            Some(gateway::scenario::GW_RADIO_IP),
            pc2_if,
        );
        if hidden {
            // Stations: pc=0, gw=1, pc2=2.
            let c = s.world.channel_mut(s.chan);
            c.set_hears(StationId(0), StationId(2), false);
            c.set_hears(StationId(2), StationId(0), false);
        }
        // Both PCs ping heavily at the same cadence.
        let p1 = Pinger::new(ETHER_HOST_IP, 1, 25, SimDuration::from_secs(8), 64);
        let p2 = Pinger::new(ETHER_HOST_IP, 2, 25, SimDuration::from_secs(8), 64);
        let r1 = p1.report();
        let r2 = p2.report();
        s.world.add_app(s.pc, Box::new(p1));
        s.world.add_app(pc2, Box::new(p2));
        s.world.run_for(SimDuration::from_secs(400));
        let delivered = r1.borrow().received + r2.borrow().received;
        let corrupted = s.world.channel(s.chan).stats().corrupted_receptions;
        (delivered, corrupted)
    };
    let (open_ok, open_bad) = run(false);
    let (hidden_ok, hidden_bad) = run(true);
    assert!(
        hidden_bad > open_bad * 2,
        "hidden terminals collide far more: open {open_bad} vs hidden {hidden_bad}"
    );
    assert!(
        hidden_ok < open_ok,
        "and deliver less: open {open_ok} vs hidden {hidden_ok}"
    );
}

#[test]
fn interactive_session_survives_background_chatter() {
    let mut s = paper_topology(PaperConfig::default(), 1002);
    s.world.add_beacon(
        s.chan,
        BeaconConfig {
            from: Ax25Addr::parse_or_panic("BG1"),
            to: Ax25Addr::parse_or_panic("CHAT"),
            frame_len: 100,
            mean_interval: SimDuration::from_secs(10),
            start: SimTime::ZERO,
            mac: MacConfig::default(),
        },
    );
    let server = TelnetServer::new(23, "vax2");
    s.world.add_app(s.ether_host, Box::new(server));
    let client = TelnetClient::standard_session(ETHER_HOST_IP, 23);
    let report = client.report();
    s.world.add_app(s.pc, Box::new(client));
    s.world.run_for(SimDuration::from_secs(2400));
    assert!(
        report.borrow().done,
        "TCP pushes the session through the contention: {}",
        report.borrow().transcript
    );
}

#[test]
fn whole_scenario_event_stream_is_deterministic() {
    let run = || {
        let mut s = paper_topology(PaperConfig::default(), 1003);
        s.world.add_beacon(
            s.chan,
            BeaconConfig {
                from: Ax25Addr::parse_or_panic("BG1"),
                to: Ax25Addr::parse_or_panic("CHAT"),
                frame_len: 80,
                mean_interval: SimDuration::from_secs(7),
                start: SimTime::ZERO,
                mac: MacConfig::default(),
            },
        );
        let p = Pinger::new(ETHER_HOST_IP, 1, 10, SimDuration::from_secs(13), 48);
        s.world.add_app(s.pc, Box::new(p));
        s.world.run_for(SimDuration::from_secs(300));
        let fingerprint: Vec<(usize, u64)> = s
            .world
            .take_events()
            .iter()
            .enumerate()
            .filter_map(|(i, (_, t, e))| match e {
                StackAction::PingReply { .. } => Some((i, t.as_nanos())),
                _ => None,
            })
            .collect();
        (
            fingerprint,
            s.world.channel(s.chan).stats().transmissions,
            s.world.host(s.gw).cpu.stats().char_interrupts,
        )
    };
    assert_eq!(run(), run(), "same seed ⇒ identical packet-level history");
}

#[test]
fn two_gateways_on_one_channel_stay_independent() {
    // A second, unrelated gateway pair sharing the frequency: traffic for
    // one must never be consumed by the other (callsign checks), only
    // contended with.
    let mut s = paper_topology(PaperConfig::default(), 1004);
    let mut other = HostConfig::named("other-gw");
    other.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("KD7NM"),
        ip: std::net::Ipv4Addr::new(44, 24, 0, 99),
        prefix_len: 16,
    });
    let other_gw = s.world.add_host(other);
    s.world.attach_radio(
        other_gw,
        s.chan,
        9600,
        RxMode::Promiscuous,
        MacConfig::default(),
    );

    let p = Pinger::new(ETHER_HOST_IP, 1, 5, SimDuration::from_secs(20), 32);
    let r = p.report();
    s.world.add_app(s.pc, Box::new(p));
    s.world.run_for(SimDuration::from_secs(200));
    assert_eq!(r.borrow().received, 5);
    let other_drv = s.world.host(other_gw).pr_driver().unwrap().stats();
    assert_eq!(other_drv.ip_in, 0, "bystander consumed nothing");
    assert!(
        other_drv.not_for_us > 0,
        "but its driver did see (and reject) the frames"
    );
}
