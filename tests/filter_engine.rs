//! E17's correctness side — the §4.3 packet-filter engine exercised
//! end-to-end through the running gateway (DESIGN.md §13): the §4.3 gate
//! enforced at the driver hooks, operator control over ICMP, and the
//! transparency guarantee that a permissive engine leaves the simulated
//! world's event stream untouched.

use apps::ping::Pinger;
use filter::{FilterConfig, GateConfig};
use gateway::scenario::{
    paper_topology, PaperConfig, ETHER_HOST_IP, GW_ETHER_IP, GW_RADIO_IP, PC_IP,
};
use netstack::icmp::{GateAuth, IcmpMessage};
use sim::SimDuration;

fn filtered(cfg: FilterConfig) -> PaperConfig {
    PaperConfig {
        filter: Some(cfg),
        ..Default::default()
    }
}

#[test]
fn unsolicited_inbound_is_blocked_until_amateur_initiates() {
    let mut s = paper_topology(filtered(FilterConfig::gateway()), 1701);

    // Phase 1: the Ethernet host pings the PC out of the blue — the
    // engine denies at the gateway's output hook, before ARP ever runs.
    let p1 = Pinger::new(PC_IP, 10, 3, SimDuration::from_secs(10), 16);
    let r1 = p1.report();
    s.world.add_app(s.ether_host, Box::new(p1));
    s.world.run_for(SimDuration::from_secs(60));
    assert_eq!(r1.borrow().received, 0, "unsolicited inbound must not pass");
    let stats = s.world.host(s.gw).filter_stats().unwrap();
    assert!(stats.gate_denied >= 1, "gate denial counted: {stats:?}");
    assert!(stats.denied >= 3, "every probe denied: {stats:?}");
    let drv = s.world.host(s.gw).pr_driver().unwrap().stats();
    assert_eq!(
        (drv.filter_drop_in, drv.filter_drop_out),
        (0, stats.denied),
        "128.95.1.4 > 44.24.0.5 is denied at the radio output hook"
    );

    // Phase 2: the PC (amateur side) pings out — that opens the pair.
    let now = s.world.now;
    s.world
        .host_mut(s.pc)
        .stack_op(now, |st| st.ping(ETHER_HOST_IP, 11, 1, 16));
    s.world.run_for(SimDuration::from_secs(60));
    assert!(
        s.world.host(s.gw).filter_stats().unwrap().gate_opened >= 1,
        "amateur-initiated traffic opened an entry"
    );

    // Phase 3: now the same Ethernet host can reach the PC.
    let p3 = Pinger::new(PC_IP, 12, 2, SimDuration::from_secs(10), 16);
    let r3 = p3.report();
    s.world.add_app(s.ether_host, Box::new(p3));
    s.world.run_for(SimDuration::from_secs(90));
    assert!(
        r3.borrow().received >= 1,
        "inbound allowed after initiation"
    );
}

#[test]
fn gate_close_cuts_an_active_pairing() {
    let mut s = paper_topology(filtered(FilterConfig::gateway()), 1702);
    let now = s.world.now;
    s.world
        .host_mut(s.pc)
        .stack_op(now, |st| st.ping(ETHER_HOST_IP, 1, 1, 16));
    s.world.run_for(SimDuration::from_secs(30));
    assert!(s.world.host(s.gw).filter_stats().unwrap().gate_opened >= 1);

    // §4.3: the control operator cuts off the link. The admission must
    // die with the entry, not linger.
    let now = s.world.now;
    s.world.host_mut(s.pc).stack_op(now, |st| {
        st.send_icmp(
            GW_RADIO_IP,
            IcmpMessage::GateClose {
                amateur: PC_IP,
                foreign: ETHER_HOST_IP,
                auth: None,
            },
        )
    });
    s.world.run_for(SimDuration::from_secs(30));
    assert_eq!(s.world.host(s.gw).filter_stats().unwrap().gate_closed, 1);

    let p = Pinger::new(PC_IP, 2, 2, SimDuration::from_secs(5), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    assert_eq!(r.borrow().received, 0, "closed gate must deny");
}

#[test]
fn foreign_side_control_requires_password() {
    let gate = GateConfig {
        operators: vec![("N7AKR".to_string(), "seattle".to_string())],
        ..Default::default()
    };
    let mut s = paper_topology(filtered(FilterConfig { gate: Some(gate) }), 1703);

    // Unauthenticated GateOpen from the Ethernet side: rejected.
    let now = s.world.now;
    s.world.host_mut(s.ether_host).stack_op(now, |st| {
        st.send_icmp(
            GW_ETHER_IP,
            IcmpMessage::GateOpen {
                amateur: PC_IP,
                foreign: ETHER_HOST_IP,
                ttl_secs: 600,
                auth: None,
            },
        )
    });
    s.world.run_for(SimDuration::from_secs(5));
    assert_eq!(s.world.host(s.gw).filter_stats().unwrap().auth_failures, 1);

    // With the right callsign+password: applied, inbound opens.
    let now = s.world.now;
    s.world.host_mut(s.ether_host).stack_op(now, |st| {
        st.send_icmp(
            GW_ETHER_IP,
            IcmpMessage::GateOpen {
                amateur: PC_IP,
                foreign: ETHER_HOST_IP,
                ttl_secs: 600,
                auth: Some(GateAuth {
                    callsign: "N7AKR".to_string(),
                    password: "seattle".to_string(),
                }),
            },
        )
    });
    s.world.run_for(SimDuration::from_secs(5));
    assert_eq!(
        s.world.host(s.gw).filter_stats().unwrap().opened_by_message,
        1
    );
    let p = Pinger::new(PC_IP, 5, 1, SimDuration::from_secs(1), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    assert_eq!(r.borrow().received, 1);
}

#[test]
fn permissive_filter_is_policy_transparent() {
    // The transparency guarantee behind leaving E1–E16 goldens
    // byte-identical: an installed engine with the permissive config
    // changes nothing about the world's observable history, even though
    // every packet now crosses the eval hooks.
    let run = |filter: Option<FilterConfig>| {
        let cfg = PaperConfig {
            filter,
            ..Default::default()
        };
        let mut s = paper_topology(cfg, 1706);
        let out = Pinger::new(ETHER_HOST_IP, 1, 5, SimDuration::from_secs(11), 32);
        s.world.add_app(s.pc, Box::new(out));
        let inb = Pinger::new(PC_IP, 2, 5, SimDuration::from_secs(13), 24);
        s.world.add_app(s.ether_host, Box::new(inb));
        s.world.run_for(SimDuration::from_secs(300));
        (
            s.world.take_events(),
            s.world.channel(s.chan).stats().transmissions,
            s.world.host(s.gw).cpu.stats().char_interrupts,
        )
    };
    let bare = run(None);
    let permissive = run(Some(FilterConfig::permissive()));
    assert_eq!(
        bare.1, permissive.1,
        "identical radio-channel transmission count"
    );
    assert_eq!(bare.2, permissive.2, "identical gateway interrupt count");
    assert_eq!(bare.0, permissive.0, "identical stack event streams");

    // And the engine really was in the path, not bypassed.
    let mut s = paper_topology(
        PaperConfig {
            filter: Some(FilterConfig::permissive()),
            ..Default::default()
        },
        1706,
    );
    let p = Pinger::new(ETHER_HOST_IP, 3, 2, SimDuration::from_secs(5), 16);
    s.world.add_app(s.pc, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    let stats = s.world.host(s.gw).filter_stats().unwrap();
    assert!(
        stats.allowed >= 4,
        "permissive engine judged the packets: {stats:?}"
    );
}
