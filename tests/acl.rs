//! E5 — §4.3's access-control table, exercised end-to-end through the
//! running gateway (not just the unit-level table). The table is the
//! filter engine's soft-state gate (DESIGN.md §13); custom TTLs and
//! operators are installed at build time through `PaperConfig::filter`.

use apps::ping::Pinger;
use filter::{FilterConfig, GateConfig};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP, PC_IP};
use netstack::icmp::{GateAuth, IcmpMessage};
use sim::SimDuration;

fn gate_topology(gate: GateConfig, seed: u64) -> gateway::scenario::PaperScenario {
    let cfg = PaperConfig {
        filter: Some(FilterConfig { gate: Some(gate) }),
        ..PaperConfig::default()
    };
    paper_topology(cfg, seed)
}

#[test]
fn unsolicited_inbound_is_blocked_until_amateur_initiates() {
    let mut s = paper_topology(PaperConfig::default(), 301);

    // Phase 1: the Ethernet host pings the PC out of the blue — denied.
    let p1 = Pinger::new(PC_IP, 10, 3, SimDuration::from_secs(10), 16);
    let r1 = p1.report();
    s.world.add_app(s.ether_host, Box::new(p1));
    s.world.run_for(SimDuration::from_secs(60));
    assert_eq!(r1.borrow().received, 0, "unsolicited inbound must not pass");
    let denied = s.world.host(s.gw).filter_stats().unwrap().denied;
    assert!(denied >= 3, "gateway counted denials: {denied}");

    // Phase 2: the PC (amateur side) pings out — this opens the pairing.
    let now = s.world.now;
    s.world
        .host_mut(s.pc)
        .stack_op(now, |st| st.ping(ETHER_HOST_IP, 11, 1, 16));
    s.world.run_for(SimDuration::from_secs(60));
    let st = s.world.host(s.gw).filter_stats().unwrap();
    assert!(
        st.gate_opened + st.gate_refreshed >= 1,
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
fn entries_expire_without_amateur_refresh() {
    let mut s = gate_topology(
        GateConfig {
            entry_ttl: SimDuration::from_secs(120),
            ..GateConfig::default()
        },
        302,
    );

    // Open the gate by pinging out.
    let now = s.world.now;
    s.world
        .host_mut(s.pc)
        .stack_op(now, |st| st.ping(ETHER_HOST_IP, 1, 1, 16));
    s.world.run_for(SimDuration::from_secs(30));

    // Inside the TTL: inbound works.
    let p = Pinger::new(PC_IP, 2, 1, SimDuration::from_secs(1), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    assert_eq!(r.borrow().received, 1, "inside TTL");

    // Wait out the TTL with no amateur traffic, then try again.
    s.world.run_for(SimDuration::from_secs(180));
    let p = Pinger::new(PC_IP, 3, 2, SimDuration::from_secs(5), 16);
    let r = p.report();
    s.world.add_app(s.ether_host, Box::new(p));
    s.world.run_for(SimDuration::from_secs(60));
    assert_eq!(r.borrow().received, 0, "expired entry must deny");
}

#[test]
fn foreign_side_control_requires_password() {
    // A control operator on the gateway's gate.
    let mut s = gate_topology(
        GateConfig {
            operators: vec![("N7AKR".to_string(), "seattle".to_string())],
            ..GateConfig::default()
        },
        304,
    );

    // Unauthenticated GateOpen from the Ethernet side: rejected.
    let now = s.world.now;
    s.world.host_mut(s.ether_host).stack_op(now, |st| {
        st.send_icmp(
            gateway::scenario::GW_ETHER_IP,
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
            gateway::scenario::GW_ETHER_IP,
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
