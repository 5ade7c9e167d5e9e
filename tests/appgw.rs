//! E8 — §2.4's application-layer gateway: a non-IP AX.25 terminal user
//! logs into an Internet telnet host through the gateway.

use apps::ax25chat::TerminalUser;
use apps::telnet::TelnetServer;
use ax25::addr::Ax25Addr;
use gateway::appgw::AppGateway;
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use sim::SimDuration;

#[test]
fn terminal_user_reaches_telnet_through_the_app_gateway() {
    let mut s = paper_topology(PaperConfig::default(), 401);

    // The telnet host on the Ethernet.
    let server = TelnetServer::new(23, "vax2");
    s.world.add_app(s.ether_host, Box::new(server));

    // The §2.4 user program on the gateway, bridging AX.25 → telnet.
    let gw_call = s.world.host(s.gw).callsign().expect("gw call");
    let appgw = AppGateway::new(gw_call, (ETHER_HOST_IP, 23));
    let appgw = s.world.add_app(s.gw, Box::new(appgw));

    // A terminal user on the PC — speaking only AX.25, no IP at all.
    let user = TerminalUser::new(
        Ax25Addr::parse_or_panic("KB7DZ"),
        gw_call,
        vec![
            ("login: ", "bcn\r"),
            ("Password:", "radio\r"),
            ("% ", "who\r"),
            ("% ", "logout\r"),
        ],
    );
    let user_report = user.report();
    s.world.add_app(s.pc, Box::new(user));

    s.world.run_for(SimDuration::from_secs(1200));

    let u = user_report.borrow();
    assert!(u.connected, "AX.25 link established");
    assert!(
        u.transcript.contains("4.3 BSD UNIX (vax2)"),
        "telnet banner crossed the bridge: {:?}",
        u.transcript
    );
    assert!(
        u.transcript.contains("packet radio"),
        "who output arrived: {:?}",
        u.transcript
    );
    assert_eq!(u.lines_sent, 4, "script completed");

    let g = &s.world.app(appgw).report;
    assert_eq!(g.sessions_accepted, 1);
    assert!(g.bytes_to_tcp > 0, "radio→TCP bytes: {}", g.bytes_to_tcp);
    assert!(
        g.bytes_to_radio > 0,
        "TCP→radio bytes: {}",
        g.bytes_to_radio
    );

    // Crucially, the PC never used IP: its driver saw no IP frames.
    assert_eq!(s.world.host(s.pc).pr_driver().unwrap().stats().ip_in, 0);
    assert!(s.world.host(s.pc).pr_driver().unwrap().stats().diverted > 0);
}
