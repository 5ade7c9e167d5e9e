//! E8 — §2.4's application-layer gateway, measured: a non-IP AX.25
//! terminal user logs into an Internet telnet host through the gateway's
//! user-space bridge, alongside an IP user doing the same session, so
//! the overhead of the two approaches can be compared.

use apps::ax25chat::TerminalUser;
use apps::telnet::{TelnetClient, TelnetServer};
use ax25::addr::Ax25Addr;
use bench::report::Report;
use gateway::appgw::AppGateway;
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use sim::SimDuration;

pub fn run(x: &mut Report) {
    x.banner(
        "E8",
        "the application-layer gateway for non-IP users (§2.4)",
        "\"a user program can then read from this line, and maintain the state \
         required to keep track of AX.25 level connections\"",
    );

    // --- The non-IP path: AX.25 terminal -> appgw -> TCP telnet ---
    let mut s = paper_topology(PaperConfig::default(), 8001);
    let server = TelnetServer::new(23, "vax2");
    s.world.add_app(s.ether_host, Box::new(server));
    let gw_call = s.world.host(s.gw).callsign().unwrap();
    let appgw = AppGateway::new(gw_call, (ETHER_HOST_IP, 23));
    let appgw = s.world.add_app(s.gw, Box::new(appgw));
    let user = TerminalUser::new(
        Ax25Addr::parse_or_panic("KB7DZ"),
        gw_call,
        vec![
            ("login: ", "bcn\r"),
            ("Password:", "radio\r"),
            ("% ", "date\r"),
            ("% ", "who\r"),
            ("% ", "logout\r"),
        ],
    );
    let user_report = user.report();
    let start = s.world.now;
    s.world.add_app(s.pc, Box::new(user));
    s.world.run_for(SimDuration::from_secs(1800));
    let ax25_done = user_report.borrow().done;
    let ax25_time = s
        .world
        .events()
        .iter()
        .map(|(_, t, _)| *t)
        .max()
        .unwrap_or(start);
    let ax25_radio_tx = s.world.channel(s.chan).stats().transmissions;
    let g = &s.world.app(appgw).report;
    let (to_tcp, to_radio, sessions) = (g.bytes_to_tcp, g.bytes_to_radio, g.sessions_accepted);
    let pc_ip_frames = s.world.host(s.pc).pr_driver().unwrap().stats().ip_in;

    // --- The IP path: the same session via TCP/IP from the PC ---
    let mut s = paper_topology(PaperConfig::default(), 8002);
    let server = TelnetServer::new(23, "vax2");
    s.world.add_app(s.ether_host, Box::new(server));
    let client = TelnetClient::standard_session(ETHER_HOST_IP, 23);
    let client_report = client.report();
    s.world.add_app(s.pc, Box::new(client));
    s.world.run_for(SimDuration::from_secs(1800));
    let ip_done = client_report.borrow().done;
    let ip_time = client_report.borrow().finished_at;
    let ip_radio_tx = s.world.channel(s.chan).stats().transmissions;

    x.row(&[
        ("path", &"AX.25 conn -> appgw -> TCP"),
        ("session ok", &ax25_done),
        ("approx time", &ax25_time),
        ("radio transmissions", &ax25_radio_tx),
    ]);
    x.row(&[
        ("path", &"native TCP/IP end to end"),
        ("session ok", &ip_done),
        ("approx time", &ip_time.map_or("-".into(), |t| t.to_string())),
        ("radio transmissions", &ip_radio_tx),
    ]);
    x.end_table();
    x.text(format_args!(
        "appgw bridge: {sessions} session(s), {to_tcp} B radio->TCP, {to_radio} B TCP->radio"
    ));
    x.text(format_args!(
        "the terminal PC decoded {pc_ip_frames} IP frames — i.e. none: it never ran IP."
    ));
    x.text("");
    x.text("expected shape: both sessions complete; the AX.25 path works without any");
    x.text("IP on the user's machine — \"such applications do not require kernel");
    x.text("support, even though they extend down to layer three\" (§2.4).");

    x.claim(
        "§2.4",
        "the same telnet session completes both over the AX.25 connection bridged by the application gateway and over native TCP/IP",
        ax25_done && ip_done,
    );
    x.claim(
        "§2.4",
        "the terminal user's machine never runs IP: its driver decodes 0 IP frames while the bridge carries exactly 1 session with bytes in both directions",
        pc_ip_frames == 0 && sessions == 1 && to_tcp > 0 && to_radio > 0,
    );
}
