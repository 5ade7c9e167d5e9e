//! The non-IP world and the bridge out of it.
//!
//! Act 1 — §1's packet BBS: a terminal user (no IP anywhere) connects to
//! a bulletin board over AX.25 connected mode, reads a bulletin, posts
//! one, and signs off.
//!
//! Act 2 — §2.4's application gateway: the same kind of terminal user
//! connects to the *gateway's* callsign and is bridged onto a TCP telnet
//! session with an Internet host, without ever speaking IP.
//!
//! ```text
//! cargo run --example bbs_and_appgw
//! ```

use apps::ax25chat::{BbsServer, TerminalUser};
use apps::telnet::TelnetServer;
use ax25::addr::Ax25Addr;
use gateway::appgw::AppGateway;
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use sim::SimDuration;

fn main() {
    // ---- Act 1: the BBS ----
    println!("=== Act 1: working the BBS over AX.25 (no IP) ===\n");
    let mut s = paper_topology(PaperConfig::default(), 11);
    let bbs_call = s.world.host(s.gw).callsign().unwrap();
    let bbs = BbsServer::new(
        bbs_call,
        &[
            ("MEETING TUESDAY", "Club meeting 7pm, EE building."),
            ("GATEWAY NEWS", "44.24.0.28 now gateways to the Internet!"),
        ],
    );
    s.world.add_app(s.gw, Box::new(bbs));

    let user = TerminalUser::new(
        Ax25Addr::parse_or_panic("KB7DZ"),
        bbs_call,
        vec![
            ("BBS> ", "L\r"),
            ("BBS> ", "R 2\r"),
            ("BBS> ", "S QSL VIA BUREAU\r"),
            ("Enter message", "Worked you on 2m packet, QSL?\r/EX\r"),
            ("BBS> ", "Q\r"),
        ],
    );
    let report = user.report();
    s.world.add_app(s.pc, Box::new(user));
    s.world.run_for(SimDuration::from_secs(1200));

    let r = report.borrow();
    println!("c KB7DZ>N7AKR-1  *** CONNECTED");
    println!("{}", r.transcript.replace('\r', "\n"));
    println!("*** DISCONNECTED (done = {})\n", r.done);
    drop(r);

    // ---- Act 2: through the application gateway to telnet ----
    println!("=== Act 2: AX.25 terminal -> app gateway -> TCP telnet ===\n");
    let mut s = paper_topology(PaperConfig::default(), 12);
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
            ("% ", "logout\r"),
        ],
    );
    let report = user.report();
    s.world.add_app(s.pc, Box::new(user));
    s.world.run_for(SimDuration::from_secs(1200));

    let r = report.borrow();
    println!("c KB7DZ>N7AKR-1  *** CONNECTED (to the gateway's callsign)");
    println!("{}", r.transcript.replace('\r', "\n"));
    let g = &s.world.app(appgw).report;
    println!(
        "bridge: {} session(s), {} B radio->TCP, {} B TCP->radio",
        g.sessions_accepted, g.bytes_to_tcp, g.bytes_to_radio
    );
    println!(
        "the PC never used IP: driver saw {} IP frames, diverted {}",
        s.world.host(s.pc).pr_driver().unwrap().stats().ip_in,
        s.world.host(s.pc).pr_driver().unwrap().stats().diverted
    );
}
