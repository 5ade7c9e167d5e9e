//! E6 — the paper's §2.3 validation: telnet, file transfer, and mail
//! across the gateway, in both directions.

use apps::bulk::{BulkSender, BulkSink};
use apps::ftp::{FileClient, FileServer};
use apps::smtp::{Mail, SmtpClient, SmtpServer};
use apps::telnet::{TelnetClient, TelnetServer};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP, PC_IP};
use sim::SimDuration;

#[test]
fn telnet_pc_to_ethernet_host() {
    let mut s = paper_topology(PaperConfig::default(), 101);
    let server = TelnetServer::new(23, "vax2");
    let client = TelnetClient::standard_session(ETHER_HOST_IP, 23);
    let server = s.world.add_app(s.ether_host, Box::new(server));
    let client = s.world.add_app(s.pc, Box::new(client));

    s.world.run_for(SimDuration::from_secs(900));

    let c = s.world.app(client).report();
    assert!(c.done, "session incomplete; transcript:\n{}", c.transcript);
    assert!(
        c.transcript.contains("4.3 BSD UNIX (vax2)"),
        "{}",
        c.transcript
    );
    assert!(
        c.transcript.contains("Tue Jun 14"),
        "date output: {}",
        c.transcript
    );
    assert!(
        c.transcript.contains("packet radio"),
        "who output: {}",
        c.transcript
    );
    assert_eq!(s.world.app(server).report().sessions, 1);
    assert!(s.world.app(server).report().commands >= 3);
}

/// Opens the §4.3 gate for Ethernet-initiated traffic to the PC: the
/// amateur operator authorizes the pairing with a GateOpen message, as
/// the paper proposes.
fn authorize_inbound(s: &mut gateway::scenario::PaperScenario) {
    use gateway::scenario::GW_RADIO_IP;
    use netstack::icmp::IcmpMessage;
    let now = s.world.now;
    s.world.host_mut(s.pc).stack_op(now, |st| {
        st.send_icmp(
            GW_RADIO_IP,
            IcmpMessage::GateOpen {
                amateur: PC_IP,
                foreign: ETHER_HOST_IP,
                ttl_secs: 3600,
                auth: None,
            },
        )
    });
}

#[test]
fn telnet_reverse_direction_ethernet_to_pc() {
    // "remote login in both directions" — the PC runs the server here.
    let mut s = paper_topology(PaperConfig::default(), 102);
    authorize_inbound(&mut s);
    let server = TelnetServer::new(23, "pc");
    let client = TelnetClient::standard_session(PC_IP, 23);
    s.world.add_app(s.pc, Box::new(server));
    let client = s.world.add_app(s.ether_host, Box::new(client));

    s.world.run_for(SimDuration::from_secs(900));

    let c = s.world.app(client).report();
    assert!(
        c.done,
        "reverse session incomplete; transcript:\n{}",
        c.transcript
    );
    assert!(c.transcript.contains("(pc)"), "{}", c.transcript);
}

#[test]
fn file_transfer_across_the_gateway() {
    let mut s = paper_topology(PaperConfig::default(), 103);
    let server = FileServer::new(21, &[("notes.txt", 4000)]);
    let client = FileClient::new(ETHER_HOST_IP, 21, "notes.txt");
    s.world.add_app(s.ether_host, Box::new(server));
    let client = s.world.add_app(s.pc, Box::new(client));

    s.world.run_for(SimDuration::from_secs(1800));

    let r = s.world.app(client).report();
    assert!(r.done, "transfer incomplete: {r:?}");
    assert!(r.intact, "bytes corrupted in transit");
    assert_eq!(r.received, 4000);
    // 4000 bytes over a 1200 bit/s link: at least ~27 s of airtime.
    let d = r.duration().expect("finished");
    assert!(d > SimDuration::from_secs(25), "implausibly fast: {d}");
}

#[test]
fn file_not_found_is_reported() {
    let mut s = paper_topology(PaperConfig::default(), 104);
    let server = FileServer::new(21, &[("real.txt", 100)]);
    let client = FileClient::new(ETHER_HOST_IP, 21, "missing.txt");
    let server = s.world.add_app(s.ether_host, Box::new(server));
    let client = s.world.add_app(s.pc, Box::new(client));

    s.world.run_for(SimDuration::from_secs(300));

    assert!(s.world.app(client).report().not_found);
    assert_eq!(s.world.app(server).report().not_found, 1);
}

#[test]
fn mail_delivery_both_directions() {
    let mut s = paper_topology(PaperConfig::default(), 105);
    // PC -> Ethernet host.
    let server = SmtpServer::new(25, "vax2");
    let client = SmtpClient::new(
        ETHER_HOST_IP,
        25,
        Mail {
            from: "<bcn@pc.ampr.org>".into(),
            to: "<neuman@vax2.cs>".into(),
            body: vec!["Gateway is up!".into(), "73 de KB7DZ".into()],
        },
    );
    let server = s.world.add_app(s.ether_host, Box::new(server));
    let client = s.world.add_app(s.pc, Box::new(client));
    s.world.run_for(SimDuration::from_secs(900));

    {
        let c = s.world.app(client).report();
        assert!(c.delivered && c.done, "outbound mail failed: {c:?}");
        let m = s.world.app(server).report();
        assert_eq!(m.mailbox.len(), 1);
        assert_eq!(m.mailbox[0].from, "<bcn@pc.ampr.org>");
        assert_eq!(m.mailbox[0].body[1], "73 de KB7DZ");
    }

    // Ethernet host -> PC: needs the gate opened first (§4.3).
    let mut s = paper_topology(PaperConfig::default(), 106);
    authorize_inbound(&mut s);
    let server = SmtpServer::new(25, "pc");
    let client = SmtpClient::new(
        PC_IP,
        25,
        Mail {
            from: "<neuman@vax2.cs>".into(),
            to: "<bcn@pc.ampr.org>".into(),
            body: vec!["ACK your note".into()],
        },
    );
    let server = s.world.add_app(s.pc, Box::new(server));
    let client = s.world.add_app(s.ether_host, Box::new(client));
    s.world.run_for(SimDuration::from_secs(900));

    let c = s.world.app(client).report();
    assert!(c.delivered && c.done, "inbound mail failed: {c:?}");
    assert_eq!(s.world.app(server).report().mailbox.len(), 1);
}

#[test]
fn bulk_transfer_reports_consistent_accounting() {
    let mut s = paper_topology(PaperConfig::default(), 107);
    let sink = BulkSink::new(5001);
    let sink_report = sink.report();
    let sender = BulkSender::new(ETHER_HOST_IP, 5001, 3000);
    let send_report = sender.report();
    s.world.add_app(s.ether_host, Box::new(sink));
    s.world.add_app(s.pc, Box::new(sender));

    s.world.run_for(SimDuration::from_secs(1800));

    let tx = send_report.borrow();
    let rx = sink_report.borrow();
    assert_eq!(rx.bytes, 3000, "sink got everything");
    assert!(!rx.corrupt, "pattern intact");
    assert!(tx.finished_at.is_some(), "sender finished: {tx:?}");
    let goodput = tx.goodput_bps().expect("finished");
    assert!(goodput < 1200.0, "cannot beat the channel: {goodput}");
    assert!(goodput > 80.0, "implausibly slow: {goodput}");
}
