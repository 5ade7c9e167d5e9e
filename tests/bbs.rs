//! The pre-IP world of §1: a terminal user works a packet BBS over
//! AX.25 connected mode — list, read, post, sign off.

use apps::ax25chat::{BbsServer, TerminalUser};
use ax25::addr::Ax25Addr;
use gateway::scenario::{paper_topology, PaperConfig};
use sim::SimDuration;

#[test]
fn terminal_user_works_the_bbs() {
    let mut s = paper_topology(PaperConfig::default(), 501);

    // The gateway host doubles as the BBS machine (same callsign).
    let bbs_call = s.world.host(s.gw).callsign().expect("call");
    let bbs = BbsServer::new(
        bbs_call,
        &[
            ("MEETING TUESDAY", "Club meeting 7pm at the EE building."),
            ("FOR SALE: HT", "Icom 2AT, good condition, $80."),
        ],
    );
    let bbs = s.world.add_app(s.gw, Box::new(bbs));

    let user = TerminalUser::new(
        Ax25Addr::parse_or_panic("KB7DZ"),
        bbs_call,
        vec![
            ("BBS> ", "L\r"),
            ("BBS> ", "R 1\r"),
            ("BBS> ", "S TEST POST\r"),
            ("Enter message", "Testing the new gateway BBS.\r/EX\r"),
            ("BBS> ", "Q\r"),
        ],
    );
    let user = s.world.add_app(s.pc, Box::new(user));

    s.world.run_for(SimDuration::from_secs(1200));

    let u = s.world.app(user).report();
    assert!(u.connected, "link up");
    assert!(u.transcript.contains("MEETING TUESDAY"), "{}", u.transcript);
    assert!(
        u.transcript.contains("Club meeting 7pm"),
        "read body: {}",
        u.transcript
    );
    assert!(u.transcript.contains("Message saved."), "{}", u.transcript);
    assert!(u.transcript.contains("73!"), "{}", u.transcript);
    assert!(u.done, "script finished and link released");

    let b = s.world.app(bbs).report();
    assert_eq!(b.sessions, 1);
    assert_eq!(b.posted.len(), 1);
    assert_eq!(b.posted[0].0, "TEST POST");
    assert!(b.posted[0].1.contains("Testing the new gateway BBS."));
}

#[test]
fn two_users_share_the_bbs_channel() {
    let mut s = paper_topology(PaperConfig::default(), 502);
    let bbs_call = s.world.host(s.gw).callsign().expect("call");
    let bbs = BbsServer::new(bbs_call, &[("HELLO", "First post.")]);
    let bbs = s.world.add_app(s.gw, Box::new(bbs));

    // The PC user…
    let u1 = TerminalUser::new(
        Ax25Addr::parse_or_panic("KB7DZ"),
        bbs_call,
        vec![("BBS> ", "L\r"), ("BBS> ", "Q\r")],
    );
    let u1 = s.world.add_app(s.pc, Box::new(u1));

    // …and a second station joining the same channel.
    let mut cfg2 = gateway::host::HostConfig::named("pc2");
    cfg2.radio = Some(gateway::host::RadioIfConfig {
        call: Ax25Addr::parse_or_panic("W1GOH"),
        ip: std::net::Ipv4Addr::new(44, 24, 0, 6),
        prefix_len: 16,
    });
    let pc2 = s.world.add_host(cfg2);
    s.world.attach_radio(
        pc2,
        s.chan,
        9600,
        radio::tnc::RxMode::Promiscuous,
        radio::csma::MacConfig::default(),
    );
    let u2 = TerminalUser::new(
        Ax25Addr::parse_or_panic("W1GOH"),
        bbs_call,
        vec![("BBS> ", "R 1\r"), ("BBS> ", "Q\r")],
    );
    let u2 = s.world.add_app(pc2, Box::new(u2));

    s.world.run_for(SimDuration::from_secs(1800));

    let (r1, r2) = (s.world.app(u1).report(), s.world.app(u2).report());
    assert!(r1.done, "user 1: {:?}", r1.transcript);
    assert!(r2.done, "user 2: {:?}", r2.transcript);
    assert!(r2.transcript.contains("First post."));
    assert_eq!(s.world.app(bbs).report().sessions, 2);
}
