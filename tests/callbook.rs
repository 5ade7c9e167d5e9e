//! §5's distributed callbook: a PC on the radio side resolves callsigns
//! from servers on the Internet side, following referrals between
//! regional servers.

use apps::callbook::{CallbookClient, CallbookServer, MAX_HOPS};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP, GW_ETHER_IP};
use sim::SimDuration;

#[test]
fn local_lookup_answers_directly() {
    let mut s = paper_topology(PaperConfig::default(), 601);
    let server = CallbookServer::new(&[("N7AKR", "Bob Albrightson, Seattle WA")], &[]);
    let server = s.world.add_app(s.ether_host, Box::new(server));

    let client = CallbookClient::new(ETHER_HOST_IP, "N7AKR", 2100);
    let client = s.world.add_app(s.pc, Box::new(client));

    s.world.run_for(SimDuration::from_secs(120));

    let r = s.world.app(client).report();
    assert!(r.done, "lookup finished");
    assert_eq!(r.hops, 1);
    assert_eq!(
        r.answer.as_deref(),
        Some("OK N7AKR Bob Albrightson, Seattle WA")
    );
    assert_eq!(s.world.app(server).report().answered, 1);
}

#[test]
fn referral_walks_to_the_right_region() {
    let mut s = paper_topology(PaperConfig::default(), 602);
    // The Ethernet host serves region 7 and refers K-prefix calls to the
    // gateway's own server (the gateway is a host too).
    let seattle = CallbookServer::new(
        &[("N7AKR", "Bob Albrightson, Seattle WA")],
        &[("K", GW_ETHER_IP)],
    );
    let seattle = s.world.add_app(s.ether_host, Box::new(seattle));

    let east = CallbookServer::new(&[("K3MC", "Mike Chepponis")], &[]);
    let east = s.world.add_app(s.gw, Box::new(east));

    let client = CallbookClient::new(ETHER_HOST_IP, "K3MC", 2101);
    let client = s.world.add_app(s.pc, Box::new(client));

    s.world.run_for(SimDuration::from_secs(180));

    let r = s.world.app(client).report();
    assert!(r.done, "lookup finished: {r:?}");
    assert_eq!(r.hops, 2, "one referral followed");
    assert_eq!(r.answer.as_deref(), Some("OK K3MC Mike Chepponis"));
    assert_eq!(s.world.app(seattle).report().referred, 1);
    assert_eq!(s.world.app(east).report().answered, 1);
}

#[test]
fn unknown_callsign_errors() {
    let mut s = paper_topology(PaperConfig::default(), 603);
    let server = CallbookServer::new(&[("N7AKR", "Bob")], &[]);
    s.world.add_app(s.ether_host, Box::new(server));
    let client = CallbookClient::new(ETHER_HOST_IP, "XX9XX", 2102);
    let client = s.world.add_app(s.pc, Box::new(client));
    s.world.run_for(SimDuration::from_secs(120));
    let r = s.world.app(client).report();
    assert!(r.done);
    assert!(r.answer.as_deref().unwrap_or("").starts_with("ERR"));
}

#[test]
fn mutual_referral_ends_unanswered_after_max_hops() {
    let mut s = paper_topology(PaperConfig::default(), 604);
    // Two misconfigured regions, each sure the other holds the K calls.
    let west = CallbookServer::new(&[], &[("K", GW_ETHER_IP)]);
    let west = s.world.add_app(s.ether_host, Box::new(west));
    let east = CallbookServer::new(&[], &[("K", ETHER_HOST_IP)]);
    let east = s.world.add_app(s.gw, Box::new(east));

    let client = CallbookClient::new(ETHER_HOST_IP, "K3MC", 2103);
    let client = s.world.add_app(s.pc, Box::new(client));

    s.world.run_for(SimDuration::from_secs(600));

    let r = s.world.app(client).report();
    assert!(r.done, "the walk ends: {r:?}");
    assert_eq!(r.answer, None);
    assert_eq!(r.hops, MAX_HOPS);
    let referred = s.world.app(west).report().referred + s.world.app(east).report().referred;
    assert_eq!(referred, u64::from(MAX_HOPS), "no query after the last hop");
}
