//! Failure injection: the gateway and its protocols under noise, loss,
//! and pathological load — behaviours the paper's operators lived with.

use apps::bulk::{BulkSender, BulkSink};
use apps::ping::Pinger;
use ax25::addr::Ax25Addr;
use gateway::host::{HostConfig, RadioIfConfig};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use netstack::route::Prefix;
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use sim::{Bandwidth, SimDuration};

/// Builds a paper-like world whose radio channel corrupts bytes at the
/// given rate.
fn noisy_world(byte_error_rate: f64, seed: u64) -> gateway::scenario::PaperScenario {
    // paper_topology always builds a clean channel; rebuild by hand with
    // a noisy one using the world primitives.
    let cfg = PaperConfig::default();
    let mut world = gateway::World::new(seed);
    let chan = world.add_noisy_channel(cfg.radio_rate, byte_error_rate);
    let seg = world.add_segment(Bandwidth::ETHERNET_10M);

    let mut pc_cfg = HostConfig::named("pc");
    pc_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("KB7DZ"),
        ip: gateway::scenario::PC_IP,
        prefix_len: 16,
    });
    let pc = world.add_host(pc_cfg);
    let pc_tnc = world.attach_radio(pc, chan, 9600, RxMode::Promiscuous, MacConfig::default());

    let mut gw_cfg = HostConfig::named("gw");
    gw_cfg.stack.forwarding = true;
    gw_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("N7AKR-1"),
        ip: gateway::scenario::GW_RADIO_IP,
        prefix_len: 16,
    });
    gw_cfg.ether = Some(gateway::host::EtherIfConfig {
        mac: ether::MacAddr::local(1),
        ip: gateway::scenario::GW_ETHER_IP,
        prefix_len: 24,
    });
    let gw = world.add_host(gw_cfg);
    let gw_tnc = world.attach_radio(gw, chan, 9600, RxMode::Promiscuous, MacConfig::default());
    world.attach_ether(gw, seg);

    let mut eh_cfg = HostConfig::named("vax2");
    eh_cfg.ether = Some(gateway::host::EtherIfConfig {
        mac: ether::MacAddr::local(2),
        ip: ETHER_HOST_IP,
        prefix_len: 24,
    });
    let ether_host = world.add_host(eh_cfg);
    world.attach_ether(ether_host, seg);

    let pc_if = world.host(pc).radio_iface().unwrap();
    world.host_mut(pc).stack.routes_mut().add(
        Prefix::default_route(),
        Some(gateway::scenario::GW_RADIO_IP),
        pc_if,
    );
    let eh_if = world.host(ether_host).ether_iface().unwrap();
    world.host_mut(ether_host).stack.routes_mut().add(
        Prefix::amprnet(),
        Some(gateway::scenario::GW_ETHER_IP),
        eh_if,
    );

    gateway::scenario::PaperScenario {
        world,
        chan,
        seg,
        pc,
        gw,
        ether_host,
        pc_tnc,
        gw_tnc,
    }
}

#[test]
fn bit_errors_cost_pings_but_fcs_never_lets_garbage_through() {
    // 0.3% per-byte corruption: a ~110-byte on-air frame survives with
    // p ≈ 0.72, so a two-frame round trip loses a good fraction of pings.
    let mut s = noisy_world(0.003, 801);
    let pinger = Pinger::new(ETHER_HOST_IP, 1, 30, SimDuration::from_secs(20), 32);
    let report = pinger.report();
    s.world.add_app(s.pc, Box::new(pinger));
    s.world.run_for(SimDuration::from_secs(700));

    let r = report.borrow();
    assert!(r.received < 30, "noise must cost some replies");
    assert!(
        r.received >= 5,
        "but not everything: {}/{}",
        r.received,
        r.sent
    );
    // Every corrupted frame was caught by the TNC FCS, not passed up.
    let gw_tnc = s.world.tnc(s.gw_tnc).stats();
    assert!(gw_tnc.fcs_errors > 0, "noise was actually injected");
    let gw_drv = s.world.host(s.gw).pr_driver().unwrap().stats();
    assert_eq!(gw_drv.bad_frames, 0, "no corrupt frame crossed the FCS");
    // And the IP layer saw only intact packets (no checksum drops).
    assert_eq!(s.world.host(s.gw).stack.stats().bad_packets, 0);
}

#[test]
fn tcp_completes_a_transfer_through_heavy_noise() {
    let mut s = noisy_world(0.002, 802);
    let sink = BulkSink::new(5000);
    let sink_report = sink.report();
    s.world.add_app(s.ether_host, Box::new(sink));
    let sender = BulkSender::new(ETHER_HOST_IP, 5000, 2000);
    let send_report = sender.report();
    s.world.add_app(s.pc, Box::new(sender));
    s.world.run_for(SimDuration::from_secs(4 * 3600));

    let rx = sink_report.borrow();
    assert_eq!(rx.bytes, 2000, "reliability survives the noise");
    assert!(!rx.corrupt);
    let tx = send_report.borrow();
    assert!(
        tx.tcb.retransmissions > 0,
        "the noise forced retransmissions"
    );
}

#[test]
fn serial_line_noise_is_survived_by_kiss_resync() {
    // Line noise leaves garbage in the receive stream: frames it damages
    // are lost (the driver's AX.25 decode fails or the KISS escape
    // breaks), but the stream always resynchronizes and later pings
    // succeed. The serial line itself models no noise (the DZ11 line of
    // Figure 1 is clean), so the garbage goes straight into the driver.
    let cfg = PaperConfig::default();
    let mut s = paper_topology(cfg, 803);
    let now = s.world.now;
    let gw = s.world.host_mut(s.gw);
    // Straight garbage into the interrupt handler:
    gw.on_serial_bytes(now, &[0x55; 300]);
    gw.on_serial_bytes(now, &[kiss::FEND, 0x00, 0xDB, 0x99, kiss::FEND]);
    // The driver counted garbage without panicking and without passing
    // anything up.
    let st = gw.pr_driver().unwrap().stats();
    assert_eq!(st.ip_in, 0);
    // A real ping still works afterwards.
    let pinger = Pinger::new(ETHER_HOST_IP, 1, 2, SimDuration::from_secs(20), 32);
    let report = pinger.report();
    s.world.add_app(s.pc, Box::new(pinger));
    s.world.run_for(SimDuration::from_secs(120));
    assert_eq!(report.borrow().received, 2);
}

#[test]
fn cpu_saturation_overflows_the_ifqueue_not_the_heap() {
    // A pathologically slow host (50 ms per packet, 5 ms per character)
    // under a fast sender: the bounded ifqueue drops, nothing else breaks.
    let cfg = PaperConfig {
        cpu: gateway::cpu::CpuConfig {
            char_cost: SimDuration::from_millis(5),
            packet_cost: SimDuration::from_millis(50),
        },
        ..PaperConfig::default()
    };
    let mut s = paper_topology(cfg, 804);
    let pinger = Pinger::new(ETHER_HOST_IP, 1, 40, SimDuration::from_millis(500), 16);
    let report = pinger.report();
    s.world.add_app(s.pc, Box::new(pinger));
    s.world.run_for(SimDuration::from_secs(300));
    // The run completes; deliveries may be poor but the system is sane.
    let r = report.borrow();
    assert!(r.sent == 40);
    let gw = s.world.host(s.gw);
    assert!(gw.input_queue_peak() <= gateway::ifnet::IFQ_MAXLEN);
}

#[test]
fn address_filter_also_protects_a_busy_host() {
    // Same noisy environment, two TNC modes: the filtered host's driver
    // never sees the background garbage at all.
    for (mode, expect_quiet) in [(RxMode::Promiscuous, false), (RxMode::AddressFilter, true)] {
        let cfg = PaperConfig {
            tnc_mode: mode,
            ..PaperConfig::default()
        };
        let mut s = paper_topology(cfg, 805);
        // A third station chattering.
        s.world.add_beacon(
            s.chan,
            radio::traffic::BeaconConfig {
                from: Ax25Addr::parse_or_panic("BG1"),
                to: Ax25Addr::parse_or_panic("CHAT"),
                frame_len: 100,
                mean_interval: SimDuration::from_secs(5),
                start: sim::SimTime::ZERO,
                mac: MacConfig::default(),
            },
        );
        s.world.run_for(SimDuration::from_secs(120));
        let heard_by_driver = s.world.host(s.gw).pr_driver().unwrap().stats().rint_chars;
        if expect_quiet {
            assert!(
                heard_by_driver < 200,
                "filtered driver stayed quiet: {heard_by_driver}"
            );
        } else {
            assert!(
                heard_by_driver > 1000,
                "promiscuous driver worked hard: {heard_by_driver}"
            );
        }
    }
}
