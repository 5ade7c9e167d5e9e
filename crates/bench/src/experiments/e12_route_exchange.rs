//! E12 — §4.2's endgame: multi-gateway route exchange over IPIP tunnels.
//!
//! E4 showed the complaint: with one class-A route, traffic for the east
//! subnet lands at the west gateway and detours cross-country over the
//! BBONE RF backbone. This experiment shows the fix working end to end.
//! Three gateways on one Internet segment run the RIP44 daemon: each
//! announces its 44.x/16 subnet on the wire and learns its peers' as
//! IPIP tunnel endpoints, while radio hosts learn their default route
//! from their gateway's radio-side announcements.
//!
//! Three claims are measured:
//!
//! 1. **Convergence**: after the first announcement round, ≥90% of
//!    Internet→east traffic rides the west→east IPIP tunnel across the
//!    10 Mb/s Ethernet instead of the 1200 b/s RF backbone.
//! 2. **Failure**: killing the east gateway mid-run expires the learned
//!    state within one route TTL — the west gateway's tunnel entry and
//!    the east host's learned default both fall back to the static
//!    aggregate path, and an in-flight TCP transfer finishes over the
//!    backbone without a reset.
//! 3. **Recovery**: reviving the gateway re-converges, but only after
//!    the hold-down window rejects its first announcements (flap
//!    damping).

use apps::bulk::{BulkSender, BulkSink};
use apps::ping::Pinger;
use bench::open_config;
use bench::report::Report;
use encap::table::EncapTable;
use gateway::ripd::RipConfig;
use gateway::scenario::{mesh_addrs, three_gateway, MeshScenario};
use sim::SimDuration;

const ROUTE_TTL_SECS: u64 = 25;

/// The west gateway's tunnel table, which its stack owns.
fn west_tunnels(s: &MeshScenario) -> &EncapTable {
    let t = s.world.host(s.west_gw).stack.tunnel_map();
    t.expect("the west daemon has started")
}

pub fn run(x: &mut Report) {
    x.banner(
        "E12",
        "RIP44 route exchange between AMPRnet gateways over IPIP",
        "per-subnet routes \"should be sent to a West Coast gateway … an East \
         Coast gateway\" (§4.2); learned tunnels replace the single class-A \
         detour and survive gateway failure",
    );
    x.text("(three gateways, announce 10 s, route TTL 25 s, hold-down 20 s;");
    x.text(" the Internet host still holds only the 44/8 aggregate via west-gw)\n");

    let rip = RipConfig {
        announce_interval: SimDuration::from_secs(10),
        route_ttl: SimDuration::from_secs(ROUTE_TTL_SECS),
        holddown: SimDuration::from_secs(20),
        ..RipConfig::default()
    };
    let mut s = three_gateway(&open_config(), rip, 1200);

    // A probe pinging the east host every 10 s for the whole run.
    let pinger = Pinger::new(mesh_addrs::EAST_HOST, 1, 90, SimDuration::from_secs(10), 32);
    let ping_report = pinger.report();
    s.world.add_app(s.internet_host, Box::new(pinger));

    // --- Phase 1: convergence. -----------------------------------------
    // The first probes race the first announcements, so they detour over
    // the backbone; by t=30 s every gateway has heard every peer.
    s.world.run_for(SimDuration::from_secs(30));
    let cold_rtt = ping_report
        .borrow_mut()
        .rtts
        .max()
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::NAN);
    let replies_at_30 = ping_report.borrow().received;
    let ipip_at_30 = s.world.host(s.east_gw).stack.stats().ipip_in;
    let west_learned: Vec<String> = west_tunnels(&s)
        .entries()
        .iter()
        .map(|e| format!("{}→{}", e.subnet, e.endpoint))
        .collect();
    x.text(format_args!(
        "west-gw tunnel table at t=30s: {}\n",
        west_learned.join(", ")
    ));

    // Converged window: 200 s of steady probing.
    s.world.run_for(SimDuration::from_secs(200));
    let replies_in_window = ping_report.borrow().received - replies_at_30;
    let tunneled_in_window = s.world.host(s.east_gw).stack.stats().ipip_in - ipip_at_30;
    let tunneled_fraction = tunneled_in_window as f64 / replies_in_window.max(1) as f64;
    let warm_rtt = ping_report
        .borrow_mut()
        .rtts
        .min()
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::NAN);

    // --- Phase 2: kill the east gateway mid-transfer. -------------------
    let sink = BulkSink::new(7000);
    let sink_report = sink.report();
    s.world.add_app(s.east_host, Box::new(sink));
    let sender = BulkSender::new(mesh_addrs::EAST_HOST, 7000, 3000);
    let send_report = sender.report();
    s.world.add_app(s.internet_host, Box::new(sender));
    s.world.run_for(SimDuration::from_secs(15));
    let bytes_before_kill = sink_report.borrow().bytes;

    let t_kill = s.world.now;
    s.world.host_mut(s.east_gw).set_down(true);
    let mut expiry_delay = f64::NAN;
    for _ in 0..40 {
        s.world.run_for(SimDuration::from_secs(1));
        if west_tunnels(&s).peek(mesh_addrs::EAST_HOST).is_none() {
            expiry_delay = s.world.now.saturating_since(t_kill).as_secs_f64();
            break;
        }
    }
    let fallback_via = s
        .world
        .host(s.east_host)
        .stack
        .routes()
        .lookup_route(mesh_addrs::INTERNET_HOST)
        .and_then(|r| r.via)
        .map(|v| v.to_string())
        .unwrap_or_else(|| "NONE".into());
    let ipip_out_at_expiry = s.world.host(s.west_gw).stack.stats().ipip_out;

    // Let the transfer finish over the 1200 b/s backbone.
    s.world.run_for(SimDuration::from_secs(3600));
    let sink_bytes = sink_report.borrow().bytes;
    let reset = send_report.borrow().reset;
    let finished = send_report.borrow().finished_at.is_some();
    let retransmits = send_report.borrow().tcb.retransmissions;
    let ipip_out_after_outage = s.world.host(s.west_gw).stack.stats().ipip_out;

    // --- Phase 3: revive and re-converge. -------------------------------
    // The hold-down window (20 s past expiry) is long gone, so the first
    // announcement is believed again.
    s.world.host_mut(s.east_gw).set_down(false);
    s.world.run_for(SimDuration::from_secs(60));
    let relearned = west_tunnels(&s).peek(mesh_addrs::EAST_HOST).is_some();

    // --- Phase 4: flap damping. -----------------------------------------
    // Kill the gateway again, but this time revive it the moment the
    // entry expires: its announcements land inside the hold-down window
    // and must be rejected before being believed.
    s.world.host_mut(s.east_gw).set_down(true);
    for _ in 0..40 {
        s.world.run_for(SimDuration::from_secs(1));
        if west_tunnels(&s).peek(mesh_addrs::EAST_HOST).is_none() {
            break;
        }
    }
    s.world.host_mut(s.east_gw).set_down(false);
    s.world.run_for(SimDuration::from_secs(12));
    let held_after_flap = west_tunnels(&s).peek(mesh_addrs::EAST_HOST).is_none();
    let holddown_rejects = west_tunnels(&s).stats().holddown_rejects;
    s.world.run_for(SimDuration::from_secs(40));
    let relearned_after_flap = west_tunnels(&s).peek(mesh_addrs::EAST_HOST).is_some();

    let rows: [(&str, String, &str); 11] = [
        (
            "cold RTT (detour, s)",
            format!("{cold_rtt:.2}"),
            "backbone relay / ARP warm-up",
        ),
        (
            "warm RTT (tunnel, s)",
            format!("{warm_rtt:.2}"),
            "one RF hop via east-gw",
        ),
        (
            "tunneled fraction (converged)",
            format!("{:.0}%", tunneled_fraction * 100.0),
            ">= 90%",
        ),
        (
            "tunnel expiry after kill (s)",
            format!("{expiry_delay:.0}"),
            "<= route TTL (25)",
        ),
        (
            "east-host fallback via",
            fallback_via,
            "44.24.0.28 (static, metric 10)",
        ),
        (
            "TCP bytes delivered",
            format!("{sink_bytes}/3000 (pre-kill {bytes_before_kill})"),
            "all, across the outage",
        ),
        (
            "TCP closed cleanly",
            format!("{finished} (reset={reset}, rexmt={retransmits})"),
            "no reset",
        ),
        (
            "encaps during outage",
            (ipip_out_after_outage - ipip_out_at_expiry).to_string(),
            "0 (nothing toward dead gw)",
        ),
        (
            "relearned after revival",
            relearned.to_string(),
            "yes (hold-down long past)",
        ),
        (
            "flap held down 12 s after revive",
            format!("{held_after_flap} (rejects {holddown_rejects})"),
            "yes, announcements rejected",
        ),
        (
            "relearned after hold-down",
            relearned_after_flap.to_string(),
            "yes",
        ),
    ];
    for (metric, value, expectation) in &rows {
        x.row(&[
            ("metric", metric),
            ("value", value),
            ("expectation", expectation),
        ]);
    }
    x.end_table();

    // `&`, not `&&`: every claim reaches the ledger, whatever the others say.
    let ok = x.claim(
        "§4.2",
        "once announcements converge, at least 90 % of Internet-to-east pings ride the west-to-east IPIP tunnel, and the tunnel RTT is under half the cold detour over the RF backbone",
        tunneled_fraction >= 0.9 && warm_rtt < 0.5 * cold_rtt,
    ) & x.claim(
        "DESIGN.md §7",
        "a dead gateway's tunnel expires within one route TTL (25 s) and nothing is encapsulated toward it afterwards",
        expiry_delay <= ROUTE_TTL_SECS as f64 && ipip_out_after_outage == ipip_out_at_expiry,
    ) & x.claim(
        "DESIGN.md §7",
        "the static aggregate carries the TCP transfer through the outage: 3000 of 3000 bytes delivered, closed without a reset",
        sink_bytes == 3000 && finished && !reset,
    ) & x.claim(
        "DESIGN.md §7",
        "a revived gateway is relearned once the hold-down has passed",
        relearned && relearned_after_flap,
    ) & x.claim(
        "DESIGN.md §7",
        "flap damping: a gateway revived inside the hold-down window is still unlearned 12 s later, with at least 1 announcement rejected",
        held_after_flap && holddown_rejects >= 1,
    );
    x.text(format_args!(
        "\nverdict: {}",
        if ok {
            "PASS — learned tunnels carry converged traffic, expire within one \
             TTL of gateway death, and the aggregate path carries the TCP \
             transfer through the outage"
        } else {
            "FAIL — see table"
        }
    ));
}
