//! §4.2's fix, live: three AMPRnet gateways exchanging subnet routes
//! with RIP44 announcements and tunneling each other's traffic in IPIP.
//!
//! ```text
//! cargo run --example route_exchange
//! ```
//!
//! Watch the west gateway's tunnel table fill in as announcements
//! arrive, the ping path collapse from the RF backbone detour onto the
//! Ethernet tunnel, and the learned state expire (falling back to the
//! static aggregate) when the east gateway dies.

use apps::ping::Pinger;
use encap::table::EncapTable;
use gateway::ripd::RipConfig;
use gateway::scenario::{mesh_addrs, three_gateway, PaperConfig};
use sim::SimDuration;

/// The west gateway's tunnel table, which its stack owns once the daemon
/// has started (before the first run there is none).
fn tunnel_table(s: &gateway::scenario::MeshScenario) -> String {
    let table = s.world.host(s.west_gw).stack.tunnel_map::<EncapTable>();
    let entries: Vec<String> = table
        .map_or(&[][..], |t| t.entries())
        .iter()
        .map(|e| format!("{}→{} (metric {})", e.subnet, e.endpoint, e.metric))
        .collect();
    if entries.is_empty() {
        "(empty — everything falls back to the 44/8 aggregate)".into()
    } else {
        entries.join(", ")
    }
}

fn main() {
    println!("\"routing tables on the gateways would have to be modified so that");
    println!(" packets for specific subnets could be sent directly\"  — §4.2\n");

    let rip = RipConfig {
        announce_interval: SimDuration::from_secs(10),
        route_ttl: SimDuration::from_secs(25),
        holddown: SimDuration::from_secs(20),
        ..RipConfig::default()
    };
    let cfg = PaperConfig {
        filter: None,
        ..PaperConfig::default()
    };
    let mut s = three_gateway(&cfg, rip, 4242);

    let pinger = Pinger::new(mesh_addrs::EAST_HOST, 1, 40, SimDuration::from_secs(10), 32);
    let report = pinger.report();
    s.world.add_app(s.internet_host, Box::new(pinger));

    println!("t=0s    west-gw tunnels: {}", tunnel_table(&s));

    s.world.run_for(SimDuration::from_secs(30));
    println!("t=30s   west-gw tunnels: {}", tunnel_table(&s));
    println!(
        "        internet-host → east-host pings answered: {}",
        report.borrow().received
    );

    s.world.run_for(SimDuration::from_secs(60));
    let tunneled = s.world.host(s.east_gw).stack.stats().ipip_in;
    println!(
        "t=90s   {} replies; east-gw decapsulated {} IPIP datagrams",
        report.borrow().received,
        tunneled
    );

    println!("\n-- killing east-gw --");
    s.world.host_mut(s.east_gw).set_down(true);
    s.world.run_for(SimDuration::from_secs(30));
    println!("t=120s  west-gw tunnels: {}", tunnel_table(&s));
    let via = s
        .world
        .host(s.east_host)
        .stack
        .routes()
        .lookup_route(mesh_addrs::INTERNET_HOST)
        .and_then(|r| r.via);
    println!(
        "        east-host default now via {:?} (the static backbone fallback)",
        via
    );

    println!("\n-- reviving east-gw --");
    s.world.host_mut(s.east_gw).set_down(false);
    s.world.run_for(SimDuration::from_secs(60));
    println!("t=180s  west-gw tunnels: {}", tunnel_table(&s));
    println!(
        "        total pings answered across the outage: {}/{}",
        report.borrow().received,
        report.borrow().sent
    );
}
