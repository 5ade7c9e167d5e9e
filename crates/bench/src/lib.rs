//! Shared machinery for the `experiments` binary (`src/main.rs`).
//!
//! Every table/figure-style claim in the paper has one module under
//! `src/experiments` that regenerates it and states it as a
//! [`report::Report::claim`] (the mapping is `experiments --claims`,
//! recorded in `results/claims.txt`). This library holds the harness, the
//! topologies and the measurement helpers they share.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod report;

use std::net::Ipv4Addr;

use ax25::addr::Ax25Addr;
use ether::MacAddr;
use gateway::host::{EtherIfConfig, HostConfig, RadioIfConfig};
use gateway::hwaddr::Ax25Hw;
use gateway::scenario::{PaperConfig, PaperScenario, ETHER_HOST_IP, GW_RADIO_IP, PC_IP};
use gateway::world::{event_digest, ChanId, HostId, World};
use netstack::icmp::IcmpMessage;
use netstack::route::Prefix;
use netstack::stack::StackAction;
use radio::channel::StationId;
use sim::Bandwidth;

/// Drains `world`'s event log: (its [`event_digest`], how many events,
/// how many of them ping replies).
pub fn drain_event_digest(world: &mut World) -> (u64, usize, usize) {
    let events = world.take_events();
    let replies = events
        .iter()
        .filter(|(_, _, e)| matches!(e, StackAction::PingReply { .. }))
        .count();
    (event_digest(&events), events.len(), replies)
}

/// The E4 (§4.2) two-coast topology.
///
/// ```text
///                     "Internet" Ethernet segment
///   internet-host ────────┬──────────────────────┬────────
///                    west-gw (N7AKR-1)      east-gw (W2GW)
///   44.24/16 radio ───────┘                      └──────── 44.56/16 radio
///     west-pc 44.24.0.5        BBONE digi         east-host 44.56.0.5
///        (west group) ── hears ── (both) ── hears ── (east group)
/// ```
///
/// All radio stations share one 1200 bit/s channel, but the hearing
/// matrix splits it into two regions bridged only by the BBONE
/// digipeater — the cross-country RF path a packet takes when the single
/// class-A route drops it at the wrong coast.
pub struct TwoCoast {
    /// The world.
    pub world: World,
    /// The shared radio channel.
    pub chan: ChanId,
    /// A distant Internet host.
    pub internet_host: HostId,
    /// A host on the east radio subnet.
    pub east_host: HostId,
}

/// Addresses used by the two-coast topology.
pub mod two_coast_addrs {
    use std::net::Ipv4Addr;

    /// The distant Internet host.
    pub const INTERNET_HOST: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 4);
    /// West gateway, Ethernet side.
    pub const WEST_GW_ETHER: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 100);
    /// East gateway, Ethernet side.
    pub const EAST_GW_ETHER: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 101);
    /// West gateway, radio side.
    pub const WEST_GW_RADIO: Ipv4Addr = Ipv4Addr::new(44, 24, 0, 28);
    /// East gateway, radio side.
    pub const EAST_GW_RADIO: Ipv4Addr = Ipv4Addr::new(44, 56, 0, 28);
    /// The east-coast radio host the experiment talks to.
    pub const EAST_HOST: Ipv4Addr = Ipv4Addr::new(44, 56, 0, 5);
}

/// Routing policy for the two-coast topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// One class-A route: everything for 44/8 goes to the west gateway,
    /// which must relay cross-country over RF (§4.2's complaint).
    SingleClassA,
    /// Per-subnet routes: 44.56/16 goes straight to the east gateway.
    PerSubnet,
}

/// Builds the two-coast topology under the given routing policy.
pub fn two_coast(mode: RouteMode, cfg: &PaperConfig, seed: u64) -> TwoCoast {
    use two_coast_addrs as a;
    let mut world = World::new(seed);
    let chan = world.add_channel(cfg.radio_rate);
    let seg = world.add_segment(Bandwidth::ETHERNET_10M);

    // Hosts.
    let mut ih = HostConfig::named("internet-host");
    ih.cpu = gateway::cpu::CpuConfig::free();
    ih.ether = Some(EtherIfConfig {
        mac: MacAddr::local(10),
        ip: a::INTERNET_HOST,
        prefix_len: 24,
    });
    let internet_host = world.add_host(ih);
    world.attach_ether(internet_host, seg);

    let mut wg = HostConfig::named("west-gw");
    wg.cpu = cfg.cpu;
    wg.stack.forwarding = true;
    wg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("N7AKR-1"),
        ip: a::WEST_GW_RADIO,
        prefix_len: 16,
    });
    wg.ether = Some(EtherIfConfig {
        mac: MacAddr::local(11),
        ip: a::WEST_GW_ETHER,
        prefix_len: 24,
    });
    let west_gw = world.add_host(wg);
    let _wg_tnc = world.attach_radio(west_gw, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);
    world.attach_ether(west_gw, seg);

    let mut eg = HostConfig::named("east-gw");
    eg.cpu = cfg.cpu;
    eg.stack.forwarding = true;
    eg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("W2GW"),
        ip: a::EAST_GW_RADIO,
        prefix_len: 16,
    });
    eg.ether = Some(EtherIfConfig {
        mac: MacAddr::local(12),
        ip: a::EAST_GW_ETHER,
        prefix_len: 24,
    });
    let east_gw = world.add_host(eg);
    let _eg_tnc = world.attach_radio(east_gw, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);
    world.attach_ether(east_gw, seg);

    let mut eh = HostConfig::named("east-host");
    eh.cpu = cfg.cpu;
    eh.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("KA2EH"),
        ip: a::EAST_HOST,
        prefix_len: 16,
    });
    let east_host = world.add_host(eh);
    let _eh_tnc = world.attach_radio(east_host, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);

    // The cross-country backbone digipeater.
    let bbone = Ax25Addr::parse_or_panic("BBONE");
    world.add_digipeater(chan, bbone, cfg.mac);

    // Hearing matrix: stations were added in order
    //   west_gw=0, east_gw=1, east_host=2, BBONE=3.
    // West group: {west_gw, BBONE}; east group: {east_gw, east_host,
    // BBONE}. West and east cannot hear each other directly.
    let wgs = StationId(0);
    let egs = StationId(1);
    let ehs = StationId(2);
    let c = world.channel_mut(chan);
    for &(x, y) in &[(wgs, egs), (wgs, ehs)] {
        c.set_hears(x, y, false);
        c.set_hears(y, x, false);
    }

    // Routing.
    let ih_if = world.host(internet_host).ether_iface().unwrap();
    match mode {
        RouteMode::SingleClassA => {
            world.host_mut(internet_host).stack.routes_mut().add(
                Prefix::amprnet(),
                Some(a::WEST_GW_ETHER),
                ih_if,
            );
        }
        RouteMode::PerSubnet => {
            world.host_mut(internet_host).stack.routes_mut().add(
                Prefix::new(Ipv4Addr::new(44, 24, 0, 0), 16),
                Some(a::WEST_GW_ETHER),
                ih_if,
            );
            world.host_mut(internet_host).stack.routes_mut().add(
                Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16),
                Some(a::EAST_GW_ETHER),
                ih_if,
            );
        }
    }
    // The west gateway's path to the east subnet: across the RF backbone
    // via BBONE (a static ARP source route, §2.3 style). Its connected
    // route covers only 44.24/16, so add 44.56/16 out the radio.
    let wg_radio_if = world.host(west_gw).radio_iface().unwrap();
    world.host_mut(west_gw).stack.routes_mut().add(
        Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16),
        None,
        wg_radio_if,
    );
    world
        .host_mut(west_gw)
        .pr_driver_mut()
        .unwrap()
        .arp_mut()
        .insert_static(
            a::EAST_HOST,
            Ax25Hw::via(Ax25Addr::parse_or_panic("KA2EH"), &[bbone]).encode(),
        );
    // The east host answers westward traffic back the way it came.
    let eh_if = world.host(east_host).radio_iface().unwrap();
    world.host_mut(east_host).stack.routes_mut().add(
        Prefix::default_route(),
        Some(a::EAST_GW_RADIO),
        eh_if,
    );
    if mode == RouteMode::SingleClassA {
        // Replies retrace the RF backbone: default via the west gateway.
        world.host_mut(east_host).stack.routes_mut().add(
            Prefix::default_route(),
            Some(a::WEST_GW_RADIO),
            eh_if,
        );
        world
            .host_mut(east_host)
            .pr_driver_mut()
            .unwrap()
            .arp_mut()
            .insert_static(
                a::WEST_GW_RADIO,
                Ax25Hw::via(Ax25Addr::parse_or_panic("N7AKR-1"), &[bbone]).encode(),
            );
    }

    TwoCoast {
        world,
        chan,
        internet_host,
        east_host,
    }
}

/// Opens the §4.3 gate for inbound traffic before an experiment whose
/// subject is something else: the PC tells the gateway to admit the
/// Ethernet host for four hours.
pub fn authorize_inbound(s: &mut PaperScenario) {
    let now = s.world.now;
    s.world.host_mut(s.pc).stack_op(now, |st| {
        st.send_icmp(
            GW_RADIO_IP,
            IcmpMessage::GateOpen {
                amateur: PC_IP,
                foreign: ETHER_HOST_IP,
                ttl_secs: 14_400,
                auth: None,
            },
        )
    });
}

/// A `PaperConfig` with no filter on the gateway — routing/latency
/// experiments where §4.3 is out of scope.
pub fn open_config() -> PaperConfig {
    PaperConfig {
        filter: None,
        ..PaperConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::ping::Pinger;
    use sim::SimDuration;

    fn ping_east(mode: RouteMode) -> SimDuration {
        let mut t = two_coast(mode, &open_config(), 404);
        // Three pings; the first pays for ARP on the radio segments, so
        // judge by the warm-path minimum.
        let p = Pinger::new(
            two_coast_addrs::EAST_HOST,
            1,
            3,
            SimDuration::from_secs(45),
            32,
        );
        let r = p.report();
        t.world.add_app(t.internet_host, Box::new(p));
        t.world.run_for(SimDuration::from_secs(900));
        let mut rep = r.borrow_mut();
        assert_eq!(rep.received, 3, "{mode:?} pings must succeed");
        rep.rtts.min().unwrap()
    }

    #[test]
    fn single_class_a_route_is_much_slower_than_per_subnet() {
        let single = ping_east(RouteMode::SingleClassA);
        let per_subnet = ping_east(RouteMode::PerSubnet);
        // The backbone path crosses the channel twice per direction
        // (sender → BBONE → receiver): at least ~2x the RTT.
        assert!(
            single.as_secs_f64() > 1.7 * per_subnet.as_secs_f64(),
            "single {single} vs per-subnet {per_subnet}"
        );
    }
}
