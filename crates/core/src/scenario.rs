//! Canned topologies, starting with the paper's own setup.
//!
//! The flagship layout reproduces Figure 1 plus the department Ethernet:
//!
//! ```text
//!  PC (KB7DZ, 44.24.0.5)                    MicroVAX gateway
//!   └─ DZ serial ─ KISS TNC ─ 1200 b/s ─ TNC ─ DZ serial ─┤ N7AKR-1
//!                              radio                      │ 44.24.0.28 (pr0)
//!                                                         │ 128.95.1.100 (qe0)
//!                                    10 Mb/s Ethernet ────┤
//!                                                         └─ vax2 (128.95.1.4)
//! ```
//!
//! The gateway's radio address 44.24.0.28 is the paper's own (§2.3: "the
//! packet radio interface was enabled at the Internet address of
//! 44.24.0.28").

use std::net::Ipv4Addr;

use ax25::addr::Ax25Addr;
use ether::MacAddr;
use netstack::route::{Prefix, Route, RouteSource};
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use sim::Bandwidth;

use crate::cpu::CpuConfig;
use crate::host::{EtherIfConfig, HostConfig, RadioIfConfig};
use crate::hwaddr::Ax25Hw;
use crate::ripd::RipConfig;
use crate::world::{ChanId, HostId, SegId, ShardId, TncId, World};

/// The gateway's radio-side address (the paper's actual assignment).
pub const GW_RADIO_IP: Ipv4Addr = Ipv4Addr::new(44, 24, 0, 28);
/// The gateway's Ethernet-side address.
pub const GW_ETHER_IP: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 100);
/// The isolated PC's AMPRnet address.
pub const PC_IP: Ipv4Addr = Ipv4Addr::new(44, 24, 0, 5);
/// The Ethernet host's address.
pub const ETHER_HOST_IP: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 4);

/// Tunables for the paper topology.
#[derive(Debug, Clone)]
pub struct PaperConfig {
    /// Radio channel bit rate (1200 bit/s in 1988).
    pub radio_rate: Bandwidth,
    /// Host⇄TNC serial speed.
    pub serial_baud: u32,
    /// TNC receive mode (§3's contrast).
    pub tnc_mode: RxMode,
    /// CSMA parameters.
    pub mac: MacConfig,
    /// CPU cost model for the gateway and PC.
    pub cpu: CpuConfig,
    /// The gateway's packet-filter engine (DESIGN.md §13): the §4.3
    /// gate, enforced at the radio driver's hooks. Defaults to §4.3
    /// access control in its gateway posture
    /// ([`filter::FilterConfig::gateway`]: the soft-state gate with
    /// default TTL and auto-open); `None` installs no filter at all.
    pub filter: Option<filter::FilterConfig>,
    /// Enable RFC 1144 VJ header compression on the radio link (both the
    /// PC and the gateway). `false` — the default — reproduces the
    /// paper's uncompressed link and keeps the E1–E12 goldens
    /// byte-identical.
    pub vj: bool,
    /// Clamp every host's TCP MSS to its egress/ingress MTU minus 40
    /// (radio: 256 → 216) so locally originated TCP never fragments.
    pub clamp_mss: bool,
}

impl Default for PaperConfig {
    fn default() -> Self {
        PaperConfig {
            radio_rate: Bandwidth::RADIO_1200,
            serial_baud: 9600,
            tnc_mode: RxMode::Promiscuous,
            mac: MacConfig::default(),
            cpu: CpuConfig::default(),
            filter: Some(filter::FilterConfig::gateway()),
            vj: false,
            clamp_mss: false,
        }
    }
}

/// The built paper topology.
pub struct PaperScenario {
    /// The world.
    pub world: World,
    /// The radio channel.
    pub chan: ChanId,
    /// The Ethernet segment.
    pub seg: SegId,
    /// The isolated PC.
    pub pc: HostId,
    /// The MicroVAX gateway.
    pub gw: HostId,
    /// A host on the department Ethernet.
    pub ether_host: HostId,
    /// The PC's TNC.
    pub pc_tnc: TncId,
    /// The gateway's TNC.
    pub gw_tnc: TncId,
}

/// Builds the paper's Figure-1 topology.
///
/// # Examples
///
/// ```
/// use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
/// use sim::SimDuration;
///
/// let mut s = paper_topology(PaperConfig::default(), 42);
/// let now = s.world.now;
/// s.world
///     .host_mut(s.pc)
///     .stack_op(now, |st| st.ping(ETHER_HOST_IP, 1, 1, 32));
/// s.world.run_for(SimDuration::from_secs(60));
/// // The gateway forwarded the request and the reply.
/// assert!(s.world.host(s.gw).stack.stats().forwarded >= 2);
/// ```
pub fn paper_topology(cfg: PaperConfig, seed: u64) -> PaperScenario {
    let mut world = World::new(seed);
    let chan = world.add_channel(cfg.radio_rate);
    let seg = world.add_segment(Bandwidth::ETHERNET_10M);

    // The isolated PC: "connected to only a power outlet and a radio".
    let mut pc_cfg = HostConfig::named("pc");
    pc_cfg.cpu = cfg.cpu;
    pc_cfg.stack.clamp_mss = cfg.clamp_mss;
    pc_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("KB7DZ"),
        ip: PC_IP,
        prefix_len: 16,
    });
    let pc = world.add_host(pc_cfg);
    let pc_tnc = world.attach_radio(pc, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);

    // The MicroVAX gateway.
    let mut gw_cfg = HostConfig::named("gw");
    gw_cfg.cpu = cfg.cpu;
    gw_cfg.stack.forwarding = true;
    gw_cfg.stack.clamp_mss = cfg.clamp_mss;
    gw_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("N7AKR-1"),
        ip: GW_RADIO_IP,
        prefix_len: 16,
    });
    gw_cfg.ether = Some(EtherIfConfig {
        mac: MacAddr::local(1),
        ip: GW_ETHER_IP,
        prefix_len: 24,
    });
    gw_cfg.filter = cfg.filter;
    let gw = world.add_host(gw_cfg);
    let gw_tnc = world.attach_radio(gw, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);
    world.attach_ether(gw, seg);

    // A host on the department Ethernet.
    let mut eh_cfg = HostConfig::named("vax2");
    eh_cfg.cpu = CpuConfig::free(); // not the machine under study
    eh_cfg.stack.clamp_mss = cfg.clamp_mss;
    eh_cfg.ether = Some(EtherIfConfig {
        mac: MacAddr::local(2),
        ip: ETHER_HOST_IP,
        prefix_len: 24,
    });
    let ether_host = world.add_host(eh_cfg);
    world.attach_ether(ether_host, seg);

    // Routing: "the routing table of another system on our Ethernet was
    // modified so it knew that 44.24.0.28 was the address of a gateway to
    // net 44" (§2.3).
    let pc_if = world.host(pc).radio_iface().expect("pc radio");
    world
        .host_mut(pc)
        .stack
        .routes_mut()
        .add(Prefix::default_route(), Some(GW_RADIO_IP), pc_if);
    let eh_if = world.host(ether_host).ether_iface().expect("vax2 ether");
    world
        .host_mut(ether_host)
        .stack
        .routes_mut()
        .add(Prefix::amprnet(), Some(GW_ETHER_IP), eh_if);

    // VJ header compression is a per-link agreement: both radio drivers
    // get slot tables, or neither does.
    if cfg.vj {
        for h in [pc, gw] {
            world
                .host_mut(h)
                .pr_driver_mut()
                .expect("radio host")
                .enable_vj();
        }
    }

    PaperScenario {
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

/// A PC and a gateway joined by a chain of `n` digipeaters (experiment
/// E7). Source routing is seeded as static ARP entries on both ends, per
/// §2.3's digipeater-path ARP entries.
pub struct DigiScenario {
    /// The world.
    pub world: World,
    /// The radio channel.
    pub chan: ChanId,
    /// The PC end.
    pub pc: HostId,
    /// The gateway end.
    pub gw: HostId,
}

/// Builds a digipeater-chain topology with hidden ends: the PC and the
/// far host only hear their adjacent digipeaters, so every frame must
/// traverse the whole chain.
pub fn digi_chain_topology(n: usize, cfg: PaperConfig, seed: u64) -> DigiScenario {
    assert!(n <= ax25::MAX_DIGIPEATERS);
    let mut world = World::new(seed);
    let chan = world.add_channel(cfg.radio_rate);

    let mut pc_cfg = HostConfig::named("pc");
    pc_cfg.cpu = cfg.cpu;
    pc_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("KB7DZ"),
        ip: PC_IP,
        prefix_len: 16,
    });
    let pc = world.add_host(pc_cfg);
    world.attach_radio(pc, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);

    let mut gw_cfg = HostConfig::named("gw");
    gw_cfg.cpu = cfg.cpu;
    gw_cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic("N7AKR-1"),
        ip: GW_RADIO_IP,
        prefix_len: 16,
    });
    let gw = world.add_host(gw_cfg);
    world.attach_radio(gw, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);

    let digis: Vec<Ax25Addr> = (0..n)
        .map(|i| Ax25Addr::parse_or_panic(&format!("DIGI-{}", i + 1)))
        .collect();
    for &d in &digis {
        world.add_digipeater(chan, d, cfg.mac);
    }

    // Static ARP entries with the digipeater path, both directions.
    let fwd = Ax25Hw::via(Ax25Addr::parse_or_panic("N7AKR-1"), &digis);
    let mut rev_path = digis.clone();
    rev_path.reverse();
    let rev = Ax25Hw::via(Ax25Addr::parse_or_panic("KB7DZ"), &rev_path);
    world
        .host_mut(pc)
        .pr_driver_mut()
        .expect("radio")
        .arp_mut()
        .insert_static(GW_RADIO_IP, fwd.encode());
    world
        .host_mut(gw)
        .pr_driver_mut()
        .expect("radio")
        .arp_mut()
        .insert_static(PC_IP, rev.encode());

    if n > 0 {
        // Hide the ends from each other so the chain is load-bearing:
        // stations are added in order pc(0), gw(1), digis(2..2+n).
        let c = world.channel_mut(chan);
        let pc_sta = radio::channel::StationId(0);
        let gw_sta = radio::channel::StationId(1);
        c.set_hears(pc_sta, gw_sta, false);
        c.set_hears(gw_sta, pc_sta, false);
        // Each end hears only its adjacent digipeater; digipeaters hear
        // their neighbours (a line topology).
        for i in 0..n {
            let d_sta = radio::channel::StationId(2 + i);
            if i != 0 {
                c.set_hears(pc_sta, d_sta, false);
                c.set_hears(d_sta, pc_sta, false);
            }
            if i != n - 1 {
                c.set_hears(gw_sta, d_sta, false);
                c.set_hears(d_sta, gw_sta, false);
            }
            for j in 0..n {
                let e_sta = radio::channel::StationId(2 + j);
                if i.abs_diff(j) > 1 {
                    c.set_hears(d_sta, e_sta, false);
                }
            }
        }
    }

    DigiScenario {
        world,
        chan,
        pc,
        gw,
    }
}

/// Addresses used by the three-gateway AMPRnet mesh topology.
pub mod mesh_addrs {
    use std::net::Ipv4Addr;

    /// A distant Internet host (knows only the 44/8 aggregate).
    pub const INTERNET_HOST: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 4);
    /// West gateway, Ethernet side — where the lone class-A route points.
    pub const WEST_GW_ETHER: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 100);
    /// East gateway, Ethernet side.
    pub const EAST_GW_ETHER: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 101);
    /// Gulf gateway, Ethernet side.
    pub const GULF_GW_ETHER: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 102);
    /// West gateway, radio side (the paper's own 44.24.0.28).
    pub const WEST_GW_RADIO: Ipv4Addr = Ipv4Addr::new(44, 24, 0, 28);
    /// East gateway, radio side.
    pub const EAST_GW_RADIO: Ipv4Addr = Ipv4Addr::new(44, 56, 0, 28);
    /// Gulf gateway, radio side.
    pub const GULF_GW_RADIO: Ipv4Addr = Ipv4Addr::new(44, 88, 0, 28);
    /// A host on the east radio subnet.
    pub const EAST_HOST: Ipv4Addr = Ipv4Addr::new(44, 56, 0, 5);
    /// A host on the gulf radio subnet.
    pub const GULF_HOST: Ipv4Addr = Ipv4Addr::new(44, 88, 0, 5);
    /// The east subnet.
    pub const EAST_SUBNET: (Ipv4Addr, u8) = (Ipv4Addr::new(44, 56, 0, 0), 16);
    /// The west subnet.
    pub const WEST_SUBNET: (Ipv4Addr, u8) = (Ipv4Addr::new(44, 24, 0, 0), 16);
    /// The gulf subnet.
    pub const GULF_SUBNET: (Ipv4Addr, u8) = (Ipv4Addr::new(44, 88, 0, 0), 16);
}

/// The built three-gateway mesh (see [`three_gateway`]).
pub struct MeshScenario {
    /// The world.
    pub world: World,
    /// The shared radio channel (split into regions by hearing).
    pub chan: ChanId,
    /// The Internet segment all gateways sit on.
    pub seg: SegId,
    /// The distant Internet host.
    pub internet_host: HostId,
    /// West gateway (owner of the class-A aggregate).
    pub west_gw: HostId,
    /// East gateway.
    pub east_gw: HostId,
    /// Gulf gateway.
    pub gulf_gw: HostId,
    /// Radio host on the east subnet.
    pub east_host: HostId,
    /// Radio host on the gulf subnet.
    pub gulf_host: HostId,
}

/// Builds the §4.2 endgame: three gateways to net 44 on one Internet
/// segment, exchanging subnet routes with [`Rip44Service`] and carrying
/// cross-gateway traffic in IPIP tunnels.
///
/// ```text
///                          "Internet" Ethernet segment
///  internet-host ───┬───────────────┬───────────────┬─────
///               west-gw          east-gw         gulf-gw      (RIP44 + IPIP)
///  44.24/16 radio ──┘       44.56/16 ┴ radio  44.88/16 ┴ radio
///                 BBONE ─ bridges west↔east    east-host      gulf-host
/// ```
///
/// The Internet still holds only the class-A aggregate (44/8 → west-gw):
/// that is §4.2's unfixable premise. What RIP44 fixes is the *gateways'*
/// view — west-gw learns 44.56/16 → east-gw and wraps such traffic in
/// IPIP across the Ethernet instead of relaying cross-country over the
/// BBONE RF backbone. Radio hosts run the same daemon in
/// [`LearnMode::Routes`], learning their default route from their
/// gateway's radio-side announcements; a deliberately worse static
/// default via the backbone remains as the fallback when the learned one
/// expires. A gateway's tunnel table is its stack's:
/// `world.host(gw).stack.tunnel_map::<EncapTable>()`.
///
/// [`Rip44Service`]: crate::ripd::Rip44Service
/// [`LearnMode::Routes`]: crate::ripd::LearnMode::Routes
pub fn three_gateway(cfg: &PaperConfig, rip: RipConfig, seed: u64) -> MeshScenario {
    use crate::ripd::{AnnounceSet, LearnMode, Rip44Service};
    use encap::rip::RipEntry;
    use mesh_addrs as a;

    let mut world = World::new(seed);
    let chan = world.add_channel(cfg.radio_rate);
    let seg = world.add_segment(Bandwidth::ETHERNET_10M);

    let mut ih = HostConfig::named("internet-host");
    ih.cpu = CpuConfig::free();
    ih.ether = Some(EtherIfConfig {
        mac: MacAddr::local(10),
        ip: a::INTERNET_HOST,
        prefix_len: 24,
    });
    let internet_host = world.add_host(ih);
    world.attach_ether(internet_host, seg);

    let mut gw_ids = Vec::new();
    for (i, (name, call, radio_ip, ether_ip)) in [
        ("west-gw", "N7AKR-1", a::WEST_GW_RADIO, a::WEST_GW_ETHER),
        ("east-gw", "W2GW", a::EAST_GW_RADIO, a::EAST_GW_ETHER),
        ("gulf-gw", "W5GW", a::GULF_GW_RADIO, a::GULF_GW_ETHER),
    ]
    .into_iter()
    .enumerate()
    {
        let mut gc = HostConfig::named(name);
        gc.cpu = cfg.cpu;
        gc.stack.forwarding = true;
        gc.stack.ipip = true;
        gc.radio = Some(RadioIfConfig {
            call: Ax25Addr::parse_or_panic(call),
            ip: radio_ip,
            prefix_len: 16,
        });
        gc.ether = Some(EtherIfConfig {
            mac: MacAddr::local(11 + i as u16),
            ip: ether_ip,
            prefix_len: 24,
        });
        let gw = world.add_host(gc);
        world.attach_radio(gw, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);
        world.attach_ether(gw, seg);
        gw_ids.push(gw);
    }
    let (west_gw, east_gw, gulf_gw) = (gw_ids[0], gw_ids[1], gw_ids[2]);

    let mut host_ids = Vec::new();
    for (name, call, ip) in [
        ("east-host", "KA2EH", a::EAST_HOST),
        ("gulf-host", "KD5GH", a::GULF_HOST),
    ] {
        let mut hc = HostConfig::named(name);
        hc.cpu = cfg.cpu;
        hc.radio = Some(RadioIfConfig {
            call: Ax25Addr::parse_or_panic(call),
            ip,
            prefix_len: 16,
        });
        let h = world.add_host(hc);
        world.attach_radio(h, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);
        host_ids.push(h);
    }
    let (east_host, gulf_host) = (host_ids[0], host_ids[1]);

    // The cross-country RF backbone digipeater, bridging west and east.
    let bbone = Ax25Addr::parse_or_panic("BBONE");
    world.add_digipeater(chan, bbone, cfg.mac);

    // Hearing matrix. Station order: west_gw=0, east_gw=1, gulf_gw=2,
    // east_host=3, gulf_host=4, BBONE=5. Regions: west {0}, east {1,3},
    // gulf {2,4}; BBONE hears west and east (the fallback bridge), the
    // gulf region is reachable only through its gateway.
    {
        use radio::channel::StationId;
        let region = |s: usize| match s {
            0 => 0,
            1 | 3 => 1,
            2 | 4 => 2,
            _ => 3,
        };
        let c = world.channel_mut(chan);
        for x in 0..6usize {
            for y in (x + 1)..6 {
                let ok = region(x) == region(y)
                    || (y == 5 && region(x) != 2)
                    || (x == 5 && region(y) != 2);
                if !ok {
                    c.set_hears(StationId(x), StationId(y), false);
                    c.set_hears(StationId(y), StationId(x), false);
                }
            }
        }
    }

    // Static routing: the Internet knows one route to net 44 (§4.2), and
    // the west gateway's only non-tunnel path east is the RF backbone.
    let ih_if = world.host(internet_host).ether_iface().unwrap();
    world.host_mut(internet_host).stack.routes_mut().add(
        Prefix::amprnet(),
        Some(a::WEST_GW_ETHER),
        ih_if,
    );
    let wg_radio = world.host(west_gw).radio_iface().unwrap();
    world.host_mut(west_gw).stack.routes_mut().add(
        Prefix::new(a::EAST_SUBNET.0, a::EAST_SUBNET.1),
        None,
        wg_radio,
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
    // The east host's fallback default: the west gateway via the
    // backbone, at a metric the learned route always beats.
    let eh_if = world.host(east_host).radio_iface().unwrap();
    world.host_mut(east_host).stack.routes_mut().insert(Route {
        prefix: Prefix::default_route(),
        via: Some(a::WEST_GW_RADIO),
        iface: eh_if,
        source: RouteSource::Static,
        metric: 10,
    });
    world
        .host_mut(east_host)
        .pr_driver_mut()
        .unwrap()
        .arp_mut()
        .insert_static(
            a::WEST_GW_RADIO,
            Ax25Hw::via(Ax25Addr::parse_or_panic("N7AKR-1"), &[bbone]).encode(),
        );

    // The daemons. Each gateway announces its subnet on the wire (tunnel
    // endpoints for its peers) and a default route on its radio; radio
    // hosts learn that default as a route.
    for (i, (&gw, subnet)) in gw_ids
        .iter()
        .zip([a::WEST_SUBNET, a::EAST_SUBNET, a::GULF_SUBNET])
        .enumerate()
    {
        let ether_if = world.host(gw).ether_iface().unwrap();
        let radio_if = world.host(gw).radio_iface().unwrap();
        let svc = Rip44Service::new(
            RipConfig {
                seed: rip.seed.wrapping_add(i as u64),
                ..rip.clone()
            },
            vec![
                AnnounceSet {
                    iface: ether_if,
                    entries: vec![RipEntry {
                        prefix: Prefix::new(subnet.0, subnet.1),
                        metric: 1,
                    }],
                },
                AnnounceSet {
                    iface: radio_if,
                    entries: vec![RipEntry {
                        prefix: Prefix::default_route(),
                        metric: 1,
                    }],
                },
            ],
            LearnMode::Tunnel,
        );
        world.add_app(gw, Box::new(svc));
    }
    for (i, &h) in host_ids.iter().enumerate() {
        let radio_if = world.host(h).radio_iface().unwrap();
        let svc = Rip44Service::new(
            RipConfig {
                seed: rip.seed.wrapping_add(10 + i as u64),
                ..rip.clone()
            },
            Vec::new(),
            LearnMode::Routes { iface: radio_if },
        );
        world.add_app(h, Box::new(svc));
    }

    MeshScenario {
        world,
        chan,
        seg,
        internet_host,
        west_gw,
        east_gw,
        gulf_gw,
        east_host,
        gulf_host,
    }
}

// --- City-scale mesh (E15) ---------------------------------------------

/// Address and callsign scheme for [`mesh`] topologies.
///
/// Gateway `g` serves radio subnet `44.(g>>8).(g&255).0/24` — itself at
/// host octet 1, attached host `i` at octet `2 + i` — and sits on the
/// shared Ethernet as `10.(g>>8).(g&255).1/8`. The wired internet host is
/// `10.255.255.1`.
pub mod city {
    use std::net::Ipv4Addr;

    /// The wired-internet host on the Ethernet.
    pub const INTERNET_IP: Ipv4Addr = Ipv4Addr::new(10, 255, 255, 1);

    /// Gateway `g`'s radio-side address.
    pub fn gw_radio_ip(g: usize) -> Ipv4Addr {
        Ipv4Addr::new(44, (g >> 8) as u8, (g & 0xff) as u8, 1)
    }

    /// Gateway `g`'s Ethernet-side address.
    pub fn gw_ether_ip(g: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, (g >> 8) as u8, (g & 0xff) as u8, 1)
    }

    /// Radio host `i` behind gateway `g`.
    pub fn host_ip(g: usize, i: usize) -> Ipv4Addr {
        Ipv4Addr::new(44, (g >> 8) as u8, (g & 0xff) as u8, (2 + i) as u8)
    }

    /// Gateway `g`'s callsign (`GW0042`).
    pub fn gw_call(g: usize) -> String {
        format!("GW{g:04}")
    }

    /// Radio host `(g, i)`'s callsign (`H04207`).
    pub fn host_call(g: usize, i: usize) -> String {
        format!("H{g:03}{i:02}")
    }
}

/// The full-mesh encapsulation table a [`mesh`] gateway carries: every
/// other gateway's subnet maps O(1) — by arithmetic on the destination's
/// middle octets — to that gateway's Ethernet address. Static tunnels
/// stand in for §4.2's RIP exchange at city scale, where a thousand
/// gateways' periodic broadcasts would swamp both the simulated Ethernet
/// and the benchmark's purpose (measuring the engine, not RIP chatter).
#[derive(Debug, Clone)]
pub struct StaticTunnels {
    own: usize,
    gateways: usize,
}

impl netstack::stack::TunnelMap for StaticTunnels {
    fn endpoint(&mut self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        let o = dst.octets();
        if o[0] != 44 {
            return None;
        }
        let g = (usize::from(o[1]) << 8) | usize::from(o[2]);
        if g == self.own || g >= self.gateways {
            return None;
        }
        Some(city::gw_ether_ip(g))
    }
}

/// A built [`mesh`] topology.
pub struct MeshNet {
    /// The world (one shard per gateway).
    pub world: World,
    /// The shared Ethernet segment.
    pub seg: SegId,
    /// The wired-internet host (shard 0, Ethernet only).
    pub internet_host: HostId,
    /// Gateway `g`, living in shard `g`.
    pub gateways: Vec<HostId>,
    /// Gateway `g`'s radio channel.
    pub channels: Vec<ChanId>,
    /// `hosts[g][i]` — radio host `i` behind gateway `g`.
    pub hosts: Vec<Vec<HostId>>,
}

impl MeshNet {
    /// Number of radio islands (= shards = gateways).
    pub fn islands(&self) -> usize {
        self.gateways.len()
    }

    /// The radio hosts behind gateway `g`, in address order
    /// (`44.x.y.2 ..`).
    pub fn island_hosts(&self, g: usize) -> &[HostId] {
        &self.hosts[g]
    }

    /// Radio host `(g, i)`'s IP address.
    pub fn host_addr(&self, g: usize, i: usize) -> Ipv4Addr {
        city::host_ip(g, i)
    }

    /// Gateway `g`'s host id.
    pub fn gateway(&self, g: usize) -> HostId {
        self.gateways[g]
    }

    /// Island `g`'s radio channel.
    pub fn island_channel(&self, g: usize) -> ChanId {
        self.channels[g]
    }

    /// Every radio host with its coordinates: `(island, slot, id,
    /// address)`, islands then slots in order. The handle fleet
    /// builders attach through instead of reaching into [`World`]
    /// internals.
    pub fn iter_hosts(&self) -> impl Iterator<Item = (usize, usize, HostId, Ipv4Addr)> + '_ {
        self.hosts.iter().enumerate().flat_map(|(g, island)| {
            island
                .iter()
                .enumerate()
                .map(move |(i, &h)| (g, i, h, city::host_ip(g, i)))
        })
    }
}

/// Optional extras for [`mesh_with`] (E18's forwarding-plane benchmark).
#[derive(Debug, Clone, Default)]
pub struct MeshOptions {
    /// Give every gateway a RIP-learned-style `/24` route to each other
    /// island's radio subnet, via that island's gateway Ethernet address
    /// ([`netstack::route::RouteSource::Learned`], metric 2). The tunnel
    /// map still wins for cross-island traffic — these routes are the
    /// table *load* a converged RIP44 exchange would leave behind, so a
    /// 500-island mesh carries ~500-route gateway tables and every
    /// per-packet lookup (tunnel-endpoint included) pays longest-prefix
    /// match over them.
    pub full_tables: bool,
    /// Inert: the gateways have no next-hop cache to size. Kept only
    /// because the benchmark harness still sets it (ROADMAP item 2(a)).
    #[doc(hidden)]
    pub fwd_cache_bits: u8,
}

/// Builds the city-scale AMPRnet of EXPERIMENTS.md E15: `gateways` radio
/// islands — one 1200 b/s channel, one MicroVAX gateway, `hosts_per_gw`
/// PCs each — joined by one department Ethernet carrying IPIP tunnels
/// between every gateway pair, plus a wired internet host routing net 44
/// via gateway 0 (§4.2's aggregate-route premise).
///
/// Each island is its own shard, so the sharded engine steps only the
/// islands that have work in a window; only tunnel traffic crosses shard
/// boundaries. Routing is
/// static ([`StaticTunnels`]); the MAC keeps its nonzero default slot
/// time, which the DESIGN.md §11 digest-equivalence contract requires.
/// No traffic is installed — callers attach their own apps.
pub fn mesh(gateways: usize, hosts_per_gw: usize, seed: u64) -> MeshNet {
    mesh_with(gateways, hosts_per_gw, seed, MeshOptions::default())
}

/// [`mesh`] with [`MeshOptions`]: full learned route tables, for the E18
/// forwarding-plane measurements.
pub fn mesh_with(gateways: usize, hosts_per_gw: usize, seed: u64, opts: MeshOptions) -> MeshNet {
    assert!((1..=1000).contains(&gateways), "1..=1000 gateways");
    assert!(hosts_per_gw <= 97, "host octets run 44.x.y.2 ..= 44.x.y.99");
    let cfg = PaperConfig::default();
    let mut world = World::new(seed);
    let seg = world.add_segment(Bandwidth::ETHERNET_10M);

    let mut gw_ids = Vec::with_capacity(gateways);
    let mut chans = Vec::with_capacity(gateways);
    let mut hosts = Vec::with_capacity(gateways);
    for g in 0..gateways {
        let shard = if g == 0 {
            ShardId::ZERO
        } else {
            world.add_shard()
        };
        let chan = world.add_channel_in(shard, cfg.radio_rate);

        let mut gc = HostConfig::named(&city::gw_call(g));
        gc.cpu = cfg.cpu;
        gc.stack.forwarding = true;
        gc.stack.ipip = true;
        gc.radio = Some(RadioIfConfig {
            call: Ax25Addr::parse_or_panic(&city::gw_call(g)),
            ip: city::gw_radio_ip(g),
            prefix_len: 24,
        });
        gc.ether = Some(EtherIfConfig {
            mac: MacAddr::local((1 + g) as u16),
            ip: city::gw_ether_ip(g),
            prefix_len: 8,
        });
        let gw = world.add_host_in(shard, gc);
        world.attach_radio(gw, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);
        world.attach_ether(gw, seg);
        world
            .host_mut(gw)
            .stack
            .set_tunnel_map(Box::new(StaticTunnels { own: g, gateways }));
        if opts.full_tables {
            let ether_if = world.host(gw).ether_iface().expect("gateway ether");
            let routes = world.host_mut(gw).stack.routes_mut();
            routes.reserve(gateways - 1);
            for p in 0..gateways {
                if p == g {
                    continue;
                }
                routes.insert(Route {
                    prefix: Prefix::new(city::gw_radio_ip(p), 24),
                    via: Some(city::gw_ether_ip(p)),
                    iface: ether_if,
                    source: RouteSource::Learned,
                    metric: 2,
                });
            }
        }

        let mut island = Vec::with_capacity(hosts_per_gw);
        for i in 0..hosts_per_gw {
            let mut hc = HostConfig::named(&city::host_call(g, i));
            hc.cpu = cfg.cpu;
            hc.radio = Some(RadioIfConfig {
                call: Ax25Addr::parse_or_panic(&city::host_call(g, i)),
                ip: city::host_ip(g, i),
                prefix_len: 24,
            });
            let h = world.add_host_in(shard, hc);
            world.attach_radio(h, chan, cfg.serial_baud, cfg.tnc_mode, cfg.mac);
            let h_if = world.host(h).radio_iface().expect("radio host");
            world.host_mut(h).stack.routes_mut().add(
                Prefix::default_route(),
                Some(city::gw_radio_ip(g)),
                h_if,
            );
            island.push(h);
        }
        gw_ids.push(gw);
        chans.push(chan);
        hosts.push(island);
    }

    // The wired internet: one free-CPU host holding §4.2's aggregate —
    // all of net 44 via a single gateway.
    let mut ih = HostConfig::named("internet");
    ih.cpu = CpuConfig::free();
    ih.ether = Some(EtherIfConfig {
        mac: MacAddr::local(0),
        ip: city::INTERNET_IP,
        prefix_len: 8,
    });
    let internet_host = world.add_host(ih);
    world.attach_ether(internet_host, seg);
    let ih_if = world.host(internet_host).ether_iface().expect("ether host");
    world.host_mut(internet_host).stack.routes_mut().add(
        Prefix::amprnet(),
        Some(city::gw_ether_ip(0)),
        ih_if,
    );

    MeshNet {
        world,
        seg,
        internet_host,
        gateways: gw_ids,
        channels: chans,
        hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encap::table::EncapTable;
    use netstack::stack::StackAction;
    use sim::{SimDuration, SimTime};

    #[test]
    fn digi_chain_ping_traverses_the_chain() {
        let mut s = digi_chain_topology(2, PaperConfig::default(), 3);
        let now = s.world.now;
        s.world
            .host_mut(s.pc)
            .stack_op(now, |st| st.ping(GW_RADIO_IP, 5, 1, 16));
        s.world.run_for(SimDuration::from_secs(120));
        let events = s.world.take_events();
        let rtt = events
            .iter()
            .find_map(|(h, t, e)| match e {
                StackAction::PingReply { id: 5, .. } if *h == s.pc => Some(*t),
                _ => None,
            })
            .expect("reply via digipeaters");
        // Each direction crosses the channel 3 times (pc->d1->d2->gw).
        assert!(rtt > SimTime::from_secs(2), "rtt {rtt}");
    }

    fn mesh_rip() -> RipConfig {
        RipConfig {
            announce_interval: SimDuration::from_secs(10),
            route_ttl: SimDuration::from_secs(25),
            holddown: SimDuration::from_secs(20),
            ..RipConfig::default()
        }
    }

    /// The west gateway's tunnel table, which its stack owns.
    fn west_tunnels(s: &MeshScenario) -> &EncapTable {
        let t = s.world.host(s.west_gw).stack.tunnel_map();
        t.expect("the west daemon has started")
    }

    fn mesh_config() -> PaperConfig {
        PaperConfig {
            filter: None,
            ..PaperConfig::default()
        }
    }

    #[test]
    fn mesh_converges_to_ipip_tunnels() {
        let mut s = three_gateway(&mesh_config(), mesh_rip(), 7);
        // Let the gateways exchange a couple of announcement rounds.
        s.world.run_for(SimDuration::from_secs(25));
        let learned: Vec<_> = west_tunnels(&s)
            .entries()
            .iter()
            .map(|e| e.subnet)
            .collect();
        assert!(
            learned.contains(&Prefix::new(
                mesh_addrs::EAST_SUBNET.0,
                mesh_addrs::EAST_SUBNET.1
            )),
            "west gateway learned the east subnet: {learned:?}"
        );
        assert!(
            learned.contains(&Prefix::new(
                mesh_addrs::GULF_SUBNET.0,
                mesh_addrs::GULF_SUBNET.1
            )),
            "west gateway learned the gulf subnet: {learned:?}"
        );
        // Now a ping from the Internet rides the tunnel: the 44/8
        // aggregate still lands it at the west gateway, which wraps it in
        // IPIP to the east gateway instead of relaying over RF.
        let now = s.world.now;
        s.world
            .host_mut(s.internet_host)
            .stack_op(now, |st| st.ping(mesh_addrs::EAST_HOST, 9, 2, 32));
        s.world.run_for(SimDuration::from_secs(60));
        let events = s.world.take_events();
        assert!(
            events.iter().any(|(h, _, e)| *h == s.internet_host
                && matches!(e, StackAction::PingReply { id: 9, .. })),
            "ping answered"
        );
        // (The first echo request can die in the cold ARP queue, so ask
        // only that the survivors rode the tunnel.)
        assert!(
            s.world.host(s.west_gw).stack.stats().ipip_out >= 1,
            "west gateway encapsulated"
        );
        assert!(
            s.world.host(s.east_gw).stack.stats().ipip_in >= 1,
            "east gateway decapsulated"
        );
        assert!(west_tunnels(&s).stats().hits >= 1, "table hit counted");
    }

    #[test]
    fn mesh_falls_back_to_rf_backbone_when_gateway_dies() {
        let mut s = three_gateway(&mesh_config(), mesh_rip(), 8);
        s.world.run_for(SimDuration::from_secs(25));
        assert!(west_tunnels(&s).peek(mesh_addrs::EAST_HOST).is_some());

        // Kill the east gateway: its announcements stop, so the west
        // gateway's tunnel entry and the east host's learned default must
        // both expire (within one TTL) and traffic must fall back to the
        // static aggregate path over the BBONE digipeater.
        s.world.host_mut(s.east_gw).set_down(true);
        s.world.run_for(SimDuration::from_secs(26));
        assert!(
            west_tunnels(&s).peek(mesh_addrs::EAST_HOST).is_none(),
            "tunnel entry expired"
        );
        let r = s
            .world
            .host(s.east_host)
            .stack
            .routes()
            .lookup_route(mesh_addrs::INTERNET_HOST)
            .expect("fallback default");
        assert_eq!(r.via, Some(mesh_addrs::WEST_GW_RADIO), "static fallback");

        let ipip_before = s.world.host(s.west_gw).stack.stats().ipip_out;
        let now = s.world.now;
        s.world
            .host_mut(s.internet_host)
            .stack_op(now, |st| st.ping(mesh_addrs::EAST_HOST, 10, 2, 32));
        s.world.run_for(SimDuration::from_secs(120));
        let events = s.world.take_events();
        assert!(
            events.iter().any(|(h, _, e)| *h == s.internet_host
                && matches!(e, StackAction::PingReply { id: 10, .. })),
            "ping still answered via the RF backbone"
        );
        assert_eq!(
            s.world.host(s.west_gw).stack.stats().ipip_out,
            ipip_before,
            "no new encapsulations toward the dead gateway"
        );
        // The probes above were looks, not traffic: every hit the table
        // counted is a datagram the stack wrapped.
        assert_eq!(
            west_tunnels(&s).stats().hits,
            s.world.host(s.west_gw).stack.stats().ipip_out,
        );
    }

    #[test]
    fn zero_digi_chain_still_works_direct() {
        let mut s = digi_chain_topology(0, PaperConfig::default(), 3);
        let now = s.world.now;
        s.world
            .host_mut(s.pc)
            .stack_op(now, |st| st.ping(GW_RADIO_IP, 5, 1, 16));
        s.world.run_for(SimDuration::from_secs(60));
        let events = s.world.take_events();
        assert!(events
            .iter()
            .any(|(h, _, e)| matches!(e, StackAction::PingReply { .. }) && *h == s.pc));
    }
}
