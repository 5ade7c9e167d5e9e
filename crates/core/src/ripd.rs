//! The RIP44 route-exchange service: the user-space daemon a gateway runs
//! so AMPRnet subnet routes spread without manual tables.
//!
//! §4.2 of the paper: the Internet routes all of net 44 to one gateway, so
//! cross-subnet traffic detours through it no matter where the subnets
//! actually are. [`Rip44Service`] is the fix's moving part — each gateway
//! periodically broadcasts the subnets it serves ([`encap::rip`] wire
//! format) and listens for its peers' broadcasts, feeding what it hears
//! into an [`encap::EncapTable`] with expiry and hold-down. Depending on
//! [`LearnMode`], the learned mappings become:
//!
//! * tunnel endpoints ([`LearnMode::Tunnel`]) — at start the daemon hands
//!   its table to the host's stack as its
//!   [`TunnelMap`](netstack::stack::TunnelMap), so a wired gateway wraps
//!   44.x traffic in IPIP straight to the nearest peer. Like a 4.3BSD
//!   route daemon it keeps no copy: it learns and expires through the
//!   stack ([`NetStack::tunnel_map_mut`]), and readers find the table
//!   there too ([`NetStack::tunnel_map`]); or
//! * routes ([`LearnMode::Routes`]) — learned prefixes go into the routing
//!   table as [`RouteSource::Learned`](netstack::route::RouteSource)
//!   entries that override the static aggregate by longest-prefix match
//!   and fall away again when the announcements stop.
//!
//! Timer contract (DESIGN.md §7): all wake-ups surface through
//! [`App::next_deadline`] — the jittered announce timer and the earliest
//! table expiry — so the deadline scheduler drives the daemon exactly when
//! something is due; expiry happens *at* the deadline, never lazily on
//! lookup. The daemon stores that expiry after every `learn` and `expire`,
//! the only table calls that move it, since `next_deadline` cannot see a
//! table the stack owns.
//!
//! [`NetStack::tunnel_map_mut`]: netstack::stack::NetStack::tunnel_map_mut
//! [`NetStack::tunnel_map`]: netstack::stack::NetStack::tunnel_map

use encap::rip::{Announcer, RipEntry, RipUpdate, METRIC_INFINITY, RIP44_PORT};
use encap::table::{EncapTable, LearnOutcome};
use netstack::stack::{IfaceId, StackAction, UdpId};
use netstack::Prefix;
use sim::{SimDuration, SimRng, SimTime};

use crate::host::Host;
use crate::world::App;

/// Fractional announce-timer jitter (see [`Announcer`]): each period is
/// drawn from ±15 % of the mean, so gateways booted together drift apart.
const ANNOUNCE_JITTER: f64 = 0.15;

/// Tunable knobs for one service instance.
#[derive(Debug, Clone)]
pub struct RipConfig {
    /// UDP port announcements travel on.
    pub port: u16,
    /// Mean period between announcements.
    pub announce_interval: SimDuration,
    /// Lifetime granted to a learned entry per announcement heard.
    pub route_ttl: SimDuration,
    /// Hold-down after an expiry, during which re-learns are rejected.
    pub holddown: SimDuration,
    /// Seed for this daemon's private jitter RNG.
    pub seed: u64,
}

impl Default for RipConfig {
    fn default() -> RipConfig {
        RipConfig {
            port: RIP44_PORT,
            announce_interval: SimDuration::from_secs(30),
            route_ttl: SimDuration::from_secs(90),
            holddown: SimDuration::from_secs(60),
            seed: 0x5234,
        }
    }
}

/// What the service does with announcements it hears.
#[derive(Debug, Clone, Copy)]
pub enum LearnMode {
    /// Announce only; ignore everything heard.
    None,
    /// Install learned prefixes as [`Learned`] routes via the announcing
    /// gateway, out `iface` (radio hosts learning their nearest gateway).
    ///
    /// [`Learned`]: netstack::route::RouteSource::Learned
    Routes {
        /// Interface the learned routes point out of.
        iface: IfaceId,
    },
    /// Hand the encap table to the stack as its tunnel map (wired
    /// gateways that IPIP-encapsulate toward their peers).
    Tunnel,
}

/// Counters for one service instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct RipdStats {
    /// Announcement datagrams broadcast.
    pub sent: u64,
    /// Well-formed updates heard from peers.
    pub heard: u64,
    /// Datagrams on our port that failed to decode.
    pub bad: u64,
}

/// One subnet set announced out one interface.
#[derive(Debug, Clone)]
pub struct AnnounceSet {
    /// Interface the broadcast goes out of (its address becomes the
    /// update's `origin`, i.e. the tunnel endpoint peers will use).
    pub iface: IfaceId,
    /// The subnets and metrics to announce.
    pub entries: Vec<RipEntry>,
}

/// The RIP44 daemon, installed on a host as an [`App`]. See the module
/// docs.
pub struct Rip44Service {
    cfg: RipConfig,
    announce: Vec<AnnounceSet>,
    learn: LearnMode,
    /// The encap table while the daemon owns it: in [`LearnMode::None`]
    /// and [`LearnMode::Routes`] always, in [`LearnMode::Tunnel`] until
    /// `on_start` moves it into the host's stack.
    table: Option<EncapTable>,
    /// The table's earliest expiry ([`EncapTable::next_deadline`]), stored
    /// after every `learn` and `expire`.
    expiry: Option<SimTime>,
    udp: Option<UdpId>,
    announcer: Announcer,
    rng: SimRng,
    stats: RipdStats,
    /// Prefixes this instance announces itself — never learned back.
    own: Vec<Prefix>,
}

impl Rip44Service {
    /// Creates a service announcing `announce` and handling heard updates
    /// per `learn`.
    pub fn new(cfg: RipConfig, announce: Vec<AnnounceSet>, learn: LearnMode) -> Rip44Service {
        let own = announce
            .iter()
            .flat_map(|a| a.entries.iter().map(|e| e.prefix))
            .collect();
        Rip44Service {
            announcer: Announcer::new(cfg.announce_interval, ANNOUNCE_JITTER),
            table: Some(EncapTable::new(cfg.holddown)),
            expiry: None,
            rng: SimRng::seed_from(cfg.seed),
            cfg,
            announce,
            learn,
            udp: None,
            stats: RipdStats::default(),
            own,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RipdStats {
        self.stats
    }

    /// Applies one heard update. Learning feeds the encap table (expiry +
    /// hold-down) and, in [`LearnMode::Routes`], mirrors accepted entries
    /// into the routing table.
    fn on_update(&mut self, now: SimTime, update: RipUpdate, host: &mut Host) {
        self.stats.heard += 1;
        let mut news = false;
        for e in update.entries {
            // Never learn our own announcements (reflected or relayed),
            // and treat infinity as a withdrawal we simply don't believe
            // in yet (expiry handles dead gateways).
            if self.own.contains(&e.prefix) || e.metric >= METRIC_INFINITY {
                continue;
            }
            let metric = e.metric.saturating_add(1).min(METRIC_INFINITY);
            let outcome = table(&mut self.table, host).learn(
                now,
                e.prefix,
                update.origin,
                metric,
                self.cfg.route_ttl,
            );
            if let LearnOutcome::New | LearnOutcome::Updated = outcome {
                news = true;
                if let LearnMode::Routes { iface } = self.learn {
                    host.stack.routes_mut().add_learned(
                        e.prefix,
                        Some(update.origin),
                        iface,
                        metric,
                    );
                }
            }
        }
        self.expiry = table(&mut self.table, host).next_deadline();
        if news {
            // Triggered update: hearing news pulls our own next
            // announcement earlier so second-order listeners converge
            // without waiting a full period.
            self.announcer.trigger(now, &mut self.rng);
        }
    }

    /// The stored expiry is the table's (debug builds).
    fn debug_check_expiry(&mut self, host: &mut Host) {
        debug_assert_eq!(
            self.expiry,
            table(&mut self.table, host).next_deadline(),
            "the stored expiry went stale"
        );
    }
}

/// The encap table: the daemon's own, or — once a tunnel-mode daemon has
/// started — its host stack's tunnel map.
fn table<'a>(own: &'a mut Option<EncapTable>, host: &'a mut Host) -> &'a mut EncapTable {
    match own {
        Some(t) => t,
        None => {
            let t = host.stack.tunnel_map_mut();
            t.expect("a started tunnel-mode daemon's table is its stack's")
        }
    }
}

impl App for Rip44Service {
    fn on_start(&mut self, now: SimTime, host: &mut Host) {
        self.udp = host.stack.udp_bind(self.cfg.port).ok();
        self.announcer.start(now, &mut self.rng);
        if let LearnMode::Tunnel = self.learn {
            if let Some(t) = self.table.take() {
                host.stack.set_tunnel_map(Box::new(t));
            }
        }
    }

    fn on_event(&mut self, now: SimTime, event: &StackAction, host: &mut Host) {
        self.debug_check_expiry(host);
        let StackAction::UdpReadable(id) = event else {
            return;
        };
        if Some(*id) != self.udp {
            return;
        }
        while let Some(update) = host.stack.udp_recv(*id, |_, _, p| RipUpdate::decode(p)) {
            match update {
                Ok(update) => self.on_update(now, update, host),
                Err(_) => self.stats.bad += 1,
            }
        }
    }

    fn poll(&mut self, now: SimTime, host: &mut Host) {
        self.debug_check_expiry(host);
        // Expire exactly at deadlines. This runs even while the host is
        // down so the timers keep moving.
        if self.expiry.is_some_and(|d| d <= now) {
            let t = table(&mut self.table, host);
            let dead = t.expire(now);
            self.expiry = t.next_deadline();
            if let LearnMode::Routes { .. } = self.learn {
                for e in &dead {
                    host.stack.routes_mut().remove_learned(e.subnet);
                }
            }
        }
        // Announce when due; a dead host's daemon is dead with it.
        if self.announcer.due(now, &mut self.rng) && !host.is_down() {
            if let Some(udp) = self.udp {
                for set in &self.announce {
                    let origin = host.stack.iface(set.iface).addr;
                    let update = RipUpdate {
                        origin,
                        entries: set.entries.clone(),
                    };
                    host.stack_op(now, |st| {
                        st.udp_send_broadcast(udp, set.iface, self.cfg.port, update.encode())
                    });
                    self.stats.sent += 1;
                }
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        match (self.announcer.next_deadline(), self.expiry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{EtherIfConfig, HostConfig};
    use crate::world::{HostId, World};
    use ether::MacAddr;
    use std::net::Ipv4Addr;

    fn wired_host(name: &str, last: u8) -> HostConfig {
        let mut cfg = HostConfig::named(name);
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(last as u16),
            ip: Ipv4Addr::new(128, 95, 1, last),
            prefix_len: 24,
        });
        cfg
    }

    /// The tunnel table a started tunnel-mode daemon left in its stack.
    fn tunnels(w: &World, host: HostId) -> &EncapTable {
        let t = w.host(host).stack.tunnel_map();
        t.expect("the stack owns the table")
    }

    fn east_prefix() -> Prefix {
        Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16)
    }

    /// Two wired hosts: one announces a subnet, the other learns it as a
    /// tunnel endpoint, and the entry expires once announcements stop.
    #[test]
    fn announcement_learn_expiry_cycle() {
        let mut w = World::new(9);
        let seg = w.add_segment(sim::Bandwidth::ETHERNET_10M);
        let announcer = w.add_host(wired_host("east-gw", 101));
        let listener = w.add_host(wired_host("int", 4));
        w.attach_ether(announcer, seg);
        w.attach_ether(listener, seg);

        let a_if = w.host(announcer).ether_iface().unwrap();
        let cfg = RipConfig {
            announce_interval: SimDuration::from_secs(10),
            route_ttl: SimDuration::from_secs(25),
            holddown: SimDuration::from_secs(20),
            ..RipConfig::default()
        };
        w.add_app(
            announcer,
            Box::new(Rip44Service::new(
                cfg.clone(),
                vec![AnnounceSet {
                    iface: a_if,
                    entries: vec![RipEntry {
                        prefix: east_prefix(),
                        metric: 1,
                    }],
                }],
                LearnMode::None,
            )),
        );
        w.add_app(
            listener,
            Box::new(Rip44Service::new(cfg, Vec::new(), LearnMode::Tunnel)),
        );

        w.run_for(SimDuration::from_secs(30));
        let entries = tunnels(&w, listener).entries();
        assert_eq!(entries.len(), 1, "subnet learned");
        assert_eq!(entries[0].subnet, east_prefix());
        assert_eq!(entries[0].endpoint, Ipv4Addr::new(128, 95, 1, 101));
        assert_eq!(entries[0].metric, 2, "announced 1 + one hop");

        // Kill the announcer: the entry must expire within one TTL and
        // enter hold-down.
        w.host_mut(announcer).set_down(true);
        w.run_for(SimDuration::from_secs(26));
        assert!(tunnels(&w, listener).entries().is_empty(), "entry expired");
        assert!(tunnels(&w, listener).stats().expired >= 1);
    }

    /// Routes mode installs and withdraws learned routes in the routing
    /// table, leaving static routes alone.
    #[test]
    fn routes_mode_mirrors_table_into_routes() {
        let mut w = World::new(11);
        let seg = w.add_segment(sim::Bandwidth::ETHERNET_10M);
        let announcer = w.add_host(wired_host("east-gw", 101));
        let listener = w.add_host(wired_host("int", 4));
        w.attach_ether(announcer, seg);
        w.attach_ether(listener, seg);

        let a_if = w.host(announcer).ether_iface().unwrap();
        let l_if = w.host(listener).ether_iface().unwrap();
        // Static aggregate on the listener, like the real world's lone
        // class-A route.
        w.host_mut(listener).stack.routes_mut().add(
            Prefix::amprnet(),
            Some(Ipv4Addr::new(128, 95, 1, 100)),
            l_if,
        );
        let cfg = RipConfig {
            announce_interval: SimDuration::from_secs(10),
            route_ttl: SimDuration::from_secs(25),
            ..RipConfig::default()
        };
        w.add_app(
            announcer,
            Box::new(Rip44Service::new(
                cfg.clone(),
                vec![AnnounceSet {
                    iface: a_if,
                    entries: vec![RipEntry {
                        prefix: east_prefix(),
                        metric: 1,
                    }],
                }],
                LearnMode::None,
            )),
        );
        w.add_app(
            listener,
            Box::new(Rip44Service::new(
                cfg,
                Vec::new(),
                LearnMode::Routes { iface: l_if },
            )),
        );

        w.run_for(SimDuration::from_secs(30));
        let east_dst = Ipv4Addr::new(44, 56, 0, 5);
        let r = w.host(listener).stack.routes().lookup_route(east_dst);
        let r = r.expect("learned route present");
        assert_eq!(r.prefix, east_prefix(), "LPM beats the /8 aggregate");
        assert_eq!(r.via, Some(Ipv4Addr::new(128, 95, 1, 101)));

        // Announcements stop; the learned route expires and the aggregate
        // takes over again.
        w.host_mut(announcer).set_down(true);
        w.run_for(SimDuration::from_secs(26));
        let r = w.host(listener).stack.routes().lookup_route(east_dst);
        assert_eq!(r.expect("aggregate remains").prefix, Prefix::amprnet());
    }
}
