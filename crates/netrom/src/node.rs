//! The sans-io NET/ROM node: broadcasts, route learning, forwarding.

use ax25::addr::Ax25Addr;
use ax25::frame::{Frame, Pid};
use sim::{SimDuration, SimTime};

use crate::codec::{NetRomPacket, NodeEntry, NodesBroadcast, Transport, NODES_SIGNATURE};
use crate::nodes_addr;
use crate::routes::NetRomRoutes;

/// Quality assigned to directly heard neighbours.
const NEIGHBOUR_QUALITY: u8 = 192;

/// Initial TTL for originated datagrams.
const ORIGIN_TTL: u8 = 25;

/// Node configuration.
#[derive(Debug, Clone)]
pub struct NetRomConfig {
    /// This node's callsign (its AX.25 link address).
    pub callsign: Ax25Addr,
    /// This node's alias (≤6 chars).
    pub alias: String,
    /// Interval between NODES broadcasts.
    pub broadcast_interval: SimDuration,
}

impl NetRomConfig {
    /// Sensible defaults for an RF backbone node.
    pub fn new(callsign: Ax25Addr, alias: &str) -> NetRomConfig {
        NetRomConfig {
            callsign,
            alias: alias.to_string(),
            broadcast_interval: SimDuration::from_secs(60),
        }
    }
}

/// Node statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// NODES broadcasts sent.
    pub broadcasts_sent: u64,
    /// NODES broadcasts heard.
    pub broadcasts_heard: u64,
    /// Datagrams originated here.
    pub originated: u64,
    /// Datagrams forwarded for others.
    pub forwarded: u64,
    /// Datagrams delivered here.
    pub delivered: u64,
    /// Datagrams dropped: no route.
    pub no_route: u64,
    /// Datagrams dropped: TTL exhausted.
    pub ttl_expired: u64,
}

/// Output actions of the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeAction {
    /// Transmit this AX.25 frame (a UI frame with PID NET/ROM).
    SendFrame(Frame),
    /// An IP datagram addressed to this node arrived; hand it to the
    /// host's IP input.
    DeliverIp(Vec<u8>),
    /// A non-IP transport payload addressed to this node arrived.
    DeliverTransport {
        /// Originating node.
        origin: Ax25Addr,
        /// Transport opcode.
        opcode: u8,
        /// Payload bytes.
        bytes: Vec<u8>,
    },
}

/// One NET/ROM node (sans-io).
#[derive(Debug)]
pub struct NetRomNode {
    cfg: NetRomConfig,
    routes: NetRomRoutes,
    next_broadcast: SimTime,
    stats: NodeStats,
}

impl NetRomNode {
    /// Creates a node. The first broadcast fires at a deterministic
    /// per-callsign phase within the first interval: co-channel nodes
    /// sharing a boot instant would otherwise all key up together and
    /// collide every round (real nodes are never synchronized).
    pub fn new(cfg: NetRomConfig) -> NetRomNode {
        let phase_ns = sim::fnv1a(cfg.callsign.to_string().as_bytes())
            % cfg.broadcast_interval.as_nanos().max(1);
        NetRomNode {
            next_broadcast: SimTime::ZERO + SimDuration::from_nanos(phase_ns),
            cfg,
            routes: NetRomRoutes::new(),
            stats: NodeStats::default(),
        }
    }

    /// This node's callsign.
    pub fn callsign(&self) -> Ax25Addr {
        self.cfg.callsign
    }

    /// The learned route table.
    pub fn routes(&self) -> &NetRomRoutes {
        &self.routes
    }

    /// Node statistics.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Next time `poll` has scheduled work.
    pub fn next_deadline(&self) -> Option<SimTime> {
        Some(self.next_broadcast)
    }

    /// Periodic work: ages routes and emits the NODES broadcast.
    pub fn poll(&mut self, now: SimTime) -> Vec<NodeAction> {
        let mut out = Vec::new();
        while self.next_broadcast <= now {
            self.next_broadcast += self.cfg.broadcast_interval;
            self.routes.age();
            self.stats.broadcasts_sent += 1;
            let entries: Vec<NodeEntry> = self
                .routes
                .destinations()
                .into_iter()
                .filter_map(|dest| {
                    self.routes.best(dest).map(|r| NodeEntry {
                        dest,
                        alias: r.alias.clone(),
                        best_neighbour: r.neighbour,
                        quality: r.quality,
                    })
                })
                .collect();
            let bcast = NodesBroadcast {
                sender_alias: self.cfg.alias.clone(),
                entries,
            };
            out.push(NodeAction::SendFrame(Frame::ui(
                nodes_addr(),
                self.cfg.callsign,
                Pid::NetRom,
                bcast.encode(),
            )));
        }
        out
    }

    /// Processes a heard PID-NET/ROM frame.
    pub fn on_frame(&mut self, _now: SimTime, frame: &Frame) -> Vec<NodeAction> {
        if frame.pid != Some(Pid::NetRom) {
            return Vec::new();
        }
        if frame.info.first() == Some(&NODES_SIGNATURE) {
            if let Ok(bcast) = NodesBroadcast::decode(&frame.info) {
                self.stats.broadcasts_heard += 1;
                self.routes.update_from_broadcast(
                    self.cfg.callsign,
                    frame.source,
                    NEIGHBOUR_QUALITY,
                    &bcast,
                );
            }
            return Vec::new();
        }
        let Ok(packet) = NetRomPacket::decode(&frame.info) else {
            return Vec::new();
        };
        self.handle_packet(packet)
    }

    fn handle_packet(&mut self, packet: NetRomPacket) -> Vec<NodeAction> {
        if packet.dest == self.cfg.callsign {
            self.stats.delivered += 1;
            return match packet.transport {
                Transport::Ip(bytes) => vec![NodeAction::DeliverIp(bytes)],
                Transport::Opaque { opcode, bytes } => vec![NodeAction::DeliverTransport {
                    origin: packet.origin,
                    opcode,
                    bytes,
                }],
            };
        }
        // Forward.
        if packet.ttl <= 1 {
            self.stats.ttl_expired += 1;
            return Vec::new();
        }
        let Some(route) = self.routes.best(packet.dest) else {
            self.stats.no_route += 1;
            return Vec::new();
        };
        self.stats.forwarded += 1;
        let mut fwd = packet;
        fwd.ttl -= 1;
        vec![NodeAction::SendFrame(Frame::ui(
            route.neighbour,
            self.cfg.callsign,
            Pid::NetRom,
            fwd.encode(),
        ))]
    }

    /// Originates a datagram to node `dest` carrying an IP packet.
    pub fn send_ip(&mut self, dest: Ax25Addr, ip_bytes: Vec<u8>) -> Vec<NodeAction> {
        self.stats.originated += 1;
        let packet = NetRomPacket::ip(self.cfg.callsign, dest, ORIGIN_TTL, ip_bytes);
        if dest == self.cfg.callsign {
            return self.handle_packet(packet);
        }
        let Some(route) = self.routes.best(dest) else {
            self.stats.no_route += 1;
            return Vec::new();
        };
        vec![NodeAction::SendFrame(Frame::ui(
            route.neighbour,
            self.cfg.callsign,
            Pid::NetRom,
            packet.encode(),
        ))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    fn node(call: &str, alias: &str) -> NetRomNode {
        NetRomNode::new(NetRomConfig::new(a(call), alias))
    }

    /// Relays every SendFrame from `from`'s actions into `to`.
    fn relay(now: SimTime, actions: &[NodeAction], to: &mut NetRomNode) -> Vec<NodeAction> {
        let mut out = Vec::new();
        for act in actions {
            if let NodeAction::SendFrame(f) = act {
                out.extend(to.on_frame(now, f));
            }
        }
        out
    }

    /// Fires a node's next scheduled broadcast and returns its actions.
    fn fire(n: &mut NetRomNode) -> Vec<NodeAction> {
        let t = n.next_deadline().expect("broadcast scheduled");
        n.poll(t)
    }

    #[test]
    fn broadcast_fires_on_schedule_with_per_node_phase() {
        let mut n = node("SEA", "SEA");
        let t0 = n.next_deadline().unwrap();
        assert!(
            t0 < SimTime::ZERO + n.cfg.broadcast_interval,
            "phase within the first interval"
        );
        let acts = n.poll(t0);
        assert_eq!(acts.len(), 1);
        let NodeAction::SendFrame(f) = &acts[0] else {
            panic!()
        };
        assert_eq!(f.dest, nodes_addr());
        assert_eq!(f.pid, Some(Pid::NetRom));
        assert!(n.poll(t0).is_empty(), "not again until the interval");
        let t1 = n.next_deadline().unwrap();
        assert_eq!(t1 - t0, n.cfg.broadcast_interval);
        assert_eq!(n.poll(t1).len(), 1);
        // Two different callsigns get different phases.
        let m = node("NYC", "NYC");
        let s2 = node("SEA", "SEA");
        assert_ne!(m.next_deadline(), s2.next_deadline());
    }

    #[test]
    fn two_hop_route_learned_via_middle_node() {
        let now = SimTime::ZERO;
        let mut west = node("WGATE", "SEA");
        let mut mid = node("BBONE", "MID");
        let mut east = node("EGATE", "NYC");

        // Round 1: everyone announces themselves; neighbours learn.
        let e1 = fire(&mut east);
        relay(now, &e1, &mut mid); // mid learns EGATE (direct)
        let m1 = fire(&mut mid);
        relay(now, &m1, &mut west); // west learns BBONE, and EGATE via BBONE
        relay(now, &m1, &mut east);

        assert!(west.routes().best(a("BBONE")).is_some());
        let r = west.routes().best(a("EGATE")).expect("two-hop route");
        assert_eq!(r.neighbour, a("BBONE"));
        // 192 * 192 / 256 = 144.
        assert_eq!(r.quality, 144);
    }

    #[test]
    fn ip_datagram_crosses_two_hops() {
        let now = SimTime::ZERO;
        let mut west = node("WGATE", "SEA");
        let mut mid = node("BBONE", "MID");
        let mut east = node("EGATE", "NYC");
        // Learn topology.
        let e1 = fire(&mut east);
        relay(now, &e1, &mut mid);
        let m1 = fire(&mut mid);
        relay(now, &m1, &mut west);

        let acts = west.send_ip(a("EGATE"), vec![0x45, 0x00, 0x00, 0x14]);
        assert_eq!(acts.len(), 1);
        let NodeAction::SendFrame(f) = &acts[0] else {
            panic!()
        };
        assert_eq!(f.dest, a("BBONE"), "first hop is the backbone");

        let mid_acts = relay(now, &acts, &mut mid);
        assert_eq!(mid_acts.len(), 1, "mid forwards");
        assert_eq!(mid.stats().forwarded, 1);
        let east_acts = relay(now, &mid_acts, &mut east);
        assert_eq!(
            east_acts,
            vec![NodeAction::DeliverIp(vec![0x45, 0x00, 0x00, 0x14])]
        );
        assert_eq!(east.stats().delivered, 1);
    }

    #[test]
    fn ttl_expires_in_a_loop() {
        let now = SimTime::ZERO;
        let mut a_node = node("A", "A");
        let mut b_node = node("B", "B");
        // Teach both that the unreachable dest is via each other.
        let pa = fire(&mut a_node);
        relay(now, &pa, &mut b_node);
        let pb = fire(&mut b_node);
        relay(now, &pb, &mut a_node);
        // Forge a route by advertising a phantom destination from B.
        let bc = NodesBroadcast {
            sender_alias: "B".into(),
            entries: vec![NodeEntry {
                dest: a("GHOST"),
                alias: "GH".into(),
                best_neighbour: a("Z"),
                quality: 200,
            }],
        };
        a_node
            .routes
            .update_from_broadcast(a("A"), a("B"), 192, &bc);
        let bc2 = NodesBroadcast {
            sender_alias: "A".into(),
            entries: vec![NodeEntry {
                dest: a("GHOST"),
                alias: "GH".into(),
                best_neighbour: a("Z"),
                quality: 200,
            }],
        };
        b_node
            .routes
            .update_from_broadcast(a("B"), a("A"), 192, &bc2);

        // A originates toward GHOST; the packet ping-pongs until TTL dies.
        let mut acts = a_node.send_ip(a("GHOST"), vec![1]);
        let mut hops = 0;
        loop {
            let next = if hops % 2 == 0 {
                relay(now, &acts, &mut b_node)
            } else {
                relay(now, &acts, &mut a_node)
            };
            if next.is_empty() {
                break;
            }
            acts = next;
            hops += 1;
            assert!(hops < 100, "TTL must bound the loop");
        }
        assert_eq!(a_node.stats().ttl_expired + b_node.stats().ttl_expired, 1);
    }

    #[test]
    fn no_route_is_counted() {
        let mut n = node("LONELY", "LN");
        let acts = n.send_ip(a("NOWHR"), vec![9]);
        assert!(acts.is_empty());
        assert_eq!(n.stats().no_route, 1);
    }

    #[test]
    fn routes_expire_when_broadcasts_stop() {
        let now = SimTime::ZERO;
        let mut west = node("WGATE", "SEA");
        let mut mid = node("BBONE", "MID");
        let m1 = fire(&mut mid);
        relay(now, &m1, &mut west);
        assert!(west.routes().best(a("BBONE")).is_some());
        // Mid goes silent; west keeps broadcasting (and aging).
        for _ in 0..crate::routes::OBSOLESCENCE_INIT + 1 {
            let t = west.next_deadline().unwrap();
            west.poll(t);
        }
        assert!(west.routes().best(a("BBONE")).is_none());
    }
}
