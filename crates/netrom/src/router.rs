//! The NET/ROM router as a testbed application on a gateway host.
//!
//! Exactly like the §2.4 application gateway, the router is a *user
//! program*: the kernel driver diverts PID-`0xCF` frames to the tty
//! queue, the router reads them, and IP datagrams that arrive for this
//! node are injected back into the host's IP input queue — "to pass IP
//! traffic between gateways" over the NET/ROM backbone.
//!
//! Note: a host's tty divert queue has a single reader; do not install
//! both a [`NetRomRouter`] and another divert consumer (BBS, application
//! gateway) on the same host.

use ax25::addr::Ax25Addr;
use ax25::frame::Pid;
use gateway::world::App;
use gateway::Host;
use sim::SimTime;

use crate::node::{NetRomConfig, NetRomNode, NodeAction, NodeStats};

/// The router application. Its owner reaches it through the world
/// (`World::app`, `World::app_mut`), like any app.
pub struct NetRomRouter {
    node: NetRomNode,
    /// Outbound IP datagrams, `(destination node, packet bytes)`, shipped
    /// on the next poll.
    sendq: Vec<(Ax25Addr, Vec<u8>)>,
}

impl NetRomRouter {
    /// Creates a router for a host whose radio callsign is
    /// `cfg.callsign`.
    pub fn new(cfg: NetRomConfig) -> NetRomRouter {
        NetRomRouter {
            node: NetRomNode::new(cfg),
            sendq: Vec::new(),
        }
    }

    /// Queues the IP datagram `ip` for NET/ROM node `dest`; the router
    /// ships it over the backbone on its next poll.
    pub fn send_ip(&mut self, dest: Ax25Addr, ip: Vec<u8>) {
        self.sendq.push((dest, ip));
    }

    /// Node statistics.
    pub fn stats(&self) -> NodeStats {
        self.node.stats()
    }

    /// Currently reachable NET/ROM destinations (as display strings).
    pub fn destinations(&self) -> Vec<String> {
        let dests = self.node.routes().destinations();
        dests.iter().map(|d| d.to_string()).collect()
    }

    fn run_actions(&mut self, now: SimTime, actions: Vec<NodeAction>, host: &mut Host) {
        for act in actions {
            match act {
                NodeAction::SendFrame(frame) => host.send_raw_ax25(&frame),
                NodeAction::DeliverIp(bytes) => host.inject_ip(now, bytes),
                NodeAction::DeliverTransport { .. } => {
                    // No circuit layer in this reproduction; drop.
                }
            }
        }
    }
}

impl App for NetRomRouter {
    fn on_start(&mut self, _now: SimTime, host: &mut Host) {
        // The driver must accept the NODES broadcast destination, or the
        // routing advertisements never reach user space.
        if let Some(drv) = host.pr_driver_mut() {
            drv.add_broadcast_addr(crate::nodes_addr());
        }
    }

    fn poll(&mut self, now: SimTime, host: &mut Host) {
        // Read the tty divert queue (PID 0xCF frames).
        for frame in host.take_tty_frames() {
            if frame.pid == Some(Pid::NetRom) {
                let actions = self.node.on_frame(now, &frame);
                self.run_actions(now, actions, host);
            }
        }
        // Outbound requests from the owner.
        for (dest, bytes) in std::mem::take(&mut self.sendq) {
            let actions = self.node.send_ip(dest, bytes);
            self.run_actions(now, actions, host);
        }
        // Periodic broadcasts.
        let actions = self.node.poll(now);
        self.run_actions(now, actions, host);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.node.next_deadline()
    }
}
