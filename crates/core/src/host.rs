//! A complete simulated machine: stack + drivers + CPU + queues.
//!
//! Three shapes of host appear in the paper, and all three are
//! configurations of this one type:
//!
//! * the **isolated PC** "connected to only a power outlet and a radio"
//!   (§2.3) — a radio interface only;
//! * ordinary **Ethernet hosts** on the department LAN and beyond;
//! * the **MicroVAX gateway** itself — both interfaces, IP forwarding,
//!   and the §4.3 access-control table.
//!
//! The receive path is CPU-gated to reproduce §3: every serial character
//! costs an interrupt, every packet costs protocol time, and IP inputs
//! wait in a bounded `ifqueue` until the simulated CPU gets to them.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use ax25::addr::Ax25Addr;
use ax25::frame::Frame;
use ether::{EtherFrame, MacAddr};
use filter::{FilterConfig, FilterEngine, FilterStats};
use netstack::icmp::IcmpMessage;
use netstack::stack::{IfaceConfig, IfaceId, NetStack, StackAction, StackConfig};
use sim::SimTime;

use crate::cpu::{Cpu, CpuConfig};
use crate::etherdrv::EtherDriver;
use crate::ifnet::{IfQueue, Links, IFQ_MAXLEN};
use crate::prdriver::{Discard, PacketRadioDriver, PrConfig, PrEvent, AX25_MTU};

/// Radio interface parameters for a host.
#[derive(Debug, Clone)]
pub struct RadioIfConfig {
    /// The station callsign.
    pub call: Ax25Addr,
    /// The interface's AMPRnet address.
    pub ip: Ipv4Addr,
    /// Subnet prefix length.
    pub prefix_len: u8,
}

/// Ethernet interface parameters for a host.
#[derive(Debug, Clone)]
pub struct EtherIfConfig {
    /// The NIC's MAC address.
    pub mac: MacAddr,
    /// The interface's IP address.
    pub ip: Ipv4Addr,
    /// Subnet prefix length.
    pub prefix_len: u8,
}

/// Full host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Hostname.
    pub name: String,
    /// Stack configuration (forwarding on for gateways).
    pub stack: StackConfig,
    /// CPU cost model.
    pub cpu: CpuConfig,
    /// Radio interface, if any.
    pub radio: Option<RadioIfConfig>,
    /// Ethernet interface, if any.
    pub ether: Option<EtherIfConfig>,
    /// The packet-filter engine (DESIGN.md §13), carrying the §4.3 gate,
    /// evaluated at the radio driver's `rint` and `output` hooks. Only a
    /// host with a radio may have one ([`Host::new`] panics otherwise).
    pub filter: Option<FilterConfig>,
}

impl HostConfig {
    /// A named host with no interfaces (add them via the fields).
    pub fn named(name: &str) -> HostConfig {
        HostConfig {
            name: name.to_string(),
            stack: StackConfig::default(),
            cpu: CpuConfig::default(),
            radio: None,
            ether: None,
            filter: None,
        }
    }
}

/// A simulated machine.
#[derive(Debug)]
pub struct Host {
    /// Hostname.
    pub name: String,
    /// The TCP/IP stack, sockets included (DESIGN.md §10): its verbs run
    /// through [`Host::stack_op`], its reads directly.
    pub stack: NetStack,
    /// The CPU cost model.
    pub cpu: Cpu,
    /// The drivers, each owning its output queue and its ARP clock; what
    /// both do alike goes through [`Links`], the rest names one.
    links: Links,
    /// The packet-filter engine, lent to the radio driver's hooks for
    /// each call that judges a packet; out of line, as only a gateway
    /// has one.
    filter: Option<Box<FilterEngine>>,
    /// The bounded IP input queue (CPU-gated).
    input_queue: IfQueue<(IfaceId, Vec<u8>)>,
    /// Non-IP frames diverted for user programs (§2.4).
    tty_queue: VecDeque<Frame>,
    /// The round of stack actions [`Host::handle_actions`] is routing
    /// (empty between calls; kept for its capacity).
    round: Vec<StackAction>,
    events: Vec<StackAction>,
    /// Powered off (E12's gateway kill): all link input is dropped and no
    /// deadlines are reported until the host comes back up.
    down: bool,
}

impl Host {
    /// Builds a host from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a filter and no radio: the
    /// filter's only hooks are the radio driver's, so it would judge
    /// nothing.
    pub fn new(cfg: HostConfig) -> Host {
        assert!(
            cfg.filter.is_none() || cfg.radio.is_some(),
            "host {}: a filter needs a radio interface to hook",
            cfg.name
        );
        let ifaces = usize::from(cfg.radio.is_some()) + usize::from(cfg.ether.is_some());
        let mut stack = NetStack::with_ifaces(cfg.stack, ifaces);
        let radio = cfg.radio.map(|r| {
            let iface = stack.add_iface(IfaceConfig {
                name: "pr0",
                addr: r.ip,
                prefix_len: r.prefix_len,
                mtu: AX25_MTU,
            });
            (iface, PacketRadioDriver::new(PrConfig::new(r.call), r.ip))
        });
        let ether = cfg.ether.map(|e| {
            let iface = stack.add_iface(IfaceConfig {
                name: "qe0",
                addr: e.ip,
                prefix_len: e.prefix_len,
                mtu: ether::MTU,
            });
            Box::new((iface, EtherDriver::new(e.mac, e.ip)))
        });
        Host {
            name: cfg.name,
            stack,
            cpu: Cpu::new(cfg.cpu),
            links: Links { radio, ether },
            filter: cfg.filter.map(|f| Box::new(FilterEngine::new(f))),
            input_queue: IfQueue::new(IFQ_MAXLEN),
            tty_queue: VecDeque::new(),
            round: Vec::new(),
            events: Vec::new(),
            down: false,
        }
    }

    /// The radio interface id, if the host has one.
    pub fn radio_iface(&self) -> Option<IfaceId> {
        self.links.radio.as_ref().map(|(i, _)| *i)
    }

    /// The Ethernet interface id, if the host has one.
    pub fn ether_iface(&self) -> Option<IfaceId> {
        self.links.ether.as_deref().map(|(i, _)| *i)
    }

    /// The packet radio driver, if present.
    pub fn pr_driver(&self) -> Option<&PacketRadioDriver> {
        self.links.radio.as_ref().map(|(_, d)| d)
    }

    /// Mutable packet radio driver (static ARP entries, etc.).
    pub fn pr_driver_mut(&mut self) -> Option<&mut PacketRadioDriver> {
        self.links.radio.as_mut().map(|(_, d)| d)
    }

    /// The Ethernet driver, if present.
    pub fn ether_driver(&self) -> Option<&EtherDriver> {
        self.links.ether.as_deref().map(|(_, d)| d)
    }

    /// The packet-filter engine, if one is installed, to read.
    ///
    /// A shared borrow of the host lends no way to change the filter, so
    /// no gate opens behind the world's back (DESIGN.md §6, run-call
    /// contract):
    ///
    /// ```compile_fail,E0596
    /// use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP, PC_IP};
    /// use netstack::icmp::IcmpMessage;
    ///
    /// let s = paper_topology(PaperConfig::default(), 42);
    /// let open = IcmpMessage::GateOpen {
    ///     amateur: PC_IP,
    ///     foreign: ETHER_HOST_IP,
    ///     ttl_secs: 60,
    ///     auth: None,
    /// };
    /// let gate = s.world.host(s.gw).filter_engine().expect("gateway filter");
    /// gate.on_gate_message(s.world.now, true, &open);
    /// ```
    pub fn filter_engine(&self) -> Option<&FilterEngine> {
        self.filter.as_deref()
    }

    /// Filter counters, if a filter is installed.
    pub fn filter_stats(&self) -> Option<FilterStats> {
        self.filter.as_deref().map(FilterEngine::stats)
    }

    /// The station callsign, if the host has a radio.
    pub fn callsign(&self) -> Option<Ax25Addr> {
        self.pr_driver().map(PacketRadioDriver::my_call)
    }

    /// The NIC MAC, if the host has Ethernet.
    pub fn mac(&self) -> Option<MacAddr> {
        self.ether_driver().map(EtherDriver::mac)
    }

    /// Input-queue depth (for E3's gateway-queue measurements).
    pub fn input_queue_len(&self) -> usize {
        self.input_queue.len()
    }

    /// Input-queue drop count: the sum of the links' `iqdrops`, which
    /// count every drop against the interface it came in on.
    pub fn input_queue_drops(&self) -> u64 {
        self.pr_driver().map_or(0, |d| d.ifnet.stats.iqdrops)
            + self.ether_driver().map_or(0, |d| d.ifnet.stats.iqdrops)
    }

    /// Input-queue high-water mark.
    pub fn input_queue_peak(&self) -> usize {
        self.input_queue.peak()
    }

    // --- Power -------------------------------------------------------------

    /// Powers the host down or back up (E12 kills a gateway mid-run this
    /// way). While down, link input is discarded, queued work is dropped,
    /// and [`Host::next_deadline`] reports nothing — the machine is dark.
    /// The TNC is a separately powered box and keeps running; only this
    /// host stops. Coming back up starts from cold queues — the radio
    /// driver's half-received KISS frame included, so whatever `FEND` the
    /// host hears first opens a frame rather than closing a stale one
    /// (in-flight state such as TCP connections and ARP caches is *not*
    /// cleared, matching a crash-resume of soft state held in the stack).
    /// The interface counters survive, and so does the input queue's
    /// high-water mark: a drop is counted once, before or after a cycle.
    pub fn set_down(&mut self, down: bool) {
        if down && !self.down {
            self.input_queue.clear();
            self.tty_queue.clear();
            self.events.clear();
            self.links.power_down();
        }
        self.down = down;
    }

    /// True while powered down.
    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    // --- Link input ---------------------------------------------------------

    /// Receives one line-paced run of serial characters from the TNC (the
    /// tty interrupt path): character `i` arrives at `t0 + i·char_time`.
    ///
    /// This is the host's one entry for serial bytes (DESIGN.md §6): the
    /// indexed engine delivers every serial line as such runs, and the
    /// reference stepper delivers the characters due at one instant as a
    /// run at `SimDuration::ZERO` pace. Every character is charged as its
    /// own interrupt, in segments, so each completed frame's packet
    /// processing starts exactly when its closing `FEND`'s interrupt
    /// retires — the same §3 accounting as one call per character at its
    /// own arrival instant. A paced run must end at its only frame
    /// boundary, because [`PacketRadioDriver::rint`] stamps every frame of
    /// a call with one instant: `serial::SerialLine::take_run` guarantees
    /// that by ending runs at closing `FEND` bytes (only a `FEND` can close
    /// a frame, and one that directly follows a `FEND` this host saw finds
    /// the deframer empty; [`Host::set_down`] keeps that true across a
    /// power cycle).
    ///
    /// Returns whether the run did anything beyond CPU accounting and
    /// driver counters: a frame passed the address test, an event went to
    /// the input or tty queue, or the driver transmitted. A run of
    /// frames for other stations returns `false` — nothing an app or the
    /// host's own deadline could observe has moved, exactly as for a
    /// mid-frame character.
    pub fn on_serial_run(
        &mut self,
        t0: SimTime,
        char_time: sim::SimDuration,
        bytes: &[u8],
    ) -> bool {
        if self.down || bytes.is_empty() {
            return false;
        }
        let n = bytes.len() as u64;
        let Some((iface, drv)) = self.links.radio.as_mut() else {
            // No radio driver: the tty still takes every interrupt.
            self.cpu.charge_chars_paced(t0, char_time, n);
            return false;
        };
        let iface = *iface;
        let (accepted, sent) = (drv.ifnet.stats.ipackets, drv.tty_outq().len());
        let cpu = &mut self.cpu;
        let input_queue = &mut self.input_queue;
        let tty_queue = &mut self.tty_queue;
        let mut charged = 0u64;
        let mut iqdrops = 0u64;
        drv.rint(
            t0 + char_time * (n - 1),
            bytes,
            self.stack.pool_mut(),
            self.filter.as_deref_mut(),
            |idx, event| {
                debug_assert!(
                    char_time.is_zero() || idx + 1 == bytes.len(),
                    "paced runs must end at frame boundaries"
                );
                let closed = idx as u64 + 1;
                let at = t0 + char_time * charged;
                let after_char = cpu.charge_chars_paced(at, char_time, closed - charged);
                charged = closed;
                match event {
                    PrEvent::IpPacket(ip_bytes) => {
                        let ready = cpu.charge_packet(after_char);
                        if !input_queue.push(ready, (iface, ip_bytes)) {
                            iqdrops += 1;
                        }
                    }
                    PrEvent::Divert(frame) => {
                        tty_queue.push_back(frame);
                    }
                }
            },
        );
        self.cpu
            .charge_chars_paced(t0 + char_time * charged, char_time, n - charged);
        drv.ifnet.stats.iqdrops += iqdrops;
        // Every event follows the address test; the output queue is
        // compared on its own so that anything the driver sends counts,
        // whatever prompted it.
        drv.ifnet.stats.ipackets != accepted || drv.tty_outq().len() != sent
    }

    /// Whether the radio driver, as it stands, would count and drop the
    /// frame behind `seal` without anything else happening
    /// ([`PacketRadioDriver::would_discard`]); `None` without a driver.
    #[inline]
    pub(crate) fn would_discard(&self, seal: serial::Seal) -> Option<Discard> {
        self.pr_driver()?.would_discard(seal)
    }

    /// [`on_serial_run`](Host::on_serial_run) for the `n` characters of a
    /// frame [`would_discard`](Host::would_discard) just turned away for
    /// `why`: the same CPU charge and driver counters, the characters
    /// unread. Like any run of frames for other stations, not a touch.
    pub(crate) fn on_discarded_run(
        &mut self,
        t0: SimTime,
        char_time: sim::SimDuration,
        n: usize,
        why: Discard,
    ) {
        if self.down {
            return;
        }
        self.cpu.charge_chars_paced(t0, char_time, n as u64);
        if let Some(drv) = self.pr_driver_mut() {
            drv.rint_discarded(n, why);
        }
    }

    /// Receives a frame from the Ethernet segment (DMA: packet cost only).
    /// An owned frame's payload goes up the stack as it is; a borrowed one
    /// is copied by the driver, into a buffer from the stack's pool.
    pub(crate) fn on_ether_frame(&mut self, now: SimTime, frame: Cow<'_, EtherFrame>) {
        if self.down {
            return;
        }
        let Some(&mut (iface, ref mut drv)) = self.links.ether.as_deref_mut() else {
            return;
        };
        let ip = drv.input(now, frame, self.stack.pool_mut());
        if let Some(ip_bytes) = ip {
            let ready = self.cpu.charge_packet(now);
            if !self.input_queue.push(ready, (iface, ip_bytes)) {
                drv.ifnet.stats.iqdrops += 1;
            }
        }
    }

    // --- Progress ------------------------------------------------------------

    /// The earliest time this host has self-scheduled work.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.down {
            return None;
        }
        let mut best: Option<SimTime> = None;
        let mut fold = |t: Option<SimTime>| {
            best = match (best, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        fold(self.stack.next_deadline());
        fold(self.input_queue.next_ready());
        fold(self.filter.as_deref().and_then(FilterEngine::next_deadline));
        // Finding 4 (ROADMAP): only the radio's ARP waits wake the host;
        // the Ethernet engine's wait for some other wake-up.
        fold(self.pr_driver().and_then(|d| d.arp().next_poll()));
        best
    }

    /// Advances the host to `now`: drains due input-queue items through
    /// the stack, fires stack timers, ages ARP.
    pub fn advance(&mut self, now: SimTime) {
        if self.down {
            return;
        }
        while let Some((iface, bytes)) = self.input_queue.pop_due(now) {
            self.stack.input_owned(now, iface, bytes);
            self.handle_actions(now);
        }
        self.stack.poll_queued(now);
        self.handle_actions(now);
        if let Some(f) = &mut self.filter {
            if f.next_deadline().is_some_and(|t| t <= now) {
                f.expire(now);
            }
        }
        self.links.age_arp(now, self.stack.pool_mut());
    }

    /// Hands pending Ethernet output over ([`EtherDriver::swap_outbox`]).
    pub fn swap_outbox(&mut self, empty: &mut Vec<EtherFrame>) {
        if let Some((_, drv)) = self.links.ether.as_deref_mut() {
            drv.swap_outbox(empty);
        }
    }

    /// The radio's tty output queue ([`PacketRadioDriver::tty_outq`]).
    pub(crate) fn tty_outq(&mut self) -> Option<&mut Vec<u8>> {
        self.pr_driver_mut().map(PacketRadioDriver::tty_outq)
    }

    /// Hands the application-visible stack events over by swapping them
    /// with `empty`, as [`Host::swap_outbox`] does the Ethernet output.
    /// With no event queued the swap is skipped: the caller's buffer (and
    /// its capacity) stays the caller's, for a host that has events.
    pub(crate) fn swap_events(&mut self, empty: &mut Vec<StackAction>) {
        debug_assert!(empty.is_empty());
        if !self.events.is_empty() {
            std::mem::swap(&mut self.events, empty);
        }
    }

    /// Takes diverted non-IP frames (the §2.4 tty queue).
    pub fn take_tty_frames(&mut self) -> Vec<Frame> {
        self.tty_queue.drain(..).collect()
    }

    // --- User-level operations ---------------------------------------------

    /// Handles every action the stack has queued: egress goes to drivers,
    /// forwards go back to the stack, app events accumulate for
    /// [`Host::swap_events`]. The queue is taken a round at a time by
    /// swapping buffers; what handling a round appends (a forward's egress
    /// or ICMP error) is the next round — the same first-in-first-out
    /// order as one queue appended to while it drains.
    fn handle_actions(&mut self, now: SimTime) {
        let mut round = std::mem::take(&mut self.round);
        while !self.stack.actions_empty() {
            self.stack.swap_actions(&mut round);
            for act in round.drain(..) {
                match act {
                    StackAction::Egress {
                        iface,
                        next_hop,
                        packet,
                    } => {
                        let (pool, filter) = (self.stack.pool_mut(), self.filter.as_deref_mut());
                        self.links
                            .output(iface, now, packet, next_hop, pool, filter);
                    }
                    StackAction::ForwardNeeded { packet, .. } => self.stack.forward(packet),
                    StackAction::GateControl {
                        from,
                        ingress,
                        message,
                    } => {
                        let from_amateur_side = self.links.is_radio(ingress);
                        if let Some(f) = &mut self.filter {
                            f.on_gate_message(now, from_amateur_side, &message);
                        }
                        // Keep it visible to tests/apps as well.
                        self.events.push(StackAction::GateControl {
                            from,
                            ingress,
                            message,
                        });
                    }
                    other => self.events.push(other),
                }
            }
        }
        self.round = round;
    }

    /// Runs one stack verb and routes the actions it provoked: egress
    /// reaches the drivers before this returns, as a BSD socket call's
    /// output reaches `if_output` inside the call (DESIGN.md §10). Every
    /// verb that can queue an action (`sock_connect`, `sock_send`,
    /// `sock_recv`, `sock_shutdown`, `sock_close`, `sock_send_to`,
    /// `sock_send_broadcast`, `ping`, `send_icmp`) runs through here;
    /// calls that queue nothing (`sock_listen`, `sock_accept`,
    /// `sock_recv_from`, `sock_poll`…) may go to [`Host::stack`] directly.
    pub fn stack_op<R>(&mut self, now: SimTime, op: impl FnOnce(&mut NetStack) -> R) -> R {
        let r = op(&mut self.stack);
        self.handle_actions(now);
        r
    }

    /// Sends a §4.3 gateway-control message toward `dst`: `stack_op` on
    /// `send_icmp`, kept only because `benchmarks/` names it (ROADMAP
    /// 2(a)); in-repo code calls `stack_op`.
    pub fn send_gate_message(&mut self, now: SimTime, dst: Ipv4Addr, msg: IcmpMessage) {
        self.stack_op(now, |st| st.send_icmp(dst, msg));
    }

    /// Sends a raw AX.25 frame from "user space" via the radio driver
    /// (the §2.4 path back down the tty).
    pub fn send_raw_ax25(&mut self, frame: &Frame) {
        if let Some(drv) = self.pr_driver_mut() {
            drv.send_raw_frame(frame);
        }
    }

    /// Injects an IP packet into the host's input path, as if it had
    /// arrived on the radio interface (on the Ethernet one, for a host
    /// with no radio). Used by user-space encapsulation services (the
    /// NET/ROM router) that receive IP datagrams through the tty divert
    /// queue. A full input queue charges the drop to that interface's
    /// driver.
    pub fn inject_ip(&mut self, now: SimTime, bytes: Vec<u8>) {
        if self.down {
            return;
        }
        let Some((iface, ifnet)) = self.links.first() else {
            return;
        };
        let ready = self.cpu.charge_packet(now);
        if !self.input_queue.push(ready, (iface, bytes)) {
            ifnet.stats.iqdrops += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax25::frame::Pid;
    use netstack::ip::{Ipv4Packet, Proto};
    use netstack::socket::SocketHandle;

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    fn radio_host(name: &str, call: &str, ip: [u8; 4]) -> Host {
        let mut cfg = HostConfig::named(name);
        cfg.radio = Some(RadioIfConfig {
            call: a(call),
            ip: Ipv4Addr::from(ip),
            prefix_len: 16,
        });
        Host::new(cfg)
    }

    /// Takes the AX.25 frames the host queued for its serial line.
    fn sent_frames(h: &mut Host) -> Vec<Frame> {
        let tty = h.tty_outq().expect("a radio host");
        let frames = kiss::decode_stream(tty)
            .iter()
            .map(|k| Frame::decode(&k.payload).unwrap())
            .collect();
        tty.clear();
        frames
    }

    #[test]
    fn serial_ip_frame_is_cpu_gated_through_the_ifqueue() {
        let mut h = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 28),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Icmp,
            netstack::icmp::IcmpMessage::EchoRequest {
                id: 1,
                seq: 1,
                payload: vec![0; 8],
            }
            .encode(),
        );
        let frame = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, ip.encode());
        let wire = kiss::encode(0, kiss::Command::Data, &frame.encode());
        let now = SimTime::ZERO;
        h.on_serial_run(now, sim::SimDuration::ZERO, &wire);
        assert_eq!(h.input_queue_len(), 1);
        // Not processed until the CPU is done.
        h.advance(now);
        assert_eq!(h.stack.stats().ip_in, 0);
        let ready = h.next_deadline().expect("queued work");
        assert!(ready > now, "CPU gating delays processing");
        h.advance(ready);
        assert_eq!(h.stack.stats().ip_in, 1);
        // It was an echo request: a reply is queued for the serial line.
        assert!(!sent_frames(&mut h).is_empty());
    }

    #[test]
    fn divert_frames_reach_the_tty_queue() {
        let mut h = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        let frame = Frame::ui(a("KB7DZ"), a("W1GOH"), Pid::Text, b"hello om".to_vec());
        let wire = kiss::encode(0, kiss::Command::Data, &frame.encode());
        h.on_serial_run(SimTime::ZERO, sim::SimDuration::ZERO, &wire);
        let frames = h.take_tty_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].info, b"hello om");
    }

    #[test]
    fn raw_ax25_send_goes_out_the_serial_port() {
        let mut h = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        let frame = Frame::ui(a("W1GOH"), a("KB7DZ"), Pid::Text, b"cq".to_vec());
        h.send_raw_ax25(&frame);
        assert_eq!(sent_frames(&mut h), [frame]);
    }

    #[test]
    fn ping_from_radio_host_emits_arp_first() {
        let mut h = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        h.stack_op(SimTime::ZERO, |st| {
            st.ping(Ipv4Addr::new(44, 24, 0, 28), 1, 1, 32)
        });
        let [f] = &sent_frames(&mut h)[..] else {
            panic!("one frame");
        };
        assert_eq!(f.pid, Some(Pid::Arp));
        assert_eq!(f.dest, Ax25Addr::broadcast());
    }

    #[test]
    #[should_panic(expected = "host gw: a filter needs a radio interface")]
    fn a_filter_on_a_radioless_host_panics() {
        let mut cfg = HostConfig::named("gw");
        cfg.stack.forwarding = true;
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(1),
            ip: Ipv4Addr::new(128, 95, 1, 100),
            prefix_len: 24,
        });
        cfg.filter = Some(FilterConfig::gateway());
        Host::new(cfg);
    }

    #[test]
    fn filter_engine_polices_transit_at_the_driver_hooks() {
        let mut cfg = HostConfig::named("gw");
        cfg.stack.forwarding = true;
        cfg.radio = Some(RadioIfConfig {
            call: a("N7AKR-1"),
            ip: Ipv4Addr::new(44, 24, 0, 28),
            prefix_len: 16,
        });
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(1),
            ip: Ipv4Addr::new(128, 95, 1, 100),
            prefix_len: 24,
        });
        cfg.filter = Some(FilterConfig::gateway());
        let mut gw = Host::new(cfg);
        let now = SimTime::ZERO;
        // Unsolicited foreign->amateur transit: the forward step lets it
        // through (the radio driver polices), the output hook denies it
        // before ARP — nothing transmitted, no resolution broadcast.
        let p = netstack::ip::Ipv4Packet::new(
            Ipv4Addr::new(128, 95, 1, 4),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Udp,
            vec![0; 8],
        );
        let eth_if = gw.ether_iface().unwrap();
        gw.stack.input_owned(now, eth_if, p.encode());
        gw.handle_actions(now);
        assert!(
            sent_frames(&mut gw).is_empty(),
            "denied: nothing transmitted"
        );
        let drv = gw.pr_driver().unwrap();
        assert_eq!(drv.stats().filter_drop_out, 1);
        assert_eq!(drv.arp().next_poll(), None, "no ARP for drops");
        let fs = gw.filter_stats().unwrap();
        assert_eq!(fs.gate_denied, 1);

        // An amateur-side datagram arriving over the radio opens the
        // gate (judged at rint), after which the same foreign packet
        // transits.
        let am = netstack::ip::Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 5),
            Ipv4Addr::new(128, 95, 1, 4),
            Proto::Udp,
            vec![0; 8],
        );
        let frame = Frame::ui(a("N7AKR-1"), a("KB7DZ"), ax25::frame::Pid::Ip, am.encode());
        let wire = kiss::encode(0, kiss::Command::Data, &frame.encode());
        gw.on_serial_run(now, sim::SimDuration::ZERO, &wire);
        let ready = gw.next_deadline().expect("queued work");
        gw.advance(ready);
        assert_eq!(gw.filter_stats().unwrap().gate_opened, 1);
        gw.stack.input_owned(ready, eth_if, p.encode());
        gw.handle_actions(ready);
        assert!(
            !sent_frames(&mut gw).is_empty(),
            "admitted transit reaches the radio (ARP or data)"
        );
    }

    #[test]
    fn actions_a_round_appends_wait_for_the_next_round() {
        // One round holds a forward that dies of TTL (its ICMP
        // time-exceeded is appended while the round is being handled) and
        // an egress queued behind it. First in, first out: the egress
        // leaves before the ICMP error, as when one queue was appended to
        // while it drained.
        use crate::hwaddr::Ax25Hw;
        let mut cfg = HostConfig::named("gw");
        cfg.stack.forwarding = true;
        cfg.radio = Some(RadioIfConfig {
            call: a("N7AKR-1"),
            ip: Ipv4Addr::new(44, 24, 0, 28),
            prefix_len: 16,
        });
        let mut gw = Host::new(cfg);
        let (sender, pinged) = (Ipv4Addr::new(44, 24, 0, 9), Ipv4Addr::new(44, 24, 0, 5));
        for (ip, call) in [(sender, "W1GOH"), (pinged, "KB7DZ")] {
            let hw = Ax25Hw::direct(a(call)).encode();
            gw.pr_driver_mut().unwrap().arp_mut().insert_static(ip, hw);
        }
        let mut dying =
            Ipv4Packet::new(sender, Ipv4Addr::new(44, 24, 0, 77), Proto::Udp, vec![7; 8]);
        dying.ttl = 1;
        let now = SimTime::ZERO;
        let radio = gw.radio_iface().unwrap();
        gw.stack.input_owned(now, radio, dying.into_wire());
        gw.stack.ping(pinged, 1, 1, 8);
        gw.handle_actions(now);
        let sent: Vec<(Ipv4Addr, Proto)> = sent_frames(&mut gw)
            .iter()
            .map(|frame| {
                let ip = Ipv4Packet::decode(&frame.info).unwrap();
                (ip.dst, ip.proto)
            })
            .collect();
        assert_eq!(sent, [(pinged, Proto::Icmp), (sender, Proto::Icmp)]);
        assert_eq!(gw.stack.stats().ttl_expired, 1);
        assert!(gw.stack.actions_empty());
    }

    #[test]
    fn a_connect_to_a_silent_address_gives_up_at_75_s() {
        let mut cfg = HostConfig::named("vax2");
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(9),
            ip: Ipv4Addr::new(128, 95, 1, 4),
            prefix_len: 24,
        });
        let mut h = Host::new(cfg);
        let start = SimTime::ZERO;
        let handle = h
            .stack_op(start, |st| {
                st.sock_connect(start, Ipv4Addr::new(128, 95, 1, 77), 23)
            })
            .unwrap();
        let SocketHandle::Stream(sock) = handle else {
            panic!("{handle:?} is no stream");
        };
        let limit = netstack::stack::CONNECT_TIMEOUT;
        let mut closed = None;
        let (mut out, mut events) = (Vec::new(), Vec::new());
        while let Some(t) = h.next_deadline().filter(|&t| t <= start + limit + limit) {
            h.advance(t);
            h.swap_outbox(&mut out);
            out.clear();
            h.swap_events(&mut events);
            if events.contains(&StackAction::TcpClosed { sock, reset: true }) {
                closed = Some(t);
                break;
            }
            events.clear();
        }
        assert_eq!(closed, Some(start + limit));
        assert!(h.stack.sock_poll(handle).error());
    }

    #[test]
    fn ether_host_shape() {
        let mut cfg = HostConfig::named("vax2");
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(9),
            ip: Ipv4Addr::new(128, 95, 1, 4),
            prefix_len: 24,
        });
        let mut h = Host::new(cfg);
        assert!(h.radio_iface().is_none());
        assert!(h.ether_iface().is_some());
        assert_eq!(h.mac(), Some(MacAddr::local(9)));
        // Pinging a neighbour emits an Ethernet ARP broadcast.
        h.stack_op(SimTime::ZERO, |st| {
            st.ping(Ipv4Addr::new(128, 95, 1, 1), 1, 1, 8)
        });
        let mut out = Vec::new();
        h.swap_outbox(&mut out);
        let [f] = &out[..] else {
            panic!("{out:?}");
        };
        assert_eq!(f.ethertype, ether::EtherType::Arp);
        assert_eq!(f.dst, ether::MacAddr::BROADCAST);
    }

    /// A gateway's two links each wait on a silent neighbour. Each ARP
    /// engine keeps its own clock, yet both look at their waits from the
    /// same `advance` calls, at the same once-a-second instants, and retry
    /// together every 5 s. Only the radio's waits wake the host: that is
    /// ROADMAP finding 4, which folding every link's poll into
    /// `next_deadline` mends, flipping the `None` below.
    #[test]
    fn both_links_poll_arp_on_one_beat_and_only_the_radio_wakes_the_host() {
        use crate::arp_engine::ArpEngine;
        use sim::SimDuration;
        let mut cfg = HostConfig::named("gw");
        cfg.stack.forwarding = true;
        cfg.radio = Some(RadioIfConfig {
            call: a("N7AKR-1"),
            ip: Ipv4Addr::new(44, 24, 0, 28),
            prefix_len: 16,
        });
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(1),
            ip: Ipv4Addr::new(128, 95, 1, 100),
            prefix_len: 24,
        });
        let mut gw = Host::new(cfg);
        fn engines(h: &Host) -> (&ArpEngine, &ArpEngine) {
            (
                h.pr_driver().unwrap().arp(),
                h.ether_driver().unwrap().arp(),
            )
        }
        let requests = |h: &Host| {
            let (radio, ether) = engines(h);
            (radio.stats().requests_sent, ether.stats().requests_sent)
        };
        let t0 = SimTime::ZERO;
        let second = SimDuration::from_secs(1);
        gw.stack_op(t0, |st| st.ping(Ipv4Addr::new(128, 95, 1, 77), 1, 1, 8));
        assert_eq!(engines(&gw).1.next_poll(), Some(t0 + second));
        assert_eq!(gw.next_deadline(), None, "finding 4");
        gw.stack_op(t0, |st| st.ping(Ipv4Addr::new(44, 24, 0, 77), 1, 1, 8));
        assert_eq!(requests(&gw), (1, 1));
        assert_eq!(gw.next_deadline(), Some(t0 + second));
        let mut retried = Vec::new();
        for half_seconds in 1..=24 {
            let t = t0 + SimDuration::from_millis(500 * half_seconds);
            let before = requests(&gw);
            gw.advance(t);
            let after = requests(&gw);
            if after != before {
                retried.push((t, after.0 - before.0, after.1 - before.1));
            }
            // Each engine looked last at the latest whole second.
            let looked = t0 + second * (half_seconds / 2);
            let (radio, ether) = engines(&gw);
            assert_eq!(radio.next_poll(), Some(looked + second), "radio at {t:?}");
            assert_eq!(ether.next_poll(), Some(looked + second), "ether at {t:?}");
            assert_eq!(gw.next_deadline(), radio.next_poll(), "at {t:?}");
        }
        let at = |s| t0 + SimDuration::from_secs(s);
        assert_eq!(retried, [(at(5), 1, 1), (at(10), 1, 1)]);
    }

    /// A KISS byte stream of the frames `kinds` names, one arm each; `noise`
    /// varies the junk and the escape-dense bodies.
    fn unpaced_stream(kinds: &[usize], noise: u64) -> Vec<u8> {
        use crate::hwaddr::Ax25Hw;
        use netstack::arp::{hw_type, ArpPacket};
        let (me, gw) = (Ipv4Addr::new(44, 24, 0, 5), Ipv4Addr::new(44, 24, 0, 28));
        let ip = |payload: Vec<u8>| Ipv4Packet::new(gw, me, Proto::Udp, payload).encode();
        let ui = |to: &str, pid, info| Frame::ui(a(to), a("N7AKR-1"), pid, info).encode();
        let kiss = |ax25: &[u8]| kiss::encode(0, kiss::Command::Data, ax25);
        let mut rng = sim::SimRng::seed_from(noise);
        let mut out = Vec::new();
        for &kind in kinds {
            match kind {
                0 => {
                    let echo = netstack::icmp::IcmpMessage::EchoRequest {
                        id: 1,
                        seq: rng.below(100) as u16,
                        payload: vec![7; 16],
                    };
                    let ping = Ipv4Packet::new(gw, me, Proto::Icmp, echo.encode()).encode();
                    out.extend(kiss(&ui("KB7DZ", Pid::Ip, ping)));
                }
                1 => out.extend(kiss(&ui("W1GOH", Pid::Ip, ip(vec![7; 24])))),
                2 => out.extend(kiss(&ui("QST", Pid::Ip, ip(vec![7; 8])))),
                3 => {
                    let relayed = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, ip(vec![7; 8]));
                    out.extend(kiss(&relayed.via(&[a("RELAY")]).encode()));
                }
                4 => {
                    let gw_hw = Ax25Hw::direct(a("N7AKR-1")).encode();
                    let req = ArpPacket::request(hw_type::AX25, gw_hw, gw, me);
                    out.extend(kiss(&ui("QST", Pid::Arp, req.encode())));
                }
                5 => out.extend((0..1 + rng.below(40)).map(|_| rng.below(256) as u8)),
                6 => out.extend(std::iter::repeat_n(kiss::FEND, 2 + rng.below(5) as usize)),
                7 => {
                    let specials = [kiss::FEND, kiss::FESC, kiss::TFEND, kiss::TFESC];
                    let body = (0..40).map(|_| specials[rng.below(4) as usize]).collect();
                    let pid = if rng.below(2) == 0 {
                        Pid::Ip
                    } else {
                        Pid::Text
                    };
                    let info = if pid == Pid::Ip { ip(body) } else { body };
                    out.extend(kiss(&ui("KB7DZ", pid, info)));
                }
                _ => out.extend(kiss(&[0x45; kiss::Deframer::DEFAULT_MAX_LEN + 1])),
            }
        }
        out
    }

    proptest::proptest! {
        /// Frames arriving at one instant, as the reference stepper hands
        /// them over, leave the host in one state whether they come as one
        /// zero-pace run, one character at a time, or cut anywhere: the
        /// run charges each frame's characters before its packet, as
        /// per-character delivery does, whatever else shares the run.
        #[test]
        fn an_unpaced_run_is_per_character_delivery_however_it_is_cut(
            kinds in proptest::collection::vec(0usize..9, 1..10),
            noise in proptest::prelude::any::<u64>(),
            cuts in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..8),
        ) {
            let stream = unpaced_stream(&kinds, noise);
            let now = SimTime::from_millis(5);
            let zero = sim::SimDuration::ZERO;
            let mut whole = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
            whole.on_serial_run(now, zero, &stream);
            let mut per_char = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
            for b in stream.chunks(1) {
                per_char.on_serial_run(now, zero, b);
            }
            let mut chunked = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
            bounds.push(stream.len());
            bounds.sort_unstable();
            let mut from = 0;
            for to in bounds {
                chunked.on_serial_run(now, zero, &stream[from..to]);
                from = to;
            }
            let delivered = |h: &mut Host| {
                let drv = h.pr_driver().unwrap();
                format!(
                    "{:?} {:?} {:?} {:?} {} {:?} {:?}",
                    drv.stats(),
                    drv.deframer_stats(),
                    h.cpu.stats(),
                    h.cpu.busy_until(),
                    h.input_queue_len(),
                    h.next_deadline(),
                    h.tty_outq(),
                )
            };
            let settled = |h: &mut Host| {
                for _ in 0..100 {
                    let Some(t) = h.next_deadline() else { break };
                    h.advance(t);
                }
                let mut events = Vec::new();
                h.swap_events(&mut events);
                format!("{:?} {:?} {:?}", h.stack.stats(), events, h.tty_outq())
            };
            let want = delivered(&mut per_char);
            proptest::prop_assert_eq!(delivered(&mut whole), want.clone(), "one run: {:?}", kinds);
            proptest::prop_assert_eq!(delivered(&mut chunked), want, "cut at {:?}: {:?}", cuts, kinds);
            let want = settled(&mut per_char);
            proptest::prop_assert_eq!(settled(&mut whole), want.clone(), "one run: {:?}", kinds);
            proptest::prop_assert_eq!(settled(&mut chunked), want, "cut at {:?}: {:?}", cuts, kinds);
        }
    }

    #[test]
    fn on_serial_run_matches_per_character_delivery() {
        // A paced run (one call) against one-character, zero-pace runs at
        // each arrival instant: same queue state, same CPU accounting.
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 28),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Udp,
            vec![3; 24],
        );
        let frame = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, ip.encode());
        let wire = kiss::encode(0, kiss::Command::Data, &frame.encode());
        let t0 = SimTime::from_millis(7);
        let ct = sim::SimDuration::from_micros(1042); // 9600 baud
        let mut bulk = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        bulk.on_serial_run(t0, ct, &wire);
        let mut scalar = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        for (i, &b) in wire.iter().enumerate() {
            scalar.on_serial_run(t0 + ct * (i as u64), sim::SimDuration::ZERO, &[b]);
        }
        assert_eq!(bulk.cpu.busy_until(), scalar.cpu.busy_until());
        assert_eq!(bulk.cpu.stats().busy_ns, scalar.cpu.stats().busy_ns);
        assert_eq!(
            bulk.cpu.stats().char_interrupts,
            scalar.cpu.stats().char_interrupts
        );
        assert_eq!(bulk.input_queue_len(), scalar.input_queue_len());
        assert_eq!(bulk.next_deadline(), scalar.next_deadline());
        let s = bulk.pr_driver().unwrap().stats();
        let r = scalar.pr_driver().unwrap().stats();
        assert_eq!(s.rint_chars, r.rint_chars);
        assert_eq!(s.ip_in, r.ip_in);
    }

    #[test]
    fn on_serial_run_reports_whether_anything_observable_happened() {
        use crate::hwaddr::Ax25Hw;
        use netstack::arp::{hw_type, ArpPacket};
        let me = Ipv4Addr::new(44, 24, 0, 5);
        let peer = Ipv4Addr::new(44, 24, 0, 28);
        let ct = sim::SimDuration::from_micros(1042);
        let mut h = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        let mut t = SimTime::ZERO;
        // One KISS data frame carrying `ax25`, a second after the last.
        let mut run = |h: &mut Host, ax25: &[u8]| {
            t += sim::SimDuration::from_secs(1);
            h.on_serial_run(t, ct, &kiss::encode(0, kiss::Command::Data, ax25))
        };
        let ip = Ipv4Packet::new(peer, me, Proto::Udp, vec![3; 24]).encode();
        // §3's common case: somebody else's traffic costs its interrupts
        // and a counter, and wakes nobody.
        let chars = h.cpu.stats().char_interrupts;
        let other = Frame::ui(a("W1GOH"), a("N7AKR-1"), Pid::Ip, ip.clone());
        assert!(!run(&mut h, &other.encode()));
        assert_eq!(h.pr_driver().unwrap().stats().not_for_us, 1);
        assert!(h.cpu.stats().char_interrupts > chars);
        assert_eq!(h.next_deadline(), None);
        // Still being digipeated, and undecodable: equally quiet.
        let relayed = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, ip.clone()).via(&[a("RELAY")]);
        assert!(!run(&mut h, &relayed.encode()));
        let junk = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, vec![]).encode();
        assert!(!run(&mut h, &junk[..9]));
        assert_eq!(h.pr_driver().unwrap().stats().bad_frames, 1);
        // An IP frame for us lands on the input queue.
        assert!(run(
            &mut h,
            &Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, ip).encode()
        ));
        assert_eq!(h.input_queue_len(), 1);
        // An ARP request for our address draws a reply.
        let asker = Ax25Hw::direct(a("N7AKR-1")).encode();
        let req = ArpPacket::request(hw_type::AX25, asker, peer, me).encode();
        let req = Frame::ui(Ax25Addr::broadcast(), a("N7AKR-1"), Pid::Arp, req);
        assert!(run(&mut h, &req.encode()));
        assert!(matches!(
            sent_frames(&mut h)[..],
            [Frame {
                pid: Some(Pid::Arp),
                ..
            }]
        ));
        // A non-IP frame for us is diverted to the tty queue.
        let text = Frame::ui(a("KB7DZ"), a("W1GOH"), Pid::Text, b"hello om".to_vec());
        assert!(run(&mut h, &text.encode()));
        assert_eq!(h.take_tty_frames().len(), 1);
        // A host with no radio driver only ever pays the interrupts.
        let mut bare = Host::new(HostConfig::named("bare"));
        assert!(!run(&mut bare, &text.encode()));
    }

    /// Judge once: for every frame the address test turns away, taking it
    /// as its seal leaves the host exactly where reading it would — CPU,
    /// driver, deframer and interface counters — and every other frame,
    /// or a deframer holding half a frame, is declined.
    #[test]
    fn a_discarded_run_costs_what_reading_it_costs() {
        use crate::prdriver::{seal, Discard};
        use ax25::frame::FrameHeader;
        let ct = sim::SimDuration::from_micros(1042);
        let ip = vec![0x45; 40];
        let ui = |to: &str| Frame::ui(a(to), a("N7AKR-1"), Pid::Ip, ip.clone());
        let junk = ui("KB7DZ").encode()[..10].to_vec();
        let frames = [
            (ui("W1GOH").encode(), Some(Discard::NotForUs)),
            (ui("KB7DZ").encode(), None),
            (
                ui("KB7DZ").via(&[a("RELAY")]).encode(),
                Some(Discard::NotRepeated),
            ),
            (junk, Some(Discard::Bad)),
            (ui("QST").encode(), None),
            (ui("CHAT").encode(), Some(Discard::NotForUs)),
        ];
        let state = |h: &Host| {
            let drv = h.pr_driver().unwrap();
            format!(
                "{:?} {:?} {:?} {:?} {:?} {} {:?}",
                h.cpu.stats(),
                h.cpu.busy_until(),
                drv.stats(),
                drv.deframer_stats(),
                drv.ifnet.stats,
                h.input_queue_len(),
                h.next_deadline(),
            )
        };
        let mut read = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        let mut sealed = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        let mut t = SimTime::ZERO;
        let mut deliver = |read: &mut Host, sealed: &mut Host, ax25: &[u8]| {
            t += sim::SimDuration::from_millis(300);
            let wire = kiss::encode(0, kiss::Command::Data, ax25);
            let verdict = sealed.would_discard(seal(FrameHeader::peek(ax25).ok().as_ref()));
            match verdict {
                Some(why) => sealed.on_discarded_run(t, ct, wire.len(), why),
                None => assert!(sealed.on_serial_run(t, ct, &wire)),
            }
            assert_eq!(read.on_serial_run(t, ct, &wire), verdict.is_none());
            assert_eq!(state(sealed), state(read));
            verdict
        };
        for (ax25, expect) in &frames {
            assert_eq!(deliver(&mut read, &mut sealed, ax25), *expect);
        }
        let s = sealed.pr_driver().unwrap().stats();
        assert_eq!((s.not_for_us, s.not_repeated, s.bad_frames), (2, 1, 1));
        // The verdict is the driver's as configured at delivery.
        for h in [&mut read, &mut sealed] {
            h.pr_driver_mut().unwrap().add_broadcast_addr(a("CHAT"));
        }
        assert_eq!(deliver(&mut read, &mut sealed, &frames[5].0), None);
        // Mid-frame nothing is discarded unseen: the bytes close the half.
        let other = kiss::encode(0, kiss::Command::Data, &frames[0].0);
        let not_for_us = seal(FrameHeader::peek(&frames[0].0).ok().as_ref());
        t += sim::SimDuration::from_secs(1);
        sealed.on_serial_run(t, ct, &other[..20]);
        assert_eq!(sealed.would_discard(not_for_us), None);
        sealed.on_serial_run(t + ct * 20, ct, &other[20..]);
        assert_eq!(sealed.would_discard(not_for_us), Some(Discard::NotForUs));
        // A dark host takes nothing either way.
        sealed.set_down(true);
        let before = state(&sealed);
        sealed.on_discarded_run(t, ct, other.len(), Discard::NotForUs);
        assert_eq!(state(&sealed), before);
        // No driver, no verdict.
        let bare = Host::new(HostConfig::named("bare"));
        assert_eq!(bare.would_discard(not_for_us), None);
    }

    #[test]
    fn powering_down_drops_the_half_received_frame() {
        // Down mid-frame, up again before the next frame's leading FEND:
        // that FEND must open a frame, not close the stale half.
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 28),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Udp,
            vec![3; 24],
        );
        let frame = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, ip.encode());
        let wire = kiss::encode(0, kiss::Command::Data, &frame.encode());
        let ct = sim::SimDuration::from_micros(1042);
        let mut h = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        h.on_serial_run(SimTime::ZERO, ct, &wire[..10]);
        h.set_down(true);
        h.set_down(false);
        assert!(h.on_serial_run(SimTime::from_secs(1), ct, &wire));
        let s = h.pr_driver().unwrap().stats();
        assert_eq!((s.frames_in, s.bad_frames, s.ip_in), (1, 0, 1));
    }

    /// A radio host sent 60 datagrams and never advanced: its input
    /// queue (IFQ_MAXLEN=50) filled and then dropped 10.
    fn overflowed_radio_host() -> Host {
        let mut h = radio_host("pc", "KB7DZ", [44, 24, 0, 5]);
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 28),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Udp,
            vec![0; 8],
        );
        let frame = Frame::ui(a("KB7DZ"), a("N7AKR-1"), Pid::Ip, ip.encode());
        let wire = kiss::encode(0, kiss::Command::Data, &frame.encode());
        for _ in 0..60 {
            h.on_serial_run(SimTime::ZERO, sim::SimDuration::ZERO, &wire);
        }
        h
    }

    #[test]
    fn input_queue_overflow_drops() {
        let h = overflowed_radio_host();
        assert_eq!(h.input_queue_len(), IFQ_MAXLEN);
        assert_eq!(h.input_queue_drops(), 10);
        assert_eq!(h.pr_driver().unwrap().ifnet.stats.iqdrops, 10);
    }

    /// A power cycle empties the input queue and forgets neither of its
    /// figures: the drops are the radio driver's `iqdrops`, which the
    /// cycle keeps, and the high-water mark stays where it was.
    #[test]
    fn a_power_cycle_keeps_the_input_queue_drops_and_peak() {
        let mut h = overflowed_radio_host();
        h.set_down(true);
        h.set_down(false);
        assert_eq!(h.input_queue_len(), 0);
        assert_eq!(h.input_queue_peak(), IFQ_MAXLEN);
        assert_eq!(h.input_queue_drops(), 10);
        assert_eq!(h.pr_driver().unwrap().ifnet.stats.iqdrops, 10);
    }

    #[test]
    fn injected_overflow_is_charged_to_the_ether_driver() {
        // An Ethernet-only host (E17's and gw_flood's attacker) whose slow
        // CPU is still busy with the first datagram when the rest arrive.
        let mut cfg = HostConfig::named("attacker");
        cfg.cpu = CpuConfig::default();
        cfg.ether = Some(EtherIfConfig {
            mac: MacAddr::local(9),
            ip: Ipv4Addr::new(128, 95, 1, 66),
            prefix_len: 24,
        });
        let mut h = Host::new(cfg);
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(128, 95, 1, 66),
            Ipv4Addr::new(44, 24, 0, 5),
            Proto::Udp,
            vec![0; 8],
        );
        for _ in 0..=IFQ_MAXLEN {
            h.inject_ip(SimTime::ZERO, ip.encode());
        }
        assert_eq!(h.input_queue_drops(), 1);
        assert_eq!(h.ether_driver().unwrap().ifnet.stats.iqdrops, 1);
    }
}
