//! Fleet deployment: servers on every island, one [`WorkloadClient`]
//! per client host, recorders shared island-wide.
//!
//! Placement contract (DESIGN.md §12): hosts `0..SERVER_HOSTS` of every
//! island are reserved for the echo, FTP, and DNS servers; clients
//! occupy the hosts after them. Client `(island, slot)` talks to the
//! servers of island `(island + 1 + slot mod (G-1)) mod G`, so with
//! more than one island *every* session leaves its radio island,
//! tunnels over the Ethernet (IPIP, §4.2), and lands in another shard —
//! the traffic pattern the sharded engine's equivalence contract is
//! exercised against.
//!
//! Recorders are shared per island, not per client: all of an island's
//! hosts live in one shard, so a single [`IslandStats`] cell is only
//! ever touched from inside that shard's step — the same ownership
//! discipline every host already obeys. The caller merges islands in
//! index order after the run, which keeps the rendered report a pure
//! function of the simulation.

use std::net::Ipv4Addr;
use std::rc::Rc;

use apps::dns::{decode_response, encode_query, DnsServer, DnsServerReport, DNS_PORT};
use apps::echo::{EchoReport, EchoServer};
use apps::ftp::{file_byte, FileServer, FileServerReport};
use apps::sockapp::{SockApp, SockCtx, SocketProgram};
use apps::Shared;
use gateway::scenario::MeshNet;
use gateway::world::{AppId, World};
use netstack::socket::{Readiness, SocketHandle};
use sim::{SimDuration, SimTime};

use crate::load::{
    build_schedule, ClientPlan, FleetSchedule, FleetSpec, Pacing, SessionClass, DNS_NAMES,
    FTP_FILES,
};
use crate::report::{fleet_header, fleet_row, FlowRecorder};

/// TCP echo port (RFC 862) on island host 0.
pub const ECHO_PORT: u16 = 7;
/// FTP-style file port on island host 1.
pub const FTP_PORT: u16 = 21;
/// Hosts reserved at the front of each island for servers.
pub const SERVER_HOSTS: usize = 3;
/// The client-side UDP port for DNS queries.
pub const CLIENT_UDP_PORT: u16 = 3053;

/// The file catalogue every island's FTP server carries: file `k` is
/// `100 << k` octets — tens of seconds of cross-island transfer at the
/// ~15 B/s a 1200 b/s two-hop path sustains.
pub fn catalogue(files: u32) -> Vec<(String, usize)> {
    (0..files)
        .map(|k| (format!("f{k}.dat"), 100usize << k))
        .collect()
}

/// Zone name `k` — the same names exist on every island's DNS server
/// (resolving to that island's own hosts), so a query works against any
/// target island.
pub(crate) fn dns_name(k: u32) -> String {
    format!("h{k:02}.ampr.org")
}

/// Per-island recorders, one per session class, shared by the island's
/// clients.
#[derive(Debug, Default)]
pub struct IslandStats {
    /// Indexed by [`SessionClass::index`].
    pub by_class: [FlowRecorder; 4],
}

/// One island's three servers, each read through [`World::app`].
pub struct ServerHandles {
    /// The echo server.
    pub echo: AppId<EchoServer>,
    /// The file server.
    pub ftp: AppId<FileServer>,
    /// The DNS server.
    pub dns: AppId<DnsServer>,
}

/// A deployed fleet: the plan it was built from, every client report
/// handle and every server's id, in deterministic (island, slot) order.
pub struct Fleet {
    /// The engine-independent plan.
    pub schedule: FleetSchedule,
    /// The spec the fleet was built from.
    pub spec: FleetSpec,
    /// Per-island client recorders.
    pub island_stats: Vec<Shared<IslandStats>>,
    /// Per-island servers.
    pub servers: Vec<ServerHandles>,
}

impl Fleet {
    /// Merges the per-island recorders class-by-class, islands in index
    /// order.
    pub fn merged(&self) -> [FlowRecorder; 4] {
        let mut out: [FlowRecorder; 4] = Default::default();
        for island in &self.island_stats {
            let island = island.borrow();
            for (dst, src) in out.iter_mut().zip(island.by_class.iter()) {
                dst.merge(src);
            }
        }
        out
    }

    /// The per-class fleet table over a run of `span` simulated time.
    pub fn class_table(&self, span: SimDuration) -> String {
        let merged = self.merged();
        let mut rows = vec![fleet_header()];
        for class in SessionClass::ALL {
            rows.push(fleet_row(class.label(), &merged[class.index()], span));
        }
        sim::stats::render_table(&rows)
    }

    /// Server-side totals in the shared app-row format, read from the
    /// `world` the fleet was deployed into.
    pub fn server_table(&self, world: &World) -> String {
        let mut echo = EchoReport::default();
        let mut ftp = FileServerReport::default();
        let mut dns = DnsServerReport::default();
        for s in &self.servers {
            let e = world.app(s.echo).report();
            echo.accepted += e.accepted;
            echo.bytes_echoed += e.bytes_echoed;
            let f = world.app(s.ftp).report();
            ftp.serves += f.serves;
            ftp.bytes_sent += f.bytes_sent;
            ftp.not_found += f.not_found;
            let d = world.app(s.dns).report();
            dns.queries += d.queries;
            dns.answered += d.answered;
            dns.nxdomain += d.nxdomain;
            dns.malformed += d.malformed;
        }
        crate::report::app_table(&[
            crate::report::echo_row("echo servers", &echo),
            crate::report::ftp_server_row("ftp servers", &ftp),
            crate::report::dns_server_row("dns servers", &dns),
        ])
    }

    /// Completed sessions across the fleet.
    pub fn completed(&self) -> u64 {
        self.merged().iter().map(|r| r.completed).sum()
    }

    /// Started sessions across the fleet.
    pub fn started(&self) -> u64 {
        self.merged().iter().map(|r| r.started).sum()
    }
}

/// Builds the schedule for `spec` and attaches servers and clients to
/// every island of the mesh.
///
/// # Panics
///
/// Panics if the islands are too small to hold the reserved server
/// hosts plus `spec.clients_per_island` clients.
pub fn deploy(m: &mut MeshNet, spec: &FleetSpec) -> Fleet {
    let islands = m.islands();
    let schedule = build_schedule(islands, spec);
    let hosts_per_island = m.island_hosts(0).len();
    assert!(
        hosts_per_island >= SERVER_HOSTS + spec.clients_per_island,
        "island has {hosts_per_island} hosts; need {SERVER_HOSTS} servers + {} clients",
        spec.clients_per_island
    );

    let files: Rc<[(String, usize)]> = catalogue(FTP_FILES).into();
    let file_refs: Vec<(&str, usize)> = files.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let names: Rc<[String]> = (0..DNS_NAMES).map(dns_name).collect();

    let mut servers = Vec::with_capacity(islands);
    for g in 0..islands {
        let zone: Vec<(&str, Ipv4Addr)> = names
            .iter()
            .enumerate()
            .map(|(k, n)| (n.as_str(), m.host_addr(g, k % hosts_per_island)))
            .collect();
        let (h0, h1, h2) = {
            let island = m.island_hosts(g);
            (island[0], island[1], island[2])
        };
        servers.push(ServerHandles {
            echo: m.world.add_app(h0, Box::new(EchoServer::new(ECHO_PORT))),
            ftp: m
                .world
                .add_app(h1, Box::new(FileServer::new(FTP_PORT, &file_refs))),
            dns: m.world.add_app(
                h2,
                Box::new(DnsServer::new(&zone, SimDuration::from_secs(300))),
            ),
        });
    }

    let island_stats: Vec<Shared<IslandStats>> = (0..islands)
        .map(|_| apps::shared(IslandStats::default()))
        .collect();
    for plan in &schedule.plans {
        let host = m.island_hosts(plan.island)[SERVER_HOSTS + plan.slot];
        let client = WorkloadClient::new(
            plan.clone(),
            spec,
            Targets {
                echo: m.host_addr(plan.target, 0),
                ftp: m.host_addr(plan.target, 1),
                dns: m.host_addr(plan.target, 2),
            },
            Rc::clone(&files),
            Rc::clone(&names),
            island_stats[plan.island].clone(),
        );
        m.world.add_app(host, Box::new(SockApp::from(client)));
    }

    Fleet {
        schedule,
        spec: spec.clone(),
        island_stats,
        servers,
    }
}

/// The server addresses one client talks to.
#[derive(Debug, Clone, Copy)]
pub struct Targets {
    /// Echo server (island host 0).
    pub echo: Ipv4Addr,
    /// File server (island host 1).
    pub ftp: Ipv4Addr,
    /// DNS server (island host 2).
    pub dns: Ipv4Addr,
}

enum State {
    /// Between sessions, next one due at `WorkloadClient::due`.
    Waiting,
    /// Stop-and-wait keystrokes against the echo server.
    Typist {
        sock: SocketHandle,
        started: bool,
        total: u32,
        sent: u32,
        echoed: u32,
        sent_at: SimTime,
    },
    /// One burst against the echo server, waiting for it back.
    Echo {
        sock: SocketHandle,
        size: u32,
        sent: u32,
        got: u32,
        t0: SimTime,
    },
    /// A `GET` in progress.
    Ftp {
        sock: SocketHandle,
        file: u32,
        sent_req: bool,
        header_done: bool,
        announced: usize,
        received: usize,
        bad: bool,
        t0: SimTime,
    },
    /// A query in flight on the shared UDP socket.
    Dns { id: u16, name: u32, t0: SimTime },
    /// Plan exhausted.
    Done,
}

enum Outcome {
    Completed(u64),
    Timeout,
    Error,
}

/// A long-lived socket program that works through one [`ClientPlan`]:
/// session state machines for all four classes, open- or closed-loop
/// pacing, a per-session deadline, and recording into the island's
/// shared [`IslandStats`] (plain counter updates — no allocation on the
/// recording path).
pub struct WorkloadClient {
    plan: ClientPlan,
    open_loop: bool,
    timeout: SimDuration,
    targets: Targets,
    files: Rc<[(String, usize)]>,
    names: Rc<[String]>,
    stats: Shared<IslandStats>,
    cursor: usize,
    due: SimTime,
    deadline: SimTime,
    state: State,
    udp: Option<SocketHandle>,
    next_id: u16,
    /// What the current session reads into, kept between reads and
    /// sessions: an FTP reply is parsed in it, echoes and bulk data are
    /// counted and dropped.
    buf: Vec<u8>,
}

impl WorkloadClient {
    /// Builds a client for one plan. `files` and `names` must match
    /// what [`deploy`] installed on the servers; every client of
    /// a fleet shares the one copy of each.
    pub fn new(
        plan: ClientPlan,
        spec: &FleetSpec,
        targets: Targets,
        files: Rc<[(String, usize)]>,
        names: Rc<[String]>,
        stats: Shared<IslandStats>,
    ) -> WorkloadClient {
        WorkloadClient {
            open_loop: matches!(spec.pacing, Pacing::Open(_)),
            timeout: spec.session_timeout,
            targets,
            files,
            names,
            stats,
            cursor: 0,
            due: SimTime::ZERO,
            deadline: SimTime::MAX,
            state: State::Waiting,
            udp: None,
            next_id: ((plan.island as u16) << 8) | plan.slot as u16,
            buf: Vec::new(),
            plan,
        }
    }

    fn class(&self) -> SessionClass {
        self.plan.sessions[self.cursor].class
    }

    /// Ends session `cursor` with the given outcome and arms the next
    /// one (closed loop: think starting now; open loop: the arrival
    /// clock was already advanced at session start).
    fn finish(&mut self, now: SimTime, outcome: Outcome) {
        {
            let mut stats = self.stats.borrow_mut();
            let r = &mut stats.by_class[self.class().index()];
            match outcome {
                Outcome::Completed(bytes) => r.complete(bytes),
                Outcome::Timeout => r.timeout(),
                Outcome::Error => r.error(),
            }
        }
        self.deadline = SimTime::MAX;
        self.cursor += 1;
        if self.cursor >= self.plan.sessions.len() {
            self.state = State::Done;
            return;
        }
        if !self.open_loop {
            self.due = now.saturating_add(self.plan.sessions[self.cursor].gap);
        }
        self.state = State::Waiting;
    }

    fn observe(&self, d: SimDuration) {
        self.stats.borrow_mut().by_class[self.class().index()]
            .latency
            .record(d);
    }

    fn start_session(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        let spec = self.plan.sessions[self.cursor];
        self.stats.borrow_mut().by_class[spec.class.index()].start();
        self.deadline = now.saturating_add(self.timeout);
        // Open loop: the next session's arrival instant is independent
        // of how this one goes — advance the clock now.
        if self.open_loop && self.cursor + 1 < self.plan.sessions.len() {
            self.due = self
                .due
                .saturating_add(self.plan.sessions[self.cursor + 1].gap);
        }
        match spec.class {
            SessionClass::Typist => match cx.connect(now, self.targets.echo, ECHO_PORT) {
                Ok(sock) => {
                    self.state = State::Typist {
                        sock,
                        started: false,
                        total: spec.size.max(1),
                        sent: 0,
                        echoed: 0,
                        sent_at: now,
                    }
                }
                Err(_) => self.finish(now, Outcome::Error),
            },
            SessionClass::Echo => match cx.connect(now, self.targets.echo, ECHO_PORT) {
                Ok(sock) => {
                    self.state = State::Echo {
                        sock,
                        size: spec.size.max(1),
                        sent: 0,
                        got: 0,
                        t0: now,
                    }
                }
                Err(_) => self.finish(now, Outcome::Error),
            },
            SessionClass::Ftp => match cx.connect(now, self.targets.ftp, FTP_PORT) {
                Ok(sock) => {
                    self.buf.clear();
                    self.state = State::Ftp {
                        sock,
                        file: spec.size % self.files.len() as u32,
                        sent_req: false,
                        header_done: false,
                        announced: 0,
                        received: 0,
                        bad: false,
                        t0: now,
                    }
                }
                Err(_) => self.finish(now, Outcome::Error),
            },
            SessionClass::Dns => {
                let Some(sock) = self.udp else {
                    self.finish(now, Outcome::Error);
                    return;
                };
                let name_idx = spec.size % self.names.len() as u32;
                let id = self.next_id;
                self.next_id = self.next_id.wrapping_add(1);
                let query = encode_query(id, &self.names[name_idx as usize]);
                match cx.host.stack_op(now, |st| {
                    st.sock_send_to(sock, self.targets.dns, DNS_PORT, query)
                }) {
                    Ok(()) => {
                        self.state = State::Dns {
                            id,
                            name: name_idx,
                            t0: now,
                        }
                    }
                    Err(_) => self.finish(now, Outcome::Error),
                }
            }
        }
    }

    /// Abandons the in-flight session (deadline or socket error).
    fn abort(&mut self, now: SimTime, outcome: Outcome, cx: &mut SockCtx<'_>) {
        match std::mem::replace(&mut self.state, State::Waiting) {
            State::Typist { sock, .. } | State::Echo { sock, .. } | State::Ftp { sock, .. } => {
                cx.close(now, sock);
            }
            State::Dns { .. } | State::Waiting | State::Done => {}
        }
        self.finish(now, outcome);
    }

    fn key_byte(n: u32) -> [u8; 1] {
        [b'a' + (n % 26) as u8]
    }

    fn echo_burst(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn on_udp_readable(&mut self, now: SimTime, h: SocketHandle, cx: &mut SockCtx<'_>) {
        while let Ok((response, bytes)) = cx.host.stack.sock_recv_from(h, |_, _, dgram| {
            (decode_response(dgram), dgram.len() as u64)
        }) {
            let Some((rid, rname, answer)) = response else {
                continue;
            };
            if let State::Dns { id, name, t0 } = self.state {
                if rid == id && rname == self.names[name as usize] {
                    self.observe(now.saturating_since(t0));
                    // NXDOMAIN still completes the session — the
                    // question was answered.
                    let _ = answer;
                    self.finish(now, Outcome::Completed(bytes));
                }
            }
        }
    }
}

impl SocketProgram for WorkloadClient {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.udp = cx.bind_udp(now, CLIENT_UDP_PORT).ok();
        self.due = now.saturating_add(self.plan.start);
        if self.plan.sessions.is_empty() {
            self.state = State::Done;
        }
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) == self.udp {
            if ready.readable() {
                self.on_udp_readable(now, h, cx);
            }
            return;
        }
        match &mut self.state {
            State::Typist {
                sock,
                started,
                total,
                sent,
                echoed,
                sent_at,
            } if *sock == h => {
                if ready.error() {
                    self.abort(now, Outcome::Error, cx);
                    return;
                }
                if !*started && ready.writable() {
                    *started = true;
                    let _ = cx
                        .host
                        .stack_op(now, |st| st.sock_send(now, h, &Self::key_byte(*sent)));
                    *sent += 1;
                    *sent_at = now;
                    return;
                }
                if ready.readable() {
                    let buf = &mut self.buf;
                    buf.clear();
                    let got = cx.host.stack_op(now, |st| st.sock_recv(now, h, buf));
                    if got.is_ok_and(|n| n > 0) && *sent > *echoed {
                        *echoed += 1;
                        let rtt = now.saturating_since(*sent_at);
                        let finished = *echoed >= *total;
                        let done_bytes = u64::from(*echoed);
                        if !finished {
                            let _ = cx
                                .host
                                .stack_op(now, |st| st.sock_send(now, h, &Self::key_byte(*sent)));
                            *sent += 1;
                            *sent_at = now;
                        }
                        self.observe(rtt);
                        if finished {
                            cx.close(now, h);
                            self.state = State::Waiting;
                            self.finish(now, Outcome::Completed(done_bytes));
                        }
                    }
                }
            }
            State::Echo {
                sock,
                size,
                sent,
                got,
                t0,
            } if *sock == h => {
                if ready.error() {
                    self.abort(now, Outcome::Error, cx);
                    return;
                }
                if ready.writable() && *sent < *size {
                    let cap = cx.host.stack.sock_send_capacity(h);
                    let n = cap.min((*size - *sent) as usize);
                    if n > 0 {
                        let burst = Self::echo_burst(n);
                        let accepted = cx
                            .host
                            .stack_op(now, |st| st.sock_send(now, h, &burst))
                            .unwrap_or(0);
                        *sent += accepted as u32;
                    }
                }
                if ready.readable() {
                    let buf = &mut self.buf;
                    buf.clear();
                    let n = cx.host.stack_op(now, |st| st.sock_recv(now, h, buf));
                    *got += n.unwrap_or(0) as u32;
                    if *got >= *size {
                        let d = now.saturating_since(*t0);
                        let bytes = u64::from(*size);
                        cx.close(now, h);
                        self.state = State::Waiting;
                        self.observe(d);
                        self.finish(now, Outcome::Completed(bytes));
                    }
                }
            }
            State::Ftp {
                sock,
                file,
                sent_req,
                header_done,
                announced,
                received,
                bad,
                t0,
            } if *sock == h => {
                if ready.error() {
                    self.abort(now, Outcome::Error, cx);
                    return;
                }
                let name = self.files[*file as usize].0.as_str();
                if !*sent_req && ready.writable() {
                    *sent_req = true;
                    let req = format!("GET {name}\n");
                    let _ = cx
                        .host
                        .stack_op(now, |st| st.sock_send(now, h, req.as_bytes()));
                    return;
                }
                if ready.readable() {
                    let buf = &mut self.buf;
                    let _ = cx.host.stack_op(now, |st| st.sock_recv(now, h, buf));
                    if !*header_done {
                        if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = self.buf.drain(..=pos).collect();
                            let line = String::from_utf8_lossy(&line).trim().to_string();
                            *header_done = true;
                            if let Some(size) = line.strip_prefix("OK ") {
                                *announced = size.parse().unwrap_or(0);
                            } else {
                                *bad = true;
                            }
                        }
                    }
                    if *header_done {
                        for b in self.buf.drain(..) {
                            if b != file_byte(name, *received) {
                                *bad = true;
                            }
                            *received += 1;
                        }
                    }
                    let complete = *header_done && *announced > 0 && *received >= *announced;
                    let failed = *bad;
                    let got = *received as u64;
                    if complete && !failed {
                        let d = now.saturating_since(*t0);
                        cx.close(now, h);
                        self.state = State::Waiting;
                        self.observe(d);
                        self.finish(now, Outcome::Completed(got));
                    } else if failed {
                        self.abort(now, Outcome::Error, cx);
                    }
                    return;
                }
                if ready.eof() {
                    // Server closed early (or we missed bytes): error.
                    self.abort(now, Outcome::Error, cx);
                }
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        match self.state {
            State::Waiting => {
                if self.cursor < self.plan.sessions.len() && now >= self.due {
                    self.start_session(now, cx);
                }
            }
            State::Done => {}
            _ => {
                if now >= self.deadline {
                    self.abort(now, Outcome::Timeout, cx);
                }
            }
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        match self.state {
            State::Waiting if self.cursor < self.plan.sessions.len() => Some(self.due),
            State::Done | State::Waiting => None,
            _ => Some(self.deadline),
        }
    }
}
