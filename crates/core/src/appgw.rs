//! §2.4's future work: the application-layer gateway.
//!
//! *"Packets that are received from the TNC that are not of type IP can
//! be placed on the input queue for the appropriate tty line. A user
//! program can then read from this line, and maintain the state required
//! to keep track of AX.25 level … connections. Data can then be passed to
//! a pseudo terminal to support remote login…"*
//!
//! [`AppGateway`] is that user program: it reads the driver's tty divert
//! queue, runs one AX.25 connected-mode state machine per remote station,
//! and bridges each session onto a TCP connection to a configured
//! service (a telnet-style login host on the Internet side). Non-IP
//! terminal users thus reach IP services without running IP — the
//! paper's answer to "isolating themselves from the users that can't run
//! IP" (§1).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ax25::addr::Ax25Addr;
use ax25::conn::{ConnEvent, Connection};
use netstack::stack::{SockId, StackAction};
use sim::SimTime;

use crate::host::Host;
use crate::world::App;

/// Statistics for the application gateway.
#[derive(Debug, Clone, Default)]
pub struct AppGwReport {
    /// AX.25 sessions accepted.
    pub sessions_accepted: u64,
    /// Octets bridged radio→TCP.
    pub bytes_to_tcp: u64,
    /// Octets bridged TCP→radio.
    pub bytes_to_radio: u64,
    /// Sessions that ended.
    pub sessions_closed: u64,
}

struct Session {
    conn: Connection,
    sock: Option<SockId>,
    sock_connected: bool,
    /// Radio data buffered until the TCP side connects.
    pending_to_tcp: Vec<u8>,
}

/// The §2.4 application-layer gateway, run as an [`App`] on the gateway
/// host.
pub struct AppGateway {
    my_call: Ax25Addr,
    /// Where bridged sessions connect (e.g. the Ethernet host's telnet).
    target: (Ipv4Addr, u16),
    sessions: BTreeMap<Ax25Addr, Session>,
    /// What the bridge has done, read through `World::app`.
    pub report: AppGwReport,
}

impl AppGateway {
    /// Creates a gateway bridging AX.25 sessions to `target`.
    pub fn new(my_call: Ax25Addr, target: (Ipv4Addr, u16)) -> AppGateway {
        AppGateway {
            my_call,
            target,
            sessions: BTreeMap::new(),
            report: AppGwReport::default(),
        }
    }

    fn drive_conn_events(
        &mut self,
        now: SimTime,
        peer: Ax25Addr,
        events: Vec<ConnEvent>,
        host: &mut Host,
    ) {
        for ev in events {
            match ev {
                ConnEvent::SendFrame(frame) => {
                    host.send_raw_ax25(&frame);
                }
                ConnEvent::Established => {
                    self.report.sessions_accepted += 1;
                    // Open the TCP leg.
                    if let Some(session) = self.sessions.get_mut(&peer) {
                        if session.sock.is_none() {
                            let (dst, port) = self.target;
                            if let Ok(sock) =
                                host.stack_op(now, |st| st.tcp_connect(now, dst, port))
                            {
                                session.sock = Some(sock);
                            }
                        }
                    }
                }
                ConnEvent::Data(data) => {
                    if let Some(session) = self.sessions.get_mut(&peer) {
                        if session.sock_connected {
                            if let Some(sock) = session.sock {
                                self.report.bytes_to_tcp += data.len() as u64;
                                host.stack_op(now, |st| st.tcp_send(now, sock, &data));
                            }
                        } else {
                            session.pending_to_tcp.extend_from_slice(&data);
                        }
                    }
                }
                ConnEvent::Released(_) => {
                    self.report.sessions_closed += 1;
                    if let Some(session) = self.sessions.remove(&peer) {
                        if let Some(sock) = session.sock {
                            host.stack_op(now, |st| st.tcp_close(now, sock));
                        }
                    }
                }
            }
        }
    }

    fn session_for_sock(&mut self, sock: SockId) -> Option<Ax25Addr> {
        self.sessions
            .iter()
            .find(|(_, s)| s.sock == Some(sock))
            .map(|(peer, _)| *peer)
    }
}

impl App for AppGateway {
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        // Read the tty divert queue: the §2.4 user program's read loop.
        for frame in host.take_tty_frames() {
            let peer = frame.source;
            if !self.sessions.contains_key(&peer) {
                self.sessions.insert(
                    peer,
                    Session {
                        conn: Connection::new(self.my_call, peer),
                        sock: None,
                        sock_connected: false,
                        pending_to_tcp: Vec::new(),
                    },
                );
            }
            let events = self
                .sessions
                .get_mut(&peer)
                .expect("just inserted")
                .conn
                .on_frame(now, &frame);
            self.drive_conn_events(now, peer, events, host);
        }
        // Fire AX.25 timers, in callsign order.
        let due: Vec<Ax25Addr> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.conn.next_deadline().is_some_and(|t| t <= now))
            .map(|(p, _)| *p)
            .collect();
        for peer in due {
            let events = self
                .sessions
                .get_mut(&peer)
                .expect("present")
                .conn
                .on_timer(now);
            self.drive_conn_events(now, peer, events, host);
        }
    }

    fn on_event(&mut self, now: SimTime, event: &StackAction, host: &mut Host) {
        match event {
            StackAction::TcpConnected(sock) => {
                if let Some(peer) = self.session_for_sock(*sock) {
                    let session = self.sessions.get_mut(&peer).expect("present");
                    session.sock_connected = true;
                    let pending = std::mem::take(&mut session.pending_to_tcp);
                    if !pending.is_empty() {
                        self.report.bytes_to_tcp += pending.len() as u64;
                        host.stack_op(now, |st| st.tcp_send(now, *sock, &pending));
                    }
                }
            }
            StackAction::TcpReadable(sock) => {
                if let Some(peer) = self.session_for_sock(*sock) {
                    let mut data = Vec::new();
                    host.stack_op(now, |st| st.tcp_recv(now, *sock, &mut data));
                    if !data.is_empty() {
                        self.report.bytes_to_radio += data.len() as u64;
                        let session = self.sessions.get_mut(&peer).expect("present");
                        let events = session.conn.send(now, &data);
                        self.drive_conn_events(now, peer, events, host);
                    }
                }
            }
            StackAction::TcpPeerClosed(sock) | StackAction::TcpClosed { sock, .. } => {
                if let Some(peer) = self.session_for_sock(*sock) {
                    let session = self.sessions.get_mut(&peer).expect("present");
                    let events = session.conn.disconnect(now);
                    self.drive_conn_events(now, peer, events, host);
                }
            }
            _ => {}
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.sessions
            .values()
            .filter_map(|s| s.conn.next_deadline())
            .min()
    }
}
