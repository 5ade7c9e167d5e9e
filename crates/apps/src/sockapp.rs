//! The socket-program runtime: schedules a [`SocketProgram`] as a world
//! [`App`].
//!
//! A socket program never sees raw [`netstack::stack::StackAction`]s.
//! Instead it watches [`SocketHandle`]s and the runtime calls
//! [`SocketProgram::on_ready`] with a [`Readiness`] mask whenever a
//! watched handle's readiness changes — the `select(2)` loop a 4.3BSD
//! daemon would run, inverted for the event-driven world.
//!
//! Delivery contract:
//!
//! * **Edge-triggered** for every handle: a bit newly turning on is
//!   delivered exactly once; the program must drain (recv until
//!   `WouldBlock`, accept until `WouldBlock`) before returning.
//! * **Level-triggered re-delivery** on top: while any bit is set, the
//!   program is re-notified on every scheduler visit. This is the
//!   cooperative emulation of a process sleeping in a blocked syscall — it
//!   cannot miss a wakeup, at the cost of spurious calls it must
//!   tolerate.
//! * [`SocketProgram::on_tick`] runs on every scheduler visit (bulk
//!   pumps, request pickup) and [`SocketProgram::next_wakeup`] arms a
//!   real deadline — the runtime itself never busy-polls.

use gateway::world::App;
use gateway::Host;
use netstack::socket::{Readiness, SockError, SocketHandle};
use netstack::stack::StackAction;
use sim::SimTime;
use std::net::Ipv4Addr;

/// The runtime's watch list: each watched handle with the readiness bits
/// last delivered for it, in the order the handles were watched.
type WatchList = Vec<(SocketHandle, u8)>;

/// The capability a socket program acts through: the owning host plus
/// the runtime's watch list. Handles created through the `SockCtx` verbs
/// are watched automatically; [`SockCtx::close`] unwatches.
pub struct SockCtx<'a> {
    /// The owning host: `host.stack_op(now, |st| st.sock_send(…))` runs
    /// any other verb and routes what it provoked; reads such as
    /// `host.stack.sock_poll(h)` go to the stack directly.
    pub host: &'a mut Host,
    watched: &'a mut WatchList,
}

impl SockCtx<'_> {
    /// Adds a handle to the runtime's watch list.
    pub(crate) fn watch(&mut self, h: SocketHandle) {
        if !self.watched.iter().any(|&(w, _)| w == h) {
            self.watched.push((h, 0));
        }
    }

    /// Removes a handle, and what was last delivered for it, from the
    /// watch list.
    pub(crate) fn unwatch(&mut self, h: SocketHandle) {
        self.watched.retain(|&(w, _)| w != h);
    }

    /// Opens a watched listener.
    pub fn listen(
        &mut self,
        now: SimTime,
        port: u16,
        backlog: Option<usize>,
    ) -> Result<SocketHandle, SockError> {
        let h = self
            .host
            .stack_op(now, |st| st.sock_listen(port, backlog))?;
        self.watch(h);
        Ok(h)
    }

    /// Starts a watched active open.
    pub fn connect(
        &mut self,
        now: SimTime,
        dst: Ipv4Addr,
        port: u16,
    ) -> Result<SocketHandle, SockError> {
        let h = self
            .host
            .stack_op(now, |st| st.sock_connect(now, dst, port))?;
        self.watch(h);
        Ok(h)
    }

    /// Accepts one connection off a watched listener; the new stream is
    /// watched too.
    pub fn accept(
        &mut self,
        now: SimTime,
        listener: SocketHandle,
    ) -> Result<SocketHandle, SockError> {
        let h = self.host.stack_op(now, |st| st.sock_accept(listener))?;
        self.watch(h);
        Ok(h)
    }

    /// Opens a watched datagram socket.
    pub fn bind_udp(&mut self, now: SimTime, port: u16) -> Result<SocketHandle, SockError> {
        let h = self.host.stack_op(now, |st| st.sock_bind_udp(port))?;
        self.watch(h);
        Ok(h)
    }

    /// Closes and unwatches a handle.
    pub fn close(&mut self, now: SimTime, h: SocketHandle) {
        self.unwatch(h);
        self.host.stack_op(now, |st| st.sock_close(now, h));
    }
}

/// An event-driven socket program — the portable part of an application.
///
/// All methods receive a [`SockCtx`] granting access to the owning host's
/// socket API and the runtime watch list.
pub trait SocketProgram {
    /// Called once when the world starts the app. Open sockets here.
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>);

    /// A watched handle has (new) readiness. `ready` is the full current
    /// mask, not just the changed bits.
    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>);

    /// Runs on every scheduler visit, before readiness delivery: bulk
    /// pumps, picking up queued requests from shared state, timers.
    fn on_tick(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        let _ = (now, cx);
    }

    /// An absolute wake-up time; the runtime folds it into the host's
    /// deadline so `on_tick` runs then without busy-polling.
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }
}

/// Adapter: runs a [`SocketProgram`] as a world [`App`]. Every app in
/// this crate that talks sockets is one of these; each names its own
/// `SockApp<…Program>` type with a `new` and a report accessor.
pub struct SockApp<P: SocketProgram> {
    pub(crate) program: P,
    watched: WatchList,
}

/// Wraps a program for scheduling.
impl<P: SocketProgram> From<P> for SockApp<P> {
    fn from(program: P) -> SockApp<P> {
        SockApp {
            program,
            // A listener and a few streams without growing in the run.
            watched: Vec::with_capacity(4),
        }
    }
}

impl<P: SocketProgram> SockApp<P> {
    /// Computes readiness for every watched handle and delivers edges
    /// plus level re-delivery, iterating until no handle's mask changes —
    /// so a handler that drains a socket sees the follow-on EOF edge
    /// within the same instant.
    fn deliver(&mut self, now: SimTime, host: &mut Host) {
        let SockApp { program, watched } = self;
        for round in 0..64 {
            let mut any = false;
            let mut idx = 0;
            while idx < watched.len() {
                let (h, prev) = watched[idx];
                let mask = host.stack.sock_poll(h);
                let rising = mask.bits() & !prev;
                let level = round == 0 && !mask.is_empty();
                watched[idx].1 = mask.bits();
                if rising != 0 || level {
                    any = true;
                    let mut cx = SockCtx {
                        host: &mut *host,
                        watched: &mut *watched,
                    };
                    program.on_ready(now, h, mask, &mut cx);
                }
                // The handler may have unwatched this (or any) handle;
                // only advance when the slot still holds `h`.
                if watched.get(idx).is_some_and(|&(w, _)| w == h) {
                    idx += 1;
                }
            }
            if !any {
                return;
            }
        }
        panic!("socket program did not settle its readiness edges");
    }
}

impl<P: SocketProgram + 'static> App for SockApp<P> {
    fn on_start(&mut self, now: SimTime, host: &mut Host) {
        {
            let SockApp { program, watched } = &mut *self;
            let mut cx = SockCtx {
                host: &mut *host,
                watched,
            };
            program.on_start(now, &mut cx);
        }
        self.deliver(now, host);
    }

    fn on_event(&mut self, _now: SimTime, _event: &StackAction, _host: &mut Host) {
        // Socket programs never see raw stack actions: the scheduler
        // guarantees a poll after every on_event, and poll delivers
        // readiness computed from the post-event socket state.
    }

    fn poll(&mut self, now: SimTime, host: &mut Host) {
        {
            let SockApp { program, watched } = &mut *self;
            let mut cx = SockCtx {
                host: &mut *host,
                watched,
            };
            program.on_tick(now, &mut cx);
        }
        self.deliver(now, host);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.program.next_wakeup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::EchoServer;
    use crate::typist::Typist;
    use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
    use sim::SimDuration;

    #[test]
    fn a_server_holds_nothing_for_the_connections_it_closed() {
        const SESSIONS: usize = 6;
        let mut s = paper_topology(PaperConfig::default(), 2602);
        let typists: Vec<_> = (0..SESSIONS)
            .map(|_| {
                s.world
                    .add_app(s.pc, Box::new(Typist::new(ETHER_HOST_IP, 7, 2)))
            })
            .collect();
        // The server stays outside the world, run by hand between run
        // calls, so the test can look into it afterwards.
        let mut server = EchoServer::new(7);
        server.on_start(s.world.now, s.world.host_mut(s.ether_host));
        let end = s.world.now + SimDuration::from_secs(1800);
        while s.world.now < end {
            s.world.run_for(SimDuration::from_millis(100));
            server.poll(s.world.now, s.world.host_mut(s.ether_host));
        }

        assert!(
            typists.iter().all(|&t| s.world.app(t).report().done),
            "every session ran to its close"
        );
        assert_eq!(server.report().accepted, SESSIONS as u64);
        // Every accepted stream is closed: the listener is the one live
        // handle, and the runtime keeps one entry per live handle.
        assert_eq!(server.watched.len(), 1);
    }
}
