//! Scripted application endpoints for the testbed.
//!
//! §2.3 of the paper validates the gateway by using it: *"we were able to
//! telnet from an isolated IBM PC to a system that was on our Ethernet by
//! way of the new gateway. Since then we have used the gateway for file
//! transfer, electronic mail, and remote login in both directions."*
//! These modules script those uses as [`gateway::world::App`]s, so the
//! end-to-end experiments (E6) are repeatable. Every service that talks
//! TCP or UDP is a [`sockapp::SocketProgram`] on the BSD-style socket
//! layer, run by [`sockapp::SockApp`] (DESIGN.md §10):
//!
//! * [`echo`] — a TCP echo server (plus [`echo::RawEchoServer`], the one
//!   raw-API reference the socket layer is checked against);
//! * [`bulk`] — a bulk TCP sender/sink pair with retransmission
//!   accounting (E2, E3);
//! * [`telnet`] — a login-style interactive session (remote login);
//! * [`typist`] — a stop-and-wait keystroke/echo client (E13's
//!   interactive workload for VJ header compression);
//! * [`ftp`] — a file transfer with integrity checking;
//! * [`smtp`] — electronic mail exchange;
//! * [`callbook`] — §5's proposed distributed callbook over UDP;
//! * [`dns`] — a stub resolver and an authoritative A-record server for
//!   the AMPRnet callsign zone (E14);
//! * [`sockapp`] — the socket-program runtime.
//!
//! Two apps are not socket-shaped and drive their host directly:
//!
//! * [`ping`] — an ICMP echo workload with RTT recording (E1, E4, E7);
//! * [`ax25chat`] — connected-mode AX.25 endpoints: the BBS and terminal
//!   users that the §2.4 application gateway serves.
//!
//! Each app owns its report, read through the typed `World::app(id)` with
//! the `AppId` that `World::add_app` returned. Only [`ping::Pinger`],
//! [`bulk::BulkSender`] and [`bulk::BulkSink`] still hand out a [`Shared`]
//! report handle, because the benchmark harness holds theirs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

pub mod ax25chat;
pub mod bulk;
pub mod callbook;
pub mod dns;
pub mod echo;
pub mod ftp;
pub mod ping;
pub mod smtp;
pub mod sockapp;
pub mod telnet;
pub mod typist;

/// Shared, interiorly mutable report cell (single-threaded simulation).
pub type Shared<T> = Rc<RefCell<T>>;

/// Creates a [`Shared`] report.
pub fn shared<T>(value: T) -> Shared<T> {
    Rc::new(RefCell::new(value))
}

/// Splits the first line off `buf`: every byte up to and including the
/// first one found in `terminators`, as text (invalid UTF-8 replaced).
/// `None`, and `buf` untouched, until a terminator arrives. The line keeps
/// its terminator; each protocol trims what it wants.
pub fn take_line(buf: &mut Vec<u8>, terminators: &[u8]) -> Option<String> {
    let end = buf.iter().position(|b| terminators.contains(b))? + 1;
    let line = String::from_utf8_lossy(&buf[..end]).into_owned();
    buf.drain(..end);
    Some(line)
}

#[cfg(test)]
mod tests {
    /// Compiles only for a type that holds no `Rc`, so no report handle
    /// can be shared out of it: the app owns its report and callers read
    /// it through `World::app`.
    fn owns_its_report<T: Send + 'static>() {}

    #[test]
    fn apps_own_their_reports() {
        // `Pinger`, `BulkSender` and `BulkSink` are left out: the
        // benchmark harness holds their shared report handles.
        owns_its_report::<crate::echo::EchoServer>();
        owns_its_report::<crate::echo::RawEchoServer>();
        owns_its_report::<crate::ftp::FileServer>();
        owns_its_report::<crate::ftp::FileClient>();
        owns_its_report::<crate::dns::DnsServer>();
        owns_its_report::<crate::callbook::CallbookServer>();
        owns_its_report::<crate::callbook::CallbookClient>();
        owns_its_report::<crate::telnet::TelnetServer>();
        owns_its_report::<crate::telnet::TelnetClient>();
        owns_its_report::<crate::smtp::SmtpServer>();
        owns_its_report::<crate::smtp::SmtpClient>();
        owns_its_report::<crate::typist::Typist>();
        owns_its_report::<crate::ax25chat::BbsServer>();
        owns_its_report::<crate::ax25chat::TerminalUser>();
    }
}
