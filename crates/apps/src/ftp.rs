//! A file transfer in the spirit of FTP (single-connection GET).
//!
//! §2.3: "Since then we have used the gateway for file transfer…". The
//! protocol here is a deliberately simple GET: the client sends
//! `GET <name>\n`, the server answers `OK <len>\n` followed by the file
//! bytes and closes. File contents are a deterministic pattern seeded by
//! the name, so the client can verify every byte.
//!
//! Both ends are [`SocketProgram`]s (DESIGN.md §10): the server accepts on
//! ACCEPTABLE edges and pumps its send queue from `on_tick` (exactly the
//! cadence the raw version pumped from `App::poll`); the client sends its
//! GET on the first WRITABLE edge and finishes on EOF.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netstack::socket::{Readiness, SocketHandle};
use sim::{SimDuration, SimTime};

use crate::sockapp::{SockApp, SockCtx, SocketProgram};

/// Deterministic file contents: byte `i` of file `name`. Public so
/// out-of-crate clients (the `workload` fleet) can verify transfers
/// byte-for-byte without carrying the file.
pub fn file_byte(name: &str, i: usize) -> u8 {
    let seed: u32 = name.bytes().fold(0x811C9DC5u32, |h, b| {
        (h ^ u32::from(b)).wrapping_mul(16777619)
    });
    ((seed as usize).wrapping_add(i.wrapping_mul(131)) % 251) as u8
}

/// File server counters.
#[derive(Debug, Default)]
pub struct FileServerReport {
    /// GETs served.
    pub serves: u64,
    /// Octets shipped.
    pub bytes_sent: u64,
    /// Requests for unknown files.
    pub not_found: u64,
}

/// The file server: name → size catalogue (socket-layer implementation).
pub type FileServer = SockApp<FileServerProgram>;

/// The socket program behind [`FileServer`].
pub struct FileServerProgram {
    port: u16,
    listener: Option<SocketHandle>,
    catalogue: HashMap<String, usize>,
    sessions: HashMap<SocketHandle, Vec<u8>>,
    /// Sends in progress, FIFO: (handle, name, next offset, size).
    /// A `Vec` rather than a map so the `on_tick` pump visits sessions
    /// in accept order — map iteration order would differ run to run
    /// and break the sharded engine's digest-equivalence contract once
    /// several transfers overlap.
    sending: Vec<(SocketHandle, String, usize, usize)>,
    /// The `sending` handles `on_tick` pumps, copied out because a pump
    /// may finish its send and drop it from `sending` (kept for its
    /// capacity).
    pumping: Vec<SocketHandle>,
    report: FileServerReport,
}

impl FileServer {
    /// Creates a server for `port` with the given catalogue.
    pub fn new(port: u16, files: &[(&str, usize)]) -> FileServer {
        SockApp::from(FileServerProgram {
            port,
            listener: None,
            catalogue: files.iter().map(|(n, s)| (n.to_string(), *s)).collect(),
            sessions: HashMap::new(),
            sending: Vec::new(),
            pumping: Vec::new(),
            report: FileServerReport::default(),
        })
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &FileServerReport {
        &self.program.report
    }
}

/// The most file bytes one `sock_send` offers.
const CHUNK: usize = 2048;

impl FileServerProgram {
    fn pump_send(&mut self, now: SimTime, h: SocketHandle, cx: &mut SockCtx<'_>) {
        let Some((_, name, offset, size)) = self.sending.iter_mut().find(|(s, ..)| *s == h) else {
            return;
        };
        while *offset < *size {
            let cap = cx.host.stack.sock_send_capacity(h);
            if cap == 0 {
                return;
            }
            let n = cap.min(*size - *offset).min(CHUNK);
            // On the stack, and zeroed only once there is room to send:
            // `sock_send` copies the chunk into the send buffer, so a heap
            // chunk would cost an allocation per chunk (or 2 KiB held per
            // server).
            let mut chunk = [0u8; CHUNK];
            for (i, b) in chunk[..n].iter_mut().enumerate() {
                *b = file_byte(name, *offset + i);
            }
            let accepted = cx
                .host
                .stack_op(now, |st| st.sock_send(now, h, &chunk[..n]))
                .unwrap_or(0);
            *offset += accepted;
            self.report.bytes_sent += accepted as u64;
            if accepted == 0 {
                return;
            }
        }
        self.sending.retain(|(s, ..)| *s != h);
        self.sessions.remove(&h);
        cx.close(now, h);
    }
}

impl SocketProgram for FileServerProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.listener = Some(cx.listen(now, self.port, None).expect("ftp port"));
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) == self.listener {
            while let Ok(sess) = cx.accept(now, h) {
                self.sessions.insert(sess, Vec::new());
            }
            return;
        }
        if ready.error() {
            self.sessions.remove(&h);
            self.sending.retain(|(s, ..)| *s != h);
            cx.close(now, h);
            return;
        }
        if ready.readable() {
            let Some(buf) = self.sessions.get_mut(&h) else {
                // Not a session of ours: what came is drained and dropped.
                let _ = cx
                    .host
                    .stack_op(now, |st| st.sock_recv(now, h, &mut Vec::new()));
                return;
            };
            let _ = cx.host.stack_op(now, |st| st.sock_recv(now, h, buf));
            if let Some(line) = crate::take_line(buf, b"\n") {
                if let Some(name) = line.trim().strip_prefix("GET ") {
                    match self.catalogue.get(name) {
                        Some(&size) => {
                            self.report.serves += 1;
                            let header = format!("OK {size}\n");
                            let _ = cx
                                .host
                                .stack_op(now, |st| st.sock_send(now, h, header.as_bytes()));
                            self.sending.push((h, name.to_string(), 0, size));
                            self.pump_send(now, h, cx);
                        }
                        None => {
                            self.report.not_found += 1;
                            let _ = cx
                                .host
                                .stack_op(now, |st| st.sock_send(now, h, b"ERR no such file\n"));
                            self.sessions.remove(&h);
                            cx.close(now, h);
                        }
                    }
                }
            }
            return;
        }
        if ready.eof()
            && self.sessions.remove(&h).is_some()
            && !self.sending.iter().any(|(s, ..)| *s == h)
        {
            cx.close(now, h);
        }
    }

    fn on_tick(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        let mut pumping = std::mem::take(&mut self.pumping);
        pumping.extend(self.sending.iter().map(|(s, ..)| *s));
        for &h in &pumping {
            self.pump_send(now, h, cx);
        }
        pumping.clear();
        self.pumping = pumping;
    }
}

/// Results of one GET.
#[derive(Debug, Default)]
pub struct FileClientReport {
    /// Announced size from the OK header.
    pub announced: usize,
    /// Octets of body received.
    pub received: usize,
    /// Every byte matched the expected pattern.
    pub intact: bool,
    /// Transfer completed (EOF after full body).
    pub done: bool,
    /// Server said "no such file".
    pub not_found: bool,
    /// When the connect was issued.
    pub started_at: Option<SimTime>,
    /// When the transfer completed.
    pub finished_at: Option<SimTime>,
}

impl FileClientReport {
    /// Transfer duration, if complete.
    pub fn duration(&self) -> Option<SimDuration> {
        Some(self.finished_at?.saturating_since(self.started_at?))
    }
}

/// A one-file GET client (socket-layer implementation).
pub type FileClient = SockApp<FileClientProgram>;

/// The socket program behind [`FileClient`].
pub struct FileClientProgram {
    dst: Ipv4Addr,
    port: u16,
    name: String,
    sock: Option<SocketHandle>,
    sent_req: bool,
    buf: Vec<u8>,
    header_done: bool,
    mismatch: bool,
    report: FileClientReport,
}

impl FileClient {
    /// Fetches `name` from `dst:port`.
    pub fn new(dst: Ipv4Addr, port: u16, name: &str) -> FileClient {
        SockApp::from(FileClientProgram {
            dst,
            port,
            name: name.to_string(),
            sock: None,
            sent_req: false,
            buf: Vec::new(),
            header_done: false,
            mismatch: false,
            report: FileClientReport::default(),
        })
    }

    /// What the app has recorded so far.
    pub fn report(&self) -> &FileClientReport {
        &self.program.report
    }
}

impl SocketProgram for FileClientProgram {
    fn on_start(&mut self, now: SimTime, cx: &mut SockCtx<'_>) {
        self.report.started_at = Some(now);
        self.sock = cx.connect(now, self.dst, self.port).ok();
    }

    fn on_ready(&mut self, now: SimTime, h: SocketHandle, ready: Readiness, cx: &mut SockCtx<'_>) {
        if Some(h) != self.sock {
            return;
        }
        if ready.error() {
            cx.close(now, h);
            self.sock = None;
            return;
        }
        if !self.sent_req && ready.writable() {
            self.sent_req = true;
            let req = format!("GET {}\n", self.name);
            let _ = cx
                .host
                .stack_op(now, |st| st.sock_send(now, h, req.as_bytes()));
            return;
        }
        if ready.readable() {
            let buf = &mut self.buf;
            let _ = cx.host.stack_op(now, |st| st.sock_recv(now, h, buf));
            if !self.header_done {
                if let Some(line) = crate::take_line(&mut self.buf, b"\n") {
                    self.header_done = true;
                    if let Some(size) = line.trim().strip_prefix("OK ") {
                        self.report.announced = size.parse().unwrap_or(0);
                    } else {
                        self.report.not_found = true;
                    }
                }
            }
            if self.header_done {
                let r = &mut self.report;
                for b in self.buf.drain(..) {
                    if b != file_byte(&self.name, r.received) {
                        self.mismatch = true;
                    }
                    r.received += 1;
                }
            }
            return;
        }
        if ready.eof() {
            cx.close(now, h);
            self.sock = None;
            let r = &mut self.report;
            r.finished_at = Some(now);
            r.intact = !self.mismatch && r.received == r.announced;
            r.done = r.intact && r.announced > 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_bytes_are_deterministic_and_name_dependent() {
        assert_eq!(file_byte("a.txt", 5), file_byte("a.txt", 5));
        let a: Vec<u8> = (0..64).map(|i| file_byte("a.txt", i)).collect();
        let b: Vec<u8> = (0..64).map(|i| file_byte("b.txt", i)).collect();
        assert_ne!(a, b);
    }
}
