//! Per-shard simulation state and stepping engine.
//!
//! A shard owns a closed island of components — radio channels, serial
//! lines, TNCs, digipeaters, beacons, hosts, and apps — plus its own
//! deadline calendar, dirty set, RNG stream, and clock. Everything inside
//! a shard interacts synchronously exactly as the original single-world
//! engine did; the only way in or out is the Ethernet, which the world
//! coordinator mediates between windows (DESIGN.md §11):
//!
//! * **Outbound**: in a multi-shard world a host's Ethernet output is not
//!   applied to the segment directly; it is appended to `ether_out`
//!   stamped `(time, seq)` and the coordinator turns it into a segment
//!   send at `time + lookahead`.
//! * **Inbound**: the coordinator pre-computes segment deliveries and
//!   pushes them into `ether_in` with their exact delivery times, in
//!   nondecreasing time order; the shard consumes entries at their stamps
//!   as settle step 4 (exactly where direct segment delivery sits in the
//!   single-shard engine). A frame's last recipient — a unicast frame's
//!   only one — gets the frame itself, moved, and its host keeps the
//!   buffer; the other recipients of a broadcast get copies in frames
//!   from the coordinator's spare pool, which go back through `spent` —
//!   the hand-off allocates nothing once warm.
//!
//! In a single-shard world the shard is lent the segments and the world's
//! NIC-to-host table directly (`Segs = Some(Wire { .. })`) and this
//! module's engines are byte-for-byte the pre-shard `World` engines: same
//! pass structure, same RNG draws, same calendar traffic, same event
//! streams.

use std::borrow::Cow;

use ether::{EtherFrame, NicId, Segment};
use netstack::stack::StackAction;
use radio::channel::{Channel, Heard};
use radio::digi::Digipeater;
use radio::tnc::Tnc;
use radio::traffic::BeaconStation;
use serial::{End, Seal, SerialLine};
use sim::mailbox::Mailbox;
use sim::sched::{Scheduler, SlotKey};
use sim::{SimDuration, SimRng, SimTime};

use crate::host::Host;
use crate::world::{App, HostId};

// The line ends its runs at the byte the KISS deframers act on, its
// queues are born with room for the longest KISS-framed AX.25 frame, and
// the deframers at either end of it with room for that frame's type byte
// and octets.
const _: () = assert!(serial::FRAME_END == kiss::FEND);
const _: () = assert!(serial::TX_QUEUE_CHARS == ax25::MAX_FRAME_LEN + 3);
const _: () = assert!(kiss::Deframer::INITIAL_ROOM == ax25::MAX_FRAME_LEN + 1);

/// Segment access mode for a shard step: a single-shard world lends the
/// engine its segments (`Some`), a multi-shard world defers all Ethernet
/// traffic to the coordinator (`None`).
pub(crate) type Segs<'a> = Option<Wire<'a>>;

/// What a one-shard world lends its shard of the Ethernet: the segments,
/// and per segment, indexed by NIC, the (shard, local host) each delivers
/// to — the world's own table, whose shard is always 0 here.
pub(crate) struct Wire<'a> {
    pub segments: &'a mut Vec<Segment>,
    pub hosts: &'a [Vec<Option<(u32, u32)>>],
}

/// The local host NIC `nic` of segment `seg` delivers to, by a one-shard
/// world's [`Wire::hosts`].
fn local_host(hosts: &[Vec<Option<(u32, u32)>>], seg: usize, nic: NicId) -> Option<usize> {
    slot(hosts, seg, nic.index()).map(|(_, l)| l as usize)
}

/// One radio station of Figure 1's path: the serial line whose A end its
/// host holds and the TNC at its B end. `Key::Line(p)` and `Key::Tnc(p)`
/// both name port `p`.
pub(crate) struct Port {
    pub line: SerialLine,
    pub tnc: Tnc,
    /// Shard-local channel index.
    pub chan: usize,
    /// Shard-local host index.
    pub host: usize,
}

pub(crate) struct DigiEntry {
    pub digi: Digipeater,
    pub chan: usize,
}

pub(crate) struct BeaconEntry {
    pub beacon: BeaconStation,
    pub chan: usize,
}

pub(crate) struct HostEntry {
    pub host: Host,
    /// The port whose line's A end this host holds.
    pub port: Option<usize>,
    /// Ethernet attachment: world segment index + NIC.
    pub nic: Option<(usize, NicId)>,
    /// The host's apps, in index order.
    pub apps: Vec<usize>,
    /// The host's world handle (event attribution).
    pub gid: HostId,
}

/// The component behind a channel's station: a port's TNC, a digipeater
/// or a beacon (shard-local indices).
#[derive(Clone, Copy)]
pub(crate) enum Station {
    Tnc(usize),
    Digi(usize),
    Beacon(usize),
}

/// `table[row][col] = Some(v)`, growing the table as needed.
pub(crate) fn set_slot<T>(table: &mut Vec<Vec<Option<T>>>, row: usize, col: usize, v: T) {
    if table.len() <= row {
        table.resize_with(row + 1, Vec::new);
    }
    let cols = &mut table[row];
    if cols.len() <= col {
        cols.resize_with(col + 1, || None);
    }
    cols[col] = Some(v);
}

/// `table[row][col]`; `None` wherever [`set_slot`] never wrote.
pub(crate) fn slot<T: Copy>(table: &[Vec<Option<T>>], row: usize, col: usize) -> Option<T> {
    *table.get(row)?.get(col)?
}

pub(crate) struct AppEntry {
    /// Shard-local host index.
    pub host: usize,
    pub app: Box<dyn App>,
    pub started: bool,
}

/// A component key in the deadline index and dirty set (shard-local
/// indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    Line(usize),
    Chan(usize),
    Seg(usize),
    Tnc(usize),
    Digi(usize),
    Beacon(usize),
    Host(usize),
    App(usize),
}

impl SlotKey for Key {
    /// Interleaves the eight categories: `index << 3 | category`.
    fn slot(self) -> usize {
        let (cat, i) = match self {
            Key::Line(i) => (0, i),
            Key::Chan(i) => (1, i),
            Key::Seg(i) => (2, i),
            Key::Tnc(i) => (3, i),
            Key::Digi(i) => (4, i),
            Key::Beacon(i) => (5, i),
            Key::Host(i) => (6, i),
            Key::App(i) => (7, i),
        };
        i << 3 | cat
    }
}

/// Which stepping engine drives a shard.
#[derive(Clone, Copy)]
pub(crate) enum Mode {
    /// Deadline-indexed calendar + dirty-set quiescence (production).
    Indexed,
    /// Full scan + re-poll-everything quiescence (executable spec).
    Scan,
}

/// One category's dirty members: a flag per component for O(1) dedup,
/// plus the list of marked indices so the settle pass visits only dirty
/// components instead of sweeping every flag.
#[derive(Default)]
pub(crate) struct DirtyCat {
    flags: Vec<bool>,
    list: Vec<usize>,
}

impl DirtyCat {
    fn reset(&mut self, n: usize) {
        self.flags.clear();
        self.flags.resize(n, true);
        self.list.clear();
        self.list.extend(0..n);
    }

    fn reset_clear(&mut self, n: usize) {
        self.flags.clear();
        self.flags.resize(n, false);
        self.list.clear();
    }

    /// Marks `i` (once: a marked index is not listed again).
    fn mark(&mut self, i: usize) {
        if !self.flags[i] {
            self.flags[i] = true;
            self.list.push(i);
        }
    }

    /// Drains the current marks into `todo`, sorted ascending (component
    /// index order — the deterministic processing order), clearing the
    /// flags. Marks made while processing land in the next drain.
    fn drain_into(&mut self, todo: &mut Vec<usize>) {
        todo.clear();
        todo.append(&mut self.list);
        todo.sort_unstable();
        for &i in todo.iter() {
            self.flags[i] = false;
        }
    }
}

/// Per-category dirty sets: the components the run loop must visit at
/// the current instant, category by category.
#[derive(Default)]
struct DirtySet {
    lines: DirtyCat,
    chans: DirtyCat,
    segs: DirtyCat,
    tncs: DirtyCat,
    digis: DirtyCat,
    beacons: DirtyCat,
    hosts: DirtyCat,
    apps: DirtyCat,
}

impl DirtySet {
    fn cat(&mut self, key: Key) -> (&mut DirtyCat, usize) {
        match key {
            Key::Line(i) => (&mut self.lines, i),
            Key::Chan(i) => (&mut self.chans, i),
            Key::Seg(i) => (&mut self.segs, i),
            Key::Tnc(i) => (&mut self.tncs, i),
            Key::Digi(i) => (&mut self.digis, i),
            Key::Beacon(i) => (&mut self.beacons, i),
            Key::Host(i) => (&mut self.hosts, i),
            Key::App(i) => (&mut self.apps, i),
        }
    }

    fn mark(&mut self, key: Key) {
        let (cat, i) = self.cat(key);
        cat.mark(i);
    }

    /// Marks every component of every category dirty.
    fn mark_all(&mut self, sizes: [usize; 8]) {
        let [l, c, s, t, d, b, h, a] = sizes;
        self.lines.reset(l);
        self.chans.reset(c);
        self.segs.reset(s);
        self.tncs.reset(t);
        self.digis.reset(d);
        self.beacons.reset(b);
        self.hosts.reset(h);
        self.apps.reset(a);
    }
}

/// A deferred Ethernet transmission, collected by the coordinator at the
/// end of the window. `(time, shard, seq)` orders the sends of one window
/// deterministically, whatever order the shards stepped in.
pub(crate) struct OutFrame {
    /// Emission time (the host's flush instant).
    pub time: SimTime,
    /// Per-shard emission sequence number.
    pub seq: u64,
    /// World segment index.
    pub seg: usize,
    pub nic: NicId,
    pub frame: EtherFrame,
}

/// What one [`ShardData::flush_host`] call did.
#[derive(Clone, Copy, Default)]
struct Flushed {
    /// Output reached a link or events were taken: the instant is not
    /// quiet yet. By itself this moves nothing the host or its apps see.
    progressed: bool,
    /// An app's `on_event` handler ran: it may have changed app state or
    /// queued more output on the host, so both get another look.
    dispatched: bool,
}

/// A timed cross-shard delivery.
pub(crate) struct InFrame {
    /// Delivery time.
    pub at: SimTime,
    /// Shard-local host.
    pub host: usize,
    pub frame: EtherFrame,
    /// `frame` is the frame itself, for the host to keep; otherwise a
    /// copy, to go back through `spent`.
    pub moved: bool,
}

/// Hands a mailbox delivery to its host at `now`: a moved frame by value,
/// for the host to keep its buffer; a copy by reference, after which the
/// copy goes to `spent`.
fn deliver(host: &mut Host, now: SimTime, d: InFrame, spent: &mut Vec<EtherFrame>) {
    if d.moved {
        host.on_ether_frame(now, Cow::Owned(d.frame));
    } else {
        host.on_ether_frame(now, Cow::Borrowed(&d.frame));
        spent.push(d.frame);
    }
}

/// One shard's components, calendar, and clock. See the module docs.
pub(crate) struct ShardData {
    pub now: SimTime,
    pub rng: SimRng,
    pub channels: Vec<Channel>,
    /// Station records are boxed: each is allocated once at its exact
    /// size and never moves, so a table's growth slack is pointers, not
    /// unused 1.3 kB hosts (DESIGN.md §6, held only where used).
    #[allow(clippy::vec_box)] // a spare slot costs a pointer, not a record
    pub ports: Vec<Box<Port>>,
    pub digis: Vec<DigiEntry>,
    pub beacons: Vec<BeaconEntry>,
    #[allow(clippy::vec_box)]
    pub hosts: Vec<Box<HostEntry>>,
    pub apps: Vec<AppEntry>,
    /// Per channel, indexed by `StationId`: the component behind that
    /// station, kept by the `World` builders that add it.
    pub stations: Vec<Vec<Option<Station>>>,
    /// Someone outside the engine held `&mut` into this shard (or the
    /// reference stepper ran it) since its last full `sync_all`: the
    /// calendar may be behind its components (DESIGN.md §6, run-call
    /// contract). Set by `World::touch`, cleared by `enter`.
    pub stale: bool,
    pub record_events: bool,
    /// Events recorded this window, in shard-local time order.
    pub events: Vec<(HostId, SimTime, StackAction)>,
    /// Incoming cross-shard deliveries (multi-shard worlds only).
    pub ether_in: Mailbox<InFrame>,
    /// Outgoing deferred transmissions (multi-shard worlds only).
    pub ether_out: Vec<OutFrame>,
    /// Consumed delivery copies, returned to the coordinator's pool.
    pub spent: Vec<EtherFrame>,
    out_seq: u64,
    /// The engine of the current (or last) run call, set by `enter`.
    mode: Mode,
    /// Calendar and dirty set outlive a run call: between calls they hold
    /// what the exit flush registered and marked.
    sched: Scheduler<Key>,
    dirty: DirtySet,
    /// Hosts to flush after the app-poll step of the current pass.
    flush_after_apps: DirtyCat,
    /// Reusable buffer for draining dirty lists in index order.
    scratch: Vec<usize>,
    /// Reusable buffer for serial deliveries (runs and FIFO drains).
    run_scratch: Vec<u8>,
    /// Reusable buffers `flush_host` swaps a host's outbox and events into.
    out_scratch: Vec<EtherFrame>,
    event_scratch: Vec<StackAction>,
    /// The transmission `hear_channel` is routing (buffers reused).
    heard: Heard,
}

impl ShardData {
    pub(crate) fn new(rng: SimRng) -> ShardData {
        ShardData {
            now: SimTime::ZERO,
            rng,
            channels: Vec::new(),
            ports: Vec::new(),
            digis: Vec::new(),
            beacons: Vec::new(),
            hosts: Vec::new(),
            apps: Vec::new(),
            stations: Vec::new(),
            stale: true,
            record_events: true,
            events: Vec::new(),
            ether_in: Mailbox::new(),
            ether_out: Vec::new(),
            spent: Vec::new(),
            out_seq: 0,
            mode: Mode::Scan,
            sched: Scheduler::new(),
            dirty: DirtySet::default(),
            flush_after_apps: DirtyCat::default(),
            scratch: Vec::new(),
            run_scratch: Vec::new(),
            out_scratch: Vec::new(),
            event_scratch: Vec::new(),
            heard: Heard::default(),
        }
    }

    pub(crate) fn sched_stats(&self) -> sim::sched::SchedStats {
        self.sched.stats()
    }

    /// Components registered in the calendar.
    pub(crate) fn calendar_len(&self) -> usize {
        self.sched.len()
    }

    /// Whether `key` is waiting in the dirty set.
    #[cfg(test)]
    pub(crate) fn is_dirty(&mut self, key: Key) -> bool {
        let (cat, i) = self.dirty.cat(key);
        cat.flags[i]
    }

    /// Run-call entry under `mode` (DESIGN.md §6, run-call contract). A
    /// stale shard starts its new apps and runs the full `sync_all`; a
    /// shard nobody touched keeps its calendar and dirty set and marks
    /// only what can have moved behind the world's back — its apps (of
    /// which only `Pinger`, `BulkSender` and `BulkSink` still hand out a
    /// report handle, held by the benchmark harness, that can be written
    /// between run calls; every other app is read through `World::app`),
    /// and the world-owned segments a one-shard world hands it. (An order
    /// through `World::app_mut` touches the shard.) Either way the
    /// entry instant is then settled. The reference stepper never feeds
    /// the calendar, so a shard it ran is stale.
    pub(crate) fn enter(&mut self, mode: Mode, segs: &mut Segs<'_>) {
        self.mode = mode;
        match mode {
            Mode::Indexed => {
                if std::mem::take(&mut self.stale) {
                    self.start_apps();
                    self.sync_all(segs);
                } else {
                    self.debug_check_registrations();
                    for ai in 0..self.apps.len() {
                        self.dirty.mark(Key::App(ai));
                    }
                    for si in 0..segs.as_ref().map_or(0, |w| w.segments.len()) {
                        self.dirty.mark(Key::Seg(si));
                    }
                }
                self.settle_dirty(segs);
            }
            Mode::Scan => {
                self.stale = true;
                self.start_apps();
                self.settle_scan(segs);
            }
        }
    }

    /// The calendar invariant an untouched shard re-enters on: every
    /// component outside the dirty set is registered at its current
    /// deadline. (Apps and segments are re-marked regardless.) It fails
    /// when something moved a component between run calls without going
    /// through `World`'s `*_mut` accessors or builders — through one of
    /// the shared handles above, since a shared borrow of a host lends
    /// nothing mutable — which would otherwise delay an event silently.
    fn debug_check_registrations(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let check = |key: Key, dirty: &DirtyCat, i: usize, current: Option<SimTime>| {
            assert!(
                dirty.flags[i] || self.sched.deadline_of(key) == current,
                "{key:?} moved from {:?} to {current:?} between run calls behind the world's back",
                self.sched.deadline_of(key),
            );
        };
        for (i, p) in self.ports.iter().enumerate() {
            check(Key::Line(i), &self.dirty.lines, i, p.line.next_boundary());
            check(Key::Tnc(i), &self.dirty.tncs, i, p.tnc.next_deadline());
        }
        for (i, c) in self.channels.iter().enumerate() {
            check(Key::Chan(i), &self.dirty.chans, i, c.next_deadline());
        }
        for (i, d) in self.digis.iter().enumerate() {
            check(Key::Digi(i), &self.dirty.digis, i, d.digi.next_deadline());
        }
        for (i, b) in self.beacons.iter().enumerate() {
            check(
                Key::Beacon(i),
                &self.dirty.beacons,
                i,
                b.beacon.next_deadline(),
            );
        }
        for (i, h) in self.hosts.iter().enumerate() {
            check(Key::Host(i), &self.dirty.hosts, i, h.host.next_deadline());
        }
    }

    /// Steps the shard through everything due at or before `w_end`.
    pub(crate) fn run_window(&mut self, w_end: SimTime, segs: &mut Segs<'_>) {
        match self.mode {
            Mode::Indexed => self.run_window_indexed(w_end, segs),
            Mode::Scan => self.run_window_scan(w_end, segs),
        }
    }

    /// Run-call exit at `limit` (flush on exit, DESIGN.md §6).
    pub(crate) fn exit(&mut self, limit: SimTime) {
        if let Mode::Indexed = self.mode {
            self.flush_lines(limit);
        }
    }

    /// The earliest thing a deferred-Ethernet shard must wake for, as its
    /// engine sees time.
    pub(crate) fn next_event(&mut self) -> Option<SimTime> {
        match self.mode {
            Mode::Indexed => self.next_event_indexed(),
            Mode::Scan => self.scan_next_deadline(None),
        }
    }

    /// The calendar head or the next queued cross-shard delivery,
    /// whichever is earlier.
    fn next_event_indexed(&mut self) -> Option<SimTime> {
        let sp = self.sched.peek_time();
        let ep = self.ether_in.peek().map(|e| e.at);
        match (sp, ep) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// The earliest self-reported deadline of any component, by scanning
    /// every component (the reference stepper's view of time).
    pub(crate) fn scan_next_deadline(&self, segs: Option<&Vec<Segment>>) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        let mut fold = |t: Option<SimTime>| {
            if let Some(t) = t {
                best = Some(best.map_or(t, |b: SimTime| b.min(t)));
            }
        };
        for p in &self.ports {
            fold(p.line.next_deadline());
            fold(p.tnc.next_deadline());
        }
        for c in &self.channels {
            fold(c.next_deadline());
        }
        if let Some(segments) = segs {
            for s in segments {
                fold(s.next_deadline());
            }
        }
        for d in &self.digis {
            fold(d.digi.next_deadline());
        }
        for b in &self.beacons {
            fold(b.beacon.next_deadline());
        }
        for h in &self.hosts {
            fold(h.host.next_deadline());
        }
        for a in &self.apps {
            fold(a.app.next_deadline());
        }
        fold(self.ether_in.peek().map(|e| e.at));
        best
    }

    fn start_apps(&mut self) {
        let now = self.now;
        let mut apps = std::mem::take(&mut self.apps);
        for entry in &mut apps {
            if !entry.started {
                entry.started = true;
                entry.app.on_start(now, &mut self.hosts[entry.host].host);
            }
        }
        self.apps = apps;
    }

    /// The full sync of a stale shard: registers every component's
    /// current deadline and marks everything dirty, whatever a holder of
    /// `&mut` into the shard did to it.
    fn sync_all(&mut self, segs: &mut Segs<'_>) {
        let nsegs = segs.as_ref().map_or(0, |w| w.segments.len());
        let sizes = [
            self.ports.len(),
            self.channels.len(),
            nsegs,
            self.ports.len(),
            self.digis.len(),
            self.beacons.len(),
            self.hosts.len(),
            self.apps.len(),
        ];
        self.flush_after_apps.reset_clear(self.hosts.len());
        self.dirty.mark_all(sizes);
        for pi in 0..self.ports.len() {
            self.reg(Key::Line(pi), self.ports[pi].line.next_boundary());
        }
        for ci in 0..self.channels.len() {
            self.reg(Key::Chan(ci), self.channels[ci].next_deadline());
        }
        if let Some(wire) = segs {
            for si in 0..wire.segments.len() {
                self.reg(Key::Seg(si), wire.segments[si].next_deadline());
            }
        }
        for pi in 0..self.ports.len() {
            self.reg(Key::Tnc(pi), self.ports[pi].tnc.next_deadline());
        }
        for di in 0..self.digis.len() {
            self.reg(Key::Digi(di), self.digis[di].digi.next_deadline());
        }
        for bi in 0..self.beacons.len() {
            self.reg(Key::Beacon(bi), self.beacons[bi].beacon.next_deadline());
        }
        for hi in 0..self.hosts.len() {
            self.reg(Key::Host(hi), self.hosts[hi].host.next_deadline());
        }
        for ai in 0..self.apps.len() {
            self.reg(Key::App(ai), self.apps[ai].app.next_deadline());
        }
    }

    /// Deadline-change reporting: registers `key`'s deadline after anything
    /// may have moved it (unchanged deadlines are a no-op). Lines register
    /// their next *boundary* (DESIGN.md §6): the quiet characters before
    /// it are picked up by `deliver_line` when it fires, or earlier if a
    /// receiver is touched. The reference stepper shares the routing code
    /// that reports here but never reads the calendar, so under it nothing
    /// is registered.
    fn reg(&mut self, key: Key, deadline: Option<SimTime>) {
        if let Mode::Indexed = self.mode {
            self.sched.set_deadline(key, deadline);
        }
    }

    /// Marks every app on host `hi` dirty (the host was touched, so apps
    /// watching its state — windows, tty queue — must get a poll).
    fn mark_apps(&mut self, hi: usize) {
        for i in 0..self.hosts[hi].apps.len() {
            let ai = self.hosts[hi].apps[i];
            self.dirty.mark(Key::App(ai));
        }
    }

    /// The indexed run loop over one window: pop due keys from the
    /// calendar (and due cross-shard deliveries), mark them dirty, settle
    /// the instant over dirty components only.
    fn run_window_indexed(&mut self, w_end: SimTime, segs: &mut Segs<'_>) {
        while let Some(d) = self.next_event_indexed() {
            if d > w_end {
                break;
            }
            if d > self.now {
                self.now = d;
                self.sched.stats_mut().instants += 1;
            }
            while self.sched.peek_time().is_some_and(|pt| pt <= self.now) {
                let k = self.sched.pop().expect("peeked entry pops").1;
                self.dirty.mark(k);
            }
            self.settle_dirty(segs);
        }
    }

    /// The reference run loop over one window: scan for the earliest
    /// deadline, advance, re-poll everything until quiescent.
    fn run_window_scan(&mut self, w_end: SimTime, segs: &mut Segs<'_>) {
        while let Some(d) = self.scan_next_deadline(segs.as_ref().map(|w| &*w.segments)) {
            if d > w_end {
                break;
            }
            self.now = self.now.max(d);
            self.settle_scan(segs);
        }
    }

    /// Delivers every character of port `pi`'s line due at or before
    /// `upto`, in both directions, as line-paced runs through the receivers'
    /// closed forms — the one indexed delivery path (DESIGN.md §6). A run that is
    /// one sealed frame the host would only count and drop is handed over
    /// as that verdict, uncopied (judge once). Returns
    /// whether the host end was observably touched (`Host::on_serial_run`:
    /// frames for other stations are not a touch) and whether the TNC end
    /// received anything. The clock never lags a delivered character
    /// (only the exit flush runs ahead of it).
    fn deliver_line(&mut self, pi: usize, upto: SimTime) -> (bool, bool) {
        let mut got = (false, false);
        let port = &self.ports[pi];
        if port.line.next_deadline().is_none_or(|t| t > upto) {
            return got;
        }
        let char_time = port.line.char_time();
        let mut run = std::mem::take(&mut self.run_scratch);
        let hi = port.host;
        let mut why = None;
        while let Some(info) = {
            let host = &self.hosts[hi].host;
            self.ports[pi]
                .line
                .take_run(End::A, upto, &mut run, |seal| {
                    why = host.would_discard(seal);
                    why.is_some()
                })
        } {
            self.now = self.now.max(info.t_last);
            let stats = self.sched.stats_mut();
            stats.batched_chars += info.len as u64;
            let host = &mut self.hosts[hi].host;
            match why.take() {
                Some(why) => {
                    stats.sealed_runs += 1;
                    host.on_discarded_run(info.t0, char_time, info.len, why);
                }
                None => got.0 |= host.on_serial_run(info.t0, char_time, &run),
            }
        }
        let port = &mut *self.ports[pi];
        while let Some(info) = port.line.take_run(End::B, upto, &mut run, |_| false) {
            got.1 = true;
            self.now = self.now.max(info.t_last);
            self.sched.stats_mut().batched_chars += info.len as u64;
            port.tnc
                .on_serial_bytes(&run, &mut self.channels[port.chan]);
        }
        self.run_scratch = run;
        got
    }

    /// Catch-up on touch: before host `hi` is advanced, flushed, polled by
    /// an app, or handed a frame at `self.now`, its line delivers every
    /// character due by now, so the CPU FIFO order and deframer state are
    /// what per-character delivery would have left. Such characters all
    /// precede the line's registered boundary, so nothing needs marking.
    fn catch_up_host(&mut self, hi: usize) {
        if let Some(pi) = self.hosts[hi].port {
            self.deliver_line(pi, self.now);
        }
    }

    /// Settle step 1 for port `pi`'s line, also the exit flush's visit:
    /// delivers the runs due by `upto`, wakes the receivers they touched — a host
    /// that only took interrupts for other stations' frames stays asleep,
    /// like a host mid-frame (catch-up on touch covers whoever looks) —
    /// and registers the line's next boundary. Returns whether either end
    /// was woken.
    fn visit_line(&mut self, pi: usize, upto: SimTime) -> bool {
        let (host_got, tnc_got) = self.deliver_line(pi, upto);
        if host_got {
            let hi = self.ports[pi].host;
            self.dirty.mark(Key::Host(hi));
            self.mark_apps(hi);
        }
        if tnc_got {
            self.dirty.mark(Key::Tnc(pi));
        }
        self.reg(Key::Line(pi), self.ports[pi].line.next_boundary());
        host_got || tnc_got
    }

    /// Flush on exit: every run call returns with all characters due at
    /// or before `limit` delivered, so chunked runs equal one run and
    /// public stats are exact between calls. Whoever a flushed run woke
    /// stays in the dirty set for the next entry to settle — an untouched
    /// shard re-enters without a full sync.
    fn flush_lines(&mut self, limit: SimTime) {
        for pi in 0..self.ports.len() {
            if self.ports[pi]
                .line
                .next_deadline()
                .is_some_and(|t| t <= limit)
            {
                self.visit_line(pi, limit);
            }
        }
    }

    /// Processes everything dirty at `self.now` until the instant is
    /// quiet, visiting categories in the same fixed order as the
    /// reference stepper: lines → channels → MACs → segments → hosts →
    /// apps.
    fn settle_dirty(&mut self, segs: &mut Segs<'_>) {
        let now = self.now;
        let mut todo = std::mem::take(&mut self.scratch);
        for _pass in 0..10_000 {
            let mut progressed = false;
            let mut polled: u64 = 0;

            // 1. Serial lines: deliver the runs that are due, wake the
            // receivers they touched.
            todo.clear();
            if !self.dirty.lines.list.is_empty() {
                self.dirty.lines.drain_into(&mut todo)
            }
            for &pi in &todo {
                polled += 1;
                progressed |= self.visit_line(pi, now);
            }

            // 2. Radio channels: completed transmissions become
            // receptions, and the carrier drops — wake the stations whose
            // queued frames were blocked only on carrier sense (everyone
            // else has a registered deadline of their own, or nothing to
            // send; a carrier turning *busy* never enables a send).
            todo.clear();
            if !self.dirty.chans.list.is_empty() {
                self.dirty.chans.drain_into(&mut todo)
            }
            for &ci in &todo {
                polled += 1;
                if self.channels[ci].next_deadline().is_some_and(|t| t <= now) {
                    progressed |= self.hear_channel(now, ci);
                    for si in 0..self.stations[ci].len() {
                        if let Some(key) = self.waiting_on_carrier(ci, si) {
                            self.dirty.mark(key);
                        }
                    }
                }
                self.reg(Key::Chan(ci), self.channels[ci].next_deadline());
            }

            // 3. MAC polls (TNCs, digipeaters, beacons), in the reference
            // stepper's category/index order so shared-RNG draws match. A
            // MAC still due at this instant (zero slot time) is re-marked
            // so it re-draws each pass, exactly like the re-poll-all
            // reference.
            todo.clear();
            if !self.dirty.tncs.list.is_empty() {
                self.dirty.tncs.drain_into(&mut todo)
            }
            for &pi in &todo {
                polled += 1;
                // Catch-up on touch, TNC side.
                self.deliver_line(pi, now);
                let port = &mut *self.ports[pi];
                let ci = port.chan;
                port.tnc.poll(now, &mut self.channels[ci], &mut self.rng);
                if port.tnc.next_deadline().is_some_and(|d| d <= now) {
                    self.dirty.mark(Key::Tnc(pi));
                }
                self.reg(Key::Tnc(pi), self.ports[pi].tnc.next_deadline());
                self.reg(Key::Chan(ci), self.channels[ci].next_deadline());
            }
            todo.clear();
            if !self.dirty.digis.list.is_empty() {
                self.dirty.digis.drain_into(&mut todo)
            }
            for &di in &todo {
                polled += 1;
                let ci = self.digis[di].chan;
                let entry = &mut self.digis[di];
                entry.digi.poll(now, &mut self.channels[ci], &mut self.rng);
                if entry.digi.next_deadline().is_some_and(|d| d <= now) {
                    self.dirty.mark(Key::Digi(di));
                }
                self.reg(Key::Digi(di), self.digis[di].digi.next_deadline());
                self.reg(Key::Chan(ci), self.channels[ci].next_deadline());
            }
            todo.clear();
            if !self.dirty.beacons.list.is_empty() {
                self.dirty.beacons.drain_into(&mut todo)
            }
            for &bi in &todo {
                polled += 1;
                let ci = self.beacons[bi].chan;
                let entry = &mut self.beacons[bi];
                entry.beacon.poll(now, &mut self.channels[ci]);
                if entry.beacon.next_deadline().is_some_and(|d| d <= now) {
                    self.dirty.mark(Key::Beacon(bi));
                }
                self.reg(Key::Beacon(bi), self.beacons[bi].beacon.next_deadline());
                self.reg(Key::Chan(ci), self.channels[ci].next_deadline());
            }

            // 4. Ethernet: direct segments (single-shard), or timed
            // cross-shard deliveries the coordinator queued (multi-shard).
            match segs {
                Some(Wire { segments, hosts }) => {
                    todo.clear();
                    if !self.dirty.segs.list.is_empty() {
                        self.dirty.segs.drain_into(&mut todo)
                    }
                    for &si in &todo {
                        polled += 1;
                        if segments[si].next_deadline().is_some_and(|t| t <= now) {
                            segments[si].advance_owned(now, |nic, frame| {
                                progressed = true;
                                if let Some(hi) = local_host(hosts, si, nic) {
                                    self.catch_up_host(hi);
                                    self.hosts[hi].host.on_ether_frame(now, frame);
                                    self.dirty.mark(Key::Host(hi));
                                    self.mark_apps(hi);
                                }
                            });
                        }
                        self.reg(Key::Seg(si), segments[si].next_deadline());
                    }
                }
                None => {
                    while self.ether_in.peek().is_some_and(|e| e.at <= now) {
                        let d = self.ether_in.pop().expect("peeked entry pops");
                        let hi = d.host;
                        progressed = true;
                        polled += 1;
                        self.catch_up_host(hi);
                        deliver(&mut self.hosts[hi].host, now, d, &mut self.spent);
                        self.dirty.mark(Key::Host(hi));
                        self.mark_apps(hi);
                    }
                }
            }

            // 5. Hosts: CPU-gated stack work, then route their output.
            todo.clear();
            if !self.dirty.hosts.list.is_empty() {
                self.dirty.hosts.drain_into(&mut todo)
            }
            for &hi in &todo {
                polled += 1;
                self.catch_up_host(hi);
                let mut deadline = self.hosts[hi].host.next_deadline();
                let due = deadline.is_some_and(|t| t <= now);
                if due {
                    self.hosts[hi].host.advance(now);
                    self.mark_apps(hi);
                }
                let flushed = self.flush_host(now, hi, segs);
                progressed |= flushed.progressed;
                if flushed.dispatched {
                    // on_event handlers may have queued more output and
                    // changed app state; catch both this instant. Routing
                    // an outbox alone changes nothing a host or app sees.
                    self.dirty.mark(Key::Host(hi));
                    self.mark_apps(hi);
                    self.flush_after_apps.mark(hi);
                }
                // A host that neither ran nor heard from a handler is
                // where it was.
                if due || flushed.dispatched {
                    deadline = self.hosts[hi].host.next_deadline();
                }
                self.reg(Key::Host(hi), deadline);
            }

            // 6. Applications: poll dirty apps in index order, then flush
            // their hosts in host-index order (the reference polls all
            // apps, then flushes all hosts).
            todo.clear();
            if !self.dirty.apps.list.is_empty() {
                self.dirty.apps.drain_into(&mut todo)
            }
            for &ai in &todo {
                polled += 1;
                let hi = self.apps[ai].host;
                self.catch_up_host(hi);
                let entry = &mut self.apps[ai];
                entry.app.poll(now, &mut self.hosts[hi].host);
                self.reg(Key::App(ai), self.apps[ai].app.next_deadline());
                self.flush_after_apps.mark(hi);
            }
            todo.clear();
            if !self.flush_after_apps.list.is_empty() {
                self.flush_after_apps.drain_into(&mut todo);
            }
            for &hi in &todo {
                let flushed = self.flush_host(now, hi, segs);
                progressed |= flushed.progressed;
                if flushed.dispatched {
                    self.dirty.mark(Key::Host(hi));
                    self.mark_apps(hi);
                }
                self.reg(Key::Host(hi), self.hosts[hi].host.next_deadline());
            }

            self.sched.stats_mut().polled += polled;
            if !progressed {
                self.scratch = todo;
                return;
            }
        }
        panic!("world did not settle at {now}");
    }

    /// Processes everything due at `self.now` until the instant is quiet,
    /// visiting every component on every pass (the reference stepper).
    fn settle_scan(&mut self, segs: &mut Segs<'_>) {
        let now = self.now;
        let mut rx = std::mem::take(&mut self.run_scratch);
        for _pass in 0..10_000 {
            let mut progressed = false;

            // 1. Serial lines: finish due characters, route rx bytes.
            for port in &mut self.ports {
                if port.line.next_deadline().is_some_and(|t| t <= now) {
                    port.line.advance(now);
                }
                // Host side (End::A).
                if port.line.drain_rx(End::A, &mut rx) > 0 {
                    progressed = true;
                    let host = &mut self.hosts[port.host].host;
                    host.on_serial_run(now, SimDuration::ZERO, &rx);
                }
                // TNC side (End::B).
                if port.line.drain_rx(End::B, &mut rx) > 0 {
                    progressed = true;
                    for &b in &rx {
                        port.tnc.on_serial_byte(b, &mut self.channels[port.chan]);
                    }
                }
            }

            // 2. Radio channels: completed transmissions become receptions.
            for ci in 0..self.channels.len() {
                if self.channels[ci].next_deadline().is_some_and(|t| t <= now) {
                    progressed |= self.hear_channel(now, ci);
                }
            }

            // 3. MAC polls (TNCs, digipeaters, beacons).
            for p in &mut self.ports {
                p.tnc.poll(now, &mut self.channels[p.chan], &mut self.rng);
            }
            for d in &mut self.digis {
                d.digi.poll(now, &mut self.channels[d.chan], &mut self.rng);
            }
            for b in &mut self.beacons {
                b.beacon.poll(now, &mut self.channels[b.chan]);
            }

            // 4. Ethernet: direct segments, or queued cross-shard
            // deliveries.
            match segs {
                Some(Wire { segments, hosts }) => {
                    for si in 0..segments.len() {
                        if segments[si].next_deadline().is_none_or(|t| t > now) {
                            continue;
                        }
                        segments[si].advance_owned(now, |nic, frame| {
                            progressed = true;
                            if let Some(hi) = local_host(hosts, si, nic) {
                                self.hosts[hi].host.on_ether_frame(now, frame);
                            }
                        });
                    }
                }
                None => {
                    while self.ether_in.peek().is_some_and(|e| e.at <= now) {
                        let d = self.ether_in.pop().expect("peeked entry pops");
                        progressed = true;
                        deliver(&mut self.hosts[d.host].host, now, d, &mut self.spent);
                    }
                }
            }

            // 5. Hosts: CPU-gated stack work, then route their output.
            for hi in 0..self.hosts.len() {
                if self.hosts[hi]
                    .host
                    .next_deadline()
                    .is_some_and(|t| t <= now)
                {
                    self.hosts[hi].host.advance(now);
                }
                progressed |= self.flush_host(now, hi, segs).progressed;
            }

            // 6. Applications.
            progressed |= self.run_apps(now, segs);

            if !progressed {
                self.run_scratch = rx;
                return;
            }
        }
        panic!("world did not settle at {now}");
    }

    /// The key of channel `ci`'s station `si` if its queued frame was
    /// blocked only on carrier sense.
    fn waiting_on_carrier(&self, ci: usize, si: usize) -> Option<Key> {
        let (waiting, key) = match self.stations[ci][si]? {
            Station::Tnc(p) => (self.ports[p].tnc.waiting_on_carrier(), Key::Tnc(p)),
            Station::Digi(d) => (self.digis[d].digi.waiting_on_carrier(), Key::Digi(d)),
            Station::Beacon(b) => (self.beacons[b].beacon.waiting_on_carrier(), Key::Beacon(b)),
        };
        waiting.then_some(key)
    }

    // --- Shared routing (both steppers) -------------------------------------

    /// Completes every transmission on channel `chan` due by `now` and
    /// hands each to the stations in range: one `Heard` per transmission,
    /// whose on-air bytes, FCS verdict, header and KISS encoding every
    /// listener shares. Under the indexed engine a frame goes up each
    /// line sealed with what the address test needs of that header
    /// (DESIGN.md §6, judge once); the reference stepper delivers per
    /// character and sends bytes alone. Returns whether anyone heard
    /// anything.
    fn hear_channel(&mut self, now: SimTime, chan: usize) -> bool {
        let mut any = false;
        let mut heard = std::mem::take(&mut self.heard);
        while self.channels[chan].hear_next(now, &mut heard) {
            for k in 0..heard.listeners().len() {
                any = true;
                let (to, corrupted) = heard.listeners()[k];
                match slot(&self.stations, chan, to.0) {
                    Some(Station::Tnc(pi)) => {
                        let port = &mut *self.ports[pi];
                        if port.tnc.on_reception(&mut heard, corrupted).is_none() {
                            continue;
                        }
                        let seal = match self.mode {
                            Mode::Indexed => seal_of(&mut heard),
                            Mode::Scan => None,
                        };
                        if let Some(bytes) = heard.kiss() {
                            match seal {
                                Some(seal) => port.line.send_sealed(now, End::B, bytes, seal),
                                None => port.line.send(now, End::B, bytes),
                            }
                            self.reg(Key::Line(pi), self.ports[pi].line.next_boundary());
                        }
                    }
                    Some(Station::Digi(i)) => {
                        let ch = &mut self.channels[chan];
                        self.digis[i].digi.on_reception(&mut heard, corrupted, ch);
                    }
                    // Beacons ignore receptions.
                    Some(Station::Beacon(_)) | None => {}
                }
            }
        }
        self.heard = heard;
        any
    }

    /// Routes a host's output and records/dispatches its events. Links the
    /// host pushed output into get their new deadlines registered here.
    /// The tty output queue goes down the serial line in one send, then is
    /// cleared; Ethernet output goes to the segment directly (single-shard)
    /// or to `ether_out` for the coordinator (multi-shard).
    fn flush_host(&mut self, now: SimTime, hi: usize, segs: &mut Segs<'_>) -> Flushed {
        let mut flushed = Flushed::default();
        let port = self.hosts[hi].port;
        if let Some(tty) = self.hosts[hi].host.tty_outq().filter(|q| !q.is_empty()) {
            flushed.progressed = true;
            if let Some(pi) = port {
                self.ports[pi].line.send(now, End::A, tty);
            }
            tty.clear();
            if let Some(pi) = port {
                self.reg(Key::Line(pi), self.ports[pi].line.next_boundary());
            }
        }
        let mut outs = std::mem::take(&mut self.out_scratch);
        self.hosts[hi].host.swap_outbox(&mut outs);
        let nic = self.hosts[hi].nic;
        for frame in outs.drain(..) {
            flushed.progressed = true;
            if let Some((seg, nic)) = nic {
                match segs {
                    Some(wire) => {
                        wire.segments[seg].send(now, nic, frame);
                        self.reg(Key::Seg(seg), wire.segments[seg].next_deadline());
                    }
                    None => {
                        self.out_seq += 1;
                        self.ether_out.push(OutFrame {
                            time: now,
                            seq: self.out_seq,
                            seg,
                            nic,
                            frame,
                        });
                    }
                }
            }
        }
        self.out_scratch = outs;
        let mut events = std::mem::take(&mut self.event_scratch);
        self.hosts[hi].host.swap_events(&mut events);
        if !events.is_empty() {
            flushed.progressed = true;
            let entry = &mut *self.hosts[hi];
            flushed.dispatched = !entry.apps.is_empty();
            for ev in events.drain(..) {
                for &ai in &entry.apps {
                    self.apps[ai].app.on_event(now, &ev, &mut entry.host);
                }
                if self.record_events {
                    self.events.push((entry.gid, now, ev));
                }
            }
        }
        self.event_scratch = events;
        flushed
    }

    /// Reference-stepper app step: poll every app, then flush every host.
    fn run_apps(&mut self, now: SimTime, segs: &mut Segs<'_>) -> bool {
        let mut progressed = false;
        let mut apps = std::mem::take(&mut self.apps);
        for entry in &mut apps {
            entry.app.poll(now, &mut self.hosts[entry.host].host);
        }
        self.apps = apps;
        // App activity shows up as host outbox/event work.
        for hi in 0..self.hosts.len() {
            progressed |= self.flush_host(now, hi, segs).progressed;
        }
        progressed
    }
}

/// The seal `heard`'s KISS encoding goes up a serial line under: what the
/// address test needs of its header. `None` for a body the receiving
/// deframer does not turn into exactly one frame — an empty one is a KISS
/// idle, one past the length cap is dropped as oversize.
fn seal_of(heard: &mut Heard) -> Option<Seal> {
    let len = heard.body()?.len();
    (1..=kiss::Deframer::DEFAULT_MAX_LEN)
        .contains(&len)
        .then(|| crate::prdriver::seal(heard.header()))
}
