//! The event-driven testbed: hosts, serial lines, TNCs, radio channels,
//! digipeaters, Ethernet segments, and applications under one clock.
//!
//! The world is partitioned into **shards** (`crate::shard`): each shard
//! owns a closed island of components — radio channels plus their attached
//! hosts, TNCs, digipeaters, beacons, and apps — with its own
//! deadline-indexed calendar, dirty set, RNG stream, and clock. Ethernet
//! segments are the only cross-shard links; the world coordinator owns
//! them and moves frames between shards through per-shard mailboxes.
//!
//! A single-shard world (the default — every builder call without an
//! explicit shard lands in shard 0) runs exactly the pre-shard engine:
//! the shard is handed the segments directly and steps to the limit in
//! one call. A multi-shard world runs **windows** of conservative
//! lookahead: each window covers `(w_prev, w_end]` where `w_end` is the
//! earliest pending event plus the cross-shard latency `LOOKAHEAD`;
//! every shard due in the window steps it without seeing its neighbors,
//! one after another on the caller's thread, and the coordinator applies
//! deferred Ethernet traffic between windows in deterministic
//! `(time, shard, seq)` order. DESIGN.md §11 has the full contract.
//!
//! The previous engine — scan every component for its deadline on every
//! event, re-poll everything every pass — is retained verbatim as the
//! *reference stepper* ([`World::run_until_reference`]) so equivalence
//! tests can prove the indexed scheduler produces identical event
//! sequences.
//!
//! All components are sans-io state machines from the substrate crates;
//! this module is the only place where they touch.

use std::any::Any;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write;
use std::marker::PhantomData;

use ax25::addr::Ax25Addr;
use ether::{EtherFrame, NicId, Segment};
use netstack::stack::StackAction;
use radio::channel::Channel;
use radio::csma::MacConfig;
use radio::digi::Digipeater;
use radio::tnc::{RxMode, Tnc, TncConfig};
use radio::traffic::{BeaconConfig, BeaconStation};
use serial::{SerialConfig, SerialLine};
use sim::sched::SchedStats;
use sim::{Bandwidth, Fnv1a, SimDuration, SimRng, SimTime};

use crate::host::{Host, HostConfig};
use crate::shard::{
    set_slot, slot, AppEntry, BeaconEntry, DigiEntry, HostEntry, InFrame, Lent, Link, Mode, Port,
    ShardData, Station, Wire,
};

/// The conservative cross-shard lookahead: a frame leaving a shard for
/// the Ethernet backbone is applied to the segment `LOOKAHEAD` after its
/// emission instant. At 1200–9600 b/s radio timescales one millisecond is
/// far below any observable protocol timer, and it is what lets every
/// shard step a whole window without seeing its neighbors (DESIGN.md
/// §11). Single-shard worlds bypass it entirely.
pub const LOOKAHEAD: SimDuration = SimDuration::from_millis(1);

/// Handle to a shard of the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardId(usize);

impl ShardId {
    /// Shard 0, which every world starts with.
    pub const ZERO: ShardId = ShardId(0);

    /// The shard's index (shard 0 always exists).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a radio channel in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChanId(usize);

/// Handle to an Ethernet segment in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegId(usize);

/// Handle to a host in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId(usize);

/// Handle to a TNC in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TncId(usize);

/// Handle to a digipeater in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DigiId(usize);

/// Handle to a background traffic station in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BeaconId(usize);

/// Handle to an app installed by [`World::add_app`], typed by the app it
/// names: [`World::app`] and [`World::app_mut`] hand back an `A`.
pub struct AppId<A> {
    shard: u32,
    local: u32,
    app: PhantomData<fn() -> A>,
}

impl<A> Clone for AppId<A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A> Copy for AppId<A> {}

/// FNV-1a over an event log rendered one `"{host:?} {time} {event:?}\n"`
/// line per event: the digest E15, E16 and E18 print into `results/` and
/// compare across engines and cache settings.
pub fn event_digest(events: &[(HostId, SimTime, StackAction)]) -> u64 {
    let mut digest = Fnv1a::new();
    for (h, t, e) in events {
        writeln!(digest, "{h:?} {t} {e:?}").expect("a digest takes any string");
    }
    digest.finish()
}

/// An application running "on" a host, driven by stack events.
///
/// Implementations live in the `apps` crate; the world calls these hooks
/// with the owning [`Host`] borrowed mutably so the app can use the
/// socket API directly.
///
/// Scheduler contract: `poll` is guaranteed to be called at
/// [`App::next_deadline`], after any `on_event`, and whenever the owning
/// host was touched at the current instant. Polls at other times may or
/// may not happen, so a `poll` that acts without a due deadline, a fresh
/// event, or new host state will not run deterministically — expose a
/// deadline instead.
///
/// Between run calls an app is reached through the world that owns it:
/// [`World::app`] reads it and [`World::app_mut`] commands it.
pub trait App: Any {
    /// Called once when the world first runs.
    fn on_start(&mut self, now: SimTime, host: &mut Host) {
        let _ = (now, host);
    }

    /// Called for every stack event on the owning host.
    fn on_event(&mut self, now: SimTime, event: &StackAction, host: &mut Host) {
        let _ = (now, event, host);
    }

    /// Called on quiescence passes where the app is due or its host was
    /// touched, and at [`App::next_deadline`].
    fn poll(&mut self, now: SimTime, host: &mut Host) {
        let _ = (now, host);
    }

    /// An optional wake-up time (timers, scripted actions).
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }
}

/// A deferred cross-shard Ethernet send waiting for its effect time.
/// Ordered by `(effect, shard, seq)` — the deterministic merge order at
/// shard boundaries, independent of the order the shards were stepped in.
struct PendingSend {
    effect: SimTime,
    shard: u32,
    seq: u64,
    seg: usize,
    nic: NicId,
    frame: EtherFrame,
}

impl PendingSend {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.effect, self.shard, self.seq)
    }
}

impl PartialEq for PendingSend {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PendingSend {}

impl PartialOrd for PendingSend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingSend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One count per kind of component the calendar holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Serial lines (a host's end and its TNC's: one key per port).
    pub line: u64,
    /// Radio channels.
    pub channel: u64,
    /// Ethernet segments (a one-shard world's only: a multi-shard world's
    /// segments are the coordinator's).
    pub segment: u64,
    /// TNCs.
    pub tnc: u64,
    /// Digipeaters.
    pub digi: u64,
    /// Beacon stations.
    pub beacon: u64,
    /// Hosts.
    pub host: u64,
    /// Applications.
    pub app: u64,
}

impl KindCounts {
    /// The sum over kinds.
    pub fn total(&self) -> u64 {
        self.line
            + self.channel
            + self.segment
            + self.tnc
            + self.digi
            + self.beacon
            + self.host
            + self.app
    }
}

/// What the engine did, as plain counters accumulated over every run
/// call ([`World::engine_stats`]), all functions of the simulated history
/// alone: the shards' calendar work by component kind, summed over
/// shards (the world lends its counters to each shard step), and the
/// multi-shard window coordinator's work, all zero on a single-shard
/// world, which never enters the coordinator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Calendar entries popped (`SchedStats::pops`), by the kind of the
    /// component each one woke.
    pub calendar_pops: KindCounts,
    /// Deadlines reported to the calendar after anything may have moved
    /// them — first registrations, re-keys, removals and unchanged
    /// reports alike — by component kind. The reference stepper reports
    /// none.
    pub calendar_registrations: KindCounts,
    /// Lookahead windows run.
    pub windows: u64,
    /// Shard steps summed over windows (`shards_stepped / windows` is the
    /// mean active set).
    pub shards_stepped: u64,
    /// Ethernet deliveries queued into shard mailboxes.
    pub deliveries_queued: u64,
    /// Of those, the frames moved in whole — each transmission's last
    /// recipient, a unicast frame's only one; the rest are copies.
    pub deliveries_moved: u64,
    /// Delivered frames — moved and copied alike, every one a buffer
    /// that circulates between shards — returned to the spare pool
    /// through `spent`.
    pub frames_recycled: u64,
    /// High-water mark of the deferred cross-shard send heap.
    pub pending_peak: u64,
}

/// The simulation world. See the [module docs](self).
pub struct World {
    /// Current simulated time.
    pub now: SimTime,
    /// Recorded (host, time, event) triples when enabled.
    pub record_events: bool,
    shards: Vec<ShardData>,
    /// Ethernet segments: world-owned, the cross-shard links.
    segments: Vec<Segment>,
    /// Per segment, indexed by NIC: the (shard, local host) it delivers to.
    seg_hosts: Vec<Vec<Option<(u32, u32)>>>,
    /// Global handle → (shard, local index) maps.
    chan_map: Vec<(u32, u32)>,
    host_map: Vec<(u32, u32)>,
    tnc_map: Vec<(u32, u32)>,
    digi_map: Vec<(u32, u32)>,
    beacon_map: Vec<(u32, u32)>,
    events: Vec<(HostId, SimTime, StackAction)>,
    /// In-flight cross-shard sends, min-ordered by `(effect, shard, seq)`.
    pending: BinaryHeap<Reverse<PendingSend>>,
    /// Recycled delivery copies (§11 zero-alloc hand-off pool).
    spare_frames: Vec<EtherFrame>,
    /// The coordinator's calendar — per shard, its earliest event in ns
    /// (`u64::MAX` = none) — and its per-window active list (kept here so
    /// a run call allocates nothing for them; see `Engine`).
    next_due: Vec<u64>,
    active: Vec<usize>,
    engine_stats: EngineStats,
}

impl World {
    /// Creates an empty world with a deterministic seed (one shard).
    pub fn new(seed: u64) -> World {
        World {
            now: SimTime::ZERO,
            record_events: true,
            shards: vec![ShardData::new(SimRng::seed_from(seed))],
            segments: Vec::new(),
            seg_hosts: Vec::new(),
            chan_map: Vec::new(),
            host_map: Vec::new(),
            tnc_map: Vec::new(),
            digi_map: Vec::new(),
            beacon_map: Vec::new(),
            events: Vec::new(),
            pending: BinaryHeap::new(),
            spare_frames: Vec::new(),
            next_due: Vec::new(),
            active: Vec::new(),
            engine_stats: EngineStats::default(),
        }
    }

    /// Scheduler work counters (pops, re-keys, tombstone skips, component
    /// polls, instants, batched serial characters, sealed runs), summed
    /// over shards.
    pub fn sched_stats(&self) -> SchedStats {
        let mut total = SchedStats::default();
        for sh in &self.shards {
            let s = sh.sched_stats();
            total.pops += s.pops;
            total.rekeys += s.rekeys;
            total.unchanged += s.unchanged;
            total.tombstone_skips += s.tombstone_skips;
            total.polled += s.polled;
            total.instants += s.instants;
            total.batched_chars += s.batched_chars;
            total.sealed_runs += s.sealed_runs;
        }
        total
    }

    /// Calendar entries summed over shards — at most one per component,
    /// however often its deadline moved (asserted by E17 and the tests).
    #[doc(hidden)]
    pub fn calendar_len(&self) -> usize {
        self.shards.iter().map(ShardData::calendar_len).sum()
    }

    /// Cross-shard mailbox counters (pushes, pops, ring growths, peak
    /// occupancy), summed over every shard's inbound `ether_in` ring.
    /// `grows` stabilizing while `pushed` keeps climbing is the §11
    /// zero-allocation hand-off contract, asserted by the `shard_sync`
    /// ratchets.
    pub fn mailbox_stats(&self) -> sim::mailbox::MailboxStats {
        let mut total = sim::mailbox::MailboxStats::default();
        for sh in &self.shards {
            let s = sh.ether_in.stats();
            total.pushed += s.pushed;
            total.popped += s.popped;
            total.grows += s.grows;
            total.peak = total.peak.max(s.peak);
        }
        total
    }

    /// The engine's work counters: every shard's calendar, by component
    /// kind, and the window coordinator's of a multi-shard world
    /// (DESIGN.md §11).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Does nothing: every world steps its shards on the caller's thread.
    /// It exists only because the benchmark harness calls it
    /// (`benchmarks/src/run.rs:169`, `benchmarks/src/workloads.rs:570`).
    #[doc(hidden)]
    pub fn set_workers(&mut self, _workers: usize) {}

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Exclusive access to shard `i` for a builder or a `*_mut` accessor.
    /// Whatever the caller does with it, the shard's next run call starts
    /// with a full sync (DESIGN.md §6, run-call contract).
    fn touch(&mut self, i: usize) -> &mut ShardData {
        let sh = &mut self.shards[i];
        sh.stale = true;
        sh
    }

    // --- Topology building -------------------------------------------------

    /// Adds a shard: an independently stepped island of components.
    /// Components must be shard-closed — a radio channel and everything
    /// attached to it live in one shard; only Ethernet segments may span
    /// shards.
    pub fn add_shard(&mut self) -> ShardId {
        let rng = self.touch(0).rng.fork();
        self.shards.push(ShardData::new(rng));
        ShardId(self.shards.len() - 1)
    }

    /// Adds a radio channel (shard 0).
    pub fn add_channel(&mut self, rate: Bandwidth) -> ChanId {
        self.add_channel_in(ShardId(0), rate)
    }

    /// Adds a radio channel to a shard.
    pub fn add_channel_in(&mut self, shard: ShardId, rate: Bandwidth) -> ChanId {
        self.push_channel(shard, Channel::new(rate))
    }

    fn push_channel(&mut self, shard: ShardId, channel: Channel) -> ChanId {
        let sh = self.touch(shard.0);
        sh.channels.push(channel);
        let local = sh.channels.len() - 1;
        self.chan_map.push((shard.0 as u32, local as u32));
        ChanId(self.chan_map.len() - 1)
    }

    /// Adds a radio channel with byte errors (shard 0). The error RNG
    /// forks from shard 0's build-time stream, so topology construction
    /// order alone fixes every stream.
    pub fn add_noisy_channel(&mut self, rate: Bandwidth, byte_error_rate: f64) -> ChanId {
        let rng = self.touch(0).rng.fork();
        let channel = Channel::new(rate).with_byte_errors(byte_error_rate, rng);
        self.push_channel(ShardId(0), channel)
    }

    /// Adds an Ethernet segment (world-owned; hosts from any shard may
    /// attach).
    pub fn add_segment(&mut self, rate: Bandwidth) -> SegId {
        // A one-shard world hands shard 0 the segments to index.
        self.touch(0);
        self.segments.push(Segment::new(rate));
        SegId(self.segments.len() - 1)
    }

    /// Adds a host (shard 0; attach its links separately).
    pub fn add_host(&mut self, cfg: HostConfig) -> HostId {
        self.add_host_in(ShardId(0), cfg)
    }

    /// Adds a host to a shard.
    pub fn add_host_in(&mut self, shard: ShardId, cfg: HostConfig) -> HostId {
        let gid = HostId(self.host_map.len());
        let sh = self.touch(shard.0);
        sh.hosts.push(Box::new(HostEntry {
            host: Host::new(cfg),
            port: None,
            nic: None,
            apps: Vec::new(),
            gid,
        }));
        let local = sh.hosts.len() - 1;
        self.host_map.push((shard.0 as u32, local as u32));
        gid
    }

    /// Attaches a host's radio interface to `chan` through a serial line
    /// at `baud` and a TNC in `mode` with `mac` parameters.
    ///
    /// # Panics
    ///
    /// Panics if the host has no radio interface or already has a port,
    /// or if the host and channel live in different shards (radio links
    /// are shard-internal).
    pub fn attach_radio(
        &mut self,
        host: HostId,
        chan: ChanId,
        baud: u32,
        mode: RxMode,
        mac: MacConfig,
    ) -> TncId {
        let (hs, hl) = self.host_map[host.0];
        let (cs, cl) = self.chan_map[chan.0];
        assert_eq!(
            hs, cs,
            "attach_radio: host (shard {hs}) and channel (shard {cs}) must share a shard"
        );
        let sh = self.touch(hs as usize);
        let port = sh.ports.len();
        let entry = &mut sh.hosts[hl as usize];
        let call = entry.host.callsign().expect("host has no radio interface");
        assert!(
            entry.port.is_none(),
            "attach_radio: the host already has a radio port"
        );
        entry.port = Some(port);
        let station = sh.channels[cl as usize].add_station();
        let cfg = TncConfig::new(call).with_mode(mode).with_mac(mac);
        set_slot(&mut sh.stations, cl as usize, station.0, Station::Tnc(port));
        sh.ports.push(Box::new(Port {
            line: SerialLine::new(SerialConfig::baud(baud)),
            tnc: Tnc::new(cfg, station),
            chan: cl as usize,
            host: hl as usize,
        }));
        self.tnc_map.push((hs, port as u32));
        TncId(self.tnc_map.len() - 1)
    }

    /// Attaches a host's Ethernet interface to `seg`.
    ///
    /// # Panics
    ///
    /// Panics if the host has no Ethernet interface.
    pub fn attach_ether(&mut self, host: HostId, seg: SegId) {
        let (hs, hl) = self.host_map[host.0];
        let mac = self
            .host(host)
            .mac()
            .expect("host has no Ethernet interface");
        let nic = self.segments[seg.0].attach(mac);
        let sh = self.touch(hs as usize);
        sh.hosts[hl as usize].nic = Some((seg.0, nic));
        set_slot(&mut self.seg_hosts, seg.0, nic.index(), (hs, hl));
    }

    /// Adds a standalone digipeater station on `chan`.
    pub fn add_digipeater(&mut self, chan: ChanId, call: Ax25Addr, mac: MacConfig) -> DigiId {
        let (cs, cl) = self.chan_map[chan.0];
        let sh = self.touch(cs as usize);
        let station = sh.channels[cl as usize].add_station();
        let local = sh.digis.len();
        set_slot(
            &mut sh.stations,
            cl as usize,
            station.0,
            Station::Digi(local),
        );
        sh.digis.push(DigiEntry {
            digi: Digipeater::new(call, station, mac),
            chan: cl as usize,
        });
        self.digi_map.push((cs, local as u32));
        DigiId(self.digi_map.len() - 1)
    }

    /// Adds a background traffic station on `chan`. Its RNG forks from
    /// shard 0's build-time stream (see [`World::add_noisy_channel`]).
    pub fn add_beacon(&mut self, chan: ChanId, cfg: BeaconConfig) -> BeaconId {
        let rng = self.touch(0).rng.fork();
        let (cs, cl) = self.chan_map[chan.0];
        let sh = self.touch(cs as usize);
        let station = sh.channels[cl as usize].add_station();
        let local = sh.beacons.len();
        let beacon = Station::Beacon(local);
        set_slot(&mut sh.stations, cl as usize, station.0, beacon);
        sh.beacons.push(BeaconEntry {
            beacon: BeaconStation::new(cfg, station, rng),
            chan: cl as usize,
        });
        self.beacon_map.push((cs, local as u32));
        BeaconId(self.beacon_map.len() - 1)
    }

    /// Installs an application on a host (same shard as the host) and
    /// returns its handle.
    pub fn add_app<A: App>(&mut self, host: HostId, app: Box<A>) -> AppId<A> {
        let (hs, hl) = self.host_map[host.0];
        let sh = self.touch(hs as usize);
        let local = sh.apps.len();
        sh.hosts[hl as usize].apps.push(local);
        sh.apps.push(AppEntry {
            host: hl as usize,
            app,
            started: false,
        });
        AppId {
            shard: hs,
            local: local as u32,
            app: PhantomData,
        }
    }

    // --- Access ---------------------------------------------------------------

    /// A host, immutably.
    pub fn host(&self, id: HostId) -> &Host {
        let (s, l) = self.host_map[id.0];
        &self.shards[s as usize].hosts[l as usize].host
    }

    /// A host, mutably (socket operations, route edits…).
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        let (s, l) = self.host_map[id.0];
        &mut self.touch(s as usize).hosts[l as usize].host
    }

    /// An app, immutably (its report, its state).
    pub fn app<A: App>(&self, id: AppId<A>) -> &A {
        let app: &dyn Any = &*self.shards[id.shard as usize].apps[id.local as usize].app;
        app.downcast_ref()
            .expect("an AppId names an app of its type")
    }

    /// An app, mutably (orders for it to carry out). Like
    /// [`World::host_mut`], it marks the app's shard for a full sync, so
    /// the next run call polls the app at its entry instant.
    pub fn app_mut<A: App>(&mut self, id: AppId<A>) -> &mut A {
        let sh = self.touch(id.shard as usize);
        let app: &mut dyn Any = &mut *sh.apps[id.local as usize].app;
        app.downcast_mut()
            .expect("an AppId names an app of its type")
    }

    /// A radio channel.
    pub fn channel(&self, id: ChanId) -> &Channel {
        let (s, l) = self.chan_map[id.0];
        &self.shards[s as usize].channels[l as usize]
    }

    /// A radio channel, mutably (hearing matrix edits).
    pub fn channel_mut(&mut self, id: ChanId) -> &mut Channel {
        let (s, l) = self.chan_map[id.0];
        &mut self.touch(s as usize).channels[l as usize]
    }

    /// An Ethernet segment.
    pub fn segment(&self, id: SegId) -> &Segment {
        &self.segments[id.0]
    }

    /// A TNC.
    pub fn tnc(&self, id: TncId) -> &Tnc {
        let (s, l) = self.tnc_map[id.0];
        &self.shards[s as usize].ports[l as usize].tnc
    }

    /// A TNC, mutably (mode switches).
    pub fn tnc_mut(&mut self, id: TncId) -> &mut Tnc {
        let (s, l) = self.tnc_map[id.0];
        &mut self.touch(s as usize).ports[l as usize].tnc
    }

    /// A digipeater.
    pub fn digipeater(&self, id: DigiId) -> &Digipeater {
        let (s, l) = self.digi_map[id.0];
        &self.shards[s as usize].digis[l as usize].digi
    }

    /// A background station.
    pub fn beacon(&self, id: BeaconId) -> &BeaconStation {
        let (s, l) = self.beacon_map[id.0];
        &self.shards[s as usize].beacons[l as usize].beacon
    }

    /// The serial line attached to a host, if any.
    pub fn host_serial_line(&self, id: HostId) -> Option<&SerialLine> {
        let (s, l) = self.host_map[id.0];
        let sh = &self.shards[s as usize];
        sh.hosts[l as usize].port.map(|p| &sh.ports[p].line)
    }

    /// Drains recorded stack events.
    pub fn take_events(&mut self) -> Vec<(HostId, SimTime, StackAction)> {
        std::mem::take(&mut self.events)
    }

    /// Recorded events, in place.
    pub fn events(&self) -> &[(HostId, SimTime, StackAction)] {
        &self.events
    }

    // --- Running -----------------------------------------------------------------

    /// Runs the world up to (and including) deadlines at `t`; the clock
    /// finishes exactly at `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.drive(t, Mode::Indexed);
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    // --- Reference stepper --------------------------------------------------
    //
    // The pre-index engine, kept verbatim in `shard.rs`: scan every
    // component for the earliest deadline, then re-poll everything until
    // quiescent. The equivalence tests pin the indexed scheduler against
    // it. Not for mixed use with the indexed run methods on the same World
    // instance within a run — pick one driver per world. On a multi-shard
    // world the reference runs the same lookahead windows, so it is also
    // the spec for the coordinator's merge order.

    /// Reference (full-scan) equivalent of [`World::run_until`].
    #[doc(hidden)]
    pub fn run_until_reference(&mut self, t: SimTime) {
        self.drive(t, Mode::Scan);
    }

    /// The shared run epilogue behind both run methods: pick the engine
    /// (`mode`), run to `limit`, and leave the clock exactly at `limit`.
    fn drive(&mut self, limit: SimTime, mode: Mode) {
        if self.shards.len() == 1 {
            self.drive_single(limit, mode);
        } else {
            self.drive_sharded(limit, mode);
        }
    }

    /// Single-shard fast path: lend the shard the segments and step to
    /// the limit in one call — the exact pre-shard engine, no windows, no
    /// lookahead. It stays because routing one-shard worlds through the
    /// window coordinator lost (ROADMAP item 10; two runs of 6 pairs at
    /// seed 1988): host time rose on `gw_flood` (+21 % and +51 %) and
    /// `paper_promisc` (+15 % and +12 %), and `LOOKAHEAD` on every
    /// Ethernet hop moved `sim_rtt_p50_ms` by +0.4 and +1.2 ms.
    fn drive_single(&mut self, limit: SimTime, mode: Mode) {
        let sh = &mut self.shards[0];
        sh.now = self.now;
        sh.record_events = self.record_events;
        let mut lent = Lent {
            link: Link::Wire(Wire {
                segments: &mut self.segments,
                hosts: &self.seg_hosts,
            }),
            work: &mut self.engine_stats,
        };
        sh.enter(mode, &mut lent);
        sh.run_window(limit, &mut lent);
        sh.exit(lent.work, limit);
        self.now = sh.now.max(limit);
        self.events.append(&mut sh.events);
    }

    /// Multi-shard windowed run. Shards settle their entry instant, then
    /// the coordinator loops lookahead windows until nothing is due at or
    /// before `limit`; see `Engine`.
    fn drive_sharded(&mut self, limit: SimTime, mode: Mode) {
        // The calendar's one all-shard write: from here on only a step or
        // a delivery moves an entry.
        self.next_due.resize(self.shards.len(), u64::MAX);
        for (sh, due) in self.shards.iter_mut().zip(&mut self.next_due) {
            sh.now = self.now;
            sh.record_events = self.record_events;
            sh.enter(
                mode,
                &mut Lent {
                    link: Link::Mailbox(&mut self.spare_frames),
                    work: &mut self.engine_stats,
                },
            );
            *due = due_ns(sh.next_event());
        }
        let mut eng = Engine {
            shards: &mut self.shards,
            next_due: &mut self.next_due,
            active: &mut self.active,
            segments: &mut self.segments,
            seg_hosts: &self.seg_hosts,
            pending: &mut self.pending,
            spare: &mut self.spare_frames,
            events: &mut self.events,
            stats: &mut self.engine_stats,
            limit,
        };
        // Every shard just settled its entry instant and may already have
        // emitted cross-shard traffic.
        eng.active.clear();
        eng.active.extend(0..eng.shards.len());
        eng.collect();
        eng.run_windows();
        let mut now = self.now;
        for sh in &mut self.shards {
            sh.exit(&mut self.engine_stats, limit);
            now = now.max(sh.now);
        }
        self.now = now.max(limit);
    }
}

/// A shard's earliest event as a `next_due` entry (`u64::MAX` = none).
fn due_ns(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, SimTime::as_nanos)
}

/// The multi-shard window coordinator. `next_due` is its persistent
/// calendar of per-shard next events; per window:
///
/// 1. `t_next` = the earliest pending thing anywhere — the minimum of
///    `next_due`, segment completions, and deferred sends; stop when it
///    passes the limit.
/// 2. `w_end = min(limit, t_next + LOOKAHEAD)`.
/// 3. `apply_ether(w_end)`: replay deferred sends and segment
///    completions up to `w_end` in global time order (completions
///    before same-time sends, send ties by `(shard, seq)`, completion
///    ties by segment index), queuing deliveries into shard mailboxes
///    at their exact times and lowering the receivers' `next_due` — a
///    transmission's last recipient gets the frame itself, moved, every
///    other one a copy in a spare frame. Sends
///    emitted *during* a window get effect `≥ w_end` (the lookahead
///    guarantee), so this phase never misses one.
/// 4. Build the **active list** — ascending `{i : next_due[i] ≤ w_end}` —
///    and step exactly those shards, in list order; a shard sees only its
///    mailbox and the spare frames it copies its own sends into, never
///    the segments or another shard. Each step refreshes `next_due[i]`.
/// 5. `collect()` over the same list: gather emitted sends into the
///    pending heap, append shard events (stable-sorted by time; windows
///    never interleave times), and recycle spent delivery frames.
///
/// A shard outside the active list neither ran nor received a frame, so
/// its `next_event()` cannot have moved and nobody asks it: apart from
/// the minimum over `next_due` and the list build, a window costs
/// O(active), not O(shards).
struct Engine<'a> {
    shards: &'a mut [ShardData],
    /// Per shard, its earliest event in ns (`u64::MAX` = none). Three
    /// writers and no other: `drive_sharded` at entry (every shard),
    /// `run_windows` after a step (that shard), and `apply_ether`, which
    /// lowers the receiver's entry to the time of a delivery it queues.
    next_due: &'a mut [u64],
    /// The current window's active list, ascending.
    active: &'a mut Vec<usize>,
    segments: &'a mut Vec<Segment>,
    seg_hosts: &'a [Vec<Option<(u32, u32)>>],
    pending: &'a mut BinaryHeap<Reverse<PendingSend>>,
    spare: &'a mut Vec<EtherFrame>,
    events: &'a mut Vec<(HostId, SimTime, StackAction)>,
    stats: &'a mut EngineStats,
    limit: SimTime,
}

impl Engine<'_> {
    /// The earliest pending event in the whole world.
    fn t_next(&self) -> Option<SimTime> {
        let shard = (self.next_due.iter().copied().min())
            .filter(|&ns| ns != u64::MAX)
            .map(SimTime::from_nanos);
        let wire = self
            .segments
            .iter()
            .filter_map(Segment::next_deadline)
            .min();
        let send = self.pending.peek().map(|r| r.0.effect);
        [shard, wire, send].into_iter().flatten().min()
    }

    /// Replays deferred sends and segment completions with time ≤ `upto`
    /// in global time order, queuing deliveries into shard mailboxes at
    /// their exact completion times. Afterwards every segment deadline
    /// and pending send is > `upto`, and every mailbox is stamped in
    /// nondecreasing order.
    fn apply_ether(&mut self, upto: SimTime) {
        loop {
            let comp = self
                .segments
                .iter()
                .enumerate()
                .filter_map(|(si, s)| s.next_deadline().map(|t| (t, si)))
                .min()
                .filter(|&(t, _)| t <= upto);
            let send = self
                .pending
                .peek()
                .map(|r| r.0.effect)
                .filter(|&t| t <= upto);
            match (comp, send) {
                (None, None) => return,
                // Completions apply before same-time sends: in the
                // single-shard engine the segment advances (settle step 4)
                // before hosts flush new sends (step 5) at one instant.
                (Some((c, si)), send) if send.is_none_or(|e| c <= e) => {
                    let shards = &mut *self.shards;
                    let next_due = &mut *self.next_due;
                    let seg_hosts = self.seg_hosts;
                    let spare = &mut *self.spare;
                    let stats = &mut *self.stats;
                    // `c` is the global minimum, so exactly the one
                    // completion at `c` fires (a chained next frame
                    // finishes strictly later) — every delivery below
                    // happens at `c`.
                    self.segments[si].advance_owned(c, |nic, frame| {
                        if let Some((s, l)) = slot(seg_hosts, si, nic.index()) {
                            let (frame, moved) = match frame {
                                Cow::Owned(frame) => (frame, true),
                                Cow::Borrowed(frame) => {
                                    let mut buf = spare.pop().unwrap_or_else(EtherFrame::empty);
                                    frame.clone_into(&mut buf);
                                    (buf, false)
                                }
                            };
                            let s = s as usize;
                            shards[s].ether_in.push(InFrame {
                                at: c,
                                host: l as usize,
                                frame,
                            });
                            next_due[s] = next_due[s].min(c.as_nanos());
                            stats.deliveries_queued += 1;
                            stats.deliveries_moved += u64::from(moved);
                        }
                    });
                }
                _ => {
                    let Reverse(p) = self.pending.pop().expect("send was peeked");
                    self.segments[p.seg].send(p.effect, p.nic, p.frame);
                }
            }
        }
    }

    /// Gathers the active shards' window output: deferred sends → pending
    /// heap, events → world log (stable-sorted by time; the list is
    /// ascending, so shard order breaks ties), consumed delivery frames →
    /// spare pool. Only a shard that was stepped can hold any of the
    /// three.
    fn collect(&mut self) {
        let tail = self.events.len();
        for &si in self.active.iter() {
            let sh = &mut self.shards[si];
            for of in sh.ether_out.drain(..) {
                self.pending.push(Reverse(PendingSend {
                    effect: of.time + LOOKAHEAD,
                    shard: si as u32,
                    seq: of.seq,
                    seg: of.seg,
                    nic: of.nic,
                    frame: of.frame,
                }));
            }
            self.events.append(&mut sh.events);
            self.stats.frames_recycled += sh.spent.len() as u64;
            self.spare.append(&mut sh.spent);
        }
        self.events[tail..].sort_by_key(|e| e.1);
        self.stats.pending_peak = self.stats.pending_peak.max(self.pending.len() as u64);
        // The calendar invariant: stepped or not, every entry is exact.
        debug_assert!((self.shards.iter_mut().zip(self.next_due.iter()))
            .all(|(sh, &due)| due == due_ns(sh.next_event())));
    }

    /// The window loop (steps 1–5 above).
    fn run_windows(&mut self) {
        while let Some(tn) = self.t_next() {
            if tn > self.limit {
                return;
            }
            let w_end = (tn + LOOKAHEAD).min(self.limit);
            self.apply_ether(w_end);
            let next_due = &*self.next_due;
            self.active.clear();
            self.active
                .extend((0..next_due.len()).filter(|&i| next_due[i] <= w_end.as_nanos()));
            self.stats.windows += 1;
            self.stats.shards_stepped += self.active.len() as u64;
            for &i in self.active.iter() {
                let sh = &mut self.shards[i];
                let mut lent = Lent {
                    link: Link::Mailbox(self.spare),
                    work: self.stats,
                };
                sh.run_window(w_end, &mut lent);
                self.next_due[i] = due_ns(sh.next_event());
            }
            self.collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use sim::SimDuration;

    #[test]
    fn paper_topology_ping_pc_to_ether_host() {
        let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 42);
        let eth_ip = s
            .world
            .host(s.ether_host)
            .stack
            .iface(s.world.host(s.ether_host).ether_iface().unwrap())
            .addr;
        let now = s.world.now;
        s.world
            .host_mut(s.pc)
            .stack_op(now, |st| st.ping(eth_ip, 7, 1, 32));
        s.world.run_for(SimDuration::from_secs(60));
        let events = s.world.take_events();
        let reply = events.iter().find_map(|(h, t, e)| match e {
            StackAction::PingReply { id: 7, seq: 1, .. } if *h == s.pc => Some(*t),
            _ => None,
        });
        let rtt = reply.expect("ping reply must arrive");
        // At 1200 bit/s the ~90-byte request takes >0.5s each way.
        assert!(rtt > SimTime::from_millis(500), "rtt {rtt}");
        assert!(rtt < SimTime::from_secs(20), "rtt {rtt}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 7);
            let eth_ip = scenario::ETHER_HOST_IP;
            let now = s.world.now;
            s.world
                .host_mut(s.pc)
                .stack_op(now, |st| st.ping(eth_ip, 1, 1, 64));
            s.world.run_for(SimDuration::from_secs(60));
            let events = s.world.take_events();
            assert!(
                events.windows(2).all(|w| w[0].1 <= w[1].1),
                "the event log comes out in time order"
            );
            events
                .iter()
                .filter_map(|(_, t, e)| match e {
                    StackAction::PingReply { .. } => Some(t.as_nanos()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let replies = run();
        assert_eq!(replies.len(), 1, "the ping was answered");
        assert_eq!(replies, run());
    }

    /// The reference stepper shares `flush_host` and `hear_channel`
    /// with the indexed engine; what they report must not pile up in a
    /// calendar nobody drains.
    #[test]
    fn reference_stepper_leaves_the_calendar_alone() {
        let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 42);
        let now = s.world.now;
        s.world
            .host_mut(s.pc)
            .stack_op(now, |st| st.ping(scenario::ETHER_HOST_IP, 7, 1, 32));
        s.world.run_until_reference(SimTime::from_secs(600));
        let replies = s
            .world
            .events()
            .iter()
            .filter(|(_, _, e)| matches!(e, StackAction::PingReply { id: 7, .. }));
        assert_eq!(replies.count(), 1, "lines and segments carried traffic");
        assert_eq!(s.world.calendar_len(), 0);
        assert_eq!(s.world.sched_stats(), SchedStats::default());
    }

    /// The exit flush hands the TNC the characters due by the limit, and
    /// the calendar and dirty set it leaves behind are all the next entry
    /// of an untouched shard gets: the TNC it woke must be waiting there.
    #[test]
    fn exit_flush_leaves_whom_it_woke_in_the_dirty_set() {
        let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 42);
        let now = s.world.now;
        s.world
            .host_mut(s.pc)
            .stack_op(now, |st| st.ping(scenario::ETHER_HOST_IP, 7, 1, 32));
        // The ping's KISS frame is on its way down the PC's line.
        s.world.run_for(SimDuration::from_millis(20));
        let line = s.world.host_serial_line(s.pc).expect("radio host");
        assert!(line.tx_backlog(serial::End::A) > 0, "not mid-frame");
        assert!(line.stats(serial::End::A).delivered > 0, "nothing flushed");
        let (_, tnc) = s.world.tnc_map[s.pc_tnc.0];
        let key = crate::shard::Key::Tnc(tnc as usize);
        assert!(s.world.shards[0].is_dirty(key));
    }

    /// A station is one path, host ⇄ line ⇄ TNC: a host holds at most one
    /// port, so a second attachment is refused rather than orphaning the
    /// first port's line.
    #[test]
    #[should_panic(expected = "already has a radio port")]
    fn a_second_radio_attachment_panics() {
        let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 42);
        let mac = radio::csma::MacConfig::default();
        s.world
            .attach_radio(s.pc, s.chan, 9600, radio::tnc::RxMode::Promiscuous, mac);
    }

    /// §3's case as the engine sees it: two promiscuous TNCs pass four
    /// beacons' chatter, addressed to neither host, up their lines. Each
    /// frame heard must cost one line visit — one calendar pop, one
    /// settle visit, no host and no app — and the bounds below are the
    /// measured counts, so the wake rule can only ratchet down.
    #[test]
    fn frames_for_other_stations_cost_one_line_visit_each() {
        let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 42);
        for i in 0..4 {
            s.world.add_beacon(
                s.chan,
                radio::traffic::BeaconConfig {
                    from: ax25::addr::Ax25Addr::parse_or_panic(&format!("BG{i}")),
                    to: ax25::addr::Ax25Addr::parse_or_panic("CHAT"),
                    frame_len: 120,
                    mean_interval: SimDuration::from_secs(8),
                    start: SimTime::from_millis(150 * i),
                    mac: radio::csma::MacConfig::default(),
                },
            );
        }
        s.world.run_for(SimDuration::from_secs(600));
        let heard: u64 = [s.pc_tnc, s.gw_tnc]
            .iter()
            .map(|&t| s.world.tnc(t).stats().passed_to_host)
            .sum();
        let stats = s.world.sched_stats();
        assert_eq!(heard, 520, "frames that went up the two lines");
        // Per transmission: the beacon's two deadlines, the channel, and
        // one visit per listening line. A boundary at every FEND adds a
        // pop and a visit per frame heard (2,704 / 2,912); waking the
        // host for a frame it drops adds a visit (2,916).
        assert!(stats.pops <= 2_186, "{stats:?}");
        assert!(stats.polled <= 2_394, "{stats:?}");
    }

    /// The `gw_flood` pathology at world level (the `world_denied_transit`
    /// shape of the `driver_rx` ratchets): a filtered gateway whose live gate
    /// entry parks its `Key::Host` registration ten minutes out, while
    /// every Ethernet datagram it forwards and then denies re-keys it to
    /// the input queue's ready time and back. The calendar must hold one
    /// entry per component throughout; a calendar that left each replaced
    /// registration behind would hold 10,000 of them at the gate's expiry
    /// instant and count them in `tombstone_skips` once the clock got there.
    #[test]
    fn a_flooded_gateway_keeps_one_calendar_entry_per_component() {
        let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 42);
        let now = s.world.now;
        // An amateur-initiated exchange opens the gate (TTL 600 s).
        s.world
            .host_mut(s.pc)
            .stack_op(now, |st| st.ping(scenario::ETHER_HOST_IP, 7, 1, 32));
        s.world.run_for(SimDuration::from_secs(30));
        let gate = s.world.host(s.gw).filter_engine().expect("gateway filter");
        let far = gate.next_deadline().expect("a live gate entry");
        assert!(far > s.world.now + SimDuration::from_secs(500));
        let sh = &s.world.shards[0];
        let components = sh.hosts.len()
            + 2 * sh.ports.len()
            + sh.channels.len()
            + sh.apps.len()
            + s.world.segments.len();

        let udp = s
            .world
            .host_mut(s.ether_host)
            .stack
            .udp_bind(4000)
            .expect("free port");
        // Nobody invited traffic for this amateur address: forwarded by
        // the gateway's stack, denied at its radio output hook.
        let stranger = std::net::Ipv4Addr::new(44, 24, 0, 77);
        let denied = |w: &World| w.host(s.gw).pr_driver().unwrap().stats().filter_drop_out;
        let denied0 = denied(&s.world);
        const N: u64 = 10_000;
        for _ in 0..N {
            let now = s.world.now;
            s.world
                .host_mut(s.ether_host)
                .stack_op(now, |st| st.udp_send(udp, stranger, 9, vec![0; 20]));
            s.world.run_for(SimDuration::from_millis(5));
            let len = s.world.calendar_len();
            assert!(len <= components, "{len} entries, {components} components");
        }
        assert_eq!(denied(&s.world) - denied0, N, "forwarded, then denied");
        assert!(s.world.now < far, "the gate entry outlived the flood");
        let stats = s.world.sched_stats();
        assert!(stats.rekeys >= N, "one far-to-near re-key each: {stats:?}");
        // Past the gate's expiry: nothing was waiting there to be skipped.
        s.world.run_until(far + SimDuration::from_secs(1));
        assert_eq!(s.world.sched_stats().tombstone_skips, 0);
        assert!(s.world.calendar_len() <= components);
    }

    /// Sends one datagram per `gap` from its host, `left` times.
    struct Sender {
        udp: netstack::stack::UdpId,
        to: std::net::Ipv4Addr,
        next: SimTime,
        gap: SimDuration,
        left: u64,
    }

    impl App for Sender {
        fn poll(&mut self, now: SimTime, host: &mut Host) {
            while self.left > 0 && self.next <= now {
                host.stack_op(now, |st| st.udp_send(self.udp, self.to, 9, vec![0; 20]));
                self.next += self.gap;
                self.left -= 1;
            }
        }

        fn next_deadline(&self) -> Option<SimTime> {
            (self.left > 0).then_some(self.next)
        }
    }

    /// The wake rule on the Ethernet/IP hop (DESIGN.md §6): a datagram an
    /// Ethernet host sends through the gateway costs four visits — the
    /// sender's app, the segment, and the gateway twice (frame in, input
    /// queue due) — since routing a host's outbox re-marks nobody,
    /// because nothing the host or its apps can observe moved. The bound
    /// is the measured count, so it can only ratchet down. Mutations: a
    /// flush that re-marks the host and its apps whenever it routed output
    /// costs 6 polls per datagram and fails here; one that never re-marks
    /// after an `on_event` handler ran fails `sched_equivalence`'s
    /// `output_queued_by_an_event_handler_leaves_in_the_same_instant`.
    #[test]
    fn a_forwarded_datagram_wakes_each_component_once() {
        let mut s = scenario::paper_topology(scenario::PaperConfig::default(), 42);
        let udp = s
            .world
            .host_mut(s.ether_host)
            .stack
            .udp_bind(4000)
            .expect("free port");
        const N: u64 = 1_000;
        let start = s.world.now + SimDuration::from_secs(1);
        s.world.add_app(
            s.ether_host,
            Box::new(Sender {
                udp,
                // Nobody invited traffic for this amateur address:
                // forwarded by the gateway's stack, denied at its radio
                // output hook, so the radio side stays silent.
                to: std::net::Ipv4Addr::new(44, 24, 0, 77),
                next: start,
                gap: SimDuration::from_millis(5),
                left: N,
            }),
        );
        // Settle the first datagram's ARP exchange outside the count.
        s.world.run_until(start + SimDuration::from_millis(2));
        let before = s.world.sched_stats().polled;
        s.world.run_for(SimDuration::from_secs(6));
        let drv = s.world.host(s.gw).pr_driver().unwrap().stats();
        assert_eq!(drv.filter_drop_out, N, "forwarded, then denied");
        let polled = s.world.sched_stats().polled - before;
        assert!(polled <= 4 * (N - 1) + 3, "{polled} polls");
    }

    /// A scripted test app: polls are recorded, and it exposes a fixed
    /// deadline schedule.
    struct Recorder {
        deadlines: Vec<SimTime>,
        fired: Vec<SimTime>,
    }

    impl App for Recorder {
        fn poll(&mut self, now: SimTime, _host: &mut Host) {
            while self.deadlines.first().is_some_and(|&d| d <= now) {
                self.deadlines.remove(0);
                self.fired.push(now);
            }
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.deadlines.first().copied()
        }
    }

    fn recorder_world(deadlines: Vec<SimTime>) -> (World, AppId<Recorder>) {
        let mut w = World::new(1);
        let h = w.add_host(crate::host::HostConfig::named("lone"));
        let id = w.add_app(
            h,
            Box::new(Recorder {
                deadlines,
                fired: Vec::new(),
            }),
        );
        (w, id)
    }

    /// App `poll` hooks fire on the final instant of `run_until`
    /// (deadline == t: the loop breaks only on `d > t`), and a deadline
    /// 1 ns past `t` is not processed.
    #[test]
    fn app_poll_fires_on_final_instant_of_run_until() {
        let t = SimTime::from_secs(3);
        let (mut w, id) = recorder_world(vec![
            SimTime::from_secs(1),
            t,
            t + SimDuration::from_nanos(1),
        ]);
        w.run_until(t);
        assert_eq!(w.app(id).fired, vec![SimTime::from_secs(1), t]);
        assert_eq!(w.now, t);
    }

    /// The reference stepper agrees with the test above.
    #[test]
    fn reference_processes_deadline_at_limit_identically() {
        let limit = SimTime::from_secs(5);
        let (mut w, id) = recorder_world(vec![
            SimTime::from_secs(1),
            limit,
            limit + SimDuration::from_nanos(1),
        ]);
        w.run_until_reference(limit);
        assert_eq!(w.app(id).fired, vec![SimTime::from_secs(1), limit]);
        assert_eq!(w.now, limit);
    }

    /// An app commanded through `app_mut` is as stale as a host through
    /// `host_mut`: its shard's next run call starts with a full sync,
    /// which polls the app at the entry instant.
    #[test]
    fn app_mut_marks_the_shard_for_a_full_sync() {
        let t = SimTime::from_secs(1);
        let (mut w, id) = recorder_world(vec![t]);
        w.run_until(t);
        let _ = w.app(id);
        assert!(!w.shards[0].stale, "app reads leave the shard synced");
        w.app_mut(id).deadlines.push(SimTime::from_secs(2));
        assert!(w.shards[0].stale, "app_mut marks the shard");
        w.run_until(SimTime::from_secs(3));
        assert_eq!(w.app(id).fired, vec![t, SimTime::from_secs(2)]);
    }
}
