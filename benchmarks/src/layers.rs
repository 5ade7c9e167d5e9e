//! Per-layer accounting: exact work *counts* read from the program's
//! public stats surfaces after a run, joined with the *unit costs* the
//! probes measure, into `<layer>.<metric>` rows and estimated shares.

use serial::End;

use crate::probes::UnitCosts;
use crate::run::RunResult;
use crate::workloads::{Built, Workload};

/// Work counts of one run, summed over the world. All exact, all a pure
/// function of `(workload, seed)`. Several of the program's stats structs
/// have no `PartialEq`; runs are compared through the `Debug` rendering.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub sched: sim::SchedStats,
    pub mailbox: sim::mailbox::MailboxStats,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_high_water: u64,
    pub serial_chars: u64,
    pub serial_overruns: u64,
    pub radio_transmissions: u64,
    pub radio_collisions: u64,
    /// Octets FCS-summed: each transmission once per station on its channel.
    pub radio_fcs_bytes: u64,
    pub chan_util_pct: f64,
    pub chan_offered_pct: f64,
    pub tnc_filtered: u64,
    pub pr: gateway::prdriver::PrStats,
    pub cpu_char_interrupts: u64,
    pub cpu_packets: u64,
    /// Mean modelled CPU utilization of the gateway machines, percent.
    pub gw_cpu_util_pct: f64,
    pub ifq_drops: u64,
    pub ifq_peak: u64,
    pub ether_frames: u64,
    pub ether_bytes: u64,
    pub ether_util_pct: f64,
    pub ip: netstack::stack::StackStats,
    /// Largest route table on any gateway.
    pub routes: u64,
    pub filter: filter::FilterStats,
    pub filter_generation: u64,
    pub shards: u64,
    pub workers: u64,
    pub hosts: u64,
}

impl Counts {
    /// Reads every layer's counters from a finished run.
    pub fn read(b: &Built, w: Workload) -> Counts {
        let now = b.world.now;
        let span_ns = now.as_nanos().max(1) as f64;
        let mut c = Counts {
            sched: b.world.sched_stats(),
            mailbox: b.world.mailbox_stats(),
            shards: b.world.shard_count() as u64,
            workers: w.workers() as u64,
            hosts: b.hosts.len() as u64,
            ..Counts::default()
        };

        for &h in &b.hosts {
            if let Some(line) = b.world.host_serial_line(h) {
                for end in [End::A, End::B] {
                    let d = line.stats(end);
                    c.serial_chars += d.delivered;
                    c.serial_overruns += d.overruns;
                }
            }
            let host = b.world.host(h);
            if let Some(drv) = host.pr_driver() {
                let s = drv.stats();
                c.pr.rint_chars += s.rint_chars;
                c.pr.frames_in += s.frames_in;
                c.pr.not_for_us += s.not_for_us;
                c.pr.ip_in += s.ip_in;
                c.pr.ip_out += s.ip_out;
                c.pr.filter_drop_in += s.filter_drop_in;
                c.pr.filter_drop_out += s.filter_drop_out;
                let pool = drv.pool_stats();
                c.pool_hits += pool.hits.get();
                c.pool_misses += pool.misses.get();
                c.pool_high_water = c.pool_high_water.max(pool.high_water);
            }
            let cpu = host.cpu.stats();
            c.cpu_char_interrupts += cpu.char_interrupts;
            c.cpu_packets += cpu.packets;
            c.ifq_drops += host.input_queue_drops();
            c.ifq_peak = c.ifq_peak.max(host.input_queue_peak() as u64);
            let s = host.stack.stats();
            c.ip.ip_in += s.ip_in;
            c.ip.ip_out += s.ip_out;
            c.ip.forwarded += s.forwarded;
            c.ip.no_route += s.no_route;
            c.ip.bad_packets += s.bad_packets;
            c.ip.ipip_out += s.ipip_out;
            c.ip.ipip_in += s.ipip_in;
            c.ip.fwd_cache_hits += s.fwd_cache_hits;
            c.ip.fwd_cache_misses += s.fwd_cache_misses;
            c.ip.fwd_cache_stale += s.fwd_cache_stale;
            if let Some(engine) = host.filter_engine() {
                let e = engine.borrow();
                let f = e.stats();
                c.filter.cache_hits += f.cache_hits;
                c.filter.cache_misses += f.cache_misses;
                c.filter.allowed += f.allowed;
                c.filter.denied += f.denied;
                c.filter.gate_denied += f.gate_denied;
                c.filter_generation = c.filter_generation.max(u64::from(e.generation()));
            }
        }

        for &g in &b.gateways {
            let host = b.world.host(g);
            c.gw_cpu_util_pct += host.cpu.utilization(now) * 100.0 / b.gateways.len() as f64;
            c.routes = c.routes.max(host.stack.routes().routes().len() as u64);
        }

        for &ch in &b.channels {
            let chan = b.world.channel(ch);
            let s = chan.stats();
            c.radio_transmissions += s.transmissions;
            c.radio_collisions += s.corrupted_receptions;
            let air_bytes =
                s.airtime_ns as u128 * chan.rate().bits_per_sec() as u128 / (8 * 1_000_000_000u128);
            c.radio_fcs_bytes += air_bytes as u64 * chan.station_count() as u64;
            let n = b.channels.len() as f64;
            c.chan_util_pct += chan.utilization(now) * 100.0 / n;
            c.chan_offered_pct += chan.offered_utilization(now) * 100.0 / n;
        }
        for &t in &b.tncs {
            c.tnc_filtered += b.world.tnc(t).stats().filtered;
        }
        for &sg in &b.segments {
            let s = b.world.segment(sg).stats();
            c.ether_frames += s.sent;
            c.ether_bytes += s.bytes_on_wire;
            c.ether_util_pct += s.bytes_on_wire as f64 * 8.0 * 1e9 / (10_000_000.0 * span_ns)
                * 100.0
                / b.segments.len() as f64;
        }
        c
    }

    /// Share of frames the radio drivers deframed only to find they were
    /// addressed to someone else — §3's wasted work.
    pub fn not_for_us_share(&self) -> f64 {
        ratio(self.pr.not_for_us, self.pr.frames_in)
    }

    /// Mean serial octets per KISS frame seen by the drivers.
    pub fn mean_kiss_frame_len(&self) -> usize {
        (self.pr.rint_chars / self.pr.frames_in.max(1)).clamp(20, 400) as usize
    }

    /// Mean Ethernet frame size on the wire.
    pub fn mean_ether_frame_len(&self) -> usize {
        (self.ether_bytes / self.ether_frames.max(1)).clamp(64, 1500) as usize
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The per-layer table of a traced run, and the sum of estimated shares.
pub struct LayerTable {
    pub metrics: Vec<Metric>,
    pub est_share_sum: f64,
}

/// Joins counts and unit costs into the `<layer>.<metric>` rows.
///
/// `est_share` = count × unit cost ÷ run wall. It is an *estimate*: the
/// unit cost is measured outside the run, on inputs shaped like the
/// run's, with warm caches; shares are self costs (a layer's probe minus
/// the callee probes it contains), so they may be summed.
pub fn layer_table(
    traced: &RunResult,
    u: &UnitCosts,
    untraced_median_run_s: f64,
    sim_secs: f64,
) -> LayerTable {
    let c = &traced.counts;
    let wall_ns = traced.run_s * 1e9;
    let share = |ns: f64| if wall_ns > 0.0 { ns / wall_ns } else { 0.0 };
    let m = Metric::new;
    let mut out = Vec::new();
    let mut sum = 0.0;
    let mut est = |out: &mut Vec<Metric>, layer: &str, ns: f64| {
        let s = share(ns);
        sum += s;
        out.push(m(&format!("{layer}.est_share"), s, "ratio"));
    };

    // --- sim ---
    let s = &c.sched;
    out.push(m("sim.sched.pops", s.pops as f64, "count"));
    out.push(m("sim.sched.rekeys", s.rekeys as f64, "count"));
    out.push(m(
        "sim.sched.tombstone_skips",
        s.tombstone_skips as f64,
        "count",
    ));
    out.push(m("sim.sched.polled", s.polled as f64, "count"));
    out.push(m("sim.sched.instants", s.instants as f64, "count"));
    out.push(m(
        "sim.sched.polls_per_instant",
        ratio(s.polled, s.instants),
        "ratio",
    ));
    out.push(m(
        "sim.sched.batched_chars",
        s.batched_chars as f64,
        "count",
    ));
    out.push(m("sim.sched.ns_per_rekey_pop", u.sched_rekey_pop_ns, "ns"));
    est(
        &mut out,
        "sim.sched",
        (s.pops + s.rekeys) as f64 / 2.0 * u.sched_rekey_pop_ns,
    );
    out.push(m("sim.mailbox.pushed", c.mailbox.pushed as f64, "count"));
    out.push(m("sim.mailbox.peak", c.mailbox.peak as f64, "count"));
    out.push(m("sim.mailbox.grows", c.mailbox.grows as f64, "count"));
    out.push(m("sim.mailbox.ns_per_handoff", u.mailbox_handoff_ns, "ns"));
    est(
        &mut out,
        "sim.mailbox",
        c.mailbox.pushed as f64 * u.mailbox_handoff_ns,
    );
    out.push(m("sim.pktbuf.hits", c.pool_hits as f64, "count"));
    out.push(m("sim.pktbuf.misses", c.pool_misses as f64, "count"));
    out.push(m(
        "sim.pktbuf.high_water",
        c.pool_high_water as f64,
        "count",
    ));

    // --- serial / kiss / ax25 / radio ---
    out.push(m("serial.chars", c.serial_chars as f64, "count"));
    out.push(m("serial.overruns", c.serial_overruns as f64, "count"));
    // Every serial octet is KISS-escaped once by its sender and deframed
    // once by its receiver (driver or TNC).
    out.push(m("kiss.bytes_in", c.serial_chars as f64, "count"));
    out.push(m("kiss.frames", c.pr.frames_in as f64, "count"));
    out.push(m(
        "kiss.deframe_ns_per_byte",
        u.kiss_deframe_ns_per_byte,
        "ns",
    ));
    out.push(m(
        "kiss.encode_ns_per_byte",
        u.kiss_encode_ns_per_byte,
        "ns",
    ));
    est(
        &mut out,
        "kiss",
        c.serial_chars as f64 * (u.kiss_deframe_ns_per_byte + u.kiss_encode_ns_per_byte),
    );
    out.push(m("ax25.frames", c.pr.frames_in as f64, "count"));
    out.push(m("ax25.peek_ns", u.ax25_peek_ns, "ns"));
    out.push(m("ax25.fcs_ns_per_byte", u.ax25_fcs_ns_per_byte, "ns"));
    est(
        &mut out,
        "ax25",
        c.pr.frames_in as f64 * u.ax25_peek_ns + c.radio_fcs_bytes as f64 * u.ax25_fcs_ns_per_byte,
    );
    out.push(m(
        "radio.transmissions",
        c.radio_transmissions as f64,
        "count",
    ));
    out.push(m("radio.collisions", c.radio_collisions as f64, "count"));
    out.push(m("radio.chan_util_pct", c.chan_util_pct, "%"));
    out.push(m("radio.offered_pct", c.chan_offered_pct, "%"));
    out.push(m("radio.tnc_filtered", c.tnc_filtered as f64, "count"));

    // --- gateway ---
    let pr = &c.pr;
    out.push(m(
        "gateway.prdriver.rint_chars",
        pr.rint_chars as f64,
        "count",
    ));
    out.push(m(
        "gateway.prdriver.frames_in",
        pr.frames_in as f64,
        "count",
    ));
    out.push(m(
        "gateway.prdriver.not_for_us",
        pr.not_for_us as f64,
        "count",
    ));
    out.push(m(
        "gateway.prdriver.not_for_us_share",
        c.not_for_us_share(),
        "ratio",
    ));
    out.push(m("gateway.prdriver.ip_in", pr.ip_in as f64, "count"));
    out.push(m("gateway.prdriver.ip_out", pr.ip_out as f64, "count"));
    out.push(m(
        "gateway.prdriver.filter_drop_in",
        pr.filter_drop_in as f64,
        "count",
    ));
    out.push(m(
        "gateway.prdriver.filter_drop_out",
        pr.filter_drop_out as f64,
        "count",
    ));
    out.push(m(
        "gateway.prdriver.rint_ns_per_char",
        u.rint_ns_per_char,
        "ns",
    ));
    // Self cost: `rint_slice` contains the deframing charged to `kiss`.
    est(
        &mut out,
        "gateway.prdriver",
        pr.rint_chars as f64 * (u.rint_ns_per_char - u.kiss_deframe_ns_per_byte).max(0.0),
    );
    out.push(m(
        "gateway.cpu.char_interrupts",
        c.cpu_char_interrupts as f64,
        "count",
    ));
    out.push(m("gateway.cpu.packets", c.cpu_packets as f64, "count"));
    out.push(m("gateway.cpu.util_pct", c.gw_cpu_util_pct, "%"));
    out.push(m("gateway.ifnet.ifq_drops", c.ifq_drops as f64, "count"));
    out.push(m("gateway.ifnet.ifq_peak", c.ifq_peak as f64, "count"));

    // --- ether ---
    out.push(m("ether.frames", c.ether_frames as f64, "count"));
    out.push(m("ether.util_pct", c.ether_util_pct, "%"));
    out.push(m("ether.codec_ns_per_frame", u.ether_frame_ns, "ns"));
    est(&mut out, "ether", c.ether_frames as f64 * u.ether_frame_ns);

    // --- netstack ---
    let ip = &c.ip;
    out.push(m("netstack.ip.in", ip.ip_in as f64, "count"));
    out.push(m("netstack.ip.out", ip.ip_out as f64, "count"));
    out.push(m("netstack.ip.forwarded", ip.forwarded as f64, "count"));
    out.push(m("netstack.ip.no_route", ip.no_route as f64, "count"));
    out.push(m("netstack.ip.bad_packets", ip.bad_packets as f64, "count"));
    out.push(m("netstack.ip.forward_ns_per_pkt", u.ip_forward_ns, "ns"));
    let fwd_probes = ip.fwd_cache_hits + ip.fwd_cache_misses;
    let hit_ratio = ratio(ip.fwd_cache_hits, fwd_probes);
    // Self cost: the forwarding probe contains one routing decision.
    let decision_ns = hit_ratio * u.fwd_hit_ns + (1.0 - hit_ratio) * u.lpm_lookup_ns;
    est(
        &mut out,
        "netstack.ip",
        ip.forwarded as f64 * (u.ip_forward_ns - decision_ns).max(0.0),
    );
    out.push(m(
        "netstack.fwd.cache_hits",
        ip.fwd_cache_hits as f64,
        "count",
    ));
    out.push(m(
        "netstack.fwd.cache_misses",
        ip.fwd_cache_misses as f64,
        "count",
    ));
    out.push(m(
        "netstack.fwd.cache_stale",
        ip.fwd_cache_stale as f64,
        "count",
    ));
    out.push(m("netstack.fwd.hit_ratio", hit_ratio, "ratio"));
    out.push(m("netstack.fwd.hit_ns", u.fwd_hit_ns, "ns"));
    est(
        &mut out,
        "netstack.fwd",
        ip.fwd_cache_hits as f64 * u.fwd_hit_ns + ip.fwd_cache_misses as f64 * u.lpm_lookup_ns,
    );
    out.push(m("netstack.lpm.routes", c.routes as f64, "count"));
    out.push(m("netstack.lpm.lookup_ns", u.lpm_lookup_ns, "ns"));
    out.push(m("netstack.lpm.linear_ns", u.lpm_linear_ns, "ns"));
    let sim = &traced.sim;
    out.push(m(
        "netstack.tcp.segments_sent",
        sim.tcp_segments as f64,
        "count",
    ));
    out.push(m(
        "netstack.tcp.retransmissions",
        sim.tcp_retransmissions as f64,
        "count",
    ));
    out.push(m(
        "netstack.tcp.retx_share",
        ratio(sim.tcp_retransmissions, sim.tcp_segments),
        "ratio",
    ));

    // --- encap / filter ---
    out.push(m("encap.ipip_out", ip.ipip_out as f64, "count"));
    out.push(m("encap.ipip_in", ip.ipip_in as f64, "count"));
    out.push(m("encap.encap_decap_ns", u.encap_decap_ns, "ns"));
    est(
        &mut out,
        "encap",
        (ip.ipip_out + ip.ipip_in) as f64 * u.encap_decap_ns / 2.0,
    );
    let f = &c.filter;
    out.push(m("filter.evals", (f.allowed + f.denied) as f64, "count"));
    out.push(m("filter.cache_hits", f.cache_hits as f64, "count"));
    out.push(m("filter.cache_misses", f.cache_misses as f64, "count"));
    out.push(m(
        "filter.hit_ratio",
        ratio(f.cache_hits, f.cache_hits + f.cache_misses),
        "ratio",
    ));
    out.push(m("filter.denied", f.denied as f64, "count"));
    out.push(m("filter.gate_denied", f.gate_denied as f64, "count"));
    out.push(m("filter.generation", c.filter_generation as f64, "count"));
    out.push(m("filter.eval_hit_ns", u.filter_hit_ns, "ns"));
    out.push(m("filter.eval_miss_ns", u.filter_miss_ns, "ns"));
    est(
        &mut out,
        "filter",
        f.cache_hits as f64 * u.filter_hit_ns + f.cache_misses as f64 * u.filter_miss_ns,
    );

    // --- socket / workload ---
    out.push(m("socket.poll_ns", u.socket_poll_ns, "ns"));
    let [started, completed, timeouts, errors] = sim.sessions;
    out.push(m("workload.started", started as f64, "count"));
    out.push(m("workload.completed", completed as f64, "count"));
    out.push(m("workload.timeouts", timeouts as f64, "count"));
    out.push(m("workload.errors", errors as f64, "count"));
    out.push(m("workload.record_ns", u.workload_record_ns, "ns"));

    // --- engine, seen from outside ---
    let mut chunks = traced.chunk_ms.clone();
    chunks.sort_by(f64::total_cmp);
    out.push(m("engine.shards", c.shards as f64, "count"));
    out.push(m("engine.workers", c.workers as f64, "count"));
    out.push(m(
        "engine.chunk_ms_p50",
        chunks.get(chunks.len() / 2).copied().unwrap_or(0.0),
        "ms",
    ));
    out.push(m(
        "engine.chunk_ms_max",
        chunks.last().copied().unwrap_or(0.0),
        "ms",
    ));
    out.push(m(
        "engine.cpu_ms_per_sim_s",
        traced.cpu_s * 1e3 / sim_secs,
        "ms/sim-s",
    ));
    out.push(m("engine.unattributed_share", 1.0 - sum, "ratio"));
    out.push(m(
        "engine.trace_overhead_pct",
        (traced.run_s / untraced_median_run_s - 1.0) * 100.0,
        "%",
    ));

    LayerTable {
        metrics: out,
        est_share_sum: sum,
    }
}
