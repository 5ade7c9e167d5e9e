//! The unified telemetry/report layer.
//!
//! Every flow in a fleet records into a [`FlowRecorder`]; recorders
//! merge island-by-island into one table. The recording hot path —
//! [`LatencyHisto::record`], [`FlowRecorder::complete`] and friends —
//! performs no heap allocation (the `workload_gen` ratchet asserts this
//! under a counting global allocator): a histogram is a fixed inline
//! array of log-scale buckets, and every counter is a plain integer.
//!
//! The same module renders the engine-side counters
//! ([`EngineTelemetry`]: scheduler, cross-shard mailboxes, per-island
//! channel utilization) and adapts the existing per-app reports
//! (typist/FTP/echo/DNS) into one shared row format, so experiments no
//! longer hand-roll their result tables.

use gateway::scenario::MeshNet;
use sim::mailbox::MailboxStats;
use sim::sched::SchedStats;
use sim::stats::render_table;
use sim::SimDuration;

/// Number of histogram buckets. With 8 sub-buckets per octave this
/// spans 1 µs .. ~4.7 hours before clamping into the last bucket.
pub const BUCKETS: usize = 256;

/// log2 of the sub-buckets per octave (8): relative quantile error is
/// bounded by 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// A fixed-bucket log-scale latency histogram (HDR-style log-linear:
/// buckets 0..8 are exact microseconds, then 8 equal-width sub-buckets
/// per power of two). Recording is an array increment — no allocation,
/// ever, after construction.
#[derive(Debug, Clone)]
pub struct LatencyHisto {
    buckets: [u64; BUCKETS],
    count: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for LatencyHisto {
    fn default() -> LatencyHisto {
        LatencyHisto::new()
    }
}

impl LatencyHisto {
    /// An empty histogram.
    pub const fn new() -> LatencyHisto {
        LatencyHisto {
            buckets: [0; BUCKETS],
            count: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// The bucket a microsecond value lands in.
    pub fn bucket_of(us: u64) -> usize {
        if us < SUB {
            return us as usize;
        }
        let top = 63 - u64::from(us.leading_zeros());
        let g = top - u64::from(SUB_BITS);
        let sub = (us >> g) & (SUB - 1);
        (((g + 1) * SUB + sub) as usize).min(BUCKETS - 1)
    }

    /// The largest microsecond value bucket `i` holds (its inclusive
    /// upper edge). The last bucket absorbs every larger value, so its
    /// edge is `u64::MAX`; quantiles there fall back to the exact max.
    pub fn bucket_high(i: usize) -> u64 {
        if i < SUB as usize {
            return i as u64;
        }
        if i == BUCKETS - 1 {
            return u64::MAX;
        }
        let g = (i as u64 / SUB) - 1;
        let sub = i as u64 % SUB;
        ((SUB + sub + 1) << g) - 1
    }

    /// Records one latency sample (truncated to whole microseconds).
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        self.record_us(d.as_nanos() / 1_000);
    }

    /// Records one sample given in microseconds.
    #[inline]
    pub(crate) fn record_us(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds another histogram into this one. Equivalent to having
    /// recorded both sample streams into a single histogram.
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, exact.
    pub(crate) fn max_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_us)
    }

    /// Smallest recorded sample, exact.
    pub fn min_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_us)
    }

    /// The `q`-quantile in microseconds: the upper edge of the bucket
    /// holding the rank-`⌈q·n⌉` sample, capped at the exact maximum (so
    /// `quantile_us(1.0)` is exact). Relative error ≤ 12.5%.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_high(i).min(self.max_us));
            }
        }
        Some(self.max_us)
    }

    /// Median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile_us(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile_us(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile_us(0.99)
    }
}

/// Per-flow counters plus the latency histogram: one recorder per
/// (island, session class). Every mutator is a plain field update — the
/// fleet's recording hot path allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FlowRecorder {
    /// Sessions started.
    pub started: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions abandoned at the deadline.
    pub timeouts: u64,
    /// Sessions killed by a socket error.
    pub errors: u64,
    /// Application payload octets delivered by completed work.
    pub goodput_bytes: u64,
    /// Per-operation latency (keystroke RTT, transfer time, resolve
    /// time, echo RTT).
    pub latency: LatencyHisto,
}

impl FlowRecorder {
    /// An empty recorder.
    pub fn new() -> FlowRecorder {
        FlowRecorder::default()
    }

    /// A session began.
    #[inline]
    pub fn start(&mut self) {
        self.started += 1;
    }

    /// One latency observation (may be several per session, e.g. one
    /// per keystroke).
    #[inline]
    pub fn observe(&mut self, d: SimDuration) {
        self.latency.record(d);
    }

    /// A session completed, delivering `bytes` of payload.
    #[inline]
    pub fn complete(&mut self, bytes: u64) {
        self.completed += 1;
        self.goodput_bytes += bytes;
    }

    /// A session hit its deadline.
    #[inline]
    pub fn timeout(&mut self) {
        self.timeouts += 1;
    }

    /// A session died on a socket error.
    #[inline]
    pub fn error(&mut self) {
        self.errors += 1;
    }

    /// Folds another recorder into this one.
    pub fn merge(&mut self, other: &FlowRecorder) {
        self.started += other.started;
        self.completed += other.completed;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.goodput_bytes += other.goodput_bytes;
        self.latency.merge(&other.latency);
    }
}

fn ms(us: Option<u64>) -> String {
    match us {
        Some(us) => format!("{:.1}", us as f64 / 1_000.0),
        None => "-".into(),
    }
}

/// The shared fleet-table header.
pub(crate) fn fleet_header() -> Vec<String> {
    [
        "class",
        "started",
        "done",
        "t/o",
        "err",
        "goodput B/s",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "max ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// One fleet-table row for a (merged) recorder over a run of `span`
/// simulated time.
pub(crate) fn fleet_row(class: &str, r: &FlowRecorder, span: SimDuration) -> Vec<String> {
    let secs = span.as_secs_f64();
    let goodput = if secs > 0.0 {
        format!("{:.1}", r.goodput_bytes as f64 / secs)
    } else {
        "-".into()
    };
    vec![
        class.to_string(),
        r.started.to_string(),
        r.completed.to_string(),
        r.timeouts.to_string(),
        r.errors.to_string(),
        goodput,
        ms(r.latency.p50()),
        ms(r.latency.p95()),
        ms(r.latency.p99()),
        ms(r.latency.max_us()),
    ]
}

/// Renders merged per-class recorders as one table.
pub fn fleet_table(rows: &[(&str, &FlowRecorder)], span: SimDuration) -> String {
    let mut table = vec![fleet_header()];
    for (class, r) in rows {
        table.push(fleet_row(class, r, span));
    }
    render_table(&table)
}

// ---------------------------------------------------------------------
// Shared row format for the existing per-app reports (the printing that
// echo/ftp/typist/dns experiments used to hand-roll, deduplicated).

/// The shared app-table header: `app | count | ok | fail | bytes |
/// mean ms | max ms`.
pub(crate) fn app_header() -> Vec<String> {
    ["app", "count", "ok", "fail", "bytes", "mean ms", "max ms"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// An FTP server in the shared app-row format.
pub(crate) fn ftp_server_row(label: &str, r: &apps::ftp::FileServerReport) -> Vec<String> {
    vec![
        label.into(),
        r.serves.to_string(),
        r.serves.to_string(),
        r.not_found.to_string(),
        r.bytes_sent.to_string(),
        "-".into(),
        "-".into(),
    ]
}

/// An echo server in the shared app-row format.
pub(crate) fn echo_row(label: &str, r: &apps::echo::EchoReport) -> Vec<String> {
    vec![
        label.into(),
        r.accepted.to_string(),
        r.accepted.to_string(),
        "0".into(),
        r.bytes_echoed.to_string(),
        "-".into(),
        "-".into(),
    ]
}

/// A DNS server in the shared app-row format.
pub(crate) fn dns_server_row(label: &str, r: &apps::dns::DnsServerReport) -> Vec<String> {
    vec![
        label.into(),
        r.queries.to_string(),
        r.answered.to_string(),
        (r.nxdomain + r.malformed).to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]
}

/// Renders app rows (from the `*_row` adapters) under the shared header.
pub(crate) fn app_table(rows: &[Vec<String>]) -> String {
    let mut table = vec![app_header()];
    table.extend(rows.iter().cloned());
    render_table(&table)
}

// ---------------------------------------------------------------------
// Engine-side counters.

/// A snapshot of the engine-side telemetry for one run: scheduler and
/// mailbox counters plus channel utilization across the islands.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// Shards in the world.
    pub shards: usize,
    /// Scheduler counters (summed across shards).
    pub sched: SchedStats,
    /// Cross-shard mailbox counters (summed).
    pub mailboxes: MailboxStats,
    /// Mean clamped utilization across island channels, percent.
    pub chan_util_mean: f64,
    /// Highest single-island utilization, percent.
    pub chan_util_max: f64,
    /// Mean offered load (may exceed 100 under overload), percent.
    pub chan_offered_mean: f64,
}

impl EngineTelemetry {
    /// Snapshots a mesh world's engine counters at its current time.
    pub fn gather(m: &MeshNet) -> EngineTelemetry {
        let now = m.world.now;
        let mut sum = 0.0;
        let mut max: f64 = 0.0;
        let mut offered = 0.0;
        for &c in &m.channels {
            let u = m.world.channel(c).utilization(now) * 100.0;
            sum += u;
            max = max.max(u);
            offered += m.world.channel(c).offered_utilization(now) * 100.0;
        }
        let n = m.channels.len().max(1) as f64;
        EngineTelemetry {
            shards: m.world.shard_count(),
            sched: m.world.sched_stats(),
            mailboxes: m.world.mailbox_stats(),
            chan_util_mean: sum / n,
            chan_util_max: max,
            chan_offered_mean: offered / n,
        }
    }

    /// Renders the snapshot as a two-row table.
    pub fn table(&self) -> String {
        render_table(&[
            vec![
                "shards".into(),
                "sched polls".into(),
                "instants".into(),
                "mbox pushed".into(),
                "mbox grows".into(),
                "util mean %".into(),
                "util max %".into(),
                "offered %".into(),
            ],
            vec![
                self.shards.to_string(),
                self.sched.polled.to_string(),
                self.sched.instants.to_string(),
                self.mailboxes.pushed.to_string(),
                self.mailboxes.grows.to_string(),
                format!("{:.1}", self.chan_util_mean),
                format!("{:.1}", self.chan_util_max),
                format!("{:.1}", self.chan_offered_mean),
            ],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_zero_through_seven_are_exact() {
        for us in 0..8 {
            assert_eq!(LatencyHisto::bucket_of(us), us as usize);
            assert_eq!(LatencyHisto::bucket_high(us as usize), us);
        }
    }

    #[test]
    fn bucket_edges_roundtrip() {
        // Every value lands in a bucket whose range contains it, and
        // bucket ranges tile the axis without gaps or overlap.
        for i in 1..BUCKETS {
            let lo = LatencyHisto::bucket_high(i - 1) + 1;
            let hi = LatencyHisto::bucket_high(i);
            assert!(lo <= hi, "bucket {i}: {lo} > {hi}");
            assert_eq!(LatencyHisto::bucket_of(lo), i, "low edge of {i}");
            if i < BUCKETS - 1 {
                assert_eq!(LatencyHisto::bucket_of(hi), i, "high edge of {i}");
            }
        }
    }

    #[test]
    fn bucket_of_is_monotone() {
        // Dense over the low range, then octave-stepped edges above.
        let mut values: Vec<u64> = (0..100_000u64).step_by(7).collect();
        for shift in 17..40 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift) + off);
            }
        }
        values.sort_unstable();
        let mut prev = 0;
        for us in values {
            let b = LatencyHisto::bucket_of(us);
            assert!(b >= prev, "bucket_of({us}) went backwards");
            prev = b;
        }
    }

    #[test]
    fn oversized_values_clamp_into_last_bucket() {
        let mut h = LatencyHisto::new();
        h.record_us(u64::MAX);
        assert_eq!(LatencyHisto::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(h.quantile_us(0.5), Some(u64::MAX));
        assert_eq!(h.max_us(), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHisto::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.max_us(), None);
        assert_eq!(h.min_us(), None);
    }

    #[test]
    fn single_sample_quantiles_are_that_sample() {
        let mut h = LatencyHisto::new();
        h.record_us(1_234);
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile_us(q).unwrap();
            // Capped at the exact max, and never below the bucket floor.
            assert_eq!(
                v,
                1_234.min(LatencyHisto::bucket_high(LatencyHisto::bucket_of(1_234)))
            );
        }
    }

    #[test]
    fn quantile_error_is_bounded_by_sub_bucket_width() {
        let mut h = LatencyHisto::new();
        for us in (100..100_000).step_by(137) {
            h.record_us(us);
        }
        let exact: Vec<u64> = (100..100_000).step_by(137).collect();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = h.quantile_us(q).unwrap();
            assert!(est >= truth, "quantile underestimates: {est} < {truth}");
            assert!(
                (est - truth) as f64 <= truth as f64 * 0.125 + 1.0,
                "q={q}: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn merge_equals_union_of_streams() {
        let mut a = LatencyHisto::new();
        let mut b = LatencyHisto::new();
        let mut both = LatencyHisto::new();
        for i in 0..1_000u64 {
            let v = i * i % 77_777;
            if i % 3 == 0 {
                a.record_us(v);
            } else {
                b.record_us(v);
            }
            both.record_us(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min_us(), both.min_us());
        assert_eq!(a.max_us(), both.max_us());
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile_us(q), both.quantile_us(q), "q={q}");
        }
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let mut src = LatencyHisto::new();
        src.record_us(10);
        src.record_us(20_000);
        let mut dst = LatencyHisto::new();
        dst.merge(&src);
        assert_eq!(dst.count(), 2);
        assert_eq!(dst.min_us(), Some(10));
        assert_eq!(dst.max_us(), Some(20_000));
    }

    #[test]
    fn recorder_counts_and_goodput() {
        let mut r = FlowRecorder::new();
        r.start();
        r.observe(SimDuration::from_millis(5));
        r.complete(100);
        r.start();
        r.timeout();
        r.start();
        r.error();
        assert_eq!(r.started, 3);
        assert_eq!(r.completed, 1);
        assert_eq!(r.timeouts, 1);
        assert_eq!(r.errors, 1);
        assert_eq!(r.goodput_bytes, 100);
        assert_eq!(r.latency.count(), 1);

        let mut sum = FlowRecorder::new();
        sum.merge(&r);
        sum.merge(&r);
        assert_eq!(sum.started, 6);
        assert_eq!(sum.goodput_bytes, 200);
        assert_eq!(sum.latency.count(), 2);
    }

    #[test]
    fn tables_render_without_panicking() {
        let mut r = FlowRecorder::new();
        r.start();
        r.observe(SimDuration::from_millis(12));
        r.complete(64);
        let t = fleet_table(&[("typist", &r)], SimDuration::from_secs(10));
        assert!(t.contains("typist"));
        assert!(t.contains("p99"));
        let empty = FlowRecorder::new();
        let t = fleet_table(&[("ftp", &empty)], SimDuration::ZERO);
        assert!(t.contains('-'));
    }
}
