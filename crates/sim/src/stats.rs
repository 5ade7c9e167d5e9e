//! Measurement primitives used by the experiment harnesses.
//!
//! The experiments in `crates/bench` reconstruct the paper's qualitative
//! claims as tables; these types gather the underlying samples — event
//! counts and latency distributions — and render aligned text tables.

use std::fmt;

use crate::time::SimDuration;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use sim::stats::Counter;
///
/// let mut drops = Counter::new();
/// drops.add(3);
/// drops.add(1);
/// assert_eq!(drops.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Counter {
        Counter(0)
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero, returning the old value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A latency recorder keeping full samples for exact quantiles.
///
/// Experiments here are small enough (≤ millions of packets) that storing
/// every duration is cheaper than the error analysis a sketch would need.
///
/// # Examples
///
/// ```
/// use sim::stats::Latency;
/// use sim::SimDuration;
///
/// let mut l = Latency::new();
/// for ms in [10, 20, 30, 40] {
///     l.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(l.quantile(0.5), Some(SimDuration::from_millis(20)));
/// assert_eq!(l.max(), Some(SimDuration::from_millis(40)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Latency {
    samples: Vec<SimDuration>,
    sorted: bool,
}

impl Latency {
    /// Creates an empty recorder.
    pub fn new() -> Latency {
        Latency {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean duration, or `None` if empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_nanos() as u128).sum();
        Some(SimDuration::from_nanos(
            (total / self.samples.len() as u128) as u64,
        ))
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Exact quantile (nearest-rank), `q` in `[0, 1]`; `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Smallest sample.
    pub fn min(&mut self) -> Option<SimDuration> {
        self.sort();
        self.samples.first().copied()
    }

    /// Largest sample.
    pub fn max(&mut self) -> Option<SimDuration> {
        self.sort();
        self.samples.last().copied()
    }
}

/// Renders rows of cells with aligned columns (two-space gutters).
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let ncols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; ncols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.add(1);
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn latency_quantiles() {
        let mut l = Latency::new();
        for ms in 1..=100 {
            l.record(SimDuration::from_millis(ms));
        }
        assert_eq!(l.quantile(0.0), Some(SimDuration::from_millis(1)));
        assert_eq!(l.quantile(0.5), Some(SimDuration::from_millis(50)));
        assert_eq!(l.quantile(0.99), Some(SimDuration::from_millis(99)));
        assert_eq!(l.quantile(1.0), Some(SimDuration::from_millis(100)));
        assert_eq!(l.mean(), Some(SimDuration::from_nanos(50_500_000)));
    }

    #[test]
    fn latency_empty() {
        let mut l = Latency::new();
        assert_eq!(l.quantile(0.5), None);
        assert_eq!(l.mean(), None);
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn render_table_aligns_columns() {
        let rows = vec![
            vec!["a".to_string(), "bbbb".to_string()],
            vec!["cccc".to_string(), "d".to_string()],
        ];
        let out = render_table(&rows);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        // Both first-column cells are right-aligned to width 4.
        assert!(lines[0].starts_with("   a"));
        assert!(lines[1].starts_with("cccc"));
    }
}
