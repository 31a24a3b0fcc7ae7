//! Shared measurement helpers: metric maps, latency summaries, seeds,
//! and peak-memory readings.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Metrics by name: `(value, unit)`.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What one workload run (or probe) produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations the timed part attempted.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Correctness-check failures (empty means correct).
    pub errors: Vec<String>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Metrics, by name.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Folds a probe's per-layer metrics, errors and notes into `self`
    /// (its operation counts stay its own).
    pub fn absorb(&mut self, probe: Outcome) {
        self.metrics.extend(probe.metrics);
        self.errors.extend(probe.errors);
        self.notes.extend(probe.notes);
    }
}

/// The end-to-end figures every workload reports.
pub struct EndToEnd {
    /// One sample per set-up repetition, in seconds.
    pub setup: Vec<f64>,
    /// Latency of every answered operation of the timed part.
    pub latencies: Vec<Duration>,
    /// Summed wall-clock of the timed part.
    pub wall: Duration,
    /// Operations per round; fixes the tail percentile.
    pub round_ops: usize,
    /// Peak resident set of the working process, in MB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Writes `setup_s`, `ops_per_s`, `op_p50_ms`, `op_tail_ms` and
    /// `peak_rss_mb` into `out`, with a note naming the tail percentile.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.latencies.len();
        out.put("setup_s", median(&self.setup), "s");
        out.put(
            "ops_per_s",
            n as f64 / self.wall.as_secs_f64().max(1e-9),
            "1/s",
        );
        let lat_ms: Vec<f64> = self.latencies.iter().map(|&d| ms(d)).collect();
        out.put("op_p50_ms", median(&lat_ms), "ms");
        let p = tail_percentile(self.round_ops);
        let tail = if p > 50 {
            let mut sorted = self.latencies.clone();
            sorted.sort_unstable();
            ms(bench::timing::percentile(&sorted, p).unwrap_or_default())
        } else {
            median(&lat_ms)
        };
        out.put("op_tail_ms", tail, "ms");
        out.put("peak_rss_mb", self.peak_rss_mb, "MB");
        out.notes.push(if p > 50 {
            format!(
                "op_tail_ms is p{p} of {n} operations ({} per round)",
                self.round_ops
            )
        } else {
            format!(
                "op_tail_ms is the median of {n} operations: a round has only {}",
                self.round_ops
            )
        });
    }
}

/// The highest percentile with at least ten operations of one round
/// beyond it; the median for rounds of fewer than forty operations.
/// Fixing it per round keeps it the same whatever the number of rounds.
pub fn tail_percentile(round_ops: usize) -> u64 {
    if round_ops < 40 {
        return 50;
    }
    (100.0 * (1.0 - 10.0 / round_ops as f64)).floor() as u64
}

/// Median of plain numbers, the mean of the middle two for an even
/// count (zero when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set (`VmHWM`) of a process, in MB: this process when
/// `pid` is `None`. Zero when the kernel does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Derives an independent sub-seed from the run seed.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    sim::rng::SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Runs whole rounds until their summed timed wall reaches `seconds`
/// (at least one). `round` returns the timed wall of the round it ran.
pub fn run_rounds(seconds: f64, mut round: impl FnMut(usize) -> Duration) -> Duration {
    let mut wall = Duration::ZERO;
    let mut r = 0;
    while r == 0 || wall.as_secs_f64() < seconds {
        wall += round(r);
        r += 1;
    }
    wall
}

/// Per-layer figures of the traced run's overhead: the traced round's
/// wall over the untraced round's, with both bases.
pub fn overhead(out: &mut Outcome, untraced: Duration, traced: Duration) {
    out.put(
        "trace.overhead_ratio",
        traced.as_secs_f64() / untraced.as_secs_f64().max(1e-9),
        "ratio",
    );
    out.put("trace.untraced_wall_s", untraced.as_secs_f64(), "s");
    out.put("trace.traced_wall_s", traced.as_secs_f64(), "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond() {
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(51), 80);
        assert_eq!(tail_percentile(121), 91);
        assert_eq!(tail_percentile(401), 97);
    }

    #[test]
    fn median_of_even_count() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
