//! Measurement plumbing shared by the workloads: the pass loop, order
//! statistics, peak RSS, the output digest, per-layer spans, and the
//! result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Runs `pass(0)` as a warm-up (caches, allocator, page faults), then
/// `pass(1)`, `pass(2)`, ... while another pass as long as the last one
/// still fits in `seconds`, and at least `min_passes` times. Returns the
/// warm-up's and the measured passes' outputs.
pub fn run_passes<T>(
    seconds: u64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<T>), String> {
    let warm = pass(0)?;
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.len() < min_passes || started.elapsed() + last <= budget {
        let t = Instant::now();
        out.push(pass(out.len() + 1)?);
        last = t.elapsed();
    }
    Ok((warm, out))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `values` (sorted in
/// place).
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Request-latency percentiles of one pass, in ms. Passes keep only
/// these, so a run's memory does not grow with its pass count.
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Latency {
    pub fn of(mut ms: Vec<f64>) -> Self {
        Latency {
            samples: ms.len(),
            p50: percentile(&mut ms, 50.0),
            p90: percentile(&mut ms, 90.0),
            p99: percentile(&mut ms, 99.0),
        }
    }
}

/// Peak resident set size in MB of the process `pid` (`"self"` for this
/// one), from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// FNV-1a accumulator — the same digest `experiments scale` prints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the workloads' seeded stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// In-memory spans recorded by the benchmark around calls into one
/// layer's public functions: per layer, the call count and summed wall
/// time. The calls never nest, so a layer's total is its self time.
#[derive(Default)]
pub struct Spans {
    layers: BTreeMap<&'static str, (u64, Duration)>,
}

impl Spans {
    /// Times one call into `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(layer, t.elapsed());
        r
    }

    /// Records one call of `layer` that took `d`.
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        let e = self.layers.entry(layer).or_default();
        e.0 += 1;
        e.1 += d;
    }

    /// Summed time of `layer` in seconds (0 when never called).
    pub fn secs(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |e| e.1.as_secs_f64())
    }

    /// Prints one line per layer: calls and self time.
    pub fn print(&self, title: &str) {
        println!("spans ({title}):");
        for (name, (calls, d)) in &self.layers {
            println!(
                "  {name:<24} {calls:>10} calls  {:>10.4} s",
                d.as_secs_f64()
            );
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result (sample counts,
    /// pass counts, digests).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Prints the notes, every metric as `name value unit`, and the
    /// one-line JSON result last.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        // Names and units are fixed identifiers, so the line is written
        // directly. A non-finite value (which also fails the run) is
        // written as `null` to keep the line valid JSON.
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
