//! Plain-text table rendering for experiment output.
//!
//! Every experiment produces one or more [`Table`]s whose rows mirror the
//! series of the corresponding paper figure; the harness prints them with
//! aligned columns so EXPERIMENTS.md can quote them directly.

use crate::parallel::StageTiming;
use serde::Serialize;
use std::fmt;
use thrifty::telemetry::TelemetrySnapshot;

/// One table of an experiment's output.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Table caption, e.g. `"Figure 7.1a — consolidation effectiveness"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let mut line = String::new();
        for (w, h) in widths.iter().zip(&self.headers) {
            line.push_str(&format!("{h:>w$}  "));
        }
        writeln!(f, "{}", line.trim_end())?;
        let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(rule_len))?;
        for row in &self.rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                line.push_str(&format!("{cell:>w$}  "));
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// A complete experiment result: identifier, context line, tables, and the
/// parallel-stage timings recorded while producing them.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `"fig7.1"`).
    pub id: String,
    /// Human description (paper artefact + setting).
    pub context: String,
    /// The tables.
    pub tables: Vec<Table>,
    /// Wall-clock time of every parallel stage that ran, attached by
    /// [`crate::experiments::run`] and persisted in `BENCH_<id>.json`. A
    /// stage's speedup is the ratio of its `wall` in two runs at different
    /// `THRIFTY_THREADS`.
    pub timings: Vec<StageTiming>,
    /// Telemetry recorded by the service replay backing this experiment,
    /// if one ran. Persisted in `BENCH_<id>.json` so the perf trajectory
    /// gains utilization / overflow / queue-depth columns.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {}", self.id, self.context)?;
        for t in &self.tables {
            writeln!(f)?;
            write!(f, "{t}")?;
        }
        if let Some(snap) = &self.telemetry {
            if snap.enabled {
                writeln!(f)?;
                write!(f, "{}", telemetry_counters_table(snap))?;
                writeln!(f)?;
                write!(f, "{}", telemetry_instances_table(snap))?;
            }
        }
        if !self.timings.is_empty() {
            writeln!(f)?;
            write!(f, "{}", timing_table(&self.timings))?;
        }
        Ok(())
    }
}

/// Renders the counters of a [`TelemetrySnapshot`] as a table.
pub fn telemetry_counters_table(snap: &TelemetrySnapshot) -> Table {
    let mut t = Table::new("Service telemetry — counters", &["counter", "value"]);
    for (name, value) in &snap.counters {
        t.push_row(vec![name.clone(), value.to_string()]);
    }
    if snap.dropped_events > 0 {
        t.push_row(vec![
            "(dropped events)".into(),
            snap.dropped_events.to_string(),
        ]);
    }
    t
}

/// Renders per-instance utilization of a [`TelemetrySnapshot`] as a table.
pub fn telemetry_instances_table(snap: &TelemetrySnapshot) -> Table {
    let mut t = Table::new(
        "Service telemetry — per-instance utilization",
        &[
            "instance", "nodes", "util", "avg q", "max q", "subm", "done", "canc", "slowdown",
        ],
    );
    for i in &snap.instances {
        t.push_row(vec![
            i.instance.to_string(),
            i.nodes.to_string(),
            pct(i.utilization),
            num(i.avg_concurrency, 2),
            i.max_concurrency.to_string(),
            i.submitted.to_string(),
            i.completed.to_string(),
            i.cancelled.to_string(),
            format!("{:.2}x", i.mean_slowdown),
        ]);
    }
    t
}

/// Renders stage timings as a standard [`Table`].
fn timing_table(timings: &[StageTiming]) -> Table {
    let mut t = Table::new(
        "Parallel stage timings",
        &["stage", "tasks", "threads", "wall"],
    );
    for s in timings {
        t.push_row(vec![
            s.stage.clone(),
            s.tasks.to_string(),
            s.threads.to_string(),
            dur(s.wall),
        ]);
    }
    t
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with `digits` decimals.
pub fn num(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Renders a unicode sparkline of `values` scaled to `[lo, hi]` (values
/// outside the range are clamped). Handy for RT-TTP traces in terminal
/// output.
pub fn sparkline(values: &[f64], lo: f64, hi: f64) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    assert!(hi > lo, "sparkline range must be non-empty");
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            BARS[((t * (BARS.len() - 1) as f64).round()) as usize]
        })
        .collect()
}

/// Formats a `Duration` compactly.
pub fn dur(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.0}ms", s * 1000.0)
    } else if s < 120.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push_row(vec!["1".into(), "10.0%".into()]);
        t.push_row(vec!["1000".into(), "9.5%".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("x"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn sparkline_scales_and_clamps() {
        let s = sparkline(&[0.0, 0.5, 1.0, 2.0, -1.0], 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 5);
        assert_eq!(chars[0], '\u{2581}');
        assert_eq!(chars[2], '\u{2588}');
        assert_eq!(chars[3], '\u{2588}'); // clamped high
        assert_eq!(chars[4], '\u{2581}'); // clamped low
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.815), "81.5%");
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(dur(std::time::Duration::from_millis(250)), "250ms");
        assert_eq!(dur(std::time::Duration::from_secs(90)), "90.0s");
        assert_eq!(dur(std::time::Duration::from_secs(600)), "10.0min");
    }
}
