//! `perfbench` — the Thrifty pipeline measured end to end and layer by
//! layer.
//!
//! ```text
//! perfbench --workload <replay-100k|corpus-2k|daemon-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--toy] [--thriftyd <path>]
//! ```
//!
//! Every workload runs one warm-up pass, then identical passes until
//! `--seconds` have elapsed; each pass deploys a fresh service on the
//! same seeded inputs, and every timing is the median over the measured
//! passes (NOTES.md records why single passes are too noisy). The
//! worker-thread override is pinned to 1. With `--trace 0` the run
//! prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced passes and prints the per-layer metrics, the
//! tracing overhead, and how much of the timed phase the layer spans
//! cover. The last stdout line is the JSON result; a failed output check
//! prints it with `"correct": false` and exits 1. `--toy` shrinks every
//! input for the smoke test; `--thriftyd` names the daemon binary
//! `daemon-churn` spawns (default: `thriftyd` next to this executable).

mod corpus;
mod daemon;
mod measure;
mod replay;

use measure::{median, Latency, Metric, Outcome, Spans};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub toy: bool,
    /// The `thriftyd` binary `daemon-churn` spawns (default: the one
    /// next to this executable).
    pub thriftyd: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        toy: false,
        thriftyd: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            args.toy = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--thriftyd" => args.thriftyd = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One measured pass of a workload, untraced.
pub struct Pass {
    /// Input generation plus deploy (or daemon spawn until its first
    /// `ping`).
    pub setup_s: f64,
    /// Wall time to produce the deployment plan.
    pub plan_s: f64,
    /// Wall time of the timed phase (replay, or the request stream).
    pub phase_s: f64,
    /// Operations per second of the timed phase; `None` on a pass that
    /// timed each request, so timing calls never weigh on it.
    pub throughput: Option<f64>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (see NOTES.md for each workload's rule).
    pub failed: u64,
    /// Per-request wall latencies; `None` on a pass that did not time
    /// each request.
    pub latency: Option<Latency>,
    /// Peak RSS so far of the process that did the work (this one, or
    /// the pass's daemon), read at the end of the pass.
    pub peak_rss_mb: f64,
    pub nodes_frac: f64,
    pub sla_met_frac: f64,
    /// Digest of the outputs; must be identical across passes.
    pub digest: u64,
    /// Whether the outputs equal the reference the pass checks them
    /// against (the in-process run for `daemon-churn`; replays have none
    /// beyond the digest).
    pub matched: bool,
}

/// One traced-mode pass: the untraced and traced timings of the same
/// timed phase, the traced pass's spans, and counts.
pub struct TracedPass {
    pub untraced_phase_s: f64,
    pub traced_phase_s: f64,
    /// Summed self time of the spans inside the timed phase.
    pub covered_s: f64,
    pub spans: Spans,
    /// Non-span per-layer metrics (counts, percentiles).
    pub layer_metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Untraced and traced output digests; both must match the warm-up.
    pub digests: (u64, u64),
    /// As [`Pass::matched`], for the untraced pass.
    pub matched: bool,
}

/// The per-layer metrics every workload reports with `--trace 1`, with
/// their units; a layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("library.generate_s", "s"),
    ("composition.compose_s", "s"),
    ("activity.epochize_s", "s"),
    ("grouping.two_step_s", "s"),
    ("grouping.groups", "count"),
    ("service.deploy_s", "s"),
    ("service.submit_s", "s"),
    ("service.advance_s", "s"),
    ("service.drain_s", "s"),
    ("service.report_s", "s"),
    ("service.records_retained", "count"),
    ("runtime.handle_p50_us", "us"),
    ("runtime.handle_p99_us", "us"),
    ("runtime.cycle_ms", "ms"),
    ("protocol.codec_us", "us"),
    ("server.wait_us", "us"),
    ("queries.submitted", "count"),
    ("queries.completed", "count"),
    ("route.overflow", "count"),
    ("scaling.activated", "count"),
    ("reconsolidation.completed", "count"),
    ("bulk_loads.finished", "count"),
    ("groups.cutover", "count"),
    ("tenants.registered", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// The telemetry counters of [`PER_LAYER`] (entries 16 to 23), read
/// from a snapshot.
pub fn counter_metrics(snapshot: &thrifty::telemetry::TelemetrySnapshot) -> Vec<Metric> {
    PER_LAYER[16..24]
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: snapshot.counter(name) as f64,
            unit,
        })
        .collect()
}

/// Builds the `--trace 0` result from the measured passes.
fn end_to_end(workload: &str, warm: Pass, passes: Vec<Pass>) -> Outcome {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let some =
        |f: &dyn Fn(&Pass) -> Option<f64>| median(&passes.iter().filter_map(f).collect::<Vec<_>>());
    let correct = std::iter::once(&warm)
        .chain(&passes)
        .all(|p| p.matched && p.digest == warm.digest);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let timed = passes.iter().filter(|p| p.latency.is_some()).count();
    let samples = passes
        .iter()
        .find_map(|p| p.latency.as_ref())
        .map_or(0, |l| l.samples);
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: med(&|p| p.setup_s),
            unit: "s",
        },
        Metric {
            name: "throughput",
            value: some(&|p| p.throughput),
            unit: "1/s",
        },
        Metric {
            name: "plan_s",
            value: med(&|p| p.plan_s),
            unit: "s",
        },
        Metric {
            name: "req_p50_ms",
            value: some(&|p| p.latency.as_ref().map(|l| l.p50)),
            unit: "ms",
        },
        Metric {
            name: "req_p90_ms",
            value: some(&|p| p.latency.as_ref().map(|l| l.p90)),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            // After the second measured pass: a fixed amount of work, so
            // the reading does not grow with the host-dependent pass
            // count (NOTES.md).
            value: passes.get(1).map_or(f64::NAN, |p| p.peak_rss_mb),
            unit: "MB",
        },
        Metric {
            name: "nodes_frac",
            value: warm.nodes_frac,
            unit: "ratio",
        },
        Metric {
            name: "sla_met_frac",
            value: warm.sla_met_frac,
            unit: "ratio",
        },
    ];
    Outcome {
        correct: correct && metrics.iter().all(|m| m.value.is_finite()),
        attempted,
        failed,
        metrics,
        notes: vec![
            format!(
                "{workload}: {} measured passes after 1 warm-up, {timed} of them timing each request; \
                 each timing is the median over the passes that measure it; \
                 {samples} request samples per pass; digest {:016x}",
                passes.len(),
                warm.digest
            ),
            format!(
                "failed_frac {} ({failed} of {attempted} operations)",
                failed as f64 / attempted.max(1) as f64
            ),
            // Not gated: it swings too far between runs (NOTES.md).
            format!(
                "req_p99_ms {} (ungated)",
                some(&|p| p.latency.as_ref().map(|l| l.p99))
            ),
        ],
    }
}

/// Builds the `--trace 1` result from the traced-mode passes.
fn per_layer(workload: &str, warm: TracedPass, passes: Vec<TracedPass>) -> Outcome {
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let digest = warm.digests.0;
    let correct = std::iter::once(&warm)
        .chain(&passes)
        .all(|p| p.matched && p.digests == (digest, digest));
    let untraced = med(&|p| p.untraced_phase_s);
    let traced = med(&|p| p.traced_phase_s);
    let mut extra: Vec<Metric> = vec![
        Metric {
            name: "trace.overhead_frac",
            value: (traced - untraced) / untraced,
            unit: "ratio",
        },
        Metric {
            name: "trace.coverage_frac",
            value: med(&|p| p.covered_s / p.traced_phase_s),
            unit: "ratio",
        },
    ];
    // Non-span metrics: the median over passes of each one reported.
    for (i, m) in warm.layer_metrics.iter().enumerate() {
        extra.push(Metric {
            name: m.name,
            value: med(&|p| p.layer_metrics.get(i).map_or(f64::NAN, |x| x.value)),
            unit: m.unit,
        });
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match extra.iter().find(|m| m.name == name) {
                Some(m) => Metric {
                    name,
                    value: m.value,
                    unit,
                },
                None => Metric {
                    name,
                    value: med(&|p| p.spans.secs(name)),
                    unit,
                },
            },
        )
        .collect();
    if let Some(last) = passes.last() {
        last.spans.print("last traced pass");
    }
    Outcome {
        correct: correct && metrics.iter().all(|m| m.value.is_finite()),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
        notes: vec![format!(
            "{workload} traced: {} untraced+traced pass pairs after 1 warm-up pair; \
             timed phase untraced {untraced:.6} s, traced {traced:.6} s (medians)",
            passes.len()
        )],
    }
}

/// A workload's pass, given the index of the pass in its run (0 is the
/// warm-up).
type PassFn = fn(&Args, usize) -> Result<Pass, String>;
type TracedPassFn = fn(&Args, usize) -> Result<TracedPass, String>;

fn run(args: &Args) -> Result<Outcome, String> {
    let (pass, traced_pass): (PassFn, TracedPassFn) = match args.workload.as_str() {
        "replay-100k" => (replay::pass, replay::traced_pass),
        "corpus-2k" => (corpus::pass, corpus::traced_pass),
        "daemon-churn" => (daemon::pass, daemon::traced_pass),
        other => {
            return Err(format!(
                "unknown workload {other:?} (replay-100k, corpus-2k, daemon-churn)"
            ))
        }
    };
    // At least two passes of each kind when the replays alternate them.
    let min_passes = 4;
    Ok(if args.trace {
        let (warm, passes) =
            measure::run_passes(args.seconds, min_passes, |i| traced_pass(args, i))?;
        per_layer(&args.workload, warm, passes)
    } else {
        let (warm, passes) = measure::run_passes(args.seconds, min_passes, |i| pass(args, i))?;
        end_to_end(&args.workload, warm, passes)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("perfbench: --workload is required");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    thrifty_bench::parallel::set_thread_override(Some(1));
    match run(&args) {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
