//! CLI driver: regenerate the paper's tables and figures.

use std::process::ExitCode;
use thrifty_bench::experiments::{self, ALL_IDS, CORPUS_IDS};
use thrifty_bench::pipeline::{Harness, Scale};
use thrifty_bench::{parallel, report};

const USAGE: &str = "\
usage: experiments [--full] [--seed N] [--json] <id>... | all | list

ids: fig1.1a fig1.1b fig1.1c tab5.1 fig5.3 tab7.1
     fig7.1 fig7.2 fig7.3 fig7.4 fig7.5 fig7.6 fig7.7
     drift controller scale headline ablate

--full    run at the paper's scale (T = 5000, 30-day logs, 100 trials;
          scale: the 10k/100k/1M tenant sweep)
--seed N  workload generation seed (default 42)
--json    also write each result (tables + stage timings) to BENCH_<id>.json

THRIFTY_THREADS caps the worker threads of every parallel stage (default:
all cores; 1 reproduces the serial pipeline bit for bit). Each stage's wall
time is reported; its speedup is the ratio of two runs' walls at different
THRIFTY_THREADS.";

/// Writes the full result (tables + stage timings) to `BENCH_<id>.json` so
/// runs at different `THRIFTY_THREADS` settings can be diffed for output
/// identity and their stage walls compared for speedup.
fn write_json(result: &report::ExperimentResult) -> Result<String, serde_json::Error> {
    let path = format!("BENCH_{}.json", result.id);
    let file = std::fs::File::create(&path).map_err(serde_json::Error::from)?;
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), result)?;
    Ok(path)
}

fn main() -> ExitCode {
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut json = false;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--json" => json = true,
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "list" => {
                for id in ALL_IDS.iter().chain(["headline", "ablate"].iter()) {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => {
                ids.extend(ALL_IDS.iter().map(|s| s.to_string()));
                ids.push("headline".into());
                ids.push("ablate".into());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    ids.dedup();

    // Build the (possibly expensive) corpus harness only if needed.
    let needs_corpus = ids.iter().any(|id| CORPUS_IDS.contains(&id.as_str()));
    eprintln!(
        "# scale: {scale:?}, seed: {seed}, threads: {}{}",
        parallel::max_threads(),
        if needs_corpus {
            " — generating session library..."
        } else {
            ""
        }
    );
    let started = std::time::Instant::now();
    // Non-corpus runs (e.g. `--full scale`) get a near-free harness that
    // still carries the seed and scale — generating the full-scale session
    // library just to throw it away would dwarf the experiment itself.
    let harness = if needs_corpus {
        Harness::new(seed, scale)
    } else {
        Harness::minimal(seed, scale)
    };
    if needs_corpus {
        eprintln!("# session library ready in {:.1?}", started.elapsed());
    }

    let mut failed = false;
    for id in &ids {
        let t0 = std::time::Instant::now();
        match experiments::run(id, &harness) {
            Some(result) => {
                println!("{result}");
                for s in &result.timings {
                    eprintln!(
                        "# {id} stage {}: {} tasks on {} threads, wall {:.1?}",
                        s.stage, s.tasks, s.threads, s.wall
                    );
                }
                if json {
                    match write_json(&result) {
                        Ok(path) => eprintln!("# {id} result written to {path}"),
                        Err(e) => {
                            eprintln!("# {id} could not write JSON: {e}");
                            failed = true;
                        }
                    }
                }
                eprintln!("# {id} finished in {:.1?}\n", t0.elapsed());
            }
            None => {
                eprintln!("unknown experiment id: {id}\n{USAGE}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
