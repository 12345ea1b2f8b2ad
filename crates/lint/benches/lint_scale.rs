//! `lint_scale`: wall-time of a full-tree lint run.
//!
//! The nine-pass analyzer runs on every `cargo test` (the root
//! `lint_clean` integration test) and in CI, so it must stay cheap: the
//! budget is **250 ms** for the whole workspace `crates/` tree, enforced
//! by the guard after the timed runs. If the brace-tree parser or the L7
//! reachability sweep regresses past the budget, this bench fails the CI
//! lint job rather than silently taxing every build.
//!
//! Run with `cargo bench -p thrifty-lint --bench lint_scale`; it prints the
//! min and median of `RUNS` full-tree runs, then times one more against
//! the budget.

use std::path::Path;
use std::time::{Duration, Instant};

const BUDGET_MS: u128 = 250;
/// Timed full-tree runs before the guard.
const RUNS: usize = 10;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../crates");
    // One full-tree run: its wall time and the number of files scanned.
    let run = || {
        let start = Instant::now();
        let report = thrifty_lint::lint_tree(&root).expect("tree readable");
        assert!(report.files_scanned > 50);
        (start.elapsed(), report.files_scanned)
    };
    let mut times: Vec<Duration> = (0..RUNS).map(|_| run().0).collect();
    times.sort_unstable();
    println!(
        "lint_scale/full_tree: min {:?}, median {:?} over {RUNS} runs",
        times[0],
        times[RUNS / 2]
    );

    // The guard: one full-tree run must fit the budget.
    let (elapsed, files) = run();
    let elapsed = elapsed.as_millis();
    assert!(
        elapsed < BUDGET_MS,
        "full-tree lint took {elapsed} ms, budget is {BUDGET_MS} ms"
    );
    println!("lint_scale guard: {elapsed} ms for {files} files (budget {BUDGET_MS} ms)");
}
