//! The session library: the corpus of Step-1 logs that Step 2 samples from.
//!
//! §7.1 repeats the 3-hour collection procedure 100 times for each of the
//! prepared MPPDB parallelism levels; each collected log is "a 3-hour real
//! query log of an artificial tenant". Because a tenant holds either TPC-H
//! or TPC-DS data, the library is keyed by `(parallelism, benchmark)`.

use crate::config::GenerationConfig;
use crate::log::SessionLog;
use crate::rng::stream_rng;
use crate::session::generate_session;
use crate::templates::Benchmark;
use rand::Rng;
use std::collections::BTreeMap;

/// RNG stream label for session generation.
const STREAM_SESSION: u64 = 0x5E55;

/// A corpus of pre-generated session logs.
#[derive(Clone, Debug)]
pub struct SessionLibrary {
    sessions: BTreeMap<(u32, Benchmark), Vec<SessionLog>>,
}

impl SessionLibrary {
    /// Runs Step 1: generates `cfg.session_trials` sessions for every
    /// `(parallelism level, benchmark)` pair.
    pub fn generate(cfg: &GenerationConfig) -> Self {
        cfg.validate();
        let mut sessions = BTreeMap::new();
        for (li, &level) in cfg.parallelism_levels.iter().enumerate() {
            for (bi, &benchmark) in Benchmark::ALL.iter().enumerate() {
                let mut trials = Vec::with_capacity(cfg.session_trials);
                for trial in 0..cfg.session_trials {
                    let mut rng = stream_rng(
                        cfg.seed,
                        STREAM_SESSION + (li as u64) * 16 + bi as u64,
                        trial as u64,
                    );
                    trials.push(generate_session(cfg, level, benchmark, &mut rng));
                }
                sessions.insert((level, benchmark), trials);
            }
        }
        SessionLibrary { sessions }
    }

    /// All sessions for a `(parallelism, benchmark)` pair.
    ///
    /// # Panics
    /// Panics if the pair was not generated (not in
    /// `cfg.parallelism_levels`).
    fn sessions(&self, parallelism: u32, benchmark: Benchmark) -> &[SessionLog] {
        self.sessions
            .get(&(parallelism, benchmark))
            // A missing pair is caller misconfiguration (documented above);
            // there is no sensible fallback session. lint: allow(panic)
            .unwrap_or_else(|| panic!("no sessions for {parallelism}-node {benchmark}"))
    }

    /// Picks one session uniformly at random — the "randomly picks a 3-hour
    /// query log" step of the composition.
    pub fn pick<R: Rng + ?Sized>(
        &self,
        parallelism: u32,
        benchmark: Benchmark,
        rng: &mut R,
    ) -> &SessionLog {
        let pool = self.sessions(parallelism, benchmark);
        &pool[rng.gen_range(0..pool.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_covers_all_levels_and_benchmarks() {
        let mut cfg = GenerationConfig::small(11, 10);
        cfg.parallelism_levels = vec![2, 4];
        cfg.session_trials = 3;
        let lib = SessionLibrary::generate(&cfg);
        for &level in &cfg.parallelism_levels {
            for benchmark in Benchmark::ALL {
                let pool = lib.sessions(level, benchmark);
                assert_eq!(pool.len(), 3);
                assert!(pool.iter().all(|s| s.parallelism == level));
                assert!(pool.iter().all(|s| s.benchmark == benchmark));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut cfg = GenerationConfig::small(11, 10);
        cfg.parallelism_levels = vec![2];
        cfg.session_trials = 2;
        let a = SessionLibrary::generate(&cfg);
        let b = SessionLibrary::generate(&cfg);
        assert_eq!(
            a.sessions(2, Benchmark::TpcH)[0].queries,
            b.sessions(2, Benchmark::TpcH)[0].queries
        );
    }

    #[test]
    fn pick_is_uniform_ish() {
        let mut cfg = GenerationConfig::small(5, 10);
        cfg.parallelism_levels = vec![2];
        cfg.session_trials = 4;
        let lib = SessionLibrary::generate(&cfg);
        let mut rng = stream_rng(1, 1, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let s = lib.pick(2, Benchmark::TpcDs, &mut rng);
            seen.insert(s.queries.len());
        }
        assert!(seen.len() > 1, "picking should reach multiple trials");
    }

    #[test]
    #[should_panic(expected = "no sessions")]
    fn missing_pool_panics() {
        let mut cfg = GenerationConfig::small(11, 10);
        cfg.parallelism_levels = vec![2];
        cfg.session_trials = 1;
        let lib = SessionLibrary::generate(&cfg);
        let _ = lib.sessions(16, Benchmark::TpcH);
    }
}
