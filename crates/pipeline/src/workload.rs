//! Memoized workload materialization.
//!
//! The harness historically regenerated each suite's synthetic corpus
//! twice per cell (once for the patterns, once to synthesize the input
//! stream) and once more per *binary*. This module materializes each
//! `(suite, BenchConfig)` corpus exactly once per process — patterns
//! generated once, parsed once, input synthesized once — behind a
//! process-wide memo shared by every pipeline, harness binary, and bench.

use crate::artifact::PatternSet;
use crate::cache::CacheStats;
use rap_regex::Regex;
use rap_workloads::Suite;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Harness scale knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchConfig {
    /// Patterns generated per suite.
    pub patterns_per_suite: usize,
    /// Input stream length in bytes.
    pub input_len: usize,
    /// Fraction of stream bytes belonging to planted matches.
    pub match_rate: f64,
    /// RNG seed for workload synthesis.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            patterns_per_suite: 300,
            input_len: 100_000,
            match_rate: 0.02,
            seed: 42,
        }
    }
}

/// One suite's fully materialized workload: sources, parsed patterns, and
/// the synthesized input stream, each produced exactly once.
#[derive(Clone, Debug)]
pub struct SuiteCorpus {
    suite: Suite,
    patterns: PatternSet,
    input: Vec<u8>,
}

impl SuiteCorpus {
    /// The suite this corpus belongs to.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// The parse-validated pattern set.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The bare regexes, cloned.
    pub fn regexes(&self) -> Vec<Regex> {
        self.patterns.regexes()
    }

    /// The synthesized input stream.
    pub fn input(&self) -> &[u8] {
        &self.input
    }
}

type MemoKey = (Suite, usize, usize, u64, u64);

fn memo() -> &'static Mutex<HashMap<MemoKey, Arc<SuiteCorpus>>> {
    static MEMO: OnceLock<Mutex<HashMap<MemoKey, Arc<SuiteCorpus>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Returns the memoized corpus for `(suite, cfg)`, generating it on first
/// request. The boolean is `true` on a memo hit.
pub fn suite_corpus(suite: Suite, cfg: &BenchConfig) -> (Arc<SuiteCorpus>, bool) {
    let key: MemoKey = (
        suite,
        cfg.patterns_per_suite,
        cfg.input_len,
        cfg.match_rate.to_bits(),
        cfg.seed,
    );
    if let Some(corpus) = memo().lock().expect("memo lock poisoned").get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return (Arc::clone(corpus), true);
    }
    // Generation runs outside the lock (it can take a while at paper
    // scale); a rare double-generate race wastes work but stays correct
    // and is still counted as a miss.
    MISSES.fetch_add(1, Ordering::Relaxed);
    let sources = rap_workloads::generate_patterns(suite, cfg.patterns_per_suite, cfg.seed);
    let input = rap_workloads::generate_input(&sources, cfg.input_len, cfg.match_rate, cfg.seed);
    let patterns = PatternSet::parse(&sources).expect("generated patterns always parse");
    let corpus = Arc::new(SuiteCorpus {
        suite,
        patterns,
        input,
    });
    let mut map = memo().lock().expect("memo lock poisoned");
    let entry = map.entry(key).or_insert_with(|| Arc::clone(&corpus));
    (Arc::clone(entry), false)
}

/// Process-wide corpus memo hit/miss totals.
pub fn corpus_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_memoized_and_stable() {
        let cfg = BenchConfig {
            patterns_per_suite: 5,
            input_len: 512,
            match_rate: 0.02,
            seed: 991,
        };
        let (a, _) = suite_corpus(Suite::Snort, &cfg);
        let (b, hit) = suite_corpus(Suite::Snort, &cfg);
        assert!(hit, "second request must hit the memo");
        assert!(Arc::ptr_eq(&a, &b), "memo returns the same allocation");
        assert_eq!(a.patterns().len(), 5);
        assert_eq!(a.input().len(), 512);
        // Distinct seeds are distinct entries.
        let (c, hit) = suite_corpus(Suite::Snort, &BenchConfig { seed: 992, ..cfg });
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
