//! Data-parallel batch scanning — the HybridSA/GPU stand-in.
//!
//! HybridSA executes Shift-And variants on thousands of GPU threads, each
//! scanning an input segment with enough lookback to catch matches that
//! straddle segment boundaries; regexes its bit-parallel forms cannot
//! express run on the CPU. This engine reproduces that structure with OS
//! threads: the input splits into overlapping chunks processed in
//! parallel, with the longest chain length as the lookback window, and
//! non-linearizable patterns interpreted on the full stream.

use crate::interp::PrefilteredNfa;
use crate::shift_and::PackedChains;
use crate::{normalize, Engine, Hit};
use rap_regex::Regex;

/// Batch (chunked, parallel) Shift-And engine.
#[derive(Clone, Debug)]
pub struct BatchEngine {
    /// The linearizable patterns, scanned chunk-parallel.
    packed: PackedChains,
    /// Fallback patterns re-sharded into per-worker engines (HybridSA
    /// distributes regex groups over thread blocks the same way); each
    /// entry holds the shard plus the original pattern indices.
    fallback_shards: Vec<(PrefilteredNfa, Vec<usize>)>,
    chunk_size: usize,
    threads: usize,
}

impl BatchEngine {
    /// Builds the engine; `chunk_size` is the per-thread segment length.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(patterns: &[Regex], chunk_size: usize) -> BatchEngine {
        assert!(chunk_size > 0, "chunk size must be positive");
        let threads = std::thread::available_parallelism().map_or(4, usize::from);
        let (packed, fallback_idx) = PackedChains::build(patterns);
        let shard_count = threads.clamp(1, fallback_idx.len().max(1));
        let mut fallback_shards = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let idx: Vec<usize> = fallback_idx
                .iter()
                .copied()
                .skip(s)
                .step_by(shard_count)
                .collect();
            if idx.is_empty() {
                continue;
            }
            let shard_patterns: Vec<Regex> = idx.iter().map(|&i| patterns[i].clone()).collect();
            fallback_shards.push((PrefilteredNfa::new(&shard_patterns), idx));
        }
        BatchEngine {
            packed,
            fallback_shards,
            chunk_size,
            threads,
        }
    }

    /// Number of worker threads used per scan.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Engine for BatchEngine {
    fn name(&self) -> &'static str {
        "batch-shift-and"
    }

    fn scan(&self, input: &[u8]) -> Vec<Hit> {
        let packed = &self.packed;
        let lookback = packed.max_chain_len.saturating_sub(1);
        let chunks: Vec<(usize, usize)> = (0..input.len())
            .step_by(self.chunk_size)
            .map(|start| (start, (start + self.chunk_size).min(input.len())))
            .collect();

        let mut hits: Vec<Hit> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            // Data-parallel workers over the packed chains.
            for worker in 0..self.threads {
                let chunks = &chunks;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    // Static round-robin chunk assignment.
                    for (ci, &(start, end)) in chunks.iter().enumerate() {
                        if ci % self.threads != worker {
                            continue;
                        }
                        let from = start.saturating_sub(lookback);
                        let mut raw = Vec::new();
                        packed.scan_into(&input[from..end], from, &mut raw);
                        // Hits ending inside the lookback prefix belong to
                        // the previous chunk.
                        local.extend(raw.into_iter().filter(|h| h.end > start));
                    }
                    local
                }));
            }
            // Pattern-parallel workers over the fallback shards (these
            // automata carry unbounded history, so they split by pattern,
            // not by input position).
            for (shard, idx) in &self.fallback_shards {
                handles.push(scope.spawn(move || {
                    shard
                        .scan(input)
                        .into_iter()
                        .map(|h| Hit {
                            pattern: idx[h.pattern],
                            end: h.end,
                        })
                        .collect()
                }));
            }
            for h in handles {
                hits.extend(h.join().expect("batch worker panicked"));
            }
        });
        normalize(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NfaEngine;
    use rap_regex::parse;

    fn regexes(patterns: &[&str]) -> Vec<Regex> {
        patterns.iter().map(|p| parse(p).expect("parses")).collect()
    }

    #[test]
    fn agrees_with_interpreter_across_chunk_sizes() {
        let patterns = ["abc", "a[bc]d", "needle", "q.*z"];
        let res = regexes(&patterns);
        let input = b"abcd needle acd needleneedle qz abc qqz needle abcd".repeat(7);
        let expect = NfaEngine::new(&res).scan(&input);
        for chunk in [1usize, 3, 16, 64, 1 << 20] {
            let e = BatchEngine::new(&res, chunk);
            assert_eq!(e.scan(&input), expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn matches_straddling_chunk_boundary() {
        let res = regexes(&["abcdefgh"]);
        let input = b"xxxabcdefghxxx";
        // Chunk size 5 puts the match across three chunks; lookback covers
        // it.
        let e = BatchEngine::new(&res, 5);
        let hits = e.scan(input);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].end, 11);
    }

    #[test]
    fn no_duplicate_hits_from_overlap() {
        let res = regexes(&["aba"]);
        let input = b"abababab";
        let e = BatchEngine::new(&res, 2);
        let hits = e.scan(input);
        let expect = NfaEngine::new(&res).scan(input);
        assert_eq!(hits, expect);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = BatchEngine::new(&[], 0);
    }

    #[test]
    fn empty_input() {
        let e = BatchEngine::new(&regexes(&["abc"]), 8);
        assert!(e.scan(b"").is_empty());
    }
}
