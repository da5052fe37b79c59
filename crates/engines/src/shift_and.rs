//! Multi-pattern bit-parallel Shift-And (the Hyperscan-style CPU engine).
//!
//! All linearizable patterns are rewritten into chains (§4.2) and packed
//! back-to-back into one wide bit vector. One shift, one OR and one AND per
//! input byte then advance *every* chain simultaneously — the word-level
//! parallelism that makes Shift-And the workhorse of software matchers.
//!
//! Bits that shift across a chain boundary land on the next chain's first
//! position, which is re-armed by the `initial` mask every step anyway
//! (unanchored matching), so no per-chain masking is needed.

use crate::interp::PrefilteredNfa;
use crate::{normalize, Engine, Hit};
use rap_automata::lnfa::Lnfa;
use rap_regex::Regex;

/// Budget factor for the LNFA rewriting used by the software engines
/// (more generous than the hardware's 2×: software has no area cost, only
/// mask memory).
const EXPAND_FACTOR: u64 = 8;

/// Longest chain worth bit-parallel packing. The packed scan costs
/// O(total bits) per byte regardless of activity, so very long chains
/// (unfolded virus signatures) are cheaper in the activity-driven NFA
/// engine — the same routing decision Hyperscan makes between its
/// bit-parallel literal paths and its general NFA subsystem.
const MAX_PACKED_CHAIN: usize = 128;

/// The packed chain set shared by the CPU and batch engines.
#[derive(Clone, Debug)]
pub(crate) struct PackedChains {
    words: usize,
    /// 256 per-byte label masks.
    labels: Vec<Vec<u64>>,
    /// First-position mask (one bit per chain).
    initial: Vec<u64>,
    /// Final-position mask.
    finals: Vec<u64>,
    /// Pattern index of each final bit (dense map over all bits).
    bit_pattern: Vec<u32>,
    /// Longest chain (the lookback window needed when chunking input).
    pub max_chain_len: usize,
}

impl PackedChains {
    /// Packs the linearizable patterns; returns the packer and the indices
    /// of patterns that need NFA fallback.
    pub(crate) fn build(patterns: &[Regex]) -> (PackedChains, Vec<usize>) {
        let mut fallback = Vec::new();
        let mut classes: Vec<(usize, Vec<rap_regex::CharClass>)> = Vec::new();
        let mut total_bits = 0usize;
        let mut max_chain_len = 0usize;
        for (idx, re) in patterns.iter().enumerate() {
            let budget = re.unfolded_size().max(4) * EXPAND_FACTOR;
            match Lnfa::from_regex(re, budget) {
                Some(set)
                    if !set.lnfas.is_empty()
                        && set.lnfas.iter().all(|l| l.len() <= MAX_PACKED_CHAIN) =>
                {
                    for lnfa in set.lnfas {
                        total_bits += lnfa.len();
                        max_chain_len = max_chain_len.max(lnfa.len());
                        classes.push((idx, lnfa.classes().to_vec()));
                    }
                }
                _ => fallback.push(idx),
            }
        }
        let words = total_bits.div_ceil(64).max(1);
        let mut labels = vec![vec![0u64; words]; 256];
        let mut initial = vec![0u64; words];
        let mut finals = vec![0u64; words];
        let mut bit_pattern = vec![u32::MAX; total_bits.max(1)];
        let mut bit = 0usize;
        for (idx, chain) in &classes {
            initial[bit / 64] |= 1 << (bit % 64);
            for (k, cc) in chain.iter().enumerate() {
                let pos = bit + k;
                for b in cc.iter() {
                    labels[b as usize][pos / 64] |= 1 << (pos % 64);
                }
            }
            let last = bit + chain.len() - 1;
            finals[last / 64] |= 1 << (last % 64);
            bit_pattern[last] = *idx as u32;
            bit += chain.len();
        }
        (
            PackedChains {
                words,
                labels,
                initial,
                finals,
                bit_pattern,
                max_chain_len,
            },
            fallback,
        )
    }

    /// Whether any chains were packed.
    pub(crate) fn is_empty(&self) -> bool {
        self.max_chain_len == 0
    }

    /// Scans a slice, pushing hits with `base + relative_end` offsets.
    pub(crate) fn scan_into(&self, input: &[u8], base: usize, out: &mut Vec<Hit>) {
        if self.is_empty() {
            return;
        }
        let mut states = vec![0u64; self.words];
        for (i, &byte) in input.iter().enumerate() {
            let labels = &self.labels[byte as usize];
            // states = ((states << 1) | initial) & labels[byte]
            let mut carry = 0u64;
            for (w, state) in states.iter_mut().enumerate().take(self.words) {
                let s = *state;
                *state = ((s << 1) | carry | self.initial[w]) & labels[w];
                carry = s >> 63;
            }
            // Report finals.
            for (w, &s) in states.iter().enumerate().take(self.words) {
                let mut t = s & self.finals[w];
                while t != 0 {
                    let b = t.trailing_zeros() as usize;
                    t &= t - 1;
                    let pattern = self.bit_pattern[w * 64 + b] as usize;
                    out.push(Hit {
                        pattern,
                        end: base + i + 1,
                    });
                }
            }
        }
    }
}

/// The CPU engine: packed Shift-And plus NFA fallback for patterns that do
/// not linearize (Hyperscan similarly routes complex regexes to its NFA
/// subsystem).
#[derive(Clone, Debug)]
pub struct ShiftAndEngine {
    packed: PackedChains,
    fallback: PrefilteredNfa,
    fallback_idx: Vec<usize>,
}

impl ShiftAndEngine {
    /// Builds the engine from parsed patterns.
    pub fn new(patterns: &[Regex]) -> ShiftAndEngine {
        let (packed, fallback_idx) = PackedChains::build(patterns);
        let fallback_patterns: Vec<Regex> =
            fallback_idx.iter().map(|&i| patterns[i].clone()).collect();
        ShiftAndEngine {
            packed,
            fallback: PrefilteredNfa::new(&fallback_patterns),
            fallback_idx,
        }
    }

    /// Number of patterns that fell back to NFA interpretation.
    pub fn fallback_count(&self) -> usize {
        self.fallback_idx.len()
    }
}

impl Engine for ShiftAndEngine {
    fn name(&self) -> &'static str {
        "shift-and"
    }

    fn scan(&self, input: &[u8]) -> Vec<Hit> {
        let mut hits = Vec::new();
        self.packed.scan_into(input, 0, &mut hits);
        for hit in self.fallback.scan(input) {
            hits.push(Hit {
                pattern: self.fallback_idx[hit.pattern],
                end: hit.end,
            });
        }
        normalize(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_regex::parse;

    fn engine(patterns: &[&str]) -> ShiftAndEngine {
        let res: Vec<Regex> = patterns.iter().map(|p| parse(p).expect("parses")).collect();
        ShiftAndEngine::new(&res)
    }

    fn reference(patterns: &[&str], input: &[u8]) -> Vec<Hit> {
        let res: Vec<Regex> = patterns.iter().map(|p| parse(p).expect("parses")).collect();
        crate::interp::NfaEngine::new(&res).scan(input)
    }

    #[test]
    fn agrees_with_interpreter() {
        let patterns = ["abc", "a[bc]d", "xy", "a(b|c)d", "q.*z", "m{3}"];
        let input = b"abcd abd acd xyz qqqz mmmm abc";
        assert_eq!(engine(&patterns).scan(input), reference(&patterns, input));
    }

    #[test]
    fn fallback_routing() {
        let e = engine(&["abc", "a.*b", "x+y"]);
        assert_eq!(e.fallback_count(), 2);
    }

    #[test]
    fn chains_spanning_word_boundaries() {
        // Two 40-state chains cross the 64-bit word boundary.
        let p1 = "a".repeat(40);
        let p2 = "b".repeat(40);
        let patterns = [p1.as_str(), p2.as_str()];
        let mut input = vec![b'a'; 41];
        input.extend(std::iter::repeat_n(b'b', 41));
        assert_eq!(engine(&patterns).scan(&input), reference(&patterns, &input));
    }

    #[test]
    fn boundary_bleed_is_harmless() {
        // Adjacent chains: activity at the end of chain 0 must not create
        // a phantom match in chain 1.
        let patterns = ["aa", "ab"];
        let input = b"aaab";
        assert_eq!(engine(&patterns).scan(input), reference(&patterns, input));
    }

    #[test]
    fn overlapping_and_multiple_hits() {
        let patterns = ["aa"];
        let input = b"aaaa";
        let hits = engine(&patterns).scan(input);
        assert_eq!(
            hits.iter().map(|h| h.end).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn empty_pattern_set() {
        let e = ShiftAndEngine::new(&[]);
        assert!(e.scan(b"anything").is_empty());
    }

    #[test]
    fn union_pattern_expands_to_multiple_chains() {
        let patterns = ["x(a|b)y"];
        let input = b"xay xby xcy";
        assert_eq!(engine(&patterns).scan(input), reference(&patterns, input));
    }
}
