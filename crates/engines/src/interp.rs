//! Multi-pattern NFA interpretation — the ground-truth engine.
//!
//! The scan is *activity-driven*: a pattern's automaton is only stepped on
//! bytes that could arm one of its initial states (a 256-entry trigger
//! index, the moral equivalent of Hyperscan's literal prefiltering) or
//! while it still has live states. On miss-dominated traffic most patterns
//! are skipped on most bytes, which is what makes software multi-pattern
//! matching viable at all.

use crate::{normalize, Engine, Hit};
use rap_automata::nbva::Nbva;
use rap_automata::nfa::Nfa;
use rap_regex::Regex;

/// Scans by stepping one Glushkov NFA per pattern (set-based simulation)
/// behind an initial-byte trigger index.
#[derive(Clone, Debug)]
pub struct NfaEngine {
    nfas: Vec<Nfa>,
    /// `triggers[b]` — patterns with an initial state matching byte `b`.
    triggers: Vec<Vec<u32>>,
}

impl NfaEngine {
    /// Builds the engine from parsed patterns.
    pub fn new(patterns: &[Regex]) -> NfaEngine {
        let nfas: Vec<Nfa> = patterns.iter().map(Nfa::from_regex).collect();
        let mut triggers: Vec<Vec<u32>> = vec![Vec::new(); 256];
        for (i, nfa) in nfas.iter().enumerate() {
            let mut starts = rap_regex::CharClass::empty();
            for &q in nfa.initial() {
                starts = starts.union(&nfa.states()[q as usize].cc);
            }
            for b in starts.iter() {
                triggers[b as usize].push(i as u32);
            }
        }
        NfaEngine { nfas, triggers }
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.nfas.len()
    }

    /// Whether the engine holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.nfas.is_empty()
    }
}

impl Engine for NfaEngine {
    fn name(&self) -> &'static str {
        "nfa-interp"
    }

    fn scan(&self, input: &[u8]) -> Vec<Hit> {
        let mut hits = Vec::new();
        let mut runs: Vec<_> = self.nfas.iter().map(Nfa::start).collect();
        // Patterns with live states must be stepped every byte until their
        // activity dies out; `live` is their dense worklist.
        let mut live: Vec<u32> = Vec::new();
        let mut is_live = vec![false; self.nfas.len()];
        for (offset, &byte) in input.iter().enumerate() {
            // Patterns armed by this byte join the worklist.
            for &p in &self.triggers[byte as usize] {
                if !is_live[p as usize] {
                    is_live[p as usize] = true;
                    live.push(p);
                }
            }
            let mut k = 0;
            while k < live.len() {
                let p = live[k] as usize;
                if runs[p].step(&self.nfas[p], byte) {
                    hits.push(Hit {
                        pattern: p,
                        end: offset + 1,
                    });
                }
                if runs[p].active_count() == 0 {
                    is_live[p] = false;
                    live.swap_remove(k);
                } else {
                    k += 1;
                }
            }
        }
        normalize(hits)
    }
}

/// One prefilter arm: when its literal fires, inject `state` into
/// `pattern`'s run (and report a match outright when the prefix alone is
/// already a complete match).
#[derive(Clone, Copy, Debug)]
struct Arm {
    pattern: u32,
    state: u32,
    report: bool,
}

/// The production-flavored interpreter: literal prefixes are verified by
/// an Aho–Corasick pass (one table lookup per byte), and a pattern's NFA
/// only runs between a verified prefix occurrence and the death of the
/// states it injected. Patterns without a usable literal prefix fall back
/// to the byte-trigger mechanism of [`NfaEngine`].
#[derive(Clone, Debug)]
pub struct PrefilteredNfa {
    /// NBVA images: bounded repetitions stay compact bit vectors instead
    /// of unfolding into Θ(k²) Glushkov edges (the same compression the
    /// hardware's NBVA mode performs, reused here for software speed).
    nbvas: Vec<Nbva>,
    ac: Option<crate::prefilter::AhoCorasick>,
    /// Arms per prefilter literal id.
    arms: Vec<Vec<Arm>>,
    /// Byte-trigger lists for prefix-less patterns.
    triggers: Vec<Vec<u32>>,
    /// Whether each pattern is prefilter-driven (stepped without initial
    /// re-arming; thread starts come from AC injections only).
    anchored: Vec<bool>,
}

/// Enumerates the byte strings of a pattern's leading class chain — the
/// Glushkov positions `0..depth` — as prefilter literals. Classes multiply
/// the enumeration, so expansion stops once the product exceeds
/// `MAX_ENUM` strings (or 4 positions). Returns the strings and the arm
/// state (`depth − 1`), or `None` when no useful prefix exists (e.g. the
/// pattern starts with a quantifier or a huge class).
fn enumerate_prefixes(re: &Regex) -> Option<(Vec<Vec<u8>>, u32)> {
    const MAX_ENUM: usize = 64;
    const MAX_DEPTH: u32 = 4;
    let parts: Vec<&Regex> = match re {
        Regex::Concat(parts) => parts.iter().collect(),
        other => vec![other],
    };
    let mut strings: Vec<Vec<u8>> = vec![Vec::new()];
    let mut depth = 0u32;
    for part in parts {
        let Regex::Class(cc) = part else { break };
        if cc.is_empty() || depth >= MAX_DEPTH {
            break;
        }
        if strings.len() * cc.len() as usize > MAX_ENUM {
            break;
        }
        strings = strings
            .iter()
            .flat_map(|s| {
                cc.iter().map(move |b| {
                    let mut t = s.clone();
                    t.push(b);
                    t
                })
            })
            .collect();
        depth += 1;
    }
    (depth >= 2).then(|| (strings, depth - 1))
}

impl PrefilteredNfa {
    /// Builds the engine from parsed patterns.
    pub fn new(patterns: &[Regex]) -> PrefilteredNfa {
        const UNFOLD_THRESHOLD: u32 = 4;
        let nbvas: Vec<Nbva> = patterns
            .iter()
            .map(|re| Nbva::from_regex(re, UNFOLD_THRESHOLD))
            .collect();
        let mut literals: Vec<Vec<u8>> = Vec::new();
        let mut arms: Vec<Vec<Arm>> = Vec::new();
        let mut triggers: Vec<Vec<u32>> = vec![Vec::new(); 256];
        let mut anchored = vec![false; patterns.len()];
        for (i, (re, nfa)) in patterns.iter().zip(nbvas.iter()).enumerate() {
            if let Some((prefixes, state)) = enumerate_prefixes(re).filter(|_| !nfa.is_empty()) {
                anchored[i] = true;
                let arm = Arm {
                    pattern: i as u32,
                    state,
                    report: nfa.states()[state as usize].is_final,
                };
                for prefix in prefixes {
                    // Share AC entries between identical prefixes.
                    match literals.iter().position(|l| *l == prefix) {
                        Some(lit) => arms[lit].push(arm),
                        None => {
                            literals.push(prefix);
                            arms.push(vec![arm]);
                        }
                    }
                }
            } else {
                let mut starts = rap_regex::CharClass::empty();
                for &q in nfa.initial() {
                    starts = starts.union(&nfa.states()[q as usize].cc);
                }
                for b in starts.iter() {
                    triggers[b as usize].push(i as u32);
                }
            }
        }
        let ac = if literals.is_empty() {
            None
        } else {
            Some(crate::prefilter::AhoCorasick::new(&literals))
        };
        PrefilteredNfa {
            nbvas,
            ac,
            arms,
            triggers,
            anchored,
        }
    }

    /// Number of patterns routed through the literal prefilter.
    pub fn prefiltered_count(&self) -> usize {
        let mut seen: Vec<u32> = self.arms.iter().flatten().map(|a| a.pattern).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

impl Engine for PrefilteredNfa {
    fn name(&self) -> &'static str {
        "prefiltered-nfa"
    }

    fn scan(&self, input: &[u8]) -> Vec<Hit> {
        let mut hits = Vec::new();
        let mut runs: Vec<_> = self.nbvas.iter().map(Nbva::start).collect();
        let mut live: Vec<u32> = Vec::new();
        let mut is_live = vec![false; self.nbvas.len()];
        let mut ac_state = self.ac.as_ref().map(|ac| ac.start());
        for (offset, &byte) in input.iter().enumerate() {
            // Prefix-less patterns arm on their initial bytes and step now.
            for &p in &self.triggers[byte as usize] {
                if !is_live[p as usize] {
                    is_live[p as usize] = true;
                    live.push(p);
                }
            }
            let mut k = 0;
            while k < live.len() {
                let p = live[k] as usize;
                let nbva = &self.nbvas[p];
                let matched = if self.anchored[p] {
                    runs[p].step_anchored(nbva, byte).matched
                } else {
                    runs[p].step(nbva, byte)
                };
                if matched {
                    hits.push(Hit {
                        pattern: p,
                        end: offset + 1,
                    });
                }
                if runs[p].active_count() == 0 {
                    is_live[p] = false;
                    live.swap_remove(k);
                } else {
                    k += 1;
                }
            }
            // Prefilter pass: verified prefixes report and/or inject the
            // post-prefix state (effective from the next byte).
            if let (Some(ac), Some(state)) = (self.ac.as_ref(), ac_state.as_mut()) {
                *state = ac.step(*state, byte);
                for &lit in ac.outputs(*state) {
                    for arm in &self.arms[lit as usize] {
                        if arm.report {
                            hits.push(Hit {
                                pattern: arm.pattern as usize,
                                end: offset + 1,
                            });
                        }
                        let p = arm.pattern as usize;
                        runs[p].activate_plain(arm.state);
                        if !is_live[p] {
                            is_live[p] = true;
                            live.push(arm.pattern);
                        }
                    }
                }
            }
        }
        normalize(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_regex::parse;

    #[test]
    fn multi_pattern_hits() {
        let patterns: Vec<Regex> = ["ab", "b"]
            .iter()
            .map(|p| parse(p).expect("parses"))
            .collect();
        let engine = NfaEngine::new(&patterns);
        let hits = engine.scan(b"abb");
        assert_eq!(
            hits,
            vec![
                Hit { pattern: 0, end: 2 },
                Hit { pattern: 1, end: 2 },
                Hit { pattern: 1, end: 3 },
            ]
        );
        assert_eq!(engine.len(), 2);
    }

    /// The trigger index must not lose matches relative to stepping every
    /// pattern on every byte.
    #[test]
    fn triggered_scan_equals_naive_scan() {
        let patterns: Vec<Regex> = ["abc", "a.*c", "c{3}d", "x(y|z)w", "[0-9]{2}", "q?r"]
            .iter()
            .map(|p| parse(p).expect("parses"))
            .collect();
        let input = b"abc accc cccd xyw xzw 42 r qr abcccd";
        let engine = NfaEngine::new(&patterns);
        let got = engine.scan(input);
        // Naive reference: full per-pattern simulation.
        let mut expect = Vec::new();
        for (i, re) in patterns.iter().enumerate() {
            for end in Nfa::from_regex(re).match_ends(input) {
                expect.push(Hit { pattern: i, end });
            }
        }
        let expect = crate::normalize(expect);
        assert_eq!(got, expect);
    }

    /// The prefiltered engine is exactly equivalent to the reference
    /// engine on a broad sample of pattern shapes.
    #[test]
    fn prefiltered_equals_reference() {
        let shapes = [
            "needle",   // pure literal (report at AC hit)
            "abc.*xyz", // literal prefix + loop rest
            "abc(d)?",  // nullable rest (prefix is a match)
            "ab{3,9}c", // prefix "a" too short → trigger path
            "[0-9]+px", // no prefix (class head)
            "aa",       // overlapping prefix occurrences
            "aab",      // shared prefix with the above
        ];
        let patterns: Vec<Regex> = shapes.iter().map(|p| parse(p).expect("parses")).collect();
        let reference = NfaEngine::new(&patterns);
        let fast = PrefilteredNfa::new(&patterns);
        assert!(fast.prefiltered_count() >= 4);
        let inputs: [&[u8]; 6] = [
            b"needle in a haystack needle",
            b"abc middle xyz and abcd",
            b"aaab aab aaaab",
            b"12px abbbc abbbbbbbbbc",
            b"abcxyz",
            b"",
        ];
        for input in inputs {
            assert_eq!(
                fast.scan(input),
                reference.scan(input),
                "input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    /// Patterns whose matches start mid-stream after long dead stretches.
    #[test]
    fn trigger_rearms_after_death() {
        let patterns = vec![parse("needle").expect("parses")];
        let engine = NfaEngine::new(&patterns);
        let mut input = vec![b'.'; 1000];
        input.extend_from_slice(b"needle");
        input.extend(std::iter::repeat_n(b'.', 500));
        input.extend_from_slice(b"needle");
        let hits = engine.scan(&input);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].end, 1006);
        assert_eq!(hits[1].end, 1512);
    }
}
