//! The seven benchmark suites and their structural profiles (Fig. 1).

use crate::builder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// The seven real-world suites of §5.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// User-input validation patterns (regexlib.com) — NFA-dominated.
    RegexLib,
    /// Spam-detection rules — LNFA-majority with small bounded repetitions.
    SpamAssassin,
    /// Network-intrusion signatures — mixed NFA/NBVA.
    Snort,
    /// Network-intrusion signatures — mixed NFA/NBVA.
    Suricata,
    /// Protein motifs (PROSITE) — LNFA-majority, no NBVA.
    Prosite,
    /// Malware-hunting rules — NBVA-dominated with medium bounds.
    Yara,
    /// Antivirus signatures — NBVA-dominated with large bounds.
    ClamAv,
}

impl Suite {
    /// All suites in the paper's table order.
    pub fn all() -> [Suite; 7] {
        [
            Suite::RegexLib,
            Suite::SpamAssassin,
            Suite::Snort,
            Suite::Suricata,
            Suite::Prosite,
            Suite::Yara,
            Suite::ClamAv,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Suite::RegexLib => "RegexLib",
            Suite::SpamAssassin => "SpamAssassin",
            Suite::Snort => "Snort",
            Suite::Suricata => "Suricata",
            Suite::Prosite => "Prosite",
            Suite::Yara => "Yara",
            Suite::ClamAv => "ClamAV",
        }
    }

    /// The structural profile used by the generator.
    pub fn profile(self) -> SuiteProfile {
        match self {
            // Mostly complex validation patterns with loops/unions that
            // only a general NFA handles; few and small repetitions.
            Suite::RegexLib => SuiteProfile {
                mix: ModeMix {
                    nfa: 0.65,
                    nbva: 0.10,
                    lnfa: 0.25,
                },
                bound_lo: 8,
                bound_hi: 24,
                chain_lo: 6,
                chain_hi: 20,
                amino: false,
                complex_class_rate: 0.05,
                bv_depth: 4,
                bin_size: 16,
            },
            // Spam phrases: long literal chains; repetitions are small
            // (`.{1,8}`-style gaps).
            Suite::SpamAssassin => SuiteProfile {
                mix: ModeMix {
                    nfa: 0.15,
                    nbva: 0.25,
                    lnfa: 0.60,
                },
                bound_lo: 6,
                bound_hi: 16,
                chain_lo: 12,
                chain_hi: 40,
                amino: false,
                complex_class_rate: 0.02,
                bv_depth: 4,
                bin_size: 16,
            },
            Suite::Snort => SuiteProfile {
                mix: ModeMix {
                    nfa: 0.35,
                    nbva: 0.45,
                    lnfa: 0.20,
                },
                bound_lo: 16,
                bound_hi: 96,
                chain_lo: 12,
                chain_hi: 40,
                amino: false,
                complex_class_rate: 0.02,
                bv_depth: 8,
                bin_size: 16,
            },
            Suite::Suricata => SuiteProfile {
                mix: ModeMix {
                    nfa: 0.35,
                    nbva: 0.45,
                    lnfa: 0.20,
                },
                bound_lo: 16,
                bound_hi: 96,
                chain_lo: 12,
                chain_hi: 40,
                amino: false,
                complex_class_rate: 0.02,
                bv_depth: 8,
                bin_size: 16,
            },
            // Motifs: chains of amino-acid classes; no bounded repetitions
            // survive to NBVA ("No regex has been compiled to NBVA in
            // Prosite", §5.3).
            Suite::Prosite => SuiteProfile {
                mix: ModeMix {
                    nfa: 0.25,
                    nbva: 0.0,
                    lnfa: 0.75,
                },
                bound_lo: 0,
                bound_hi: 0,
                chain_lo: 8,
                chain_hi: 24,
                amino: true,
                complex_class_rate: 0.0,
                bv_depth: 4,
                bin_size: 32,
            },
            // `AppPath=[C-Z]:\\…{1,64}`-style rules: NBVA-heavy with
            // medium bounds and complex prefixes.
            Suite::Yara => SuiteProfile {
                mix: ModeMix {
                    nfa: 0.15,
                    nbva: 0.60,
                    lnfa: 0.25,
                },
                bound_lo: 32,
                bound_hi: 160,
                chain_lo: 16,
                chain_hi: 60,
                amino: false,
                complex_class_rate: 0.005,
                bv_depth: 16,
                bin_size: 8,
            },
            // Virus signatures with very large gaps: >80% NBVA, bounds in
            // the hundreds to thousands.
            Suite::ClamAv => SuiteProfile {
                mix: ModeMix {
                    nfa: 0.10,
                    nbva: 0.85,
                    lnfa: 0.05,
                },
                bound_lo: 128,
                bound_hi: 1200,
                chain_lo: 30,
                chain_hi: 120,
                amino: false,
                complex_class_rate: 0.0,
                bv_depth: 32,
                bin_size: 4,
            },
        }
    }

    /// The DSE-chosen BV depth for this suite (Fig. 10(a), red labels).
    pub fn chosen_bv_depth(self) -> u32 {
        self.profile().bv_depth
    }

    /// The DSE-chosen bin size for this suite (Fig. 10(b), red labels).
    pub fn chosen_bin_size(self) -> u32 {
        self.profile().bin_size
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Target fraction of patterns per compiled mode (sums to 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModeMix {
    /// Fraction compiling to basic NFA.
    pub nfa: f64,
    /// Fraction compiling to NBVA.
    pub nbva: f64,
    /// Fraction compiling to LNFA.
    pub lnfa: f64,
}

/// Generator knobs for one suite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuiteProfile {
    /// Target mode mix (Fig. 1).
    pub mix: ModeMix,
    /// Smallest bounded-repetition bound.
    pub bound_lo: u32,
    /// Largest bounded-repetition bound.
    pub bound_hi: u32,
    /// Shortest chain length for LNFA-target patterns.
    pub chain_lo: usize,
    /// Longest chain length.
    pub chain_hi: usize,
    /// Use amino-acid classes (PROSITE style).
    pub amino: bool,
    /// Probability that a chain position is a complex (multi-code) class
    /// like `\w`, which forces the whole chain onto the one-hot
    /// local-switch path. Real virus/malware literals are hex strings
    /// (zero), while validation patterns use richer classes.
    pub complex_class_rate: f64,
    /// Depth chosen by the design-space exploration (Fig. 10(a)).
    pub bv_depth: u32,
    /// Bin size chosen by the design-space exploration (Fig. 10(b)).
    pub bin_size: u32,
}

/// Generates `n` pattern strings for a suite, deterministically from
/// `seed`.
pub fn generate_patterns(suite: Suite, n: usize, seed: u64) -> Vec<String> {
    let profile = suite.profile();
    // Mix the suite into the seed so different suites diverge even with
    // the same seed.
    let mut rng = StdRng::seed_from_u64(
        seed ^ (suite.name().len() as u64) << 32 ^ suite.name().bytes().map(u64::from).sum::<u64>(),
    );
    (0..n)
        .map(|_| {
            let roll: f64 = rng.random();
            if roll < profile.mix.nbva {
                nbva_pattern(&mut rng, &profile)
            } else if roll < profile.mix.nbva + profile.mix.lnfa {
                lnfa_pattern(&mut rng, &profile)
            } else {
                nfa_pattern(&mut rng, &profile)
            }
        })
        .collect()
}

/// A pattern that keeps a bounded repetition above the unfolding threshold:
/// literal prefix + `cc{bound}` + literal suffix. The literals scale with
/// the suite's signature length — real ClamAV/Yara rules are long hex or
/// string literals separated by gaps, so the repetition is only part of
/// the pattern, which keeps the NBVA compression ratio in the single
/// digits rather than ∝ the bound.
fn nbva_pattern(rng: &mut StdRng, profile: &SuiteProfile) -> String {
    let lit_lo = (profile.chain_lo / 3).max(3);
    let lit_hi = (profile.chain_hi / 3).max(lit_lo + 2);
    let prefix = builder::literal(rng, lit_lo, lit_hi);
    let rep = builder::bounded_rep(rng, profile.bound_lo.max(6), profile.bound_hi.max(8));
    let mut pattern = format!("{prefix}{rep}");
    if rng.random_bool(0.7) {
        pattern.push_str(&builder::literal(rng, lit_lo, lit_hi));
    }
    if rng.random_bool(0.3) {
        // A second, smaller repetition (Snort/ClamAV often chain gaps).
        let rep2 = builder::bounded_rep(rng, 6, profile.bound_lo.max(10));
        pattern.push_str(&rep2);
        pattern.push_str(&builder::literal(rng, lit_lo, lit_hi));
    }
    pattern
}

/// A chain of classes/literals that linearizes: pure class chains, plus an
/// occasional small union that the §4.2 rewriting distributes.
fn lnfa_pattern(rng: &mut StdRng, profile: &SuiteProfile) -> String {
    let len = rng.random_range(profile.chain_lo..=profile.chain_hi);
    let mut out = String::new();
    let mut emitted = 0;
    while emitted < len {
        if profile.amino {
            if rng.random_bool(0.6) {
                out.push_str(&builder::amino_class(rng));
            } else {
                out.push((b'A' + rng.random_range(0..20u8)) as char);
            }
            emitted += 1;
        } else if rng.random_bool(0.8) {
            let lit = builder::literal(rng, 1, 3);
            emitted += lit.len();
            out.push_str(&lit);
        } else if rng.random_bool(profile.complex_class_rate.min(1.0)) {
            // A multi-code class: the chain will take the one-hot path.
            out.push_str("\\w");
            emitted += 1;
        } else {
            // Single-code classes (the 84% regime of §3.2).
            const SINGLE: &[&str] = &["[a-z]", "[A-Z]", ".", "[0-9a-f]", "\\d", "[^\\n]", "[abc]"];
            out.push_str(SINGLE[rng.random_range(0..SINGLE.len())]);
            emitted += 1;
        }
    }
    // A small union rewrites into 2 chains (still comfortably under the
    // 2× budget for these lengths).
    if !profile.amino && rng.random_bool(0.1) && len >= 6 {
        out.push_str(&builder::union(rng));
    }
    out
}

/// A pattern needing general NFA execution: unbounded loops and unions of
/// unequal shapes.
fn nfa_pattern(rng: &mut StdRng, profile: &SuiteProfile) -> String {
    let head = builder::literal(rng, 2, 5);
    let tail = builder::literal(rng, 2, 5);
    match rng.random_range(0..4u8) {
        0 => format!("{head}.*{tail}"),
        1 => format!(
            "{head}({tail}|{}.*{}){}",
            builder::literal(rng, 1, 3),
            builder::literal(rng, 1, 2),
            builder::literal(rng, 1, 3)
        ),
        2 => format!("{head}{}+{tail}", builder::char_class(rng, true)),
        _ => {
            let k = if profile.amino {
                3
            } else {
                rng.random_range(2..4)
            };
            let mid: String = (0..k).map(|_| builder::char_class(rng, true)).collect();
            format!("{head}{mid}*{tail}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig, Mode};

    fn mode_counts(suite: Suite, n: usize) -> (usize, usize, usize) {
        let compiler = Compiler::new(CompilerConfig::default());
        let mut counts = (0usize, 0usize, 0usize);
        for p in generate_patterns(suite, n, 1234) {
            let re = rap_regex::parse(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
            match compiler.decide(&re) {
                Mode::Nfa => counts.0 += 1,
                Mode::Nbva => counts.1 += 1,
                Mode::Lnfa => counts.2 += 1,
            }
        }
        counts
    }

    #[test]
    fn all_patterns_parse_and_compile() {
        let compiler = Compiler::new(CompilerConfig::default());
        for suite in Suite::all() {
            for p in generate_patterns(suite, 60, 7) {
                let re = rap_regex::parse(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
                compiler
                    .compile(&re)
                    .unwrap_or_else(|e| panic!("{suite}: {p}: {e}"));
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        assert_eq!(
            generate_patterns(Suite::Snort, 20, 5),
            generate_patterns(Suite::Snort, 20, 5)
        );
        assert_ne!(
            generate_patterns(Suite::Snort, 20, 5),
            generate_patterns(Suite::Snort, 20, 6)
        );
    }

    #[test]
    fn suites_differ_for_same_seed() {
        assert_ne!(
            generate_patterns(Suite::Snort, 10, 5),
            generate_patterns(Suite::Yara, 10, 5)
        );
    }

    #[test]
    fn clamav_is_nbva_dominated() {
        let (_, nbva, _) = mode_counts(Suite::ClamAv, 300);
        assert!(
            nbva as f64 / 300.0 > 0.75,
            "NBVA fraction {}",
            nbva as f64 / 300.0
        );
    }

    #[test]
    fn prosite_has_no_nbva_and_lnfa_majority() {
        let (_, nbva, lnfa) = mode_counts(Suite::Prosite, 300);
        assert_eq!(nbva, 0, "Prosite must not produce NBVA patterns");
        assert!(
            lnfa as f64 / 300.0 > 0.55,
            "LNFA fraction {}",
            lnfa as f64 / 300.0
        );
    }

    #[test]
    fn regexlib_is_nfa_majority() {
        let (nfa, _, _) = mode_counts(Suite::RegexLib, 300);
        assert!(
            nfa as f64 / 300.0 > 0.5,
            "NFA fraction {}",
            nfa as f64 / 300.0
        );
    }

    #[test]
    fn spamassassin_is_lnfa_majority() {
        let (_, _, lnfa) = mode_counts(Suite::SpamAssassin, 300);
        assert!(
            lnfa as f64 / 300.0 > 0.45,
            "LNFA fraction {}",
            lnfa as f64 / 300.0
        );
    }

    #[test]
    fn clamav_bounds_are_large() {
        let patterns = generate_patterns(Suite::ClamAv, 100, 3);
        let mut max_bound = 0;
        for p in &patterns {
            let re = rap_regex::parse(p).expect("parses");
            if let Some(b) = rap_regex::analysis::max_bound(&re) {
                max_bound = max_bound.max(b);
            }
        }
        assert!(max_bound > 500, "largest ClamAV bound {max_bound}");
    }

    #[test]
    fn suite_names_and_order() {
        let names: Vec<&str> = Suite::all().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "RegexLib",
                "SpamAssassin",
                "Snort",
                "Suricata",
                "Prosite",
                "Yara",
                "ClamAV"
            ]
        );
    }
}
