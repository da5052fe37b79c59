//! ANMLZoo-like suites for the FPGA comparison (Table 4).
//!
//! The paper evaluates RAP against hAP on five ANMLZoo benchmarks. ANMLZoo
//! ships pre-unfolded automata, so — except for ClamAV — these synthetic
//! stand-ins contain no large bounded repetitions; they are dominated by
//! literal chains and general NFA structure.

use crate::builder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// The ANMLZoo benchmarks of Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnmlZoo {
    /// Brill tagging rules: long literal phrases.
    Brill,
    /// ClamAV signatures: the only suite with large bounded repetitions.
    ClamAv,
    /// Dotstar: literal segments joined by `.*` gaps.
    Dotstar,
    /// PowerEN: complex synthetic NFA rules.
    PowerEn,
    /// Snort signatures.
    Snort,
}

impl AnmlZoo {
    /// All benchmarks in Table 4's row order.
    pub fn all() -> [AnmlZoo; 5] {
        [
            AnmlZoo::Brill,
            AnmlZoo::ClamAv,
            AnmlZoo::Dotstar,
            AnmlZoo::PowerEn,
            AnmlZoo::Snort,
        ]
    }

    /// Display name matching Table 4.
    pub fn name(self) -> &'static str {
        match self {
            AnmlZoo::Brill => "Brill",
            AnmlZoo::ClamAv => "ClamAV",
            AnmlZoo::Dotstar => "Dotstar",
            AnmlZoo::PowerEn => "PowerEN",
            AnmlZoo::Snort => "Snort",
        }
    }

    /// hAP's published power in watts (Table 4) — quoted, not simulated.
    pub fn hap_power_w(self) -> f64 {
        match self {
            AnmlZoo::Brill => 1.56,
            AnmlZoo::ClamAv => 1.42,
            AnmlZoo::Dotstar => 1.47,
            AnmlZoo::PowerEn => 1.52,
            AnmlZoo::Snort => 1.41,
        }
    }

    /// hAP's published throughput in Gch/s (Table 4).
    pub fn hap_throughput_gchps(self) -> f64 {
        match self {
            AnmlZoo::Snort => 0.15,
            _ => 0.18,
        }
    }

    /// Generates `n` patterns for this benchmark, deterministic in `seed`.
    pub fn generate(self, n: usize, seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed ^ (self.name().len() as u64) << 24);
        (0..n).map(|_| self.pattern(&mut rng)).collect()
    }

    fn pattern(self, rng: &mut StdRng) -> String {
        match self {
            AnmlZoo::Brill => {
                // Phrase rules: two or three words with single spaces.
                let words = rng.random_range(2..4u8);
                let mut out = builder::literal(rng, 3, 7);
                for _ in 1..words {
                    out.push(' ');
                    out.push_str(&builder::literal(rng, 3, 7));
                }
                out
            }
            AnmlZoo::ClamAv => {
                let prefix = builder::literal(rng, 4, 8);
                let rep = builder::bounded_rep(rng, 64, 512);
                let suffix = builder::literal(rng, 3, 6);
                format!("{prefix}{rep}{suffix}")
            }
            AnmlZoo::Dotstar => {
                let parts = rng.random_range(2..4u8);
                let mut out = builder::literal(rng, 3, 6);
                for _ in 1..parts {
                    out.push_str(".*");
                    out.push_str(&builder::literal(rng, 3, 6));
                }
                out
            }
            AnmlZoo::PowerEn => {
                format!(
                    "{}({}|{}{}*){}",
                    builder::literal(rng, 2, 4),
                    builder::literal(rng, 2, 3),
                    builder::char_class(rng, true),
                    builder::char_class(rng, true),
                    builder::literal(rng, 2, 4),
                )
            }
            AnmlZoo::Snort => {
                let prefix = builder::literal(rng, 3, 6);
                if rng.random_bool(0.4) {
                    format!("{prefix}{}", builder::bounded_rep(rng, 12, 64))
                } else {
                    format!("{prefix}.*{}", builder::literal(rng, 3, 6))
                }
            }
        }
    }
}

impl fmt::Display for AnmlZoo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig, Mode};

    #[test]
    fn patterns_parse_and_compile() {
        let compiler = Compiler::new(CompilerConfig::default());
        for suite in AnmlZoo::all() {
            for p in suite.generate(40, 13) {
                let re = rap_regex::parse(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
                compiler
                    .compile(&re)
                    .unwrap_or_else(|e| panic!("{suite}: {p}: {e}"));
            }
        }
    }

    #[test]
    fn only_clamav_keeps_large_repetitions() {
        let compiler = Compiler::new(CompilerConfig::default());
        for suite in AnmlZoo::all() {
            let nbva = suite
                .generate(100, 21)
                .iter()
                .filter(|p| {
                    let re = rap_regex::parse(p).expect("parses");
                    compiler.decide(&re) == Mode::Nbva
                })
                .count();
            if suite == AnmlZoo::ClamAv {
                assert!(nbva > 80, "{suite}: {nbva} NBVA patterns");
            } else if suite == AnmlZoo::Snort {
                assert!(nbva > 10, "{suite}: {nbva}");
            } else {
                assert_eq!(nbva, 0, "{suite} must have no large repetitions");
            }
        }
    }

    #[test]
    fn published_hap_numbers() {
        assert_eq!(AnmlZoo::Brill.hap_power_w(), 1.56);
        assert_eq!(AnmlZoo::Snort.hap_throughput_gchps(), 0.15);
        assert_eq!(AnmlZoo::Dotstar.hap_throughput_gchps(), 0.18);
    }

    #[test]
    fn deterministic() {
        assert_eq!(AnmlZoo::Brill.generate(5, 1), AnmlZoo::Brill.generate(5, 1));
    }
}
