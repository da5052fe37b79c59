//! LNFA compilation (§4.2): rewriting into chains and choosing the
//! state-matching path (CAM vs local switch).

use crate::{budget_for, CompileError, CompilerConfig};
use rap_arch::encoding::single_code;
use rap_automata::lnfa::Lnfa;
use rap_regex::rewrite::unfold_below_threshold;
use rap_regex::Regex;

/// Where an LNFA's state matching happens (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchPath {
    /// All classes fit a single 32-bit code: matched in the CAM, one column
    /// per state (84% of LNFAs in the paper's benchmarks).
    Cam,
    /// Fallback: 256-bit one-hot codes in the local switch, two columns per
    /// state.
    LocalSwitch,
}

/// One linear chain plus its matching path.
#[derive(Clone, Debug)]
pub struct LnfaUnit {
    /// The chain.
    pub lnfa: Lnfa,
    /// CAM or local-switch matching.
    pub path: MatchPath,
}

impl LnfaUnit {
    /// Columns this chain occupies (1 per state in the CAM, 2 per state in
    /// the local switch).
    pub fn columns(&self) -> u64 {
        let per_state = match self.path {
            MatchPath::Cam => 1,
            MatchPath::LocalSwitch => 2,
        };
        self.lnfa.len() as u64 * per_state
    }
}

/// A regex compiled for LNFA mode: a union of chains.
#[derive(Clone, Debug)]
pub struct CompiledLnfa {
    /// The chains; the regex matches when any chain matches.
    pub units: Vec<LnfaUnit>,
    /// Whether the original regex also matched ε.
    pub matches_empty: bool,
}

impl CompiledLnfa {
    /// Total columns across chains.
    pub fn total_columns(&self) -> u64 {
        self.units.iter().map(LnfaUnit::columns).sum()
    }

    /// Length of the longest chain.
    pub fn max_chain_len(&self) -> usize {
        self.units.iter().map(|u| u.lnfa.len()).max().unwrap_or(0)
    }
}

/// Compiles a regex for LNFA mode. The decision graph guarantees the
/// rewriting succeeds; a failure here means the caller skipped [`crate::decide`].
pub(crate) fn compile(
    regex: &Regex,
    config: &CompilerConfig,
) -> Result<CompiledLnfa, CompileError> {
    let after_unfold = unfold_below_threshold(regex, config.unfold_threshold);
    let budget = budget_for(regex, config);
    let set = Lnfa::from_regex(&after_unfold, budget).unwrap_or_else(|| {
        panic!("LNFA compilation invoked on a non-linearizable pattern {regex}")
    });
    if set.lnfas.is_empty() {
        return Err(CompileError::EmptyLanguageOrEpsilon);
    }
    let units: Vec<LnfaUnit> = set
        .lnfas
        .into_iter()
        .map(|lnfa| {
            let all_single = lnfa.classes().iter().all(|cc| single_code(cc).is_some());
            LnfaUnit {
                lnfa,
                path: if all_single {
                    MatchPath::Cam
                } else {
                    MatchPath::LocalSwitch
                },
            }
        })
        .collect();
    let compiled = CompiledLnfa {
        units,
        matches_empty: set.matches_empty,
    };

    let capacity = u64::from(config.arch.states_per_array());
    let columns = compiled.total_columns();
    if columns > capacity {
        return Err(CompileError::TooLarge {
            states: columns,
            capacity,
        });
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_regex::parse;

    fn compile_str(pattern: &str) -> CompiledLnfa {
        compile(&parse(pattern).expect("parses"), &CompilerConfig::default()).expect("compiles")
    }

    #[test]
    fn single_chain_cam_path() {
        let c = compile_str("abc");
        assert_eq!(c.units.len(), 1);
        assert_eq!(c.units[0].path, MatchPath::Cam);
        assert_eq!(c.total_columns(), 3);
        assert_eq!(c.max_chain_len(), 3);
    }

    #[test]
    fn multi_code_class_falls_back_to_switch() {
        // \w needs two 32-bit codes → the whole chain takes the one-hot
        // local-switch path at two columns per state.
        let c = compile_str(r"a\wc");
        assert_eq!(c.units[0].path, MatchPath::LocalSwitch);
        assert_eq!(c.total_columns(), 6);
    }

    #[test]
    fn range_class_stays_on_cam_path() {
        // [a-z] fits one two-term code (the multi-zero-prefix regime).
        let c = compile_str("a[a-z]c");
        assert_eq!(c.units[0].path, MatchPath::Cam);
        assert_eq!(c.total_columns(), 3);
    }

    #[test]
    fn union_distributes_into_units() {
        let c = compile_str("a(b|c)d");
        assert_eq!(c.units.len(), 2);
        assert!(c.units.iter().all(|u| u.path == MatchPath::Cam));
    }

    #[test]
    fn mixed_paths_chosen_per_unit() {
        let c = compile_str(r"(x|\w)y");
        assert_eq!(c.units.len(), 2);
        let paths: Vec<MatchPath> = c.units.iter().map(|u| u.path).collect();
        assert!(paths.contains(&MatchPath::Cam));
        assert!(paths.contains(&MatchPath::LocalSwitch));
    }

    #[test]
    fn small_repetitions_unfold_into_chain() {
        let c = compile_str("ab{2}c");
        assert_eq!(c.units.len(), 1);
        assert_eq!(c.units[0].lnfa.len(), 4);
    }

    #[test]
    #[should_panic(expected = "non-linearizable")]
    fn non_linearizable_panics() {
        let _ = compile_str("ab*c");
    }
}
