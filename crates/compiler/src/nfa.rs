//! Basic-NFA compilation (the classical Glushkov path of §4).

use crate::{CompileError, CompilerConfig};
use rap_arch::encoding::column_count;
use rap_automata::nfa::Nfa;
use rap_regex::Regex;

/// A regex compiled for NFA mode: the Glushkov automaton (bounded
/// repetitions fully unfolded) plus per-state CAM column counts.
#[derive(Clone, Debug)]
pub struct CompiledNfa {
    /// The automaton.
    pub nfa: Nfa,
    /// CAM columns each state occupies (one per product-term code of its
    /// character class).
    pub state_columns: Vec<u32>,
}

impl CompiledNfa {
    /// Total CAM columns of the image.
    pub fn total_columns(&self) -> u64 {
        self.state_columns.iter().map(|&c| u64::from(c)).sum()
    }
}

/// Compiles a regex for NFA mode.
pub(crate) fn compile(regex: &Regex, config: &CompilerConfig) -> Result<CompiledNfa, CompileError> {
    let nfa = Nfa::from_regex(regex);
    if nfa.is_empty() {
        return Err(CompileError::EmptyLanguageOrEpsilon);
    }
    let state_columns: Vec<u32> = nfa.states().iter().map(|s| column_count(&s.cc)).collect();
    let compiled = CompiledNfa { nfa, state_columns };
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

    fn cfg() -> CompilerConfig {
        CompilerConfig::default()
    }

    #[test]
    fn columns_counted_per_state() {
        let c = compile(&parse(r"a\wb*").expect("parses"), &cfg()).expect("compiles");
        // a → 1 column, \w → 2 columns (4 product terms), b → 1 column.
        assert_eq!(c.state_columns, vec![1, 2, 1]);
        assert_eq!(c.total_columns(), 4);
    }

    #[test]
    fn repetitions_unfolded() {
        let c = compile(&parse("x{6}y").expect("parses"), &cfg()).expect("compiles");
        assert_eq!(c.nfa.len(), 7);
    }

    #[test]
    fn epsilon_rejected() {
        assert_eq!(
            compile(&Regex::Empty, &cfg()).expect_err("no states"),
            CompileError::EmptyLanguageOrEpsilon
        );
    }

    #[test]
    fn oversized_pattern_rejected() {
        // 3000 unfolded states exceed the 2048-state array.
        let err = compile(&parse("z{3000}").expect("parses"), &cfg()).expect_err("too large");
        assert!(matches!(err, CompileError::TooLarge { .. }));
    }
}
