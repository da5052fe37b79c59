//! Property-based differential tests: the NBVA and LNFA executors must
//! agree with the fully unfolded Glushkov NFA, which serves as ground truth.

use proptest::prelude::*;
use rap_automata::lnfa::Lnfa;
use rap_automata::nbva::Nbva;
use rap_automata::nfa::Nfa;
use rap_regex::{CharClass, Regex};

/// Random regexes over {a, b, c} with bounded repetitions — the shapes the
/// NBVA compiler handles without unfolding.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::literal_byte(b'a')),
        Just(Regex::literal_byte(b'b')),
        Just(Regex::literal_byte(b'c')),
        Just(Regex::Class(CharClass::from_bytes([b'a', b'c']))),
        // Single-class bounded repetitions of width over the test threshold.
        (1u32..9, 0u32..6).prop_map(|(m, extra)| {
            Regex::repeat(Regex::literal_byte(b'c'), m, Some(m + extra))
        }),
        (1u32..9).prop_map(|n| Regex::repeat(
            Regex::Class(CharClass::from_bytes([b'a', b'b'])),
            0,
            Some(n)
        )),
    ];
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::opt),
            inner.clone().prop_map(Regex::plus),
            inner.prop_map(Regex::star),
        ]
    })
}

/// Random inputs over the same alphabet (plus a rare out-of-alphabet byte).
fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            8 => Just(b'a'),
            8 => Just(b'b'),
            16 => Just(b'c'),
            1 => Just(b'x'),
        ],
        0..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// NBVA execution is equivalent to the unfolded NFA for every unfolding
    /// threshold.
    #[test]
    fn nbva_matches_unfolded_nfa(re in arb_regex(), input in arb_input(), t in 0u32..6) {
        let reference = Nfa::from_regex(&re).match_ends(&input);
        let nbva = Nbva::from_regex(&re, t);
        prop_assert_eq!(
            nbva.match_ends(&input),
            reference,
            "regex {} threshold {}",
            re,
            t
        );
    }

    /// The counter-set executor (NCA) is equivalent to both the bit-vector
    /// executor and the unfolded NFA.
    #[test]
    fn nca_matches_unfolded_nfa(re in arb_regex(), input in arb_input(), t in 0u32..6) {
        let reference = Nfa::from_regex(&re).match_ends(&input);
        let nbva = Nbva::from_regex(&re, t);
        prop_assert_eq!(
            rap_automata::nca::NcaRun::match_ends(&nbva, &input),
            reference,
            "regex {} threshold {}",
            re,
            t
        );
    }

    /// The LNFA rewriting (when it applies) preserves the language: the
    /// union of chains reports exactly the NFA's match ends.
    #[test]
    fn lnfa_set_matches_nfa(re in arb_regex(), input in arb_input()) {
        if let Some(set) = Lnfa::from_regex(&re, 2048) {
            let reference = Nfa::from_regex(&re).match_ends(&input);
            let mut runs: Vec<_> = set.lnfas.iter().map(|l| l.start()).collect();
            let mut got = Vec::new();
            for (i, &b) in input.iter().enumerate() {
                let mut any = false;
                for (run, lnfa) in runs.iter_mut().zip(&set.lnfas) {
                    any |= run.step(lnfa, b);
                }
                if any {
                    got.push(i + 1);
                }
            }
            prop_assert_eq!(got, reference, "regex {}", re);
        }
    }

    /// Nullability flags agree across all three models.
    #[test]
    fn nullability_agrees(re in arb_regex()) {
        let nfa = Nfa::from_regex(&re);
        let nbva = Nbva::from_regex(&re, 3);
        prop_assert_eq!(nfa.matches_empty(), re.nullable());
        prop_assert_eq!(nbva.matches_empty(), re.nullable());
        if let Some(set) = Lnfa::from_regex(&re, 2048) {
            prop_assert_eq!(set.matches_empty, re.nullable());
        }
    }

    /// The NBVA never has more control states than the unfolded NFA, and
    /// compresses exactly when repetitions survive the threshold.
    #[test]
    fn nbva_state_compression(re in arb_regex(), t in 0u32..6) {
        let nfa = Nfa::from_regex(&re);
        let nbva = Nbva::from_regex(&re, t);
        prop_assert!(nbva.len() <= nfa.len());
    }
}
