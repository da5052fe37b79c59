//! Structural analyses the compiler's decision graph (Fig. 9) relies on.

use crate::ast::Regex;
use crate::charclass::CharClass;

/// A bounded repetition occurrence found in a pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepetitionInfo {
    /// Lower bound m of `r{m,n}`.
    pub min: u32,
    /// Upper bound n (`None` for `r{m,}`).
    pub max: Option<u32>,
    /// Whether the body is a single character class (the only shape a
    /// bit-vector STE can track).
    pub single_class: bool,
    /// Number of Glushkov positions of the body.
    pub body_size: usize,
}

impl RepetitionInfo {
    /// The bit-vector width this repetition needs in NBVA mode: n for
    /// `r{m,n}` (after the `r{m}·r{0,n-m}` split the two factors need m and
    /// n−m bits, which still sums to n).
    pub fn bv_width(&self) -> Option<u32> {
        self.max
    }
}

/// Collects every bounded repetition in the pattern, outermost first.
pub fn bounded_repetitions(regex: &Regex) -> Vec<RepetitionInfo> {
    let mut out = Vec::new();
    collect_reps(regex, &mut out);
    out
}

fn collect_reps(regex: &Regex, out: &mut Vec<RepetitionInfo>) {
    match regex {
        Regex::Empty | Regex::Class(_) => {}
        Regex::Concat(parts) | Regex::Alt(parts) => {
            for p in parts {
                collect_reps(p, out);
            }
        }
        Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => collect_reps(inner, out),
        Regex::Repeat { inner, min, max } => {
            out.push(RepetitionInfo {
                min: *min,
                max: *max,
                single_class: matches!(**inner, Regex::Class(_)),
                body_size: inner.leaf_count(),
            });
            collect_reps(inner, out);
        }
    }
}

/// The largest finite repetition bound in the pattern, if any.
pub fn max_bound(regex: &Regex) -> Option<u32> {
    bounded_repetitions(regex)
        .iter()
        .filter_map(|r| r.max)
        .max()
}

/// Whether the pattern is a plain chain of character classes — i.e. it is
/// *already* an LNFA without any rewriting (`a[bc].d` but not `a(b|c)d`).
pub fn is_class_chain(regex: &Regex) -> bool {
    match regex {
        Regex::Empty => true,
        Regex::Class(_) => true,
        Regex::Concat(parts) => parts.iter().all(|p| matches!(p, Regex::Class(_))),
        _ => false,
    }
}

/// Summary statistics of a pattern, used by the workload reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatternStats {
    /// Glushkov positions before unfolding.
    pub leaves: usize,
    /// Glushkov positions after fully unfolding bounded repetitions (basic
    /// NFA STE count).
    pub unfolded: u64,
    /// Number of bounded repetitions.
    pub repetitions: usize,
    /// Largest finite bound.
    pub max_bound: Option<u32>,
    /// Whether the pattern has `*`/`+`/`{m,}`.
    pub unbounded: bool,
    /// Whether the pattern is already a chain of classes.
    pub class_chain: bool,
}

/// Computes [`PatternStats`] for a pattern.
pub fn stats(regex: &Regex) -> PatternStats {
    PatternStats {
        leaves: regex.leaf_count(),
        unfolded: regex.unfolded_size(),
        repetitions: bounded_repetitions(regex).len(),
        max_bound: max_bound(regex),
        unbounded: regex.has_unbounded_loop(),
        class_chain: is_class_chain(regex),
    }
}

/// The distinct character classes appearing in a pattern (used to estimate
/// CAM column sharing).
pub fn distinct_classes(regex: &Regex) -> Vec<CharClass> {
    let mut out: Vec<CharClass> = Vec::new();
    fn walk(regex: &Regex, out: &mut Vec<CharClass>) {
        match regex {
            Regex::Empty => {}
            Regex::Class(cc) => {
                if !out.contains(cc) {
                    out.push(*cc);
                }
            }
            Regex::Concat(parts) | Regex::Alt(parts) => {
                for p in parts {
                    walk(p, out);
                }
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => walk(inner, out),
            Regex::Repeat { inner, .. } => walk(inner, out),
        }
    }
    walk(regex, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn p(s: &str) -> Regex {
        parse(s).expect("test pattern parses")
    }

    #[test]
    fn collects_repetitions() {
        let reps = bounded_repetitions(&p("a{3}(bc){2,5}d{7,}"));
        assert_eq!(reps.len(), 3);
        assert_eq!(
            (reps[0].min, reps[0].max, reps[0].single_class),
            (3, Some(3), true)
        );
        assert_eq!(
            (reps[1].min, reps[1].max, reps[1].single_class),
            (2, Some(5), false)
        );
        assert_eq!((reps[2].min, reps[2].max), (7, None));
        assert_eq!(reps[1].body_size, 2);
    }

    #[test]
    fn nested_repetitions_found() {
        let reps = bounded_repetitions(&p("(a{3}b){2}"));
        assert_eq!(reps.len(), 2);
        // Outermost first.
        assert_eq!(reps[0].min, 2);
        assert_eq!(reps[1].min, 3);
    }

    #[test]
    fn max_bound_across_pattern() {
        assert_eq!(max_bound(&p("a{3}b{128}c{5,}")), Some(128));
        assert_eq!(max_bound(&p("abc")), None);
    }

    #[test]
    fn class_chain_detection() {
        assert!(is_class_chain(&p("a[bc].d")));
        assert!(is_class_chain(&p("x")));
        assert!(!is_class_chain(&p("a(b|c)d")));
        assert!(!is_class_chain(&p("ab?c")));
        assert!(!is_class_chain(&p("ab*")));
    }

    #[test]
    fn stats_summary() {
        let s = stats(&p("ab{10,48}c"));
        assert_eq!(s.leaves, 3);
        assert_eq!(s.unfolded, 50);
        assert_eq!(s.repetitions, 1);
        assert_eq!(s.max_bound, Some(48));
        assert!(!s.unbounded);
        assert!(!s.class_chain);
    }

    #[test]
    fn distinct_classes_dedup() {
        let ccs = distinct_classes(&p("aba[bc]"));
        assert_eq!(ccs.len(), 3); // a, b, [bc]
    }

    #[test]
    fn bv_width_is_upper_bound() {
        let reps = bounded_repetitions(&p("a{10,48}"));
        assert_eq!(reps[0].bv_width(), Some(48));
    }
}
