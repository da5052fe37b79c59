//! Abstract syntax of the regex subset used by the RAP compiler.
//!
//! The grammar follows §2.1 of the paper:
//!
//! ```text
//! r ::= ε | σ | (r|r) | r·r | r* | r{m,n}
//! ```
//!
//! extended with the usual conveniences `r?` (≡ `r{0,1}`) and `r+`
//! (≡ `r·r*`), both of which are kept as first-class constructors so that
//! the compiler's rewriters can reason about them without eagerly expanding.

use crate::charclass::CharClass;
use std::fmt;

/// A regular expression over the byte alphabet.
///
/// `Concat` and `Alt` are n-ary to keep rewriting simple and trees shallow;
/// the [smart constructors](Regex::concat) flatten nested applications and
/// apply the obvious unit/absorption laws.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub enum Regex {
    /// ε — matches the empty string.
    #[default]
    Empty,
    /// σ — matches any single byte in the class.
    Class(CharClass),
    /// r₁ · r₂ · … — matches the concatenation of its parts (≥ 2 parts).
    Concat(Vec<Regex>),
    /// r₁ | r₂ | … — matches the union of its parts (≥ 2 parts).
    Alt(Vec<Regex>),
    /// r* — Kleene star.
    Star(Box<Regex>),
    /// r+ — one or more repetitions.
    Plus(Box<Regex>),
    /// r? — zero or one occurrence.
    Opt(Box<Regex>),
    /// r{min,max} — bounded repetition; `max = None` encodes `r{min,}`.
    Repeat {
        /// The repeated subexpression.
        inner: Box<Regex>,
        /// Lower bound m.
        min: u32,
        /// Upper bound n (`None` = unbounded, i.e. `r{m,}`).
        max: Option<u32>,
    },
}

impl Regex {
    /// Smart constructor for concatenation: flattens nested `Concat`s,
    /// drops ε units, and propagates the empty class (which matches
    /// nothing, so the whole concatenation matches nothing).
    pub fn concat(parts: Vec<Regex>) -> Regex {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat
            .iter()
            .any(|p| matches!(p, Regex::Class(c) if c.is_empty()))
        {
            return Regex::Class(CharClass::empty());
        }
        match flat.len() {
            0 => Regex::Empty,
            1 => flat.pop().expect("len checked"),
            _ => Regex::Concat(flat),
        }
    }

    /// Smart constructor for union: flattens nested `Alt`s and deduplicates
    /// syntactically identical branches.
    pub fn alt(parts: Vec<Regex>) -> Regex {
        let mut flat: Vec<Regex> = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Alt(inner) => {
                    for q in inner {
                        if !flat.contains(&q) {
                            flat.push(q);
                        }
                    }
                }
                other => {
                    if !flat.contains(&other) {
                        flat.push(other);
                    }
                }
            }
        }
        match flat.len() {
            0 => Regex::Class(CharClass::empty()),
            1 => flat.pop().expect("len checked"),
            _ => Regex::Alt(flat),
        }
    }

    /// `r*`, simplifying `ε* = ε` and `(r*)* = r*`.
    pub fn star(inner: Regex) -> Regex {
        match inner {
            Regex::Empty => Regex::Empty,
            s @ Regex::Star(_) => s,
            Regex::Class(c) if c.is_empty() => Regex::Empty,
            other => Regex::Star(Box::new(other)),
        }
    }

    /// `r+`, simplifying `ε+ = ε`.
    pub fn plus(inner: Regex) -> Regex {
        match inner {
            Regex::Empty => Regex::Empty,
            s @ Regex::Star(_) => s,
            other => Regex::Plus(Box::new(other)),
        }
    }

    /// `r?`, simplifying `ε? = ε` and `(r*)? = r*`.
    pub fn opt(inner: Regex) -> Regex {
        match inner {
            Regex::Empty => Regex::Empty,
            s @ Regex::Star(_) => s,
            o @ Regex::Opt(_) => o,
            other => Regex::Opt(Box::new(other)),
        }
    }

    /// `r{min,max}`, normalizing the degenerate bounds:
    /// `r{0,0} = ε`, `r{1,1} = r`, `r{0,1} = r?`, `r{0,} = r*`, `r{1,} = r+`.
    pub fn repeat(inner: Regex, min: u32, max: Option<u32>) -> Regex {
        if let Some(n) = max {
            assert!(min <= n, "bounded repetition with min {min} > max {n}");
        }
        match (min, max) {
            (0, Some(0)) => Regex::Empty,
            (1, Some(1)) => inner,
            (0, Some(1)) => Regex::opt(inner),
            (0, None) => Regex::star(inner),
            (1, None) => Regex::plus(inner),
            _ => Regex::Repeat {
                inner: Box::new(inner),
                min,
                max,
            },
        }
    }

    /// A single-byte literal.
    pub fn literal_byte(b: u8) -> Regex {
        Regex::Class(CharClass::single(b))
    }

    /// A literal string (concatenation of single-byte classes).
    pub fn literal(s: &str) -> Regex {
        Regex::concat(s.bytes().map(Regex::literal_byte).collect())
    }

    /// Whether the language of `self` contains the empty string.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Class(_) => false,
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Alt(parts) => parts.iter().any(Regex::nullable),
            Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Plus(inner) => inner.nullable(),
            Regex::Repeat { inner, min, .. } => *min == 0 || inner.nullable(),
        }
    }

    /// Number of character-class leaves (the Glushkov position count *before*
    /// unfolding bounded repetitions).
    pub fn leaf_count(&self) -> usize {
        match self {
            Regex::Empty => 0,
            Regex::Class(_) => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => parts.iter().map(Regex::leaf_count).sum(),
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => inner.leaf_count(),
            Regex::Repeat { inner, .. } => inner.leaf_count(),
        }
    }

    /// Number of Glushkov positions *after* fully unfolding every bounded
    /// repetition — i.e. the number of STEs a basic NFA needs (§2.2).
    ///
    /// `r{m,}` unfolds to `r…r·r*` (m copies, or one if m = 0).
    pub fn unfolded_size(&self) -> u64 {
        match self {
            Regex::Empty => 0,
            Regex::Class(_) => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                parts.iter().map(Regex::unfolded_size).sum()
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => inner.unfolded_size(),
            Regex::Repeat { inner, min, max } => {
                // r{m,n} unfolds to n copies; r{m,} unfolds to m copies
                // followed by r* (one more position).
                let copies = match max {
                    Some(n) => u64::from(*n),
                    None => u64::from(*min) + 1,
                };
                copies * inner.unfolded_size()
            }
        }
    }

    /// Whether any bounded repetition `r{m,n}` (with explicit bounds, not the
    /// normalized `*`/`+`/`?` forms) occurs in the expression.
    pub fn has_bounded_repetition(&self) -> bool {
        match self {
            Regex::Empty | Regex::Class(_) => false,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                parts.iter().any(Regex::has_bounded_repetition)
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => {
                inner.has_bounded_repetition()
            }
            Regex::Repeat { .. } => true,
        }
    }

    /// Whether the expression contains an unbounded loop (`*`, `+`, `{m,}`).
    pub fn has_unbounded_loop(&self) -> bool {
        match self {
            Regex::Empty | Regex::Class(_) => false,
            Regex::Concat(parts) | Regex::Alt(parts) => parts.iter().any(Regex::has_unbounded_loop),
            Regex::Star(_) | Regex::Plus(_) => true,
            Regex::Opt(inner) => inner.has_unbounded_loop(),
            Regex::Repeat { inner, max, .. } => max.is_none() || inner.has_unbounded_loop(),
        }
    }
}

impl From<CharClass> for Regex {
    fn from(cc: CharClass) -> Self {
        Regex::Class(cc)
    }
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Regex({self})")
    }
}

impl fmt::Display for Regex {
    /// Renders the expression back into PCRE-ish concrete syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn group(r: &Regex, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match r {
                Regex::Class(_) => write!(f, "{r}"),
                _ => write!(f, "(?:{r})"),
            }
        }
        match self {
            Regex::Empty => Ok(()),
            Regex::Class(cc) => write!(f, "{cc}"),
            Regex::Concat(parts) => {
                for p in parts {
                    if matches!(p, Regex::Alt(_)) {
                        write!(f, "(?:{p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Regex::Alt(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Regex::Star(inner) => {
                group(inner, f)?;
                write!(f, "*")
            }
            Regex::Plus(inner) => {
                group(inner, f)?;
                write!(f, "+")
            }
            Regex::Opt(inner) => {
                group(inner, f)?;
                write!(f, "?")
            }
            Regex::Repeat { inner, min, max } => {
                group(inner, f)?;
                match max {
                    Some(n) if *n == *min => write!(f, "{{{min}}}"),
                    Some(n) => write!(f, "{{{min},{n}}}"),
                    None => write!(f, "{{{min},}}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_flattens_and_drops_epsilon() {
        let r = Regex::concat(vec![
            Regex::literal("ab"),
            Regex::Empty,
            Regex::concat(vec![Regex::literal_byte(b'c'), Regex::literal_byte(b'd')]),
        ]);
        assert_eq!(r, Regex::literal("abcd"));
    }

    #[test]
    fn concat_absorbs_empty_class() {
        let r = Regex::concat(vec![Regex::literal("a"), Regex::Class(CharClass::empty())]);
        assert_eq!(r, Regex::Class(CharClass::empty()));
    }

    #[test]
    fn alt_flattens_and_dedups() {
        let r = Regex::alt(vec![
            Regex::literal("a"),
            Regex::alt(vec![Regex::literal("b"), Regex::literal("a")]),
        ]);
        match &r {
            Regex::Alt(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Alt, got {other:?}"),
        }
    }

    #[test]
    fn repeat_normalization() {
        let a = Regex::literal_byte(b'a');
        assert_eq!(Regex::repeat(a.clone(), 0, Some(0)), Regex::Empty);
        assert_eq!(Regex::repeat(a.clone(), 1, Some(1)), a.clone());
        assert!(matches!(
            Regex::repeat(a.clone(), 0, Some(1)),
            Regex::Opt(_)
        ));
        assert!(matches!(Regex::repeat(a.clone(), 0, None), Regex::Star(_)));
        assert!(matches!(Regex::repeat(a.clone(), 1, None), Regex::Plus(_)));
        assert!(matches!(Regex::repeat(a, 2, Some(5)), Regex::Repeat { .. }));
    }

    #[test]
    #[should_panic(expected = "min")]
    fn repeat_rejects_min_above_max() {
        let _ = Regex::repeat(Regex::literal_byte(b'a'), 5, Some(2));
    }

    #[test]
    fn nullable_cases() {
        assert!(Regex::Empty.nullable());
        assert!(!Regex::literal("a").nullable());
        assert!(Regex::star(Regex::literal("a")).nullable());
        assert!(Regex::opt(Regex::literal("a")).nullable());
        assert!(!Regex::plus(Regex::literal("a")).nullable());
        assert!(Regex::repeat(Regex::literal("ab"), 0, Some(3)).nullable());
        assert!(!Regex::repeat(Regex::literal("ab"), 2, Some(3)).nullable());
    }

    #[test]
    fn unfolded_size_counts_expansion() {
        // a{7} -> 7 STEs; (ab){3} -> 6 STEs; a{2,} -> 3 STEs (a a a*).
        assert_eq!(
            Regex::repeat(Regex::literal("a"), 7, Some(7)).unfolded_size(),
            7
        );
        assert_eq!(
            Regex::repeat(Regex::literal("ab"), 3, Some(3)).unfolded_size(),
            6
        );
        assert_eq!(
            Regex::repeat(Regex::literal("a"), 2, None).unfolded_size(),
            3
        );
    }

    #[test]
    fn display_roundtrip_examples() {
        assert_eq!(Regex::literal("abc").to_string(), "abc");
        let r = Regex::repeat(Regex::literal_byte(b'a'), 2, Some(5));
        assert_eq!(r.to_string(), "a{2,5}");
        let alt = Regex::alt(vec![Regex::literal("ab"), Regex::literal("cd")]);
        assert_eq!(alt.to_string(), "ab|cd");
        let grouped = Regex::concat(vec![Regex::literal("x"), alt]);
        assert_eq!(grouped.to_string(), "x(?:ab|cd)");
    }

    #[test]
    fn bounded_repetition_detection() {
        assert!(!Regex::literal("abc").has_bounded_repetition());
        assert!(Regex::repeat(Regex::literal("a"), 2, Some(4)).has_bounded_repetition());
        assert!(!Regex::star(Regex::literal("a")).has_bounded_repetition());
    }

    #[test]
    fn unbounded_loop_detection() {
        assert!(Regex::star(Regex::literal("a")).has_unbounded_loop());
        assert!(Regex::repeat(Regex::literal("a"), 2, None).has_unbounded_loop());
        assert!(!Regex::repeat(Regex::literal("a"), 2, Some(4)).has_unbounded_loop());
    }
}
