//! Parser for the PCRE-style concrete syntax used by the paper's benchmarks.
//!
//! Supported constructs: literal bytes, escapes (`\d \D \w \W \s \S \t \n \r
//! \f \v \0 \xHH` and escaped metacharacters), `.`, character classes with
//! ranges and negation (`[a-z]`, `[^\\\\]`), groups `(...)` / `(?:...)`,
//! alternation `|`, and the quantifiers `*`, `+`, `?`, `{m}`, `{m,}`,
//! `{m,n}`. The anchors `^` and `$` are accepted at the pattern edges by
//! [`parse_pattern`] and recorded as flags — in-memory automata processors
//! implement unanchored matching by keeping initial states always available,
//! so anchoring is a property of the whole pattern, not of the automaton
//! structure.

use crate::ast::Regex;
use crate::charclass::CharClass;
use std::fmt;

/// A parsed pattern: the regex body plus edge-anchoring flags.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// The pattern body.
    pub regex: Regex,
    /// `true` iff the pattern began with `^` (match only at stream start).
    pub anchored_start: bool,
    /// `true` iff the pattern ended with `$` (match only at stream end).
    pub anchored_end: bool,
}

/// Error produced when a pattern fails to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the pattern where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses an unanchored pattern, rejecting `^`/`$`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed syntax or on anchors; use
/// [`parse_pattern`] when anchors must be accepted.
///
/// # Example
///
/// ```
/// use rap_regex::parse;
/// let re = parse(r"a[bc]{2,4}d")?;
/// assert_eq!(re.to_string(), "a[bc]{2,4}d");
/// # Ok::<(), rap_regex::ParseError>(())
/// ```
pub fn parse(pattern: &str) -> Result<Regex, ParseError> {
    let p = parse_pattern(pattern)?;
    if p.anchored_start || p.anchored_end {
        return Err(ParseError {
            offset: 0,
            message: "anchors are only supported via parse_pattern".to_string(),
        });
    }
    Ok(p.regex)
}

/// Parses a pattern, accepting `^` at the start and `$` at the end.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed syntax or on anchors occurring
/// anywhere other than the pattern edges.
pub fn parse_pattern(pattern: &str) -> Result<Pattern, ParseError> {
    let mut bytes = pattern.as_bytes();
    let mut base = 0usize;
    let anchored_start = bytes.first() == Some(&b'^');
    if anchored_start {
        bytes = &bytes[1..];
        base = 1;
    }
    let anchored_end = bytes.last() == Some(&b'$') && !ends_with_escape(bytes);
    if anchored_end {
        bytes = &bytes[..bytes.len() - 1];
    }
    let mut p = Parser {
        input: bytes,
        pos: 0,
        base,
    };
    let regex = p.parse_alt()?;
    if p.pos != p.input.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(Pattern {
        regex,
        anchored_start,
        anchored_end,
    })
}

/// True when the final byte is an escaped literal (`\$`), in which case the
/// trailing `$` is not an anchor.
fn ends_with_escape(bytes: &[u8]) -> bool {
    let mut backslashes = 0;
    for &b in bytes[..bytes.len().saturating_sub(1)].iter().rev() {
        if b == b'\\' {
            backslashes += 1;
        } else {
            break;
        }
    }
    backslashes % 2 == 1
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    base: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.base + self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, expected: u8) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alt ::= concat ('|' concat)*
    fn parse_alt(&mut self) -> Result<Regex, ParseError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat(b'|') {
            branches.push(self.parse_concat()?);
        }
        Ok(Regex::alt(branches))
    }

    /// concat ::= repeated*
    fn parse_concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.parse_repeated()?);
        }
        Ok(Regex::concat(parts))
    }

    /// repeated ::= atom quantifier*
    fn parse_repeated(&mut self) -> Result<Regex, ParseError> {
        let mut atom = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    atom = Regex::star(atom);
                }
                Some(b'+') => {
                    self.pos += 1;
                    atom = Regex::plus(atom);
                }
                Some(b'?') => {
                    self.pos += 1;
                    atom = Regex::opt(atom);
                }
                Some(b'{') => {
                    // `{` only opens a quantifier when it looks like one;
                    // otherwise it is a literal brace (PCRE behaviour).
                    if let Some((min, max, end)) = self.try_parse_bounds()? {
                        self.pos = end;
                        if let Some(n) = max {
                            if min > n {
                                return Err(self.error("bounded repetition has min > max"));
                            }
                        }
                        atom = Regex::repeat(atom, min, max);
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    /// Attempts to read `{m}`, `{m,}` or `{m,n}` starting at the current
    /// `{`. Returns the bounds and the position just past the closing `}`
    /// without consuming on failure.
    fn try_parse_bounds(&self) -> Result<Option<(u32, Option<u32>, usize)>, ParseError> {
        let mut i = self.pos + 1; // skip '{'
        let start = i;
        while i < self.input.len() && self.input[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return Ok(None); // no digits: literal '{'
        }
        let min: u32 = std::str::from_utf8(&self.input[start..i])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| self.error("repetition bound too large"))?;
        match self.input.get(i) {
            Some(b'}') => Ok(Some((min, Some(min), i + 1))),
            Some(b',') => {
                i += 1;
                let start2 = i;
                while i < self.input.len() && self.input[i].is_ascii_digit() {
                    i += 1;
                }
                let max = if i == start2 {
                    None
                } else {
                    Some(
                        std::str::from_utf8(&self.input[start2..i])
                            .expect("digits are ascii")
                            .parse()
                            .map_err(|_| self.error("repetition bound too large"))?,
                    )
                };
                if self.input.get(i) == Some(&b'}') {
                    Ok(Some((min, max, i + 1)))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        }
    }

    /// atom ::= '(' alt ')' | '.' | class | escape | literal
    fn parse_atom(&mut self) -> Result<Regex, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                // Swallow group modifiers `?:`, `?i:` etc. (treated as
                // non-capturing; inline flags are not interpreted).
                if self.peek() == Some(b'?') {
                    self.pos += 1;
                    while let Some(b) = self.peek() {
                        if b == b':' {
                            self.pos += 1;
                            break;
                        }
                        if b.is_ascii_alphabetic() || b == b'-' {
                            self.pos += 1;
                        } else {
                            return Err(self.error("unsupported group modifier"));
                        }
                    }
                }
                let inner = self.parse_alt()?;
                if !self.eat(b')') {
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some(b')') => Err(self.error("unmatched ')'")),
            Some(b'.') => {
                self.pos += 1;
                Ok(Regex::Class(CharClass::dot()))
            }
            Some(b'[') => {
                self.pos += 1;
                let cc = self.parse_class()?;
                Ok(Regex::Class(cc))
            }
            Some(b'\\') => {
                self.pos += 1;
                let cc = self.parse_escape()?;
                Ok(Regex::Class(cc))
            }
            Some(b'*' | b'+' | b'?') => Err(self.error("quantifier with no atom")),
            Some(b'^' | b'$') => Err(self.error("anchors only supported at pattern edges")),
            Some(b) => {
                self.pos += 1;
                Ok(Regex::literal_byte(b))
            }
            None => Err(self.error("unexpected end of pattern")),
        }
    }

    /// Parses the body of a bracketed class; the opening `[` has been
    /// consumed.
    fn parse_class(&mut self) -> Result<CharClass, ParseError> {
        let negated = self.eat(b'^');
        let mut cc = CharClass::empty();
        let mut first = true;
        loop {
            let b = self
                .bump()
                .ok_or_else(|| self.error("unclosed character class"))?;
            if b == b']' && !first {
                break;
            }
            first = false;
            let lo = if b == b'\\' {
                let sub = self.parse_escape()?;
                // Multi-byte escapes (\d, \w, ...) cannot open a range.
                if sub.len() != 1 {
                    cc = cc.union(&sub);
                    continue;
                }
                sub.first_member().expect("len checked")
            } else {
                b
            };
            // Range?
            if self.peek() == Some(b'-') && self.input.get(self.pos + 1).is_some_and(|&n| n != b']')
            {
                self.pos += 1; // consume '-'
                let hb = self
                    .bump()
                    .ok_or_else(|| self.error("unclosed character class"))?;
                let hi = if hb == b'\\' {
                    let sub = self.parse_escape()?;
                    if sub.len() != 1 {
                        return Err(self.error("character range with class escape"));
                    }
                    sub.first_member().expect("len checked")
                } else {
                    hb
                };
                if lo > hi {
                    return Err(self.error("character range out of order"));
                }
                cc = cc.union(&CharClass::range(lo, hi));
            } else {
                cc.insert(lo);
            }
        }
        Ok(if negated { cc.complement() } else { cc })
    }

    /// Parses an escape; the backslash has been consumed.
    fn parse_escape(&mut self) -> Result<CharClass, ParseError> {
        let b = self
            .bump()
            .ok_or_else(|| self.error("dangling backslash"))?;
        Ok(match b {
            b'd' => CharClass::digit(),
            b'D' => CharClass::digit().complement(),
            b'w' => CharClass::word(),
            b'W' => CharClass::word().complement(),
            b's' => CharClass::space(),
            b'S' => CharClass::space().complement(),
            b'n' => CharClass::single(b'\n'),
            b'r' => CharClass::single(b'\r'),
            b't' => CharClass::single(b'\t'),
            b'f' => CharClass::single(0x0c),
            b'v' => CharClass::single(0x0b),
            b'0' => CharClass::single(0),
            b'a' => CharClass::single(0x07),
            b'e' => CharClass::single(0x1b),
            b'x' => {
                let h1 = self
                    .bump()
                    .ok_or_else(|| self.error("truncated \\x escape"))?;
                let h2 = self
                    .bump()
                    .ok_or_else(|| self.error("truncated \\x escape"))?;
                let hex = |c: u8| -> Result<u8, ParseError> {
                    (c as char)
                        .to_digit(16)
                        .map(|d| d as u8)
                        .ok_or_else(|| self.error("invalid hex digit in \\x escape"))
                };
                CharClass::single(hex(h1)? * 16 + hex(h2)?)
            }
            // Escaped metacharacters and any other punctuation become
            // literals, matching PCRE's lenient behaviour.
            _ if !b.is_ascii_alphanumeric() => CharClass::single(b),
            _ => return Err(self.error("unsupported escape")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Regex {
        parse(s).unwrap_or_else(|e| panic!("{s:?} failed to parse: {e}"))
    }

    #[test]
    fn literals() {
        assert_eq!(p("abc"), Regex::literal("abc"));
        assert_eq!(p("a"), Regex::literal_byte(b'a'));
    }

    #[test]
    fn dot_and_classes() {
        assert_eq!(p("."), Regex::Class(CharClass::dot()));
        assert_eq!(
            p("[abc]"),
            Regex::Class(CharClass::from_bytes([b'a', b'b', b'c']))
        );
        assert_eq!(p("[a-c]"), Regex::Class(CharClass::range(b'a', b'c')));
        assert_eq!(
            p("[^a]"),
            Regex::Class(CharClass::single(b'a').complement())
        );
    }

    #[test]
    fn class_edge_cases() {
        // ']' first in class is a literal.
        assert_eq!(p("[]a]"), Regex::Class(CharClass::from_bytes([b']', b'a'])));
        // trailing '-' is a literal.
        assert_eq!(p("[a-]"), Regex::Class(CharClass::from_bytes([b'a', b'-'])));
        // escape inside class.
        assert_eq!(p(r"[\]]"), Regex::Class(CharClass::single(b']')));
        // \d inside class unions.
        let expect = CharClass::digit().union(&CharClass::single(b'x'));
        assert_eq!(p(r"[x\d]"), Regex::Class(expect));
    }

    #[test]
    fn escapes() {
        assert_eq!(p(r"\d"), Regex::Class(CharClass::digit()));
        assert_eq!(p(r"\w"), Regex::Class(CharClass::word()));
        assert_eq!(p(r"\."), Regex::literal_byte(b'.'));
        assert_eq!(p(r"\\"), Regex::literal_byte(b'\\'));
        assert_eq!(p(r"\x41"), Regex::literal_byte(b'A'));
        assert_eq!(p(r"\n"), Regex::literal_byte(b'\n'));
    }

    #[test]
    fn quantifiers() {
        assert!(matches!(p("a*"), Regex::Star(_)));
        assert!(matches!(p("a+"), Regex::Plus(_)));
        assert!(matches!(p("a?"), Regex::Opt(_)));
        assert_eq!(
            p("a{2,5}"),
            Regex::repeat(Regex::literal_byte(b'a'), 2, Some(5))
        );
        assert_eq!(
            p("a{3}"),
            Regex::repeat(Regex::literal_byte(b'a'), 3, Some(3))
        );
        assert_eq!(
            p("a{3,}"),
            Regex::repeat(Regex::literal_byte(b'a'), 3, None)
        );
    }

    #[test]
    fn literal_brace_not_quantifier() {
        // PCRE treats `{x` as literal when it is not a valid bound.
        assert_eq!(p("a{x}"), Regex::literal("a{x}"));
        assert_eq!(p("a{}"), Regex::literal("a{}"));
        assert_eq!(p("a{2,x}"), Regex::literal("a{2,x}"));
    }

    #[test]
    fn groups_and_alternation() {
        assert_eq!(p("(ab)"), Regex::literal("ab"));
        assert_eq!(p("(?:ab)"), Regex::literal("ab"));
        let r = p("a(b|c)d");
        assert_eq!(r.to_string(), "a(?:b|c)d");
        // The paper's running example.
        let r = p("a(.a){3}b");
        assert_eq!(r.unfolded_size(), 8);
    }

    #[test]
    fn anchors() {
        let pat = parse_pattern("^abc$").expect("anchored pattern");
        assert!(pat.anchored_start);
        assert!(pat.anchored_end);
        assert_eq!(pat.regex, Regex::literal("abc"));
        // Escaped dollar is a literal, not an anchor.
        let pat = parse_pattern(r"ab\$").expect("escaped dollar");
        assert!(!pat.anchored_end);
        assert_eq!(pat.regex, Regex::literal("ab$"));
        assert!(parse("^abc").is_err());
        assert!(parse("a^b").is_err());
    }

    #[test]
    fn paper_examples_parse() {
        for s in [
            r"a([bc]|b.*d)",
            r"a.*bc{5}",
            r"a[bc].d?",
            r"a(.a){3}b",
            r"b(a{7}|c{5})b",
            r"ab(cd){2}e{1,3}f{2,}g{5}",
            r"ab{10,48}cd{34}ef{128}",
            r"a{1024}bc{0,16}",
            r"a(b{1,2}|c)e",
            r"AppPath=[C-Z]:\\\\[^\\\\]{1,64}\\.exe",
            r"Jeste.{1,8}firm.{1,8}",
        ] {
            let r = parse(s).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            // Round-trip: the display form must parse to the same AST.
            let r2 =
                parse(&r.to_string()).unwrap_or_else(|e| panic!("roundtrip {s:?} -> {r}: {e}"));
            assert_eq!(r, r2, "roundtrip mismatch for {s:?}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse("(ab").is_err());
        assert!(parse("ab)").is_err());
        assert!(parse("[ab").is_err());
        assert!(parse("*a").is_err());
        assert!(parse(r"\").is_err());
        assert!(parse(r"\xZZ").is_err());
        assert!(parse("a{5,2}").is_err());
        assert!(parse("[z-a]").is_err());
    }

    #[test]
    fn error_display_mentions_offset() {
        let e = parse("(ab").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("offset"), "{msg}");
    }
}
