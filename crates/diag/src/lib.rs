//! Shared structured-diagnostics machinery for the RAP lint families.
//!
//! Both rule families — the mapping legality verifier (`rap-verify`,
//! `V001`…) and the compiled-automata static analyzer (`rap-analyze`,
//! `A001`…) — emit findings through the types here, so `rap lint --json`
//! and `rap analyze --json` share one JSON schema:
//!
//! ```json
//! {"legal": true, "findings": [{"rule": "V001-bv-depth", "severity":
//!  "warning", "array": 0, "pattern": null, "state": null, "tile": null,
//!  "bin": null, "message": "…"}]}
//! ```
//!
//! The rule enums themselves stay in their home crates (they document the
//! checks); this crate is generic over any type implementing [`RuleCode`].

use std::fmt;

/// A rule identifier with a stable, append-only diagnostic code such as
/// `"V001-bv-depth"` or `"A002-dead-state"`.
pub trait RuleCode: Copy + Eq + fmt::Debug {
    /// The stable code string used in reports, tests, and JSON output.
    fn code(&self) -> &'static str;
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; the artifact is legal.
    Info,
    /// Suspicious but executable; worth a look.
    Warning,
    /// The artifact violates an invariant and must not be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a finding points: any subset of array / pattern / state / tile /
/// bin indices. The mapping verifier fills array/tile/bin; the automata
/// analyzer fills pattern/state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Location {
    /// Array index in `Mapping::arrays`.
    pub array: Option<usize>,
    /// Pattern index in the workload.
    pub pattern: Option<usize>,
    /// State index within the compiled automaton.
    pub state: Option<u32>,
    /// Tile index within the array.
    pub tile: Option<u32>,
    /// Bin index within an LNFA array.
    pub bin: Option<usize>,
}

impl Location {
    /// A location naming only an array.
    pub fn array(array: usize) -> Location {
        Location {
            array: Some(array),
            ..Location::default()
        }
    }

    /// A location naming only a pattern (the analyzer's usual anchor).
    pub fn of_pattern(pattern: usize) -> Location {
        Location {
            pattern: Some(pattern),
            ..Location::default()
        }
    }

    /// Adds the pattern index.
    #[must_use]
    pub fn pattern(mut self, pattern: usize) -> Location {
        self.pattern = Some(pattern);
        self
    }

    /// Adds the state index.
    #[must_use]
    pub fn state(mut self, state: u32) -> Location {
        self.state = Some(state);
        self
    }

    /// Adds the tile index.
    #[must_use]
    pub fn tile(mut self, tile: u32) -> Location {
        self.tile = Some(tile);
        self
    }

    /// Adds the bin index.
    #[must_use]
    pub fn bin(mut self, bin: usize) -> Location {
        self.bin = Some(bin);
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (name, value) in [
            ("array", self.array.map(|v| v as u64)),
            ("pattern", self.pattern.map(|v| v as u64)),
            ("state", self.state.map(u64::from)),
            ("tile", self.tile.map(u64::from)),
            ("bin", self.bin.map(|v| v as u64)),
        ] {
            if let Some(v) = value {
                write!(f, "{sep}{name} {v}")?;
                sep = ", ";
            }
        }
        if sep.is_empty() {
            f.write_str("mapping")?;
        }
        Ok(())
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic<R> {
    /// The violated (or advisory) rule.
    pub rule: R,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// Human-readable explanation with the offending numbers.
    pub message: String,
}

impl<R: RuleCode> fmt::Display for Diagnostic<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at {}: {}",
            self.severity,
            self.rule.code(),
            self.location,
            self.message
        )
    }
}

/// A lint run's output: every finding, in check order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report<R> {
    /// The findings.
    pub diagnostics: Vec<Diagnostic<R>>,
}

// Manual impl: `derive(Default)` would demand `R: Default`.
impl<R> Default for Report<R> {
    fn default() -> Self {
        Report {
            diagnostics: Vec::new(),
        }
    }
}

impl<R: RuleCode> Report<R> {
    /// `true` when no *error* was found — the artifact is legal to use
    /// (warnings and infos may still be present).
    pub fn is_legal(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// `true` when nothing at all was reported.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// The error findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic<R>> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The findings for one rule (handy in tests).
    pub fn by_rule(&self, rule: R) -> Vec<&Diagnostic<R>> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Records a finding.
    pub fn push(&mut self, rule: R, severity: Severity, location: Location, message: String) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity,
            location,
            message,
        });
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: Report<R>) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Renders the report in the shared machine-readable JSON schema
    /// (`rap lint --json` / `rap analyze --json`): an object with `legal`
    /// and a `findings` array whose entries carry the rule code, severity,
    /// the five optional location indices, and the message.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"legal\": ");
        s.push_str(if self.is_legal() { "true" } else { "false" });
        s.push_str(", \"findings\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"rule\": \"{}\", \"severity\": \"{}\", \"array\": {}, \
                 \"pattern\": {}, \"state\": {}, \"tile\": {}, \"bin\": {}, \
                 \"message\": \"{}\"}}",
                d.rule.code(),
                d.severity,
                json_opt(d.location.array.map(|v| v as u64)),
                json_opt(d.location.pattern.map(|v| v as u64)),
                json_opt(d.location.state.map(u64::from)),
                json_opt(d.location.tile.map(u64::from)),
                json_opt(d.location.bin.map(|v| v as u64)),
                json_escape(&d.message)
            ));
        }
        s.push_str("]}");
        s
    }
}

impl<R: RuleCode> fmt::Display for Report<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "verified clean");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// `null` or the number, for optional location indices.
fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum TestRule {
        One,
        Two,
    }

    impl RuleCode for TestRule {
        fn code(&self) -> &'static str {
            match self {
                TestRule::One => "T001-one",
                TestRule::Two => "T002-two",
            }
        }
    }

    #[test]
    fn location_display_forms() {
        assert_eq!(Location::default().to_string(), "mapping");
        assert_eq!(
            Location::array(2).pattern(7).tile(3).to_string(),
            "array 2, pattern 7, tile 3"
        );
        assert_eq!(
            Location::of_pattern(1).state(9).to_string(),
            "pattern 1, state 9"
        );
        assert_eq!(Location::array(0).bin(4).to_string(), "array 0, bin 4");
    }

    #[test]
    fn report_legality_and_queries() {
        let mut r: Report<TestRule> = Report::default();
        assert!(r.is_legal() && r.is_empty());
        r.push(
            TestRule::One,
            Severity::Warning,
            Location::default(),
            "w".into(),
        );
        assert!(r.is_legal() && !r.is_empty());
        r.push(
            TestRule::Two,
            Severity::Error,
            Location::array(0),
            "e".into(),
        );
        assert!(!r.is_legal());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.by_rule(TestRule::Two).len(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn merge_concatenates_in_order() {
        let mut a: Report<TestRule> = Report::default();
        a.push(
            TestRule::One,
            Severity::Info,
            Location::default(),
            "a".into(),
        );
        let mut b: Report<TestRule> = Report::default();
        b.push(
            TestRule::Two,
            Severity::Error,
            Location::default(),
            "b".into(),
        );
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.diagnostics[1].rule, TestRule::Two);
        assert!(!a.is_legal());
    }

    #[test]
    fn json_schema_is_stable() {
        let mut r: Report<TestRule> = Report::default();
        r.push(
            TestRule::One,
            Severity::Error,
            Location::of_pattern(3).state(11),
            "bad \"state\"\n".into(),
        );
        let json = r.to_json();
        assert!(
            json.starts_with("{\"legal\": false, \"findings\": ["),
            "{json}"
        );
        assert!(json.contains("\"rule\": \"T001-one\""), "{json}");
        assert!(json.contains("\"pattern\": 3"), "{json}");
        assert!(json.contains("\"state\": 11"), "{json}");
        assert!(json.contains("\"array\": null"), "{json}");
        assert!(json.contains("bad \\\"state\\\"\\n"), "{json}");
    }

    #[test]
    fn escaping_handles_control_chars() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }
}
