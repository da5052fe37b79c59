//! Cross-crate rule-code registry test.
//!
//! Every diagnostic family in the workspace — the V-rules of the
//! placement verifier, the A-rules of the IR analyzer, the B-rules of
//! the bounds analyzer, the S-rules of the multi-tenant admission
//! analyzer, the R-rules of the streaming scan service, the Q-rules of
//! the hot-swap safety analyzer — shares the `rap-diag` report
//! machinery, and their codes land in one global namespace (CLI JSON,
//! CSV artifacts, CI logs). This test
//! pins the registry invariants:
//!
//! * codes are globally unique across all families,
//! * every code has the stable `^[VABSRQ][0-9]{3}-[a-z0-9-]+$` shape,
//!   with the family prefix matching its crate,
//! * numbering within a family is dense, 1-based, and in `all()` order
//!   (codes are append-only; renumbering breaks downstream consumers),
//! * every code is documented in `DESIGN.md`.

use rap_diag::RuleCode;
use std::collections::BTreeSet;

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// Collects one family's codes via the shared `RuleCode` trait.
fn codes<R: RuleCode>(rules: &[R]) -> Vec<&'static str> {
    rules.iter().map(RuleCode::code).collect()
}

fn families() -> Vec<(char, Vec<&'static str>)> {
    vec![
        ('V', codes(rap_verify::Rule::all())),
        ('A', codes(&rap_analyze::Rule::all())),
        ('B', codes(&rap_bound::Rule::all())),
        ('S', codes(&rap_admit::Rule::all())),
        ('R', codes(&rap_serve::Rule::all())),
        ('Q', codes(&rap_swap::Rule::all())),
    ]
}

/// `code` matches `^[VABSRQ][0-9]{3}-[a-z0-9-]+$`.
fn well_formed(code: &str) -> bool {
    let bytes = code.as_bytes();
    bytes.len() > 5
        && matches!(bytes[0], b'V' | b'A' | b'B' | b'S' | b'R' | b'Q')
        && bytes[1..4].iter().all(u8::is_ascii_digit)
        && bytes[4] == b'-'
        && bytes[5..]
            .iter()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'-')
        && bytes[5..].first() != Some(&b'-')
        && bytes.last() != Some(&b'-')
}

#[test]
fn codes_are_globally_unique() {
    let mut seen = BTreeSet::new();
    for (family, codes) in families() {
        for code in codes {
            assert!(seen.insert(code), "duplicate rule code {code} ({family})");
            // Numeric prefixes must not collide across families either —
            // the letter is the namespace, so this is belt and braces for
            // accidental copy-paste of a whole code.
            let duplicated = seen
                .iter()
                .filter(|c| c[1..4] == code[1..4] && c.starts_with(family))
                .count();
            assert_eq!(duplicated, 1, "number {} reused in {family}", &code[1..4]);
        }
    }
    assert!(seen.len() >= 51, "registry lost codes: {seen:?}");
}

#[test]
fn codes_are_stable_and_well_formed() {
    for (family, codes) in families() {
        for (i, code) in codes.iter().enumerate() {
            assert!(well_formed(code), "malformed rule code {code:?}");
            assert!(
                code.starts_with(family),
                "{code} listed under family {family}"
            );
            // Dense 1-based numbering in all() order: all() drives docs
            // and CLI listings, so order drift is silent breakage.
            let expected = format!("{family}{:03}", i + 1);
            assert!(
                code.starts_with(&expected),
                "{code} out of sequence (expected prefix {expected})"
            );
        }
    }
}

#[test]
fn every_code_is_documented_in_design_md() {
    for (_, codes) in families() {
        for code in codes {
            assert!(
                DESIGN.contains(code),
                "rule {code} is not documented in DESIGN.md"
            );
        }
    }
}
