//! The CLI subcommands.

pub mod admit;
pub mod analyze;
pub mod bound;
pub mod compare;
pub mod compile;
pub mod dot;
pub mod gen;
pub mod layout;
pub mod lint;
pub mod scan;
pub mod serve;
pub mod swap;
pub mod trace;

use crate::CliError;
use rap_regex::Pattern;
use rap_workloads::Suite;

/// Parses a suite name case-insensitively.
pub(crate) fn parse_suite(name: &str) -> Result<Suite, CliError> {
    Suite::all()
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown suite {name:?} (expected one of: {})",
                Suite::all().map(|s| s.name().to_lowercase()).join(" ")
            ))
        })
}

/// Parses pattern strings (anchors allowed), mapping failures to numbered
/// runtime errors.
pub(crate) fn parse_all(patterns: &[String]) -> Result<Vec<Pattern>, CliError> {
    patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            rap_regex::parse_pattern(p)
                .map_err(|e| CliError::Runtime(format!("pattern #{i} {p:?}: {e}")))
        })
        .collect()
}

/// Writes a line, converting I/O failure into a runtime error.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(|e| crate::CliError::Runtime(e.to_string()))?
    };
}
pub(crate) use outln;
