//! The R (runtime service) finding family.
//!
//! Where the V/A/B/C/S families judge artifacts before any byte is
//! scanned, the R family records what actually happened while the
//! service ran: refused registrations, certified-budget pressure, shed
//! chunks, and graceful drains. A server keeps the newest
//! [`FINDINGS_RETAINED`] findings in one [`Report`]; `Server::findings`
//! snapshots it.

use rap_diag::{RuleCode, Severity};

/// Runtime verdicts emitted by the streaming scan service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// R001: a tenant's registration was refused — the admission
    /// analyzer could not certify the proposed co-residency (the
    /// refusing S-rule findings travel in the returned analysis).
    AdmissionRejected,
    /// R002: a session crossed half of a certified queue budget; the
    /// producer was told to slow down before anything was lost.
    SessionBackpressure,
    /// R003: a chunk was rejected because it alone exceeds the session's
    /// certified intake budget. Nothing of it was scanned.
    ChunkShed,
    /// R004: a session finished or disconnected, its final step ran
    /// over the last accepted byte, and its arrays were released by
    /// recomposition before `finish` (or the handle's drop) returned.
    SessionDrained,
    /// R005: a resident tenant was hot-swapped — the outgoing session
    /// drained under its certified Q-rule drain bound and the
    /// replacement attached to the freed footprint while every other
    /// session kept scanning.
    TenantSwapped,
}

impl Rule {
    /// The stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::AdmissionRejected => "R001-admission-rejected",
            Rule::SessionBackpressure => "R002-session-backpressure",
            Rule::ChunkShed => "R003-chunk-shed",
            Rule::SessionDrained => "R004-session-drained",
            Rule::TenantSwapped => "R005-tenant-swapped",
        }
    }

    /// The fixed severity of this rule's findings.
    pub fn severity(self) -> Severity {
        match self {
            Rule::AdmissionRejected | Rule::ChunkShed => Severity::Error,
            Rule::SessionBackpressure => Severity::Warning,
            Rule::SessionDrained | Rule::TenantSwapped => Severity::Info,
        }
    }

    /// Every rule, in code order.
    pub fn all() -> [Rule; 5] {
        [
            Rule::AdmissionRejected,
            Rule::SessionBackpressure,
            Rule::ChunkShed,
            Rule::SessionDrained,
            Rule::TenantSwapped,
        ]
    }
}

impl RuleCode for Rule {
    fn code(&self) -> &'static str {
        Rule::code(*self)
    }
}

/// A report of R-rule findings accumulated by a running server.
pub type Report = rap_diag::Report<Rule>;

/// How many findings a server keeps. A long-running service records at
/// least one R004/R005 finding per session, so older findings are
/// evicted and counted in `rap_serve_findings_dropped_total`.
pub(crate) const FINDINGS_RETAINED: usize = 1024;
