//! Service configuration.

use rap_circuit::Machine;

/// Tuning knobs for a [`crate::Server`].
///
/// Budgets are expressed in *pages* of the certified per-composition
/// quantities (the bank ping-pong input window and the B002 worst-case
/// output-records occupancy), never in ad-hoc byte counts: resizing the
/// modeled hardware rescales every threshold automatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission groups. Each shard owns one certified composition of
    /// its resident tenants; registrations land on the least-loaded
    /// shard. A shard runs no thread: sessions scan on their callers'
    /// threads.
    pub shards: usize,
    /// Multiplier applied to the certified per-composition queue
    /// quantities to size the per-session intake and event budgets.
    pub queue_pages: u64,
    /// The machine every tenant's plan targets.
    pub machine: Machine,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_pages: 8,
            machine: Machine::Rap,
        }
    }
}
