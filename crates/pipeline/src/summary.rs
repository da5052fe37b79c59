//! Aggregate per-run numbers.

use rap_sim::RunResult;

/// Aggregate numbers for one (machine, workload) run — one table cell row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// Allocated area in mm².
    pub area_mm2: f64,
    /// Throughput in Gch/s.
    pub throughput_gchps: f64,
    /// Average power in watts.
    pub power_w: f64,
    /// Matches reported.
    pub matches: u64,
    /// Hardware states (STEs / chain positions) allocated.
    pub states: u64,
}

impl RunSummary {
    /// Summarizes a simulator result; `states` is the workload's total
    /// hardware state count (an artifact property the result lacks).
    pub fn of(r: &RunResult, states: u64) -> RunSummary {
        RunSummary {
            energy_uj: r.metrics.energy_uj,
            area_mm2: r.metrics.area_mm2,
            throughput_gchps: r.metrics.throughput_gchps(),
            power_w: r.metrics.power_w(),
            matches: r.metrics.matches,
            states,
        }
    }

    /// Energy efficiency in Gch/s/W.
    pub fn energy_efficiency(&self) -> f64 {
        if self.power_w == 0.0 {
            0.0
        } else {
            self.throughput_gchps / self.power_w
        }
    }

    /// Compute density in Gch/s/mm².
    pub fn compute_density(&self) -> f64 {
        if self.area_mm2 == 0.0 {
            0.0
        } else {
            self.throughput_gchps / self.area_mm2
        }
    }
}
