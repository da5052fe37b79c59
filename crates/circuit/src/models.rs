//! The Table 1 component models and per-machine clock parameters.

/// Nominal supply voltage used to convert leakage current to leakage power
/// (typical for TSMC 28nm HPC logic).
pub const VDD_V: f64 = 0.9;

/// A circuit component model: access energy (as a min–max range scaled by
/// activity), critical-path delay, layout area, and leakage current.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComponentModel {
    /// Human-readable name (matches Table 1).
    pub name: &'static str,
    /// Minimum access energy in picojoules (idle-ish access).
    pub energy_pj_min: f64,
    /// Maximum access energy in picojoules (fully active access).
    pub energy_pj_max: f64,
    /// Access delay in picoseconds.
    pub delay_ps: f64,
    /// Area in square micrometers.
    pub area_um2: f64,
    /// Leakage current in microamperes.
    pub leakage_ua: f64,
}

impl ComponentModel {
    /// Access energy (pJ) for a given activity factor in `[0, 1]` —
    /// the fraction of the macro's rows/columns that toggle.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]` or NaN.
    pub fn access_energy_pj(&self, activity: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity {activity} out of range for {}",
            self.name
        );
        self.energy_pj_min + (self.energy_pj_max - self.energy_pj_min) * activity
    }

    /// Leakage power in watts (I·V at the nominal supply).
    pub fn leakage_w(&self) -> f64 {
        self.leakage_ua * 1e-6 * VDD_V
    }

    /// Area in square millimeters.
    pub fn area_mm2(&self) -> f64 {
        self.area_um2 * 1e-6
    }
}

/// 8T SRAM, 128×128 — used as the local FCB switch of every machine.
pub const SRAM_128X128: ComponentModel = ComponentModel {
    name: "8T SRAM 128x128",
    energy_pj_min: 1.0,
    energy_pj_max: 14.0,
    delay_ps: 298.0,
    area_um2: 5655.0,
    leakage_ua: 57.0,
};

/// 8T SRAM, 256×256 — used as the global FCB switch of an array.
pub const SRAM_256X256: ComponentModel = ComponentModel {
    name: "8T SRAM 256x256",
    energy_pj_min: 2.0,
    energy_pj_max: 55.0,
    delay_ps: 410.0,
    area_um2: 18153.0,
    leakage_ua: 228.0,
};

/// 8T CAM, 32×128 — the state-matching macro of a tile (also holds the bit
/// vectors in NBVA mode).
pub const CAM_32X128: ComponentModel = ComponentModel {
    name: "8T CAM 32x128",
    energy_pj_min: 4.0,
    energy_pj_max: 4.0,
    delay_ps: 325.0,
    area_um2: 2626.0,
    leakage_ua: 14.0,
};

/// Per-tile local controller (RAP's reconfiguration overhead).
pub const LOCAL_CONTROLLER: ComponentModel = ComponentModel {
    name: "Local controller",
    energy_pj_min: 2.0,
    energy_pj_max: 2.0,
    delay_ps: 90.0,
    area_um2: 2900.0,
    leakage_ua: 18.0,
};

/// Per-array global controller.
pub const GLOBAL_CONTROLLER: ComponentModel = ComponentModel {
    name: "Global controller",
    energy_pj_min: 2.0,
    energy_pj_max: 2.0,
    delay_ps: 400.0,
    area_um2: 1400.0,
    leakage_ua: 9.0,
};

/// Global wire, per millimeter (estimate from the CA paper).
pub const GLOBAL_WIRE_MM: ComponentModel = ComponentModel {
    name: "Global wire 1mm",
    energy_pj_min: 0.07,
    energy_pj_max: 0.07,
    delay_ps: 66.0,
    area_um2: 50.0,
    leakage_ua: 0.0,
};

/// The automata-processor machines evaluated in the paper (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Machine {
    /// RAP — this paper's reconfigurable processor.
    Rap,
    /// CAMA (HPCA'22) — CAM-based state matching, NFA only.
    Cama,
    /// BVAP (ASPLOS'24) — CAMA plus fixed bit-vector modules.
    Bvap,
    /// CA, the Cache Automaton (MICRO'17) — SRAM-based state matching.
    Ca,
}

impl Machine {
    /// Clock frequency in hertz.
    ///
    /// RAP's 2.08 GHz comes from its 436.1 ps critical pipeline stage plus a
    /// 10% margin (§5.2); CAMA/CA report 2.14/1.82 GHz in their papers;
    /// BVAP's effective clock is 2.0 GHz (its LNFA-free throughput in
    /// Table 3).
    pub fn clock_hz(self) -> f64 {
        match self {
            Machine::Rap => 2.08e9,
            Machine::Cama => 2.14e9,
            Machine::Bvap => 2.00e9,
            Machine::Ca => 1.82e9,
        }
    }

    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Machine::Rap => "RAP",
            Machine::Cama => "CAMA",
            Machine::Bvap => "BVAP",
            Machine::Ca => "CA",
        }
    }

    /// All machines, RAP first (the tables' baseline ordering).
    pub fn all() -> [Machine; 4] {
        [Machine::Rap, Machine::Cama, Machine::Bvap, Machine::Ca]
    }
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_encoded() {
        assert_eq!(SRAM_128X128.energy_pj_min, 1.0);
        assert_eq!(SRAM_128X128.energy_pj_max, 14.0);
        assert_eq!(SRAM_256X256.area_um2, 18153.0);
        assert_eq!(CAM_32X128.delay_ps, 325.0);
        assert_eq!(LOCAL_CONTROLLER.area_um2, 2900.0);
        assert_eq!(GLOBAL_CONTROLLER.leakage_ua, 9.0);
        assert_eq!(GLOBAL_WIRE_MM.energy_pj_max, 0.07);
    }

    #[test]
    fn activity_scales_energy() {
        assert_eq!(SRAM_128X128.access_energy_pj(0.0), 1.0);
        assert_eq!(SRAM_128X128.access_energy_pj(1.0), 14.0);
        let mid = SRAM_128X128.access_energy_pj(0.5);
        assert!((mid - 7.5).abs() < 1e-12);
        // Fixed-energy components ignore activity.
        assert_eq!(CAM_32X128.access_energy_pj(0.3), 4.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn activity_out_of_range_panics() {
        let _ = SRAM_128X128.access_energy_pj(1.5);
    }

    #[test]
    fn leakage_power_conversion() {
        // 57 µA at 0.9 V = 51.3 µW.
        let w = SRAM_128X128.leakage_w();
        assert!((w - 51.3e-6).abs() < 1e-12);
    }

    #[test]
    fn area_conversion() {
        assert!((SRAM_256X256.area_mm2() - 0.018153).abs() < 1e-12);
    }

    #[test]
    fn machine_clocks_match_paper() {
        assert_eq!(Machine::Rap.clock_hz(), 2.08e9);
        assert_eq!(Machine::Cama.clock_hz(), 2.14e9);
        assert_eq!(Machine::Ca.clock_hz(), 1.82e9);
        assert_eq!(Machine::Bvap.clock_hz(), 2.0e9);
    }

    #[test]
    fn machine_display_names() {
        let names: Vec<&str> = Machine::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["RAP", "CAMA", "BVAP", "CA"]);
        assert_eq!(Machine::Rap.to_string(), "RAP");
    }
}
