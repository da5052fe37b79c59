//! Energy accounting.
//!
//! The simulator counts every micro-operation (CAM search, switch
//! traversal, controller tick, wire toggle, …) and, at the end of a run,
//! prices the counts into an [`EnergyMeter`], which keeps per-category
//! subtotals so the evaluation can report breakdowns like Fig. 11 of the
//! paper.

use std::collections::BTreeMap;
use std::fmt;

/// Energy categories used by the simulators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// CAM searches during state matching.
    StateMatch,
    /// Local switch traversals during state transition.
    LocalSwitch,
    /// Global switch traversals during state transition.
    GlobalSwitch,
    /// Global wires between tiles/arrays.
    Wire,
    /// Bit-vector processing phase (reads, routing, actions, write-back).
    BitVector,
    /// Local and global controllers.
    Controller,
    /// Input/output buffering.
    Buffer,
    /// Static leakage integrated over the run time.
    Leakage,
}

impl Category {
    /// All categories, in report order.
    pub fn all() -> [Category; 8] {
        [
            Category::StateMatch,
            Category::LocalSwitch,
            Category::GlobalSwitch,
            Category::Wire,
            Category::BitVector,
            Category::Controller,
            Category::Buffer,
            Category::Leakage,
        ]
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::StateMatch => "state-match",
            Category::LocalSwitch => "local-switch",
            Category::GlobalSwitch => "global-switch",
            Category::Wire => "wire",
            Category::BitVector => "bit-vector",
            Category::Controller => "controller",
            Category::Buffer => "buffer",
            Category::Leakage => "leakage",
        };
        f.write_str(s)
    }
}

/// Accumulates picojoule charges by category.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyMeter {
    by_category: BTreeMap<Category, f64>,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `pj` picojoules to `category`.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite charges (a sign of a modeling bug).
    pub fn charge(&mut self, category: Category, pj: f64) {
        assert!(
            pj.is_finite() && pj >= 0.0,
            "invalid energy charge {pj} pJ to {category}"
        );
        *self.by_category.entry(category).or_insert(0.0) += pj;
    }

    /// Subtotal of one category, in picojoules.
    pub fn category_pj(&self, category: Category) -> f64 {
        self.by_category.get(&category).copied().unwrap_or(0.0)
    }

    /// Total across categories, in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.by_category.values().sum()
    }

    /// Total in microjoules (the unit of Tables 2 and 3).
    pub fn total_uj(&self) -> f64 {
        self.total_pj() * 1e-6
    }

    /// Adds every subtotal of `other` into `self`.
    pub fn merge(&mut self, other: &EnergyMeter) {
        for (&cat, &pj) in &other.by_category {
            *self.by_category.entry(cat).or_insert(0.0) += pj;
        }
    }

    /// Iterates over `(category, picojoules)` pairs in report order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, f64)> + '_ {
        self.by_category.iter().map(|(&c, &e)| (c, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = EnergyMeter::new();
        m.charge(Category::StateMatch, 4.0);
        m.charge(Category::StateMatch, 4.0);
        m.charge(Category::LocalSwitch, 1.5);
        assert_eq!(m.category_pj(Category::StateMatch), 8.0);
        assert_eq!(m.category_pj(Category::LocalSwitch), 1.5);
        assert_eq!(m.category_pj(Category::Wire), 0.0);
        assert!((m.total_pj() - 9.5).abs() < 1e-12);
    }

    #[test]
    fn uj_conversion() {
        let mut m = EnergyMeter::new();
        m.charge(Category::BitVector, 2_000_000.0);
        assert!((m.total_uj() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_categories() {
        let mut a = EnergyMeter::new();
        a.charge(Category::Wire, 1.0);
        let mut b = EnergyMeter::new();
        b.charge(Category::Wire, 2.0);
        b.charge(Category::Leakage, 5.0);
        a.merge(&b);
        assert_eq!(a.category_pj(Category::Wire), 3.0);
        assert_eq!(a.category_pj(Category::Leakage), 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid energy charge")]
    fn negative_charge_panics() {
        EnergyMeter::new().charge(Category::Buffer, -1.0);
    }

    #[test]
    fn iter_in_order() {
        let mut m = EnergyMeter::new();
        m.charge(Category::Leakage, 1.0);
        m.charge(Category::StateMatch, 1.0);
        let cats: Vec<Category> = m.iter().map(|(c, _)| c).collect();
        assert_eq!(cats, vec![Category::StateMatch, Category::Leakage]);
    }
}
