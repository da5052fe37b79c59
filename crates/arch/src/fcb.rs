//! Fully-connected crossbar (FCB) switches.
//!
//! A crossbar routes an *input vector* (the active vector after state
//! matching) to an *output vector*: output row r is the OR of all input
//! columns c whose crosspoint (r, c) is programmed — exactly the
//! state-transition aggregation of §2.2. RAP reuses sub-regions of the same
//! matrix to encode BV actions (§3.1): `copy` programs a diagonal, `shift`
//! programs an off-diagonal, `set1` routes an initial-vector column.

use rap_automata::bitvec::BitVec;

/// An `outputs × inputs` crossbar of programmable crosspoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crossbar {
    inputs: usize,
    /// One row per output, each a bitmap over inputs.
    rows: Vec<BitVec>,
}

impl Crossbar {
    /// Creates an empty (all-zero) `n × n` crossbar.
    pub fn square(n: usize) -> Crossbar {
        Crossbar {
            inputs: n,
            rows: (0..n).map(|_| BitVec::zeros(n)).collect(),
        }
    }

    /// Number of input columns.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output rows.
    pub fn outputs(&self) -> usize {
        self.rows.len()
    }

    /// Programs the crosspoint routing input `col` to output `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize) {
        self.rows[row].set(col, true);
    }

    /// Whether the crosspoint is programmed.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.rows[row].get(col)
    }

    /// Programs a `copy` action region: the diagonal of the square block
    /// with top-left corner (row0, col0) and the given side length.
    pub fn program_copy(&mut self, row0: usize, col0: usize, len: usize) {
        for k in 0..len {
            self.set(row0 + k, col0 + k);
        }
    }

    /// Programs a `shift` action region: input bit k routes to output bit
    /// k+1 within the block; the top bit is dropped (overflow) and bit 0 of
    /// the output is left to the `set1`/auxiliary path.
    pub fn program_shift(&mut self, row0: usize, col0: usize, len: usize) {
        for k in 0..len.saturating_sub(1) {
            self.set(row0 + k + 1, col0 + k);
        }
    }

    /// Routes an input vector: output r = OR of programmed inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from [`Crossbar::inputs`].
    pub fn route(&self, input: &BitVec) -> BitVec {
        assert_eq!(input.len(), self.inputs, "input width mismatch");
        let mut out = BitVec::zeros(self.rows.len());
        for (r, row) in self.rows.iter().enumerate() {
            // OR-aggregation per output row.
            let mut hit = false;
            for c in row.iter_ones() {
                if input.get(c) {
                    hit = true;
                    break;
                }
            }
            out.set(r, hit);
        }
        out
    }

    /// Number of programmed crosspoints.
    pub fn programmed_points(&self) -> u64 {
        self.rows.iter().map(|r| u64::from(r.count_ones())).sum()
    }

    /// Fraction of programmed crosspoints — the switch *sparsity* the paper
    /// exploits (LNFAs use < 5% of an FCB).
    pub fn density(&self) -> f64 {
        let total = (self.inputs * self.rows.len()) as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.programmed_points() as f64 / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(n: usize, ones: &[usize]) -> BitVec {
        let mut v = BitVec::zeros(n);
        for &i in ones {
            v.set(i, true);
        }
        v
    }

    #[test]
    fn routing_ors_inputs() {
        let mut x = Crossbar::square(8);
        x.set(3, 0);
        x.set(3, 1);
        x.set(5, 2);
        let out = x.route(&bv(8, &[0]));
        assert!(out.get(3) && !out.get(5));
        let out = x.route(&bv(8, &[1, 2]));
        assert!(out.get(3) && out.get(5));
        let out = x.route(&bv(8, &[4]));
        assert!(!out.any());
    }

    #[test]
    fn copy_region_is_identity() {
        let mut x = Crossbar::square(8);
        x.program_copy(4, 0, 4);
        let out = x.route(&bv(8, &[0, 2]));
        assert!(out.get(4) && out.get(6));
        assert_eq!(out.count_ones(), 2);
    }

    #[test]
    fn shift_region_moves_bits_up() {
        // Fig. 5's shift encoding: input bit k → output bit k+1.
        let mut x = Crossbar::square(8);
        x.program_shift(0, 0, 4);
        let out = x.route(&bv(8, &[0, 2]));
        assert!(out.get(1) && out.get(3));
        assert_eq!(out.count_ones(), 2);
        // Top bit overflows away.
        let out = x.route(&bv(8, &[3]));
        assert!(!out.any());
    }

    #[test]
    fn density_counts_points() {
        let mut x = Crossbar::square(4);
        assert_eq!(x.density(), 0.0);
        x.program_copy(0, 0, 4);
        assert_eq!(x.programmed_points(), 4);
        assert!((x.density() - 4.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn route_width_checked() {
        let x = Crossbar::square(4);
        let _ = x.route(&BitVec::zeros(5));
    }

    #[test]
    fn linear_chain_density_is_sparse() {
        // An LNFA chain programs n−1 points of an n² switch (< 1% at 128).
        let mut x = Crossbar::square(128);
        x.program_shift(0, 0, 128);
        assert!(x.density() < 0.01);
    }
}
