//! Structural model of the 32×128 8T-CAM of a tile (§3.1).
//!
//! The same macro serves two roles, selected per column by the BV-mask:
//!
//! * **CC columns** store a 32-bit [`CcCode`] and participate in state
//!   matching: a search with an input byte returns the set of matching
//!   columns.
//! * **BV columns** store bit-vector words (one bit per row) and are read
//!   and written row-wise during the bit-vector-processing phase.

use crate::config::ArchConfig;
use crate::encoding::CcCode;
use rap_automata::bitvec::BitVec;

/// Content of one CAM column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Column {
    /// Not allocated.
    Unused,
    /// State-matching column holding a character-class code.
    Code(CcCode),
    /// Bit-vector storage column (`cam_rows` bits, row 0 first).
    Bv(BitVec),
}

/// A tile's CAM: `rows × columns` 8T cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cam {
    rows: u32,
    columns: Vec<Column>,
}

impl Cam {
    /// Creates an empty CAM with the given config's geometry.
    pub fn new(config: &ArchConfig) -> Cam {
        Cam {
            rows: config.cam_rows,
            columns: vec![Column::Unused; config.tile_columns as usize],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether no column is allocated.
    pub fn is_empty(&self) -> bool {
        self.columns.iter().all(|c| matches!(c, Column::Unused))
    }

    /// The column contents.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Programs column `col` with a character-class code.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or already allocated.
    pub fn program_code(&mut self, col: usize, code: CcCode) {
        assert!(
            matches!(self.columns[col], Column::Unused),
            "column {col} already allocated"
        );
        self.columns[col] = Column::Code(code);
    }

    /// Allocates column `col` as bit-vector storage (all zeros).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or already allocated.
    pub fn program_bv(&mut self, col: usize) {
        assert!(
            matches!(self.columns[col], Column::Unused),
            "column {col} already allocated"
        );
        self.columns[col] = Column::Bv(BitVec::zeros(self.rows as usize));
    }

    /// The BV-mask: a bitmap over columns marking bit-vector storage
    /// (§3.1 — "a bitmap that designates the storage type of each CAM
    /// column").
    pub fn bv_mask(&self) -> BitVec {
        let mut mask = BitVec::zeros(self.columns.len());
        for (i, c) in self.columns.iter().enumerate() {
            if matches!(c, Column::Bv(_)) {
                mask.set(i, true);
            }
        }
        mask
    }

    /// State matching: searches every CC column against an input byte and
    /// returns the per-column match vector (BV/unused columns report 0 —
    /// only CC columns are activated, §3.1).
    pub fn search(&self, byte: u8) -> BitVec {
        let mut out = BitVec::zeros(self.columns.len());
        for (i, c) in self.columns.iter().enumerate() {
            if let Column::Code(code) = c {
                if code.matches(byte) {
                    out.set(i, true);
                }
            }
        }
        out
    }

    /// Reads one BV word: the bits of row `row` across columns
    /// `cols.start..cols.end` (which must all be BV columns).
    ///
    /// # Panics
    ///
    /// Panics if the range touches a non-BV column or `row` is out of range.
    pub fn read_bv_word(&self, cols: std::ops::Range<usize>, row: u32) -> BitVec {
        assert!(row < self.rows, "row {row} out of range");
        let mut word = BitVec::zeros(cols.len());
        for (k, col) in cols.enumerate() {
            match &self.columns[col] {
                Column::Bv(bits) => word.set(k, bits.get(row as usize)),
                other => panic!("column {col} is not BV storage: {other:?}"),
            }
        }
        word
    }

    /// Writes one BV word back (inverse of [`Cam::read_bv_word`]).
    ///
    /// # Panics
    ///
    /// Panics if the range touches a non-BV column or `row` is out of range.
    pub fn write_bv_word(&mut self, cols: std::ops::Range<usize>, row: u32, word: &BitVec) {
        assert!(row < self.rows, "row {row} out of range");
        assert_eq!(word.len(), cols.len(), "word width mismatch");
        for (k, col) in cols.enumerate() {
            match &mut self.columns[col] {
                Column::Bv(bits) => bits.set(row as usize, word.get(k)),
                other => panic!("column {col} is not BV storage: {other:?}"),
            }
        }
    }

    /// Number of allocated CC columns.
    pub fn code_columns(&self) -> u32 {
        self.columns
            .iter()
            .filter(|c| matches!(c, Column::Code(_)))
            .count() as u32
    }

    /// Number of allocated BV columns.
    pub fn bv_columns(&self) -> u32 {
        self.columns
            .iter()
            .filter(|c| matches!(c, Column::Bv(_)))
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{encode_class, single_code};
    use rap_regex::CharClass;

    fn cam() -> Cam {
        Cam::new(&ArchConfig::default())
    }

    #[test]
    fn geometry() {
        let c = cam();
        assert_eq!(c.rows(), 32);
        assert_eq!(c.len(), 128);
        assert!(c.is_empty());
    }

    #[test]
    fn search_matches_programmed_codes() {
        let mut c = cam();
        c.program_code(0, single_code(&CharClass::single(b'a')).expect("fits"));
        c.program_code(5, single_code(&CharClass::digit()).expect("fits"));
        let hits = c.search(b'a');
        assert!(hits.get(0));
        assert!(!hits.get(5));
        let hits = c.search(b'7');
        assert!(!hits.get(0));
        assert!(hits.get(5));
        assert_eq!(c.code_columns(), 2);
    }

    #[test]
    fn multi_column_class() {
        let mut c = cam();
        // \w needs four product terms = two CAM columns.
        let codes = encode_class(&CharClass::word());
        assert_eq!(codes.len(), 2);
        for (i, code) in codes.iter().enumerate() {
            c.program_code(i, *code);
        }
        // Every word byte matches at least one of the two columns; the OR
        // across an STE's columns is the class membership.
        for b in [b'a', b'Z', b'5', b'_'] {
            assert!(c.search(b).count_ones() >= 1, "byte {b}");
        }
        // '{' (0x7b) matches neither.
        assert_eq!(c.search(b'{').count_ones(), 0);
    }

    #[test]
    fn bv_mask_and_word_io() {
        let mut c = cam();
        c.program_bv(10);
        c.program_bv(11);
        let mask = c.bv_mask();
        assert!(mask.get(10) && mask.get(11) && !mask.get(9));
        assert_eq!(c.bv_columns(), 2);

        let mut word = BitVec::zeros(2);
        word.set(0, true);
        c.write_bv_word(10..12, 3, &word);
        let back = c.read_bv_word(10..12, 3);
        assert_eq!(back, word);
        // Other rows untouched.
        assert!(!c.read_bv_word(10..12, 4).any());
    }

    #[test]
    fn bv_columns_do_not_match_searches() {
        let mut c = cam();
        c.program_bv(0);
        // Even with bits set, BV columns never participate in search.
        let mut word = BitVec::zeros(1);
        word.set(0, true);
        c.write_bv_word(0..1, 0, &word);
        for b in [0u8, b'a', 0xff] {
            assert_eq!(c.search(b).count_ones(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocation_panics() {
        let mut c = cam();
        c.program_bv(0);
        c.program_code(0, single_code(&CharClass::single(b'a')).expect("fits"));
    }

    #[test]
    #[should_panic(expected = "not BV storage")]
    fn reading_code_column_as_bv_panics() {
        let mut c = cam();
        c.program_code(0, single_code(&CharClass::single(b'a')).expect("fits"));
        let _ = c.read_bv_word(0..1, 0);
    }
}
