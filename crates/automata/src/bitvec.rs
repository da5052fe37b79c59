//! Dynamic fixed-width bit vectors.
//!
//! These model the bit vectors carried by NBVA states (§2.1) and the
//! `states`/`labels` masks of the Shift-And algorithm. Bit 0 is the
//! least-significant position; the paper's `shft(v)` (shift "left" in its
//! `v[1], …, v[n]` indexing) corresponds to [`BitVec::shift_up`] here: bit i
//! moves to bit i+1 and the top bit falls off.

use std::fmt;

/// A fixed-width vector of bits backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut bv = Self::zeros(len);
        for w in bv.words.iter_mut() {
            *w = u64::MAX;
        }
        bv.mask_tail();
        bv
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero width.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for width {}",
            self.len
        );
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for width {}",
            self.len
        );
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// The paper's `shft(v)`: every bit moves one position up (bit i → bit
    /// i+1); the highest bit is discarded (overflow) and bit 0 becomes 0.
    pub fn shift_up(&mut self) {
        let mut carry = 0u64;
        for w in self.words.iter_mut() {
            let new_carry = *w >> 63;
            *w = (*w << 1) | carry;
            carry = new_carry;
        }
        self.mask_tail();
    }

    /// In-place bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "width mismatch in or_assign");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// In-place bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "width mismatch in and_assign");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Zeroes the bits beyond `len` in the last word (kept as an internal
    /// invariant so `any`/`count_ones` are exact).
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl Default for BitVec {
    /// The zero-width vector.
    fn default() -> Self {
        BitVec::zeros(0)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        // Most-significant bit first, matching the paper's notation.
        for i in (0..self.len).rev() {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert!(!z.any());
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.any());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bv = BitVec::zeros(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            bv.set(i, true);
            assert!(bv.get(i), "bit {i}");
        }
        assert_eq!(bv.count_ones(), 8);
        bv.set(64, false);
        assert!(!bv.get(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::zeros(8);
        let _ = bv.get(8);
    }

    #[test]
    fn shift_up_moves_bits_and_overflows() {
        // Paper example: shft(0010) = 0100 (bit 1 -> bit 2).
        let mut bv = BitVec::zeros(4);
        bv.set(1, true);
        bv.shift_up();
        assert!(bv.get(2));
        assert_eq!(bv.count_ones(), 1);
        // Shifting the top bit out empties the vector (overflow).
        bv.shift_up();
        assert!(bv.get(3));
        bv.shift_up();
        assert!(!bv.any(), "top bit must fall off");
    }

    #[test]
    fn shift_up_across_word_boundary() {
        let mut bv = BitVec::zeros(128);
        bv.set(63, true);
        bv.shift_up();
        assert!(bv.get(64));
        assert_eq!(bv.count_ones(), 1);
    }

    #[test]
    fn shift_up_width_not_multiple_of_64() {
        let mut bv = BitVec::zeros(65);
        bv.set(64, true);
        bv.shift_up();
        assert!(!bv.any());
    }

    #[test]
    fn or_and() {
        let mut a = BitVec::zeros(10);
        a.set(1, true);
        let mut b = BitVec::zeros(10);
        b.set(1, true);
        b.set(5, true);
        a.or_assign(&b);
        assert_eq!(a.count_ones(), 2);
        a.and_assign(&b);
        assert_eq!(a.count_ones(), 2);
        let mask = BitVec::zeros(10);
        a.and_assign(&mask);
        assert!(!a.any());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn or_width_mismatch_panics() {
        let mut a = BitVec::zeros(4);
        a.or_assign(&BitVec::zeros(5));
    }

    #[test]
    fn iter_ones_ascending() {
        let mut bv = BitVec::zeros(200);
        for i in [3usize, 64, 199] {
            bv.set(i, true);
        }
        let v: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(v, vec![3, 64, 199]);
    }

    #[test]
    fn zero_width_vector() {
        let mut bv = BitVec::zeros(0);
        assert!(bv.is_empty());
        assert!(!bv.any());
        bv.shift_up(); // must not panic
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn debug_prints_msb_first() {
        let mut bv = BitVec::zeros(4);
        bv.set(0, true);
        assert_eq!(format!("{bv:?}"), "BitVec[4; 0001]");
    }
}
