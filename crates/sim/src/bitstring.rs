//! Packed computational-basis states.

/// A fixed-length bit vector representing one computational basis state.
///
/// Bit `i` corresponds to qubit `i` (`1` = |1⟩). Bits are packed into `u64`
/// words; QRAM simulations at `m = 8` use ~1000 qubits, i.e. 16 words per
/// path, so cloning paths stays cheap.
///
/// ```
/// use qram_sim::BitString;
/// let mut b = BitString::zeros(70);
/// b.set(69, true);
/// b.flip(3);
/// assert!(b.get(69) && b.get(3) && !b.get(4));
/// assert_eq!(b.count_ones(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// The all-zero basis state on `len` qubits.
    pub fn zeros(len: usize) -> Self {
        BitString {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a basis state from the low `len` bits of `value`
    /// (bit `i` of `value` → qubit `i`).
    ///
    /// # Panics
    ///
    /// Panics if `len < 64` and `value` has bits above `len`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        if len < 64 {
            assert!(
                value >> len == 0,
                "value {value} does not fit in {len} bits"
            );
        }
        let mut b = BitString::zeros(len.max(1));
        b.words[0] = value;
        b.len = len;
        b
    }

    /// Builds a basis state from a bit iterator (qubit 0 first).
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut b = BitString::zeros(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    /// Number of qubits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string has zero qubits.
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
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Swaps bits `i` and `j`.
    #[inline]
    pub fn swap_bits(&mut self, i: usize, j: usize) {
        let (bi, bj) = (self.get(i), self.get(j));
        if bi != bj {
            self.flip(i);
            self.flip(j);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Interprets qubits `qubits[0..]` as an unsigned integer with
    /// `qubits[0]` as the **most significant** bit — the address register
    /// convention used by the QRAM generators.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 qubits are requested or any index is out of
    /// range.
    pub fn read_msb_first(&self, qubits: &[usize]) -> u64 {
        assert!(
            qubits.len() <= 64,
            "cannot read more than 64 bits into a u64"
        );
        let mut v = 0u64;
        for &q in qubits {
            v = (v << 1) | self.get(q) as u64;
        }
        v
    }

    /// Writes the unsigned integer `value` into `qubits` with `qubits[0]`
    /// as the most significant bit.
    pub fn write_msb_first(&mut self, qubits: &[usize], value: u64) {
        let n = qubits.len();
        assert!(n <= 64);
        for (i, &q) in qubits.iter().enumerate() {
            self.set(q, (value >> (n - 1 - i)) & 1 == 1);
        }
    }

    /// Iterates over bits (qubit 0 first).
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The packed word buffer (at least `len.div_ceil(64)` words).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a basis state from packed words (the `PathState` slab
    /// layout): exactly `len.div_ceil(64)` words, bit `i` of the string at
    /// word `i / 64`, bit `i % 64`.
    pub(crate) fn from_words(words: &[u64], len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        BitString {
            words: words.to_vec(),
            len,
        }
    }
}

impl std::fmt::Display for BitString {
    /// Renders qubit 0 leftmost, e.g. `|0110⟩`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "|")?;
        for i in 0..self.len {
            write!(f, "{}", self.get(i) as u8)?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip_across_word_boundary() {
        let mut b = BitString::zeros(130);
        for i in [0, 63, 64, 127, 128, 129] {
            assert!(!b.get(i));
            b.flip(i);
            assert!(b.get(i), "bit {i}");
        }
        assert_eq!(b.count_ones(), 6);
        b.set(64, false);
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn from_u64_round_trips() {
        let b = BitString::from_u64(0b1011, 4);
        assert!(b.get(0) && b.get(1) && !b.get(2) && b.get(3));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_u64_rejects_overflow() {
        let _ = BitString::from_u64(0b10000, 4);
    }

    #[test]
    fn swap_bits_exchanges_values() {
        let mut b = BitString::from_bits([true, false, false]);
        b.swap_bits(0, 2);
        assert_eq!(b, BitString::from_bits([false, false, true]));
        // Swapping equal bits is a no-op.
        b.swap_bits(0, 1);
        assert_eq!(b, BitString::from_bits([false, false, true]));
    }

    #[test]
    fn msb_first_round_trip() {
        let mut b = BitString::zeros(8);
        let regs = [2usize, 4, 6];
        b.write_msb_first(&regs, 0b101);
        assert!(b.get(2) && !b.get(4) && b.get(6));
        assert_eq!(b.read_msb_first(&regs), 0b101);
    }

    #[test]
    fn display_qubit_zero_leftmost() {
        let b = BitString::from_bits([true, false, true]);
        assert_eq!(b.to_string(), "|101⟩");
    }

    #[test]
    fn hash_and_eq_agree() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(BitString::from_u64(5, 8));
        assert!(set.contains(&BitString::from_u64(5, 8)));
        assert!(!set.contains(&BitString::from_u64(6, 8)));
    }
}
