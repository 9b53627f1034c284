//! Classical memory contents and the page/segment view of virtual QRAM.

use rand::Rng;

/// A classical memory of `N = 2^n` one-bit cells — the data a quantum
/// query entangles with the address register (Eq. 2 of the paper).
///
/// Virtual QRAM (Sec. 3.1.3) views the same memory as `K = 2^k` contiguous
/// *pages* of `M = 2^m` cells (`k + m = n`); [`Memory::page`] and
/// [`Memory::page_delta`] expose that view, the latter implementing the
/// XOR-delta trick behind lazy data swapping (Sec. 3.2.2).
///
/// ```
/// use qram_core::Memory;
/// let mem = Memory::from_bits([true, false, false, true]);
/// assert_eq!(mem.address_width(), 2);
/// assert!(mem.get(0) && mem.get(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    bits: Vec<bool>,
    address_width: usize,
}

impl Memory {
    /// The widest address a memory takes: 16 Mi cells, far past any
    /// simulable size.
    pub const MAX_ADDRESS_WIDTH: usize = 24;

    /// An all-zero memory of `2^address_width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `address_width` exceeds [`Memory::MAX_ADDRESS_WIDTH`].
    pub fn zeroed(address_width: usize) -> Self {
        assert!(
            address_width <= Self::MAX_ADDRESS_WIDTH,
            "address width {address_width} unreasonably large"
        );
        Memory {
            bits: vec![false; 1 << address_width],
            address_width,
        }
    }

    /// A memory with every cell set to 1 — the worst case for data-write
    /// gate counts, used to pin resource formulas in tests.
    pub fn ones(address_width: usize) -> Self {
        let mut mem = Self::zeroed(address_width);
        mem.bits.fill(true);
        mem
    }

    /// Builds a memory from explicit cell contents.
    ///
    /// # Panics
    ///
    /// Panics if the number of bits is not a power of two.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        assert!(
            bits.len().is_power_of_two(),
            "memory size {} is not a power of two",
            bits.len()
        );
        let address_width = bits.len().trailing_zeros() as usize;
        Memory {
            bits,
            address_width,
        }
    }

    /// A memory with independent uniform random cells.
    pub fn random<R: Rng + ?Sized>(address_width: usize, rng: &mut R) -> Self {
        let mut mem = Self::zeroed(address_width);
        for bit in &mut mem.bits {
            *bit = rng.random::<bool>();
        }
        mem
    }

    /// Number of address bits `n`.
    pub fn address_width(&self) -> usize {
        self.address_width
    }

    /// Number of cells `N = 2^n`.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the memory has zero cells (never true: minimum is 1 cell).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The cell at `address`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    pub fn get(&self, address: usize) -> bool {
        self.bits[address]
    }

    /// Writes the cell at `address`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    pub fn set(&mut self, address: usize, value: bool) {
        self.bits[address] = value;
    }

    /// All cells, address order.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of 1-cells.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Page `p` of the `(k, m)` split: cells
    /// `p·2^m ..= p·2^m + 2^m − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m > n` or `p ≥ 2^(n−m)`.
    pub fn page(&self, m: usize, p: usize) -> &[bool] {
        assert!(
            m <= self.address_width,
            "page width {m} exceeds address width"
        );
        let pages = 1 << (self.address_width - m);
        assert!(p < pages, "page {p} out of range ({pages} pages)");
        let size = 1 << m;
        &self.bits[p * size..(p + 1) * size]
    }

    /// Number of pages under a `2^m`-cell page size.
    pub fn num_pages(&self, m: usize) -> usize {
        assert!(
            m <= self.address_width,
            "page width {m} exceeds address width"
        );
        1 << (self.address_width - m)
    }

    /// The lazy-swapping delta of Sec. 3.2.2: cell-wise XOR of pages `p`
    /// and `p + 1` (`x′ᵢ = xᵢ ⊕ xᵢ₊₂ᵐ`). Loading only the 1-positions of
    /// the delta replaces a full unload + reload.
    ///
    /// # Panics
    ///
    /// Panics if `p + 1` is not a valid page.
    pub fn page_delta(&self, m: usize, p: usize) -> Vec<bool> {
        let a = self.page(m, p);
        let b = self.page(m, p + 1);
        a.iter().zip(b).map(|(&x, &y)| x != y).collect()
    }
}

impl std::fmt::Display for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory[{} cells:", self.len())?;
        for chunk in self.bits.chunks(8).take(8) {
            write!(f, " ")?;
            for &b in chunk {
                write!(f, "{}", b as u8)?;
            }
        }
        if self.len() > 64 {
            write!(f, " …")?;
        }
        write!(f, "]")
    }
}

/// A memory of multi-bit words, realized as one [`Memory`] bit-plane per
/// data bit — the Sec. 8 generalized-data-width extension: a `w`-bit query
/// runs the 1-bit query once per plane.
///
/// ```
/// use qram_core::WideMemory;
/// let mem = WideMemory::from_words(2, &[3, 1, 0, 2]);
/// assert_eq!(mem.word(0), 3);
/// assert_eq!(mem.plane(0).get(1), true); // low bit of word 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideMemory {
    planes: Vec<Memory>,
    data_width: usize,
}

impl WideMemory {
    /// Builds a wide memory from `2^n` words of `data_width` bits.
    ///
    /// # Panics
    ///
    /// Panics if the word count is not a power of two, `data_width` is 0,
    /// or any word overflows `data_width` bits.
    pub fn from_words(data_width: usize, words: &[u64]) -> Self {
        assert!((1..=64).contains(&data_width), "data width must be 1..=64");
        assert!(
            words.len().is_power_of_two(),
            "word count must be a power of two"
        );
        for &w in words {
            assert!(
                data_width == 64 || w >> data_width == 0,
                "word {w:#x} overflows {data_width} bits"
            );
        }
        let planes = (0..data_width)
            .map(|bit| Memory::from_bits(words.iter().map(|&w| (w >> bit) & 1 == 1)))
            .collect();
        WideMemory { planes, data_width }
    }

    /// Bits per word.
    pub fn data_width(&self) -> usize {
        self.data_width
    }

    /// Number of address bits.
    pub fn address_width(&self) -> usize {
        self.planes[0].address_width()
    }

    /// The `bit`-th bit-plane as a 1-bit memory.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= data_width`.
    pub fn plane(&self, bit: usize) -> &Memory {
        &self.planes[bit]
    }

    /// Reassembles the word at `address`.
    pub fn word(&self, address: usize) -> u64 {
        self.planes
            .iter()
            .enumerate()
            .map(|(bit, plane)| (plane.get(address) as u64) << bit)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zeroed_and_ones() {
        let z = Memory::zeroed(3);
        assert_eq!(z.len(), 8);
        assert_eq!(z.count_ones(), 0);
        let o = Memory::ones(3);
        assert_eq!(o.count_ones(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Memory::from_bits([true, false, true]);
    }

    #[test]
    fn pages_partition_the_memory() {
        let mem = Memory::from_bits((0..16).map(|i| i % 3 == 0));
        assert_eq!(mem.num_pages(2), 4);
        let mut rebuilt = Vec::new();
        for p in 0..4 {
            rebuilt.extend_from_slice(mem.page(2, p));
        }
        assert_eq!(rebuilt, mem.bits());
    }

    #[test]
    fn page_delta_is_xor() {
        let mem = Memory::from_bits([true, false, true, true]);
        // pages of size 2: [1,0] and [1,1]; delta = [0,1].
        assert_eq!(mem.page_delta(1, 0), vec![false, true]);
    }

    #[test]
    fn delta_chain_reconstructs_last_page() {
        // page(0) XOR delta(0) XOR delta(1) … = last page, the invariant
        // lazy swapping relies on for its final unload.
        let mut rng = StdRng::seed_from_u64(9);
        let mem = Memory::random(5, &mut rng);
        let m = 3;
        let mut acc: Vec<bool> = mem.page(m, 0).to_vec();
        for p in 0..mem.num_pages(m) - 1 {
            for (a, d) in acc.iter_mut().zip(mem.page_delta(m, p)) {
                *a = *a != d;
            }
        }
        assert_eq!(acc, mem.page(m, mem.num_pages(m) - 1));
    }

    #[test]
    fn random_memory_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let mem = Memory::random(10, &mut rng);
        let ones = mem.count_ones();
        assert!(ones > 400 && ones < 624, "ones = {ones}");
    }

    #[test]
    fn wide_memory_round_trips_words() {
        let words = [5u64, 0, 7, 2, 1, 6, 3, 4];
        let mem = WideMemory::from_words(3, &words);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(mem.word(i), w);
        }
        assert_eq!(mem.address_width(), 3);
        assert_eq!(mem.data_width(), 3);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn wide_memory_rejects_overflow() {
        let _ = WideMemory::from_words(2, &[4, 0]);
    }

    #[test]
    fn display_shows_prefix() {
        let mem = Memory::from_bits([true, false]);
        assert!(mem.to_string().contains("10"));
    }
}
