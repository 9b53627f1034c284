//! Bit-sliced lanes: many single-path trajectories of one circuit, walked
//! together one machine word at a time.
//!
//! A classical basis input stays a single path through every gate of the
//! QRAM family (Sec. 6.2), and so does every Pauli-faulted replay of it.
//! Such a trajectory needs no amplitude slab: its state is one bit per
//! qubit plus a power of `i`. [`Lanes`] stores `L` of them *qubit-major*
//! — qubit `q`'s bits for all lanes sit in `⌈L/64⌉` consecutive `u64`
//! words, lane `l` at bit `l % 64` of word `l / 64` — so each gate is a
//! handful of word operations covering 64 trajectories at once:
//!
//! * `CX`: `t ^= c ^ pol`, where `pol` is all ones for a 0-control;
//! * `CCX` / `MCX`: `t ^= (a ^ pa) & (b ^ pb) & …`;
//! * `CSWAP`: `d = (a ^ b) & (c ^ pol); a ^= d; b ^= d`;
//! * `Z`, `Y`: phase updates on two more word rows that hold each lane's
//!   power of `i` in binary (`k = lo + 2·hi`).
//!
//! Lanes differ only in their input bits and their faults. A fault is a
//! lane-masked Pauli fired at its gate index, exactly where
//! [`crate::run_with_faults`] fires it, so every lane ends in the basis
//! state and phase the slab engine gives that lane's input and plan
//! (pinned by this module's tests and by `tests/property_based.rs`).
//! [`Lanes::run`] puts its schedule in gate index order in linear time:
//! a stable radix sort on the index, one byte per pass, with only as
//! many passes as the circuit's length needs (`order_by_index`, which
//! orders a sign walk's taps too). Faults at one index fire in the order
//! they were scheduled.
//!
//! No gate splits a path, so a superposition input is a fixed set of
//! lanes too: one lane per input path, `⌈paths / 64⌉` words per row.
//! The shot engine transposes the input into such a row image once per
//! call and walks copies of it:
//!
//! * A *multi-shot pass* lays several copies side by side, one *block*
//!   of row words per shot ([`Lanes::load_blocks`]), and masks each
//!   shot's faults to its block's word range
//!   ([`Lanes::add_block_faults`]), next to the one-lane mask of
//!   [`Lanes::add_faults`]; the one block of a single-shot pass is every
//!   lane. One walk then serves every shot of the pass. A [`LaneBlock`]
//!   reads one block in place: rows, phases, and the paths stored back
//!   into a [`PathState`].
//! * A *sign walk* ([`Lanes::walk_signs`]) is a fault-free walk that
//!   taps `Z` faults instead of applying them. A `Z` flips no bit, and
//!   every later gate's phase update reads only bits and the low phase
//!   bit, so a shot whose faults are all `Z` ends in the fault-free
//!   walk's bits, with `2·s` added to each lane's power of `i`, where
//!   `s` is the parity of the lane's bits at the shot's fault locations.
//!   At each tap the walk XORs the qubit's row, as it stands there, into
//!   the shot's sign row, and [`Lanes::signed`] reads the result.

use qram_circuit::{Control, Gate, Qubit};

use crate::{Amplitude, Fault, FaultPlan, PathState, Pauli, SimError};

/// One scheduled fault: a Pauli on one lane, on one shot's block or on
/// every lane of the pass.
#[derive(Debug, Clone, Copy)]
struct LaneFault {
    /// The fault's gate index, saturated at `u32::MAX`, which lies past
    /// the end of every circuit [`Lanes::run`] takes.
    index: u32,
    /// The row words it acts on, `start..end`.
    start: u32,
    end: u32,
    qubit: Qubit,
    /// Within those words, bit `lane` only, or every bit when it is
    /// [`EVERY_LANE`].
    lane: u8,
    pauli: Pauli,
}

/// [`LaneFault::lane`] for a fault on every lane of its words.
const EVERY_LANE: u8 = 64;

/// One tap of a sign walk ([`Lanes::walk_signs`]): before gate `index`,
/// or after the last gate when `index` is the circuit's length, `qubit`'s
/// row is XORed into sign row `slot`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignTap {
    pub(crate) index: u32,
    pub(crate) qubit: Qubit,
    pub(crate) slot: u32,
}

/// A bit-sliced batch of single-path trajectories of one circuit.
///
/// Every lane starts in `|0…0⟩` with phase `i⁰`. Callers set each lane's
/// input bits, schedule each lane's faults, then [`run`](Lanes::run) the
/// gates once for all lanes. The buffers are kept across
/// [`reset`](Lanes::reset)s, so one `Lanes` serves any number of passes
/// without reallocating once it has grown.
///
/// ```
/// use qram_circuit::{Gate, Qubit};
/// use qram_sim::{Fault, FaultPlan, Lanes, Pauli};
///
/// // Three lanes of a CX: input |10⟩, input |00⟩, and input |00⟩ with
/// // an X fault on the control before the gate.
/// let mut lanes = Lanes::new(2, 3);
/// lanes.set(0, Qubit(0), true);
/// let plan: FaultPlan = [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect();
/// lanes.add_faults(2, &plan);
/// lanes.run(&[Gate::cx(Qubit(0), Qubit(1))]).unwrap();
/// assert!(lanes.get(0, Qubit(1)));
/// assert!(!lanes.get(1, Qubit(1)));
/// assert!(lanes.get(2, Qubit(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lanes {
    num_qubits: usize,
    lanes: usize,
    /// `u64` words per qubit row: `⌈lanes / 64⌉`.
    words: usize,
    /// Words per block: one shot's share of a row in a multi-shot pass,
    /// and the whole row in any other pass.
    block_words: usize,
    /// Qubit-major bits: qubit `q`, lane `l` is bit `l % 64` of
    /// `bits[q · words + l / 64]`.
    bits: Vec<u64>,
    /// Low bit of each lane's power of `i`.
    phase_lo: Vec<u64>,
    /// High bit of each lane's power of `i`.
    phase_hi: Vec<u64>,
    /// Faults scheduled for the next [`Lanes::run`], in scheduling order.
    faults: Vec<LaneFault>,
    /// The radix sort's other buffer.
    spare: Vec<LaneFault>,
}

impl Lanes {
    /// `lanes` trajectories over `num_qubits` qubits, all in `|0…0⟩`.
    pub fn new(num_qubits: usize, lanes: usize) -> Self {
        let mut state = Lanes::default();
        state.reset(num_qubits, lanes);
        state
    }

    /// Re-shapes to `lanes` trajectories over `num_qubits` qubits, all in
    /// `|0…0⟩` with phase `i⁰` and no faults scheduled, reusing the
    /// buffers.
    pub fn reset(&mut self, num_qubits: usize, lanes: usize) {
        self.shape(num_qubits, lanes);
        self.bits.clear();
        self.bits.resize(num_qubits * self.words, 0);
    }

    /// [`reset`](Lanes::reset), except that the bits are left for the
    /// caller to overwrite: every lane at phase `i⁰`, one block, no
    /// faults scheduled.
    fn shape(&mut self, num_qubits: usize, lanes: usize) {
        self.num_qubits = num_qubits;
        self.lanes = lanes;
        self.words = lanes.div_ceil(64);
        self.block_words = self.words;
        self.phase_lo.clear();
        self.phase_lo.resize(self.words, 0);
        self.phase_hi.clear();
        self.phase_hi.resize(self.words, 0);
        self.faults.clear();
    }

    /// The words of `qubit`'s row: lane `l` is bit `l % 64` of word
    /// `l / 64`. Bits past the last lane belong to no lane; mask them
    /// off.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn row(&self, qubit: Qubit) -> &[u64] {
        let q = qubit.index();
        &self.bits[q * self.words..(q + 1) * self.words]
    }

    /// Sets `qubit` of `lane` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `qubit` is out of range.
    pub fn set(&mut self, lane: usize, qubit: Qubit, value: bool) {
        let (word, mask) = self.locate(lane, qubit);
        if value {
            self.bits[word] |= mask;
        } else {
            self.bits[word] &= !mask;
        }
    }

    /// Reads `qubit` of `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `qubit` is out of range.
    pub fn get(&self, lane: usize, qubit: Qubit) -> bool {
        let (word, mask) = self.locate(lane, qubit);
        self.bits[word] & mask != 0
    }

    /// The power `k ∈ 0..4` of `lane`'s amplitude `iᵏ`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn phase(&self, lane: usize) -> u8 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (word, shift) = (lane / 64, lane % 64);
        let lo = (self.phase_lo[word] >> shift) & 1;
        let hi = (self.phase_hi[word] >> shift) & 1;
        (lo | hi << 1) as u8
    }

    /// Schedules `plan`'s faults on `lane` for the next
    /// [`run`](Lanes::run), one [`add_fault`](Lanes::add_fault) each.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn add_faults(&mut self, lane: usize, plan: &FaultPlan) {
        for fault in plan.faults() {
            self.add_fault(lane, fault);
        }
    }

    /// Schedules `fault` on `lane` for the next [`run`](Lanes::run),
    /// after every fault already scheduled at its gate index. Fault
    /// qubits are checked when a fault fires, as in
    /// [`crate::run_with_faults`], so a fault past the circuit's end is
    /// never validated.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn add_fault(&mut self, lane: usize, fault: &Fault) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let w = word_index(lane / 64);
        self.schedule(w, w + 1, (lane % 64) as u8, fault);
    }

    /// Schedules `plan`'s faults on every lane of block `block` of a
    /// multi-shot pass ([`Lanes::load_blocks`]): one entry per fault,
    /// fired on the block's row words.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub(crate) fn add_block_faults(&mut self, block: usize, plan: &FaultPlan) {
        let start = block * self.block_words;
        assert!(start < self.words.max(1), "block {block} out of range");
        let (start, end) = (word_index(start), word_index(start + self.block_words));
        for fault in plan.faults() {
            self.schedule(start, end, EVERY_LANE, fault);
        }
    }

    /// Schedules `fault` on bit `lane` of row words `start..end`, or on
    /// every bit for [`EVERY_LANE`]: one entry.
    fn schedule(&mut self, start: u32, end: u32, lane: u8, fault: &Fault) {
        self.faults.push(LaneFault {
            index: fault.gate_index.min(u32::MAX as usize) as u32,
            start,
            end,
            qubit: fault.qubit,
            lane,
            pauli: fault.pauli,
        });
    }

    /// Loads `input`'s paths, one lane per path in slab order: a single
    /// block, every lane at phase `i⁰`, no faults scheduled. The input is
    /// transposed in a word at a time, visiting only the set bits of each
    /// 64-bit word. The result is the row image that
    /// [`Lanes::load_blocks`] copies.
    pub(crate) fn load_paths(&mut self, input: &PathState) {
        let paths = input.num_paths();
        self.reset(input.num_qubits(), paths);
        let words = self.words;
        for p in 0..paths {
            let (w, lane_bit) = (p / 64, 1u64 << (p % 64));
            for (j, &word) in input.path_words(p).iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let q = j * 64 + rest.trailing_zeros() as usize;
                    self.bits[q * words + w] |= lane_bit;
                    rest &= rest - 1;
                }
            }
        }
    }

    /// Loads `blocks` copies of `image`'s rows side by side for a
    /// multi-shot pass: each row of the pass holds one block of
    /// `image`'s row words per shot, every lane at phase `i⁰`, no faults
    /// scheduled. Image lanes past the last path stay padding in every
    /// block.
    pub(crate) fn load_blocks(&mut self, image: &Lanes, blocks: usize) {
        let block_words = image.words;
        self.shape(image.num_qubits, blocks * block_words * 64);
        self.block_words = block_words;
        if block_words == 0 {
            self.bits.clear();
            return;
        }
        // Every word is overwritten below.
        self.bits.resize(self.num_qubits * self.words, 0);
        let rows = self.bits.chunks_exact_mut(self.words);
        for (row, src) in rows.zip(image.bits.chunks_exact(block_words)) {
            for block in row.chunks_exact_mut(block_words) {
                block.copy_from_slice(src);
            }
        }
    }

    /// Block `block` of the pass, read in place.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub(crate) fn block(&self, block: usize) -> LaneBlock<'_> {
        let start = block * self.block_words;
        assert!(start < self.words.max(1), "block {block} out of range");
        LaneBlock {
            lanes: self,
            start,
            sign: None,
        }
    }

    /// The single block of a sign walk, with `sign`, one sign row of
    /// [`Lanes::walk_signs`], adding 2 to the power of `i` of every lane
    /// whose bit it sets: the lanes of the shot whose `Z` faults were
    /// tapped into that row.
    ///
    /// # Panics
    ///
    /// Panics unless `sign` is one row long.
    pub(crate) fn signed<'a>(&'a self, sign: &'a [u64]) -> LaneBlock<'a> {
        assert_eq!(sign.len(), self.words, "one sign row");
        LaneBlock {
            lanes: self,
            start: 0,
            sign: Some(sign),
        }
    }

    /// Walks `gates` once with no fault, and at each of `taps`, in gate
    /// index order ([`order_by_index`]), XORs the tapped qubit's row as
    /// it stands there into that tap's sign row of `signs`, `words` words
    /// per row (see the module docs). Taps sharing an index may come in
    /// any order: they change no lane.
    ///
    /// # Errors
    ///
    /// As [`Lanes::run`]: a tap on a qubit out of range, or a bad gate,
    /// whichever comes first in execution order.
    ///
    /// # Panics
    ///
    /// Panics if the taps are out of index order, a tap lies past
    /// `gates.len()`, or a sign row past `signs`.
    pub(crate) fn walk_signs(
        &mut self,
        gates: &[Gate],
        taps: &[SignTap],
        signs: &mut [u64],
    ) -> Result<(), SimError> {
        let (words, mut at) = (self.words, 0);
        for tap in taps {
            let index = tap.index as usize;
            self.apply_all(&gates[at..index])?;
            at = index;
            let q = tap.qubit.index();
            if q >= self.num_qubits {
                return Err(SimError::QubitOutOfRange {
                    index: q,
                    num_qubits: self.num_qubits,
                });
            }
            let sign = &mut signs[tap.slot as usize * words..][..words];
            for (s, &b) in sign.iter_mut().zip(&self.bits[q * words..(q + 1) * words]) {
                *s ^= b;
            }
        }
        self.apply_all(&gates[at..])
    }

    /// Walks `gates` once over every lane, firing the scheduled faults:
    /// a fault at index `i` fires before gate `i`, one at `gates.len()`
    /// after the last gate, and one past the end never. Faults sharing a
    /// gate index fire in scheduling order. Barriers occupy an index and
    /// do nothing. The schedule is empty afterwards, whatever the
    /// outcome.
    ///
    /// # Errors
    ///
    /// The first error in execution order, with the slab's check order:
    /// [`SimError::QubitOutOfRange`] for a firing fault or a gate operand
    /// past the qubit count (operands checked before the gate family),
    /// then [`SimError::NonReversibleGate`] for `H`. On error the lanes
    /// hold a partial run.
    pub fn run(&mut self, gates: &[Gate]) -> Result<(), SimError> {
        // A saturated index (a fault at u32::MAX or later) then lies past
        // the end, where it never fires.
        assert!(
            gates.len() < u32::MAX as usize,
            "circuit too long for lanes"
        );
        order_by_index(&mut self.faults, &mut self.spare, gates.len(), |f| f.index);
        let result = self.walk(gates);
        self.faults.clear();
        result
    }

    /// Applies the gates between consecutive fault indices in one
    /// stretch, so the per-gate loop never looks at the schedule.
    fn walk(&mut self, gates: &[Gate]) -> Result<(), SimError> {
        let end = gates.len();
        let (mut next, mut at) = (0, 0);
        loop {
            let stop = self
                .faults
                .get(next)
                .map_or(end, |f| (f.index as usize).min(end));
            self.apply_all(&gates[at..stop])?;
            next = self.fire(next, stop)?;
            if stop == end {
                return Ok(());
            }
            at = stop;
        }
    }

    /// Fires the scheduled faults from `next` on that sit at `index`;
    /// returns the next unfired one.
    fn fire(&mut self, mut next: usize, index: usize) -> Result<usize, SimError> {
        while let Some(&f) = self.faults.get(next) {
            if f.index as usize > index {
                break;
            }
            if f.qubit.index() >= self.num_qubits {
                return Err(SimError::QubitOutOfRange {
                    index: f.qubit.index(),
                    num_qubits: self.num_qubits,
                });
            }
            let row = f.qubit.index() * self.words;
            let mask = if f.lane == EVERY_LANE {
                !0
            } else {
                1u64 << f.lane
            };
            // One update for all three Paulis: X flips the bit; Z adds 2
            // to the power of i where the bit is set; Y = iXZ adds 1 on
            // |0⟩ and 3 on |1⟩, then flips. The masks are computed, not
            // branched on.
            let when = |on: bool| mask & 0u64.wrapping_sub(u64::from(on));
            let (x, y, z) = (
                when(f.pauli != Pauli::Z),
                when(f.pauli == Pauli::Y),
                when(f.pauli == Pauli::Z),
            );
            for w in f.start as usize..f.end as usize {
                let bit = self.bits[row + w] & (y | z);
                self.phase_hi[w] ^= bit ^ (self.phase_lo[w] & y);
                self.phase_lo[w] ^= y;
                self.bits[row + w] ^= x;
            }
            next += 1;
        }
        Ok(next)
    }

    /// Applies `gates` in order to every lane. A pass of one word per row
    /// (at most 64 lanes, as every served run is) takes a copy of
    /// [`Lanes::apply`] with the word count fixed, whose row loops
    /// compile to single word operations.
    fn apply_all(&mut self, gates: &[Gate]) -> Result<(), SimError> {
        if self.words == 1 {
            gates.iter().try_for_each(|gate| self.apply::<1>(gate))
        } else {
            gates.iter().try_for_each(|gate| self.apply::<0>(gate))
        }
    }

    /// Applies one gate to every lane, over `WORDS` words per row, or
    /// over the pass's word count when `WORDS` is 0. Operands are
    /// bounds-checked in [`Gate::for_each_qubit`] order before the gate
    /// acts, as on the slab.
    fn apply<const WORDS: usize>(&mut self, gate: &Gate) -> Result<(), SimError> {
        let n = if WORDS == 0 { self.words } else { WORDS };
        let num_qubits = self.num_qubits;
        // The first word of a qubit's row.
        let row = |q: Qubit| {
            if q.index() < num_qubits {
                Ok(q.index() * n)
            } else {
                Err(SimError::QubitOutOfRange {
                    index: q.index(),
                    num_qubits,
                })
            }
        };
        // A control's row and polarity mask (all ones fires on |0⟩).
        let ctrl = |c: &Control| Ok((row(c.qubit)?, if c.value { 0 } else { !0u64 }));
        let bits = &mut self.bits;
        match gate {
            Gate::Barrier => {}
            Gate::H(q) => {
                row(*q)?;
                return Err(SimError::NonReversibleGate { gate: "h" });
            }
            Gate::X(q) | Gate::ClX(q) => {
                let t = row(*q)?;
                for x in &mut bits[t..t + n] {
                    *x = !*x;
                }
            }
            Gate::Y(q) => {
                let t = row(*q)?;
                for w in 0..n {
                    let b = bits[t + w];
                    self.phase_hi[w] ^= self.phase_lo[w] ^ b;
                    self.phase_lo[w] = !self.phase_lo[w];
                    bits[t + w] = !b;
                }
            }
            Gate::Z(q) => {
                let t = row(*q)?;
                for w in 0..n {
                    self.phase_hi[w] ^= bits[t + w];
                }
            }
            Gate::Cx { control, target } | Gate::ClCx { control, target } => {
                let (c, pc) = ctrl(control)?;
                let t = row(*target)?;
                for w in 0..n {
                    bits[t + w] ^= bits[c + w] ^ pc;
                }
            }
            Gate::Ccx { controls, target } => {
                let (a, pa) = ctrl(&controls[0])?;
                let (b, pb) = ctrl(&controls[1])?;
                let t = row(*target)?;
                for w in 0..n {
                    bits[t + w] ^= (bits[a + w] ^ pa) & (bits[b + w] ^ pb);
                }
            }
            Gate::Mcx { controls, target } => {
                for c in controls {
                    row(c.qubit)?;
                }
                let t = row(*target)?;
                for w in 0..n {
                    let fire = controls.iter().fold(!0u64, |acc, c| {
                        let pc = if c.value { 0 } else { !0u64 };
                        acc & (bits[c.qubit.index() * n + w] ^ pc)
                    });
                    bits[t + w] ^= fire;
                }
            }
            Gate::Swap(a, b) | Gate::ClSwap(a, b) => {
                let (a, b) = (row(*a)?, row(*b)?);
                for w in 0..n {
                    bits.swap(a + w, b + w);
                }
            }
            Gate::Cswap { control, a, b } => {
                let (c, pc) = ctrl(control)?;
                let (a, b) = (row(*a)?, row(*b)?);
                for w in 0..n {
                    let d = (bits[a + w] ^ bits[b + w]) & (bits[c + w] ^ pc);
                    bits[a + w] ^= d;
                    bits[b + w] ^= d;
                }
            }
        }
        Ok(())
    }

    /// The word index and bit mask of (`lane`, `qubit`).
    fn locate(&self, lane: usize, qubit: Qubit) -> (usize, u64) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        assert!(
            qubit.index() < self.num_qubits,
            "qubit {} out of range for {} qubits",
            qubit.index(),
            self.num_qubits
        );
        (qubit.index() * self.words + lane / 64, 1u64 << (lane % 64))
    }
}

/// A row word index as a fault target holds it.
fn word_index(w: usize) -> u32 {
    u32::try_from(w).expect("under 2^32 row words")
}

/// Puts `items` in gate index order in linear time, for a circuit of
/// `end` gates: a stable LSD radix sort on `index(item)`, clamped to
/// `end + 1` (one past the end, where nothing fires), one byte digit per
/// pass and only as many passes as `end + 1` has bytes. Items at one
/// index keep their order. A pass whose digit is the same for every item
/// moves nothing and is skipped. `spare` is the scatter buffer; the two
/// trade places on each pass that moves.
///
/// # Panics
///
/// Panics if `end + 1` or the number of items does not fit in a `u32`.
pub(crate) fn order_by_index<T: Copy>(
    items: &mut Vec<T>,
    spare: &mut Vec<T>,
    end: usize,
    index: impl Fn(&T) -> u32,
) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let count = u32::try_from(n).expect("under 2^32 items to order");
    let limit = end
        .checked_add(1)
        .and_then(|limit| u32::try_from(limit).ok())
        .expect("a gate index past the end fits in 32 bits");
    let passes = (u32::BITS - limit.leading_zeros()).div_ceil(8) as usize;
    let key = |item: &T| index(item).min(limit);
    let mut histograms = [[0u32; 256]; 4];
    for item in items.iter() {
        let k = key(item);
        for (pass, histogram) in histograms[..passes].iter_mut().enumerate() {
            histogram[(k >> (8 * pass)) as usize & 0xFF] += 1;
        }
    }
    for (pass, histogram) in histograms[..passes].iter().enumerate() {
        let digit = |item: &T| (key(item) >> (8 * pass)) as usize & 0xFF;
        if histogram[digit(&items[0])] == count {
            continue;
        }
        let mut next = [0u32; 256];
        let mut at = 0;
        for (next, &bucket) in next.iter_mut().zip(histogram) {
            *next = at;
            at += bucket;
        }
        // Every slot is overwritten below.
        spare.truncate(n);
        spare.resize(n, items[0]);
        for item in items.iter() {
            let slot = &mut next[digit(item)];
            spare[*slot as usize] = *item;
            *slot += 1;
        }
        std::mem::swap(items, spare);
    }
}

/// `a · iᵏ`, applied with the slab's own maps (`−`,
/// [`Amplitude::mul_i`], [`Amplitude::mul_neg_i`]). Each is an exact
/// signed permutation of `(re, im)` and they compose as powers of `i`, so
/// the slab's per-gate sequence and this single map agree in every bit,
/// signed zeros included.
fn times_i_to(k: u8, a: Amplitude) -> Amplitude {
    match k {
        0 => a,
        1 => a.mul_i(),
        2 => -a,
        _ => a.mul_neg_i(),
    }
}

/// One block of a pass, read in place: words `start..start +
/// block_words` of every row and of the phase rows, plus a sign walk's
/// sign row when it has one.
#[derive(Clone, Copy)]
pub(crate) struct LaneBlock<'a> {
    lanes: &'a Lanes,
    start: usize,
    sign: Option<&'a [u64]>,
}

impl<'a> LaneBlock<'a> {
    /// Its words per qubit row: `⌈paths / 64⌉` of the image loaded.
    pub(crate) fn row_words(&self) -> usize {
        self.lanes.block_words
    }

    /// `qubit`'s row within the block; bits past the last path belong to
    /// no path.
    pub(crate) fn row(&self, qubit: Qubit) -> &'a [u64] {
        let at = qubit.index() * self.lanes.words + self.start;
        &self.lanes.bits[at..at + self.lanes.block_words]
    }

    /// Every qubit's row within the block, in qubit order.
    pub(crate) fn rows(self) -> impl Iterator<Item = &'a [u64]> {
        (0..self.lanes.num_qubits).map(move |q| self.row(Qubit(q as u32)))
    }

    /// `lane`'s amplitude for an input amplitude `a`: `a · iᵏ`, with `k`
    /// the lane's power of `i` plus twice its sign bit.
    pub(crate) fn amplitude(&self, lane: usize, a: Amplitude) -> Amplitude {
        let (w, shift) = (self.start + lane / 64, lane % 64);
        let lo = (self.lanes.phase_lo[w] >> shift) & 1;
        let mut hi = (self.lanes.phase_hi[w] >> shift) & 1;
        if let Some(sign) = self.sign {
            hi ^= (sign[lane / 64] >> shift) & 1;
        }
        times_i_to((lo | hi << 1) as u8, a)
    }

    /// Transposes the block, a pass over `input`, back into `out`: the
    /// same paths, in the same order, each amplitude through
    /// [`amplitude`](LaneBlock::amplitude). A word at a time, visiting
    /// only the set bits of each row word.
    pub(crate) fn store_paths(&self, input: &PathState, out: &mut PathState) {
        let (num_qubits, paths) = (self.lanes.num_qubits, input.num_paths());
        let (slab, amps) = out.reset_paths(num_qubits, paths);
        let stride = num_qubits.div_ceil(64);
        for (q, row) in self.rows().enumerate() {
            let (j, qubit_bit) = (q / 64, 1u64 << (q % 64));
            for (w, &word) in row.iter().enumerate() {
                // Bits past the last lane belong to no path.
                let mut rest = word & lane_mask(paths, w);
                while rest != 0 {
                    let p = w * 64 + rest.trailing_zeros() as usize;
                    slab[p * stride + j] |= qubit_bit;
                    rest &= rest - 1;
                }
            }
        }
        for (p, (amp, &a)) in amps.iter_mut().zip(input.amplitudes()).enumerate() {
            *amp = self.amplitude(p, a);
        }
    }
}

/// The bits of word `w` that hold one of `lanes` lanes.
pub(crate) fn lane_mask(lanes: usize, w: usize) -> u64 {
    match lanes - w * 64 {
        n if n >= 64 => !0,
        n => (1u64 << n) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_with_faults, Amplitude, BitString, Fault};

    fn lane_bits(lanes: &Lanes, lane: usize, num_qubits: usize) -> BitString {
        BitString::from_bits((0..num_qubits).map(|q| lanes.get(lane, Qubit(q as u32))))
    }

    /// The power of `i` of a unit amplitude.
    fn power_of_i(a: Amplitude) -> u8 {
        match (a.re, a.im) {
            (re, im) if re == 1.0 && im == 0.0 => 0,
            (re, im) if re == 0.0 && im == 1.0 => 1,
            (re, im) if re == -1.0 && im == 0.0 => 2,
            (re, im) if re == 0.0 && im == -1.0 => 3,
            _ => panic!("{a:?} is not a power of i"),
        }
    }

    /// Runs each `(input, plan)` pair on the slab and all of them as
    /// lanes of one pass, and checks every lane against its slab run.
    fn assert_lanes_match_slab(gates: &[Gate], num_qubits: usize, cases: &[(u64, FaultPlan)]) {
        let mut lanes = Lanes::new(num_qubits, cases.len());
        for (lane, (input, plan)) in cases.iter().enumerate() {
            for q in 0..num_qubits {
                lanes.set(lane, Qubit(q as u32), input >> q & 1 == 1);
            }
            lanes.add_faults(lane, plan);
        }
        lanes.run(gates).unwrap();
        for (lane, (input, plan)) in cases.iter().enumerate() {
            let mut slab = PathState::basis_state(BitString::from_u64(*input, num_qubits));
            run_with_faults(gates, &mut slab, plan).unwrap();
            let paths: Vec<_> = slab.iter().collect();
            assert_eq!(paths.len(), 1);
            assert_eq!(
                lane_bits(&lanes, lane, num_qubits),
                paths[0].0,
                "lane {lane} bits"
            );
            assert_eq!(
                lanes.phase(lane),
                power_of_i(paths[0].1),
                "lane {lane} phase"
            );
        }
    }

    fn mixed_circuit() -> Vec<Gate> {
        vec![
            Gate::cx(Qubit(0), Qubit(3)),
            Gate::Barrier,
            Gate::ccx(Qubit(1), Qubit(2), Qubit(4)),
            Gate::cswap0(Qubit(0), Qubit(3), Qubit(4)),
            Gate::y(Qubit(2)),
            Gate::swap(Qubit(3), Qubit(4)),
            Gate::mcx_pattern(&[Qubit(0), Qubit(1), Qubit(2)], 0b101, Qubit(3)),
            Gate::z(Qubit(3)),
            Gate::cx0(Qubit(4), Qubit(1)),
            Gate::ClSwap(Qubit(1), Qubit(2)),
            Gate::Mcx {
                controls: Vec::new(),
                target: Qubit(0),
            },
        ]
    }

    fn plan(faults: &[(usize, u32, Pauli)]) -> FaultPlan {
        faults
            .iter()
            .map(|&(i, q, p)| Fault::new(i, Qubit(q), p))
            .collect()
    }

    #[test]
    fn every_input_matches_the_slab_without_faults() {
        let cases: Vec<_> = (0..32).map(|input| (input, FaultPlan::new())).collect();
        assert_lanes_match_slab(&mixed_circuit(), 5, &cases);
    }

    #[test]
    fn faulted_lanes_match_the_slab() {
        let gates = mixed_circuit();
        let end = gates.len();
        let plans = [
            FaultPlan::new(),
            plan(&[(0, 0, Pauli::X)]),
            plan(&[(end, 3, Pauli::Y), (end, 3, Pauli::Z)]),
            // Repeated X and Z on one qubit at one index: XZ and ZX
            // differ by a sign, so the plan order must survive.
            plan(&[(4, 2, Pauli::X), (4, 2, Pauli::Z)]),
            plan(&[(4, 2, Pauli::Z), (4, 2, Pauli::X), (4, 2, Pauli::Y)]),
            // Past the end: never fires, never validated.
            plan(&[(end + 1, 40, Pauli::X), (2, 1, Pauli::Y)]),
            // Unsorted plan: fires in index order.
            plan(&[(7, 4, Pauli::Y), (1, 0, Pauli::Y), (7, 4, Pauli::X)]),
        ];
        let cases: Vec<_> = (0..32u64)
            .flat_map(|input| plans.iter().map(move |p| (input, p.clone())))
            .collect();
        assert!(cases.len() > 64, "spans several words");
        assert_lanes_match_slab(&gates, 5, &cases);
    }

    /// A circuit past 65,536 gates takes three byte passes to order.
    /// Faults stack at one index across lanes and, on one lane, on one
    /// qubit (`X`, `Z`, `Y`: the order sets the phase); others sit at 0,
    /// at the end, one past it, far past it and at `usize::MAX`.
    #[test]
    fn a_three_pass_schedule_matches_the_slab() {
        let gates: Vec<Gate> = (0..70_000u32)
            .map(|i| match i % 4 {
                0 => Gate::cx(Qubit(i % 3), Qubit(3)),
                1 => Gate::y(Qubit(i % 4)),
                2 => Gate::ccx(Qubit(0), Qubit(1), Qubit(2)),
                _ => Gate::z(Qubit(i % 4)),
            })
            .collect();
        let end = gates.len();
        let stacked = 65_793; // bytes 1, 1 and 1: three passes that move
        let plans = [
            plan(&[(stacked, 1, Pauli::X)]),
            plan(&[
                (stacked, 2, Pauli::X),
                (stacked, 2, Pauli::Z),
                (stacked, 2, Pauli::Y),
            ]),
            plan(&[
                (stacked, 2, Pauli::Y),
                (stacked, 2, Pauli::Z),
                (stacked, 2, Pauli::X),
            ]),
            plan(&[(end, 0, Pauli::Y), (0, 3, Pauli::Y), (stacked, 0, Pauli::Z)]),
            plan(&[(usize::MAX, 40, Pauli::X), (end + 1, 9, Pauli::Y)]),
            plan(&[
                (256, 1, Pauli::Y),
                (1 << 16, 3, Pauli::X),
                (end + 300, 0, Pauli::Z),
            ]),
            plan(&[(u32::MAX as usize, 7, Pauli::X), (end - 1, 3, Pauli::Y)]),
        ];
        let cases: Vec<_> = [0b0000u64, 0b0111, 0b1010]
            .into_iter()
            .flat_map(|input| plans.iter().map(move |p| (input, p.clone())))
            .collect();
        assert_lanes_match_slab(&gates, 4, &cases);
    }

    /// `order_by_index` against a stable comparison sort of the clamped
    /// index, on many equal indices, at one, two, three and four byte
    /// passes and past the end.
    #[test]
    fn radix_order_is_the_stable_index_order() {
        let mut spare = Vec::new();
        for end in [0usize, 200, 40_000, 70_000, u32::MAX as usize - 1] {
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let items: Vec<(u32, usize)> = (0..3_000)
                .map(|position| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let index = match state % 5 {
                        0 => end as u32,
                        1 => u32::MAX,
                        2 => (end as u64 + 1 + (state >> 40) % 9) as u32,
                        _ => ((state >> 20) % (end as u64 + 1)) as u32,
                    };
                    (index, position)
                })
                .collect();
            let mut want = items.clone();
            want.sort_by_key(|&(index, _)| index.min(end as u32 + 1));
            let mut got = items;
            order_by_index(&mut got, &mut spare, end, |&(index, _)| index);
            assert_eq!(got, want, "end {end}");
        }
    }

    #[test]
    fn errors_match_the_slab() {
        let bad_gate = [Gate::x(Qubit(7))];
        let h_gate = [Gate::cx(Qubit(0), Qubit(1)), Gate::H(Qubit(2))];
        let ok = [Gate::cx(Qubit(0), Qubit(1))];
        let bad_fault = plan(&[(1, 9, Pauli::X)]);
        let cases: [(&[Gate], FaultPlan); 3] = [
            (&bad_gate, FaultPlan::new()),
            (&h_gate, FaultPlan::new()),
            (&ok, bad_fault),
        ];
        for (gates, plan) in cases {
            let mut slab = PathState::computational_basis(3);
            let want = run_with_faults(gates, &mut slab, &plan).unwrap_err();
            let mut lanes = Lanes::new(3, 2);
            lanes.add_faults(1, &plan);
            assert_eq!(lanes.run(gates).unwrap_err(), want);
        }
        // An H with an out-of-range operand reports the bound first.
        let mut lanes = Lanes::new(3, 1);
        assert!(matches!(
            lanes.run(&[Gate::H(Qubit(5))]),
            Err(SimError::QubitOutOfRange { index: 5, .. })
        ));
    }

    #[test]
    fn the_first_error_in_execution_order_wins() {
        // Lane 1's bad fault fires before gate 1; lane 0's bad fault would
        // fire only after it.
        let gates = [Gate::x(Qubit(0)), Gate::x(Qubit(1))];
        let mut lanes = Lanes::new(2, 2);
        lanes.add_faults(0, &plan(&[(2, 8, Pauli::X)]));
        lanes.add_faults(1, &plan(&[(1, 6, Pauli::Z)]));
        assert_eq!(
            lanes.run(&gates),
            Err(SimError::QubitOutOfRange {
                index: 6,
                num_qubits: 2
            })
        );
    }

    /// A sign walk leaves every bit as the fault-free walk does, and its
    /// signed blocks give every lane the phase that walking its shot's
    /// `Z` faults gives it: taps at index 0, at the end, twice at one
    /// location, and on a qubit another gate flips later.
    #[test]
    fn a_sign_walk_matches_walked_z_faults() {
        let gates = mixed_circuit();
        let end = gates.len();
        let plans = [
            plan(&[(0, 0, Pauli::Z)]),
            plan(&[(end, 3, Pauli::Z), (4, 2, Pauli::Z), (4, 2, Pauli::Z)]),
            plan(&[(7, 4, Pauli::Z), (1, 1, Pauli::Z), (3, 4, Pauli::Z)]),
        ];
        let mut image = Lanes::new(5, 32);
        for lane in 0..32 {
            for q in 0..5 {
                image.set(lane, Qubit(q), lane >> q & 1 == 1);
            }
        }
        let mut taps: Vec<SignTap> = plans
            .iter()
            .enumerate()
            .flat_map(|(slot, plan)| {
                plan.faults().iter().map(move |f| SignTap {
                    index: f.gate_index as u32,
                    qubit: f.qubit,
                    slot: slot as u32,
                })
            })
            .collect();
        taps.sort_by_key(|tap| tap.index);
        let mut signs = vec![0; plans.len()];
        let mut signed = Lanes::default();
        signed.load_blocks(&image, 1);
        signed.walk_signs(&gates, &taps, &mut signs).unwrap();
        let mut ideal = Lanes::default();
        ideal.load_blocks(&image, 1);
        ideal.run(&gates).unwrap();
        for q in 0..5 {
            assert_eq!(signed.row(Qubit(q)), ideal.row(Qubit(q)), "qubit {q}");
        }
        for (slot, plan) in plans.iter().enumerate() {
            let mut walked = Lanes::default();
            walked.load_blocks(&image, 1);
            walked.add_block_faults(0, plan);
            walked.run(&gates).unwrap();
            let sign = signed.signed(&signs[slot..slot + 1]);
            for lane in 0..32 {
                let (got, want) = (
                    sign.amplitude(lane, Amplitude::I),
                    walked.block(0).amplitude(lane, Amplitude::I),
                );
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "slot {slot} lane {lane}"
                );
            }
        }
        // A tap on a qubit past the last fails like a fault there.
        let bad = [SignTap {
            index: 2,
            qubit: Qubit(9),
            slot: 0,
        }];
        assert_eq!(
            signed.walk_signs(&gates, &bad, &mut signs),
            Err(SimError::QubitOutOfRange {
                index: 9,
                num_qubits: 5
            })
        );
    }

    #[test]
    fn reset_clears_bits_phases_and_faults() {
        let mut lanes = Lanes::new(3, 70);
        lanes.set(69, Qubit(2), true);
        lanes.add_faults(0, &plan(&[(0, 1, Pauli::Y)]));
        lanes.reset(3, 5);
        lanes.run(&[]).unwrap();
        assert!((0..5).all(|l| lanes.phase(l) == 0 && !lanes.get(l, Qubit(1))));
        assert_eq!(lanes.row(Qubit(2)), &[0]);
    }

    #[test]
    fn a_mismatching_single_path_reduces_to_negative_zero() {
        // Lane readout relies on this: a single noisy path whose kept bits
        // differ from the ideal path's has no group to sum, and an empty
        // f64 sum is −0.0, not +0.0.
        let ideal = PathState::basis_state(BitString::from_u64(0b01, 2));
        let noisy = PathState::basis_state(BitString::from_u64(0b11, 2));
        let f = ideal.reduced_fidelity(&noisy, &[Qubit(1)]);
        assert_eq!(f.to_bits(), (-0.0f64).to_bits());
        // A matching one sums one unit-modulus group to exactly 1.0.
        let mut phased = ideal.clone();
        phased.apply_y(Qubit(1));
        phased.apply_y(Qubit(1));
        phased.apply_z(Qubit(0));
        let f = ideal.reduced_fidelity(&phased, &[Qubit(0), Qubit(1)]);
        assert_eq!(f.to_bits(), 1.0f64.to_bits());
    }
}
