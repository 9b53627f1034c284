//! The reduced fidelity of a lane pass, read straight from the lane rows.
//!
//! [`PathState::reduced_fidelity`] groups a noisy state's paths by their
//! traced-out bits and overlaps each group with the ideal's kept-bits
//! state: `F = Σ_z |Σ_{p : rest(p) = z} conj(ideal(kept(p))) · amp(p)|²`.
//! A shot's block of a lane pass ([`LaneBlock`]) holds those paths
//! qubit-major, one lane per path: its block of a multi-shot pass, or,
//! for a shot whose faults are all `Z`, the sign walk's fault-free block
//! with the shot's sign row. [`LaneReduction`] computes the same sum from
//! the block's rows in place, without transposing it back into a
//! [`PathState`]:
//!
//! * Word-wide masks find two kinds of lane. An *own* lane's kept bits
//!   equal its own ideal path's, so it reuses that path's reference
//!   amplitude with no lookup. A *clean* lane's traced-out bits equal the
//!   ideal's constant rest, so all clean lanes share one group, which
//!   needs no key. One sweep over a multi-shot pass's rows finds both
//!   kinds, and the rows where some lane leaves the rest, for every
//!   block of the pass at once ([`LaneReduction::sweep`]). A shot whose
//!   faults are all `Z` flips no bit, so every lane is both and no row
//!   is read: only the phases and the sign row.
//! * Every other lane gets its keys from the rows, 64 rows by 64 lanes at
//!   a time through a bit-matrix transpose, into buffers reused across
//!   shots. A lane that is not own looks its kept key up in a hash table
//!   of the ideal's; a contributing lane that is not clean joins the
//!   group of its traced-out key in a second table, which is rebuilt per
//!   shot. Nothing is allocated per lane or per shot once the buffers
//!   have grown.
//!
//! A traced-out key holds only the *active* rows, those on which some
//! lane leaves the constant rest: every other row holds the constant on
//! every lane, so it decides no comparison. The active rows are packed
//! most significant first, in the order in which the slab's packed keys
//! compare their bits (word by word, and within a word from bit 63
//! down), so these keys sort exactly as the slab's `BTreeMap<Vec<u64>, _>`
//! keys do.
//!
//! Each sample equals the slab's bit for bit: each group starts at
//! [`Amplitude::ZERO`] and adds `conj(ideal) · amp` in path order, where
//! `amp` is the input amplitude times `iᵏ` through the slab's own maps,
//! and the groups' `norm_sqr` values are summed with `f64`'s `Sum` in
//! sorted key order, the clean group at its own sorted place.
//!
//! The [`KeptReference`] (the ideal's kept bits, rows and amplitudes)
//! depends only on the ideal output and `keep`, so one call builds it
//! once and its shards read it; each shard keeps its own
//! [`LaneReduction`] scratch.

use qram_circuit::Qubit;

use crate::lanes::{lane_mask, LaneBlock};
use crate::state::{extract_bits, word_get};
use crate::{Amplitude, Lanes, PathState};

/// The reference a reduction compares lane passes against: the ideal
/// output's kept bits, constant rest and kept-bits amplitudes. It depends
/// only on the ideal and `keep`, so one call builds it once and every
/// shard reads it.
pub(crate) struct KeptReference {
    /// Lanes per block: the ideal's path count.
    lanes: usize,
    /// Per row word, the bits that hold a lane.
    valid: Vec<u64>,
    /// The kept qubits in `keep` order: bit `k` of a kept key is
    /// `keep[k]`, as the slab packs it.
    keep: Vec<Qubit>,
    /// The ideal's row of each kept qubit, in `keep` order.
    ideal_kept: Vec<u64>,
    /// Per qubit, the ideal's constant bit on it as a word mask, or
    /// `None` for a kept qubit.
    rest: Vec<Option<u64>>,
    /// Per qubit, its bit in the slab's traced-out key.
    rest_pos: Vec<usize>,
    /// Per lane, the reference amplitude of its ideal path's kept bits.
    own_amps: Vec<Amplitude>,
    /// The ideal's distinct kept keys, and the reference amplitude of
    /// each.
    kept_table: KeyTable,
    kept_amps: Vec<Amplitude>,
}

impl KeptReference {
    /// Builds the reference for passes over `ideal`'s paths, with the
    /// checks [`PathState::reduced_fidelity`] makes of its reference.
    ///
    /// # Panics
    ///
    /// As [`PathState::reduced_fidelity`]: if a kept qubit is out of
    /// range, or `ideal`'s non-kept qubits are not one constant basis
    /// state across its paths.
    pub(crate) fn new(ideal: &PathState, keep: &[Qubit]) -> Self {
        let (num_qubits, lanes) = (ideal.num_qubits(), ideal.num_paths());
        let keep_idx: Vec<usize> = keep.iter().map(|q| q.index()).collect();
        for &i in &keep_idx {
            assert!(i < num_qubits, "kept qubit {i} out of range");
        }
        // The traced-out bits of a path's words; they must be one
        // constant across the paths, or the reduction is ill-defined.
        let mut traced = vec![!0u64; num_qubits.div_ceil(64)];
        for &i in &keep_idx {
            traced[i / 64] &= !(1 << (i % 64));
        }
        if lanes > 0 {
            let first = ideal.path_words(0);
            for p in 1..lanes {
                let mut words = ideal.path_words(p).iter().zip(first).zip(&traced);
                assert!(
                    words.all(|((&a, &b), &t)| (a ^ b) & t == 0),
                    "reference state has entangled non-kept qubits"
                );
            }
        }

        // The ideal's amplitudes keyed by kept bits, each key's summed
        // from ZERO in path order, as the slab's map sums them.
        let words = lanes.div_ceil(64);
        let mut ideal_kept = vec![0u64; keep.len() * words];
        let (mut kept_table, mut kept_amps) = (KeyTable::default(), Vec::new());
        kept_table.reset(keep.len().div_ceil(64), lanes);
        let mut own_keys = Vec::with_capacity(lanes);
        for (p, &amp) in ideal.amplitudes().iter().enumerate() {
            let path = ideal.path_words(p);
            for (k, &q) in keep_idx.iter().enumerate() {
                if word_get(path, q) {
                    ideal_kept[k * words + p / 64] |= 1 << (p % 64);
                }
            }
            let e = kept_table.insert(&extract_bits(path, &keep_idx));
            if e == kept_amps.len() {
                kept_amps.push(Amplitude::ZERO);
            }
            kept_amps[e] += amp;
            own_keys.push(e);
        }

        let (mut rest, mut rest_pos) = (vec![None; num_qubits], vec![0; num_qubits]);
        let traced_qubits = (0..num_qubits).filter(|&q| traced[q / 64] >> (q % 64) & 1 == 1);
        for (r, q) in traced_qubits.enumerate() {
            let set = lanes > 0 && word_get(ideal.path_words(0), q);
            rest[q] = Some(if set { !0 } else { 0 });
            rest_pos[q] = r;
        }
        KeptReference {
            lanes,
            valid: (0..words).map(|w| lane_mask(lanes, w)).collect(),
            keep: keep.to_vec(),
            ideal_kept,
            rest,
            rest_pos,
            own_amps: own_keys.iter().map(|&e| kept_amps[e]).collect(),
            kept_table,
            kept_amps,
        }
    }
}

/// One shard's scratch for reducing lane blocks against a
/// [`KeptReference`], reused across shots.
#[derive(Default)]
pub(crate) struct LaneReduction {
    /// Per block of the pass last swept, its own and clean lanes.
    pass_own: Vec<u64>,
    pass_clean: Vec<u64>,
    /// Per qubit, bit `b` set when some lane of block `b` of that pass
    /// leaves the constant rest on it.
    row_blocks: Vec<u32>,

    // The block being reduced.
    own: Vec<u64>,
    clean: Vec<u64>,
    /// Lanes that are not own but whose kept bits the reference has.
    hit: Vec<u64>,
    /// Contributing lanes that are not clean.
    dirty: Vec<u64>,
    kept_keys: Vec<u64>,
    hit_amps: Vec<Amplitude>,
    /// The rows some lane leaves the constant rest on; in the order the
    /// slab's keys compare their bits once there are dirty lanes.
    active: Vec<Qubit>,
    /// The clean group's traced-out key over the active rows.
    clean_key: Vec<u64>,
    rest_keys: Vec<u64>,
    /// The dirty lanes' distinct traced-out keys, and each group's sum.
    groups: KeyTable,
    group_sums: Vec<Amplitude>,
    /// Group numbers in sorted key order.
    group_order: Vec<u32>,
    /// The groups' `norm_sqr` values in sorted key order.
    norms: Vec<f64>,
}

impl LaneReduction {
    /// Sweeps every block of `lanes`, a pass of `blocks` blocks over the
    /// ideal's input ([`Lanes::load_blocks`]), for each block's own and
    /// clean lanes and the rows its lanes leave the constant rest on,
    /// reading each row once for all the blocks;
    /// [`LaneReduction::fidelity`] then reduces the blocks.
    ///
    /// # Panics
    ///
    /// Panics on more than 32 blocks, or if a block does not hold one
    /// lane per ideal path.
    ///
    /// [`Lanes::load_blocks`]: crate::Lanes::load_blocks
    pub(crate) fn sweep(&mut self, reference: &KeptReference, lanes: &Lanes, blocks: usize) {
        let r = reference;
        let words = r.valid.len();
        assert!(blocks <= 32, "{blocks} blocks in a pass");
        assert_eq!(lanes.block(0).row_words(), words, "one lane per ideal path");
        self.pass_own.clear();
        self.pass_clean.clear();
        for _ in 0..blocks {
            self.pass_own.extend_from_slice(&r.valid);
            self.pass_clean.extend_from_slice(&r.valid);
        }
        self.row_blocks.clear();
        self.row_blocks.resize(r.rest.len(), 0);
        if words == 0 {
            return;
        }
        // Own lanes: every kept bit equals the lane's own ideal path's.
        for (k, &q) in r.keep.iter().enumerate() {
            let ideal = &r.ideal_kept[k * words..(k + 1) * words];
            let own = self.pass_own.chunks_exact_mut(words);
            for (own, row) in own.zip(lanes.row(q).chunks_exact(words)) {
                for ((own, &b), &i) in own.iter_mut().zip(row).zip(ideal) {
                    *own &= !(b ^ i);
                }
            }
        }
        // Clean lanes: every traced-out bit equals the constant rest.
        for (q, (&c, off)) in r.rest.iter().zip(&mut self.row_blocks).enumerate() {
            let Some(c) = c else { continue };
            let row = lanes.row(Qubit(q as u32)).chunks_exact(words);
            for (b, (clean, row)) in self.pass_clean.chunks_exact_mut(words).zip(row).enumerate() {
                let mut any = 0;
                for ((clean, &x), &v) in clean.iter_mut().zip(row).zip(&r.valid) {
                    let d = (x ^ c) & v;
                    *clean &= !d;
                    any |= d;
                }
                *off |= u32::from(any != 0) << b;
            }
        }
    }

    /// The reduced fidelity of block `block` of `lanes`, the pass last
    /// [swept](LaneReduction::sweep), whose input amplitudes are `amps`:
    /// what [`PathState::reduced_fidelity`] gives for the block read back
    /// into a [`PathState`], bit for bit.
    pub(crate) fn fidelity(
        &mut self,
        reference: &KeptReference,
        lanes: &Lanes,
        block: usize,
        amps: &[Amplitude],
    ) -> f64 {
        let words = reference.valid.len();
        let at = block * words..(block + 1) * words;
        self.own.clear();
        self.own.extend_from_slice(&self.pass_own[at.clone()]);
        self.clean.clear();
        self.clean.extend_from_slice(&self.pass_clean[at]);
        self.reduce(reference, lanes.block(block), amps, Some(block))
    }

    /// The reduced fidelity of `lanes`, a sign walk's block with one
    /// all-`Z` shot's sign row ([`Lanes::signed`]): no fault flipped a
    /// bit, so every lane holds its ideal path's bits, every lane is own
    /// and clean, and no row needs a look.
    ///
    /// [`Lanes::signed`]: crate::Lanes::signed
    pub(crate) fn phase_fidelity(
        &mut self,
        reference: &KeptReference,
        lanes: LaneBlock<'_>,
        amps: &[Amplitude],
    ) -> f64 {
        self.own.clone_from(&reference.valid);
        self.clean.clone_from(&reference.valid);
        self.reduce(reference, lanes, amps, None)
    }

    /// Reduces `lanes` with its own and clean lanes set. Its active rows
    /// are those of block `swept` of the pass last swept, or none.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` does not hold one lane per ideal path.
    fn reduce(
        &mut self,
        reference: &KeptReference,
        lanes: LaneBlock<'_>,
        amps: &[Amplitude],
        swept: Option<usize>,
    ) -> f64 {
        let r = reference;
        let words = r.valid.len();
        assert_eq!(lanes.row_words(), words, "one lane per ideal path");
        self.hit.resize(words, 0);
        self.dirty.resize(words, 0);
        self.hit_amps.resize(r.lanes, Amplitude::ZERO);

        // The lanes that are not own look their kept bits up.
        let ks = r.keep.len().div_ceil(64);
        for ((hit, &own), &v) in self.hit.iter_mut().zip(&self.own).zip(&r.valid) {
            *hit = v & !own;
        }
        if self.hit.iter().any(|&w| w != 0) {
            pack_keys(lanes, &r.keep, false, &self.hit, &mut self.kept_keys);
            let (keys, table) = (&self.kept_keys, &r.kept_table);
            let (kept_amps, hit_amps) = (&r.kept_amps, &mut self.hit_amps);
            for (w, hit) in self.hit.iter_mut().enumerate() {
                let lookups = std::mem::take(hit);
                for_each_lane(lookups, w, |p| {
                    if let Some(e) = table.get(&keys[p * ks..(p + 1) * ks]) {
                        hit_amps[p] = kept_amps[e];
                        *hit |= 1 << (p % 64);
                    }
                });
            }
        }

        let (own, own_amps, hit_amps) = (&self.own, &r.own_amps, &self.hit_amps);
        let term = |p: usize| {
            let ideal = if own[p / 64] >> (p % 64) & 1 == 1 {
                own_amps[p]
            } else {
                hit_amps[p]
            };
            ideal.conj() * lanes.amplitude(p, amps[p])
        };

        // The clean group, in path order.
        let mut clean_group: Option<Amplitude> = None;
        let masks = own.iter().zip(&self.hit).zip(&self.clean);
        for (w, (dirty, ((&own, &hit), &clean))) in self.dirty.iter_mut().zip(masks).enumerate() {
            for_each_lane((own | hit) & clean, w, |p| {
                *clean_group.get_or_insert(Amplitude::ZERO) += term(p);
            });
            *dirty = (own | hit) & !clean;
        }

        // The dirty groups, each summed in path order, then sorted by
        // key. A dirty lane leaves the constant on some active row, so
        // no dirty key equals the clean key.
        self.group_sums.clear();
        self.group_order.clear();
        if self.dirty.iter().any(|&w| w != 0) {
            // A dirty lane leaves the constant rest, so the block was
            // swept.
            let b = swept.expect("a block with dirty lanes was swept");
            self.active.clear();
            let rows = self.row_blocks.iter().enumerate();
            let active = rows.filter(|&(_, &off)| off >> b & 1 == 1);
            self.active.extend(active.map(|(q, _)| Qubit(q as u32)));
            // Key bit r is qubit rest_idx[r], at bit r % 64 of word
            // r / 64, and the higher bit of a word decides first.
            let rest_pos = &r.rest_pos;
            for run in self
                .active
                .chunk_by_mut(|a, b| rest_pos[a.index()] / 64 == rest_pos[b.index()] / 64)
            {
                run.reverse();
            }
            let rs = self.active.len().div_ceil(64);
            self.clean_key.clear();
            self.clean_key.resize(rs, 0);
            for (t, q) in self.active.iter().enumerate() {
                let c = r.rest[q.index()].unwrap_or(0);
                self.clean_key[t / 64] |= c & 1 << (63 - t % 64);
            }
            pack_keys(lanes, &self.active, true, &self.dirty, &mut self.rest_keys);
            let dirty_lanes = self.dirty.iter().map(|w| w.count_ones() as usize).sum();
            self.groups.reset(rs, dirty_lanes);
            for (w, &dirty) in self.dirty.iter().enumerate() {
                let (keys, groups, sums) =
                    (&self.rest_keys, &mut self.groups, &mut self.group_sums);
                for_each_lane(dirty, w, |p| {
                    let g = groups.insert(&keys[p * rs..(p + 1) * rs]);
                    if g == sums.len() {
                        sums.push(Amplitude::ZERO);
                    }
                    sums[g] += term(p);
                });
            }
            let groups = &self.groups;
            self.group_order.extend(0..groups.len() as u32);
            self.group_order
                .sort_unstable_by(|&a, &b| groups.key(a as usize).cmp(groups.key(b as usize)));
        }

        // Each group's norm, in sorted key order.
        self.norms.clear();
        for &g in &self.group_order {
            if self.clean_key.as_slice() < self.groups.key(g as usize) {
                if let Some(group) = clean_group.take() {
                    self.norms.push(group.norm_sqr());
                }
            }
            self.norms.push(self.group_sums[g as usize].norm_sqr());
        }
        if let Some(group) = clean_group {
            self.norms.push(group.norm_sqr());
        }
        self.norms.iter().copied().sum()
    }
}

/// Distinct keys of `stride` words each, numbered in insertion order:
/// open addressing with linear probing, in a power-of-two slot array
/// kept at most half full.
#[derive(Default)]
struct KeyTable {
    stride: usize,
    len: usize,
    keys: Vec<u64>,
    /// Key number + 1 per slot; 0 is empty.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: a hash's top bits pick the first slot.
    shift: u32,
}

impl KeyTable {
    /// Empties the table for up to `capacity` keys of `stride` words,
    /// reusing its buffers.
    fn reset(&mut self, stride: usize, capacity: usize) {
        let slots = (2 * capacity).next_power_of_two().max(2);
        self.stride = stride;
        self.len = 0;
        self.keys.clear();
        self.slots.clear();
        self.slots.resize(slots, 0);
        self.shift = 64 - slots.trailing_zeros();
    }

    fn len(&self) -> usize {
        self.len
    }

    fn key(&self, i: usize) -> &[u64] {
        &self.keys[i * self.stride..(i + 1) * self.stride]
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn slot(&self, key: &[u64]) -> usize {
        let hash = key.iter().fold(0u64, |h, &w| {
            (h.rotate_left(29) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let mask = self.slots.len() - 1;
        let mut s = (hash >> self.shift) as usize;
        while let Some(i) = self.slots[s].checked_sub(1) {
            if self.key(i as usize) == key {
                break;
            }
            s = (s + 1) & mask;
        }
        s
    }

    /// The number of `key`, if it is in the table.
    fn get(&self, key: &[u64]) -> Option<usize> {
        let i = self.slots[self.slot(key)].checked_sub(1)?;
        Some(i as usize)
    }

    /// The number of `key`, added if new.
    ///
    /// # Panics
    ///
    /// Panics past the capacity given to [`KeyTable::reset`].
    fn insert(&mut self, key: &[u64]) -> usize {
        let s = self.slot(key);
        if self.slots[s] == 0 {
            assert!(2 * self.len < self.slots.len(), "key table full");
            self.keys.extend_from_slice(key);
            self.len += 1;
            self.slots[s] = u32::try_from(self.len).expect("under 2^32 keys");
        }
        self.slots[s] as usize - 1
    }
}

/// Calls `f` with each lane whose bit is set in `word`, word `w` of a
/// row, in lane order.
#[inline]
fn for_each_lane(word: u64, w: usize, mut f: impl FnMut(usize)) {
    let mut rest = word;
    while rest != 0 {
        f(w * 64 + rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
}

/// Packs every lane's bits on `qubits` into `keys`, `⌈qubits / 64⌉`
/// words per lane: `qubits[i]` lands in word `i / 64` at bit `i % 64`,
/// or at bit `63 − i % 64` when `msb_first`. Only the row words where
/// `wanted` has a lane are packed; the keys of the other lanes are
/// unspecified. The rows go 64 at a time through a bit-matrix transpose.
fn pack_keys(
    lanes: LaneBlock<'_>,
    qubits: &[Qubit],
    msb_first: bool,
    wanted: &[u64],
    keys: &mut Vec<u64>,
) {
    let stride = qubits.len().div_ceil(64);
    keys.clear();
    keys.resize(wanted.len() * 64 * stride, 0);
    for (at, block) in qubits.chunks(64).enumerate() {
        for (w, _) in wanted.iter().enumerate().filter(|(_, &lanes)| lanes != 0) {
            let mut m = [0u64; 64];
            for (i, &q) in block.iter().enumerate() {
                m[if msb_first { 63 - i } else { i }] = lanes.row(q)[w];
            }
            transpose64(&mut m);
            for (c, &word) in m.iter().enumerate() {
                keys[(w * 64 + c) * stride + at] = word;
            }
        }
    }
}

/// Transposes a 64 × 64 bit matrix in place: bit `c` of `m[r]` moves to
/// bit `r` of `m[c]`. Each round swaps the off-diagonal `j × j` blocks
/// of every `2j × 2j` block, for `j` = 32, 16, …, 1.
fn transpose64(m: &mut [u64; 64]) {
    let (mut j, mut mask) = (32, 0x0000_0000_FFFF_FFFFu64);
    while j != 0 {
        for base in (0..64).step_by(2 * j) {
            let (lo, hi) = m[base..base + 2 * j].split_at_mut(j);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = ((*a >> j) ^ *b) & mask;
                *a ^= t << j;
                *b ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, FaultPlan, Lanes, Pauli};
    use qram_circuit::Gate;

    fn qubits(range: std::ops::Range<u32>) -> Vec<Qubit> {
        range.map(Qubit).collect()
    }

    /// `amps` over the register `0..k` of an `n`-qubit state (path `v`
    /// holds `v` MSB-first, zero amplitudes dropped), with `X` on each of
    /// `set`: the ideal output of an empty circuit, constant on `k..n`.
    fn state(n: usize, k: u32, set: &[u32], amps: &[Amplitude]) -> PathState {
        let mut state = PathState::superposition_over(n, &qubits(0..k), amps);
        for &q in set {
            state.apply_x(Qubit(q));
        }
        state
    }

    /// A pass of `gates` under `plan` over `input`, left in the lanes.
    fn pass(gates: &[Gate], input: &PathState, plan: &FaultPlan) -> Lanes {
        let mut lanes = Lanes::default();
        lanes.load_paths(input);
        lanes.add_block_faults(0, plan);
        lanes.run(gates).unwrap();
        lanes
    }

    /// Reduces `lanes`, a pass over `input`, against `ideal` straight
    /// from the rows and on the pass read back into a state; both must
    /// give the same bits. Returns the sample.
    fn reduce_both(ideal: &PathState, keep: &[Qubit], input: &PathState, lanes: &Lanes) -> f64 {
        let mut out = PathState::zero_vector(input.num_qubits());
        lanes.block(0).store_paths(input, &mut out);
        let slab = ideal.reduced_fidelity(&out, keep);
        let reference = KeptReference::new(ideal, keep);
        let mut reduction = LaneReduction::default();
        reduction.sweep(&reference, lanes, 1);
        let got = reduction.fidelity(&reference, lanes, 0, input.amplitudes());
        assert_eq!(
            got.to_bits(),
            slab.to_bits(),
            "lanes {got:e}, slab {slab:e}"
        );
        // A second shot through the same scratch gives the same bits.
        reduction.sweep(&reference, lanes, 1);
        let again = reduction.fidelity(&reference, lanes, 0, input.amplitudes());
        assert_eq!(again.to_bits(), slab.to_bits(), "reused scratch");
        got
    }

    fn amps(parts: &[(f64, f64)]) -> Vec<Amplitude> {
        parts
            .iter()
            .map(|&(re, im)| Amplitude::new(re, im))
            .collect()
    }

    #[test]
    fn transpose64_moves_every_bit() {
        let mut m = [0u64; 64];
        for (r, word) in m.iter_mut().enumerate() {
            *word = (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let before = m;
        transpose64(&mut m);
        for (r, row) in before.iter().enumerate() {
            for (c, column) in m.iter().enumerate() {
                assert_eq!(column >> r & 1, row >> c & 1, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn no_contributing_lane_sums_to_negative_zero() {
        // Paths 00 and 11 on the kept pair; X on qubit 0 turns them into
        // 10 and 01, which the ideal lacks, so no group forms and the
        // empty f64 sum is −0.0, not +0.0.
        let ideal = state(
            3,
            2,
            &[2],
            &amps(&[(0.6, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.8)]),
        );
        let keep = qubits(0..2);
        let plan: FaultPlan = [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect();
        let f = reduce_both(&ideal, &keep, &ideal, &pass(&[], &ideal, &plan));
        assert_eq!(f.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn the_clean_group_sorts_between_dirty_groups() {
        // The constant rest is q3 = 0, q4 = 1: key 0b10. Dirty lanes take
        // keys 0b00 (three lanes), 0b01 and 0b11, so the clean group sums
        // third of four. The amplitudes make every other placement, and
        // any other order within a group, change the sum's bits.
        let parts = [
            (1.3, 1.3),
            (1e-8, 0.5),
            (-0.25, 1.3),
            (1.3, 2e-8),
            (0.3, 0.5),
            (2e-8, 0.7),
            (1.3, 1.3),
            (0.5, 0.9),
        ];
        let input = state(5, 3, &[4], &amps(&parts));
        let mut lanes = pass(&[], &input, &FaultPlan::new());
        for (lane, q3, q4) in [
            (1, 0, 0),
            (2, 1, 0),
            (3, 1, 1),
            (4, 0, 0),
            (6, 0, 0),
            (7, 1, 1),
        ] {
            lanes.set(lane, Qubit(3), q3 == 1);
            lanes.set(lane, Qubit(4), q4 == 1);
        }
        reduce_both(&input, &qubits(0..3), &input, &lanes);
    }

    #[test]
    fn a_lane_with_another_paths_kept_bits_overlaps_that_path() {
        // Lane 0 takes path 3's kept bits, so it overlaps path 3's ideal
        // amplitude: once in the clean group, once in a dirty one.
        let input = state(
            4,
            2,
            &[],
            &amps(&[(0.5, -0.1), (0.3, 0.2), (-0.7, 0.0), (0.1, 0.4)]),
        );
        let keep = qubits(0..2);
        let mut lanes = pass(&[], &input, &FaultPlan::new());
        lanes.set(0, Qubit(0), true);
        lanes.set(0, Qubit(1), true);
        let clean = reduce_both(&input, &keep, &input, &lanes);
        lanes.set(0, Qubit(3), true);
        let dirty = reduce_both(&input, &keep, &input, &lanes);
        assert_ne!(clean.to_bits(), dirty.to_bits());
    }

    #[test]
    fn a_kept_bits_miss_drops_the_lane() {
        // The ideal has no path with kept bits 10; lane 1 (kept bits 01)
        // moves there and drops out, dirty or clean.
        let input = state(
            3,
            2,
            &[],
            &amps(&[(0.5, 0.5), (0.5, -0.5), (0.0, 0.0), (0.3, 0.1)]),
        );
        let keep = qubits(0..2);
        let mut lanes = pass(&[], &input, &FaultPlan::new());
        lanes.set(1, Qubit(0), true);
        lanes.set(1, Qubit(1), false);
        reduce_both(&input, &keep, &input, &lanes);
        lanes.set(1, Qubit(2), true);
        reduce_both(&input, &keep, &input, &lanes);
    }

    #[test]
    fn wide_passes_mask_their_padding_lanes() {
        // 65, 130 and 300 paths (two, three and five words per row) over
        // 9 kept qubits. The X gates flip every bit of their rows, the
        // padding lanes' too, and the faults move some lanes to other
        // kept bits, some off the ideal's and some to dirty rest bits.
        let gates = [
            Gate::x(Qubit(10)),
            Gate::x(Qubit(2)),
            Gate::cx(Qubit(0), Qubit(11)),
            Gate::x(Qubit(2)),
            Gate::cx(Qubit(0), Qubit(11)),
        ];
        let keep = qubits(0..9);
        for paths in [65usize, 130, 300] {
            let parts: Vec<(f64, f64)> = (0..paths)
                .map(|v| (0.1 + v as f64 * 0.013, if v % 3 == 0 { -0.0 } else { 0.07 }))
                .collect();
            let input = state(13, 9, &[12], &amps(&parts));
            let mut ideal = input.clone();
            crate::run(&gates, &mut ideal).unwrap();
            for plan in [
                vec![],
                vec![Fault::new(1, Qubit(10), Pauli::X)],
                vec![
                    Fault::new(2, Qubit(0), Pauli::Y),
                    Fault::new(4, Qubit(3), Pauli::X),
                ],
                vec![
                    Fault::new(0, Qubit(8), Pauli::X),
                    Fault::new(3, Qubit(11), Pauli::X),
                    Fault::new(5, Qubit(12), Pauli::Z),
                ],
            ] {
                let plan: FaultPlan = plan.into_iter().collect();
                reduce_both(&ideal, &keep, &input, &pass(&gates, &input, &plan));
            }
        }
    }

    /// A pass of several blocks, swept once, reduces each block as a pass
    /// of that block's shot alone: each block's own and clean lanes and
    /// active rows are its own, padding lanes included.
    #[test]
    fn each_block_of_a_swept_pass_reduces_as_its_own_pass() {
        let gates = [
            Gate::x(Qubit(10)),
            Gate::cx(Qubit(0), Qubit(11)),
            Gate::x(Qubit(2)),
            Gate::cx(Qubit(0), Qubit(11)),
        ];
        let keep = qubits(0..9);
        let plans: Vec<FaultPlan> = [
            vec![Fault::new(1, Qubit(10), Pauli::X)],
            vec![],
            vec![
                Fault::new(2, Qubit(0), Pauli::Y),
                Fault::new(4, Qubit(3), Pauli::X),
            ],
            vec![
                Fault::new(0, Qubit(8), Pauli::X),
                Fault::new(3, Qubit(11), Pauli::X),
                Fault::new(4, Qubit(12), Pauli::Z),
            ],
        ]
        .into_iter()
        .map(FaultPlan::from_iter)
        .collect();
        for paths in [65usize, 130] {
            let parts: Vec<(f64, f64)> = (0..paths)
                .map(|v| (0.1 + v as f64 * 0.013, if v % 3 == 0 { -0.0 } else { 0.07 }))
                .collect();
            let input = state(13, 9, &[12], &amps(&parts));
            let mut ideal = input.clone();
            crate::run(&gates, &mut ideal).unwrap();
            let reference = KeptReference::new(&ideal, &keep);
            let mut image = Lanes::default();
            image.load_paths(&input);
            let mut lanes = Lanes::default();
            lanes.load_blocks(&image, plans.len());
            for (block, plan) in plans.iter().enumerate() {
                lanes.add_block_faults(block, plan);
            }
            lanes.run(&gates).unwrap();
            let mut reduction = LaneReduction::default();
            reduction.sweep(&reference, &lanes, plans.len());
            for (block, plan) in plans.iter().enumerate() {
                let want = reduce_both(&ideal, &keep, &input, &pass(&gates, &input, plan));
                let got = reduction.fidelity(&reference, &lanes, block, input.amplitudes());
                assert_eq!(got.to_bits(), want.to_bits(), "paths={paths} block={block}");
            }
        }
    }

    #[test]
    fn signed_zero_amplitudes_match_the_slab() {
        // Signed zeros in the input, and Y and Z phases that move them
        // between parts; the reference stores ZERO + amp, so its −0.0
        // parts read +0.0.
        let parts = [
            (-0.0, 0.5),
            (0.5, -0.0),
            (-0.0, -0.0),
            (-0.5, 0.0),
            (0.0, -0.5),
            (0.25, 0.25),
        ];
        let input = state(4, 3, &[], &amps(&parts));
        let keep = qubits(0..3);
        let plans = [
            vec![Fault::new(0, Qubit(0), Pauli::Y)],
            vec![
                Fault::new(0, Qubit(1), Pauli::Z),
                Fault::new(0, Qubit(3), Pauli::Y),
            ],
            vec![
                Fault::new(0, Qubit(2), Pauli::Y),
                Fault::new(0, Qubit(2), Pauli::X),
            ],
        ];
        for plan in plans {
            let plan: FaultPlan = plan.into_iter().collect();
            reduce_both(&input, &keep, &input, &pass(&[], &input, &plan));
        }
    }

    #[test]
    fn a_phase_only_pass_reads_no_row_and_agrees() {
        let parts = [(0.3, -1.1), (0.5, 0.0), (-0.25, 0.3), (-0.0, 0.5)];
        let input = state(5, 2, &[3], &amps(&parts));
        let keep = qubits(0..2);
        let plan: FaultPlan = [
            Fault::new(0, Qubit(0), Pauli::Z),
            Fault::new(0, Qubit(3), Pauli::Z),
        ]
        .into_iter()
        .collect();
        let lanes = pass(&[], &input, &plan);
        let full = reduce_both(&input, &keep, &input, &lanes);
        let short = LaneReduction::default().phase_fidelity(
            &KeptReference::new(&input, &keep),
            lanes.block(0),
            input.amplitudes(),
        );
        assert_eq!(short.to_bits(), full.to_bits());
    }
}
