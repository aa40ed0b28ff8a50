//! The Count sketch (Charikar, Chen & Farach-Colton 2002) with signed,
//! weighted updates — the paper's vague part (§II-C, §III-A).
//!
//! Layout: `d` rows × `w` columns of a [`SketchCounter`] cell type. On
//! update of key `x` with weight `Δ`, every row adds `S_i(x)·Δ` to
//! `C_i[h_i(x)]`; on query, the estimate is the median over rows of
//! `S_i(x)·C_i[h_i(x)]` (Algorithm 1). The sign hashes make collisions
//! cancel in expectation, which is what keeps narrow counters from
//! overflowing even under heavy key loads (§III-B Technical Details) and
//! makes the estimator unbiased (Theorem 1).

use crate::counter::SketchCounter;
use crate::snapshot::{
    read_seeds_and_cells, write_seeds_and_cells, SketchShape, SketchState, SKETCH_KIND_CS,
};
use crate::traits::{digest_seeds_and_cells, median_in_place, WeightSketch};
use qf_hash::wire::{ByteReader, ByteWriter, WireError};
use qf_hash::{HashFamily, RowLanes, StreamKey};

/// Maximum supported depth. Figure 9 sweeps `d` up to 20; 32 leaves room.
pub const MAX_DEPTH: usize = 32;

/// A Count sketch over cells of type `C`.
#[derive(Debug)]
pub struct CountSketch<C: SketchCounter = i32> {
    cells: Vec<C>,
    family: HashFamily,
    rows: usize,
    width: usize,
}

// By hand so that `clone_from` copies into the existing grid: a checkpoint
// refreshed this way allocates nothing.
impl<C: SketchCounter> Clone for CountSketch<C> {
    fn clone(&self) -> Self {
        Self {
            cells: self.cells.clone(),
            family: self.family.clone(),
            rows: self.rows,
            width: self.width,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cells.clone_from(&source.cells);
        self.family.clone_from(&source.family);
        self.rows = source.rows;
        self.width = source.width;
    }
}

impl<C: SketchCounter> CountSketch<C> {
    /// Create a sketch with `rows` arrays of `width` counters, seeded.
    ///
    /// # Panics
    /// Panics if `rows == 0`, `rows > MAX_DEPTH`, or `width == 0`.
    pub fn new(rows: usize, width: usize, seed: u64) -> Self {
        assert!(
            rows > 0 && rows <= MAX_DEPTH,
            "rows must be in 1..={MAX_DEPTH}"
        );
        assert!(width > 0, "width must be positive");
        Self {
            cells: vec![C::zero(); rows * width],
            family: HashFamily::new(rows, width, seed),
            rows,
            width,
        }
    }

    /// Build the sketch that fits a byte budget at the given depth, with at
    /// least one column per row.
    pub fn with_memory_budget(rows: usize, bytes: usize, seed: u64) -> Self {
        let width = (bytes / (rows * C::BYTES)).max(1);
        Self::new(rows, width, seed)
    }

    /// Number of rows `d`.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `w` per row.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn cell(&self, row: usize, col: usize) -> C {
        self.cells[row * self.width + col]
    }

    #[inline(always)]
    fn cell_mut(&mut self, row: usize, col: usize) -> &mut C {
        &mut self.cells[row * self.width + col]
    }

    /// Saturating-add `w` into one cell and return the post-add value —
    /// the shared kernel of the fused one-pass entry points.
    #[inline(always)]
    fn bump_cell(&mut self, row: usize, col: usize, w: i64) -> i64 {
        let cell = &mut self.cells[row * self.width + col];
        #[cfg(feature = "telemetry")]
        let before = cell.to_i64();
        *cell = cell.saturating_add_i64(w);
        // A cell that clamped instead of absorbing the full delta is a
        // saturation event (§III-B's overflow-reversal guard engaging).
        // Detection is telemetry's per-insert cost (PR 2's ≤2% bar); the
        // trace emit rides inside the branch telemetry already takes, so
        // the `trace` feature alone adds nothing to this loop.
        #[cfg(feature = "telemetry")]
        if before.checked_add(w) != Some(cell.to_i64()) {
            crate::telemetry::saturation_event();
            crate::trace::saturation(row, col);
        }
        cell.to_i64()
    }

    /// Direct read of the raw counter grid (tests and diagnostics).
    pub fn raw_cells(&self) -> &[C] {
        &self.cells
    }

    /// Sum of absolute counter values — a cheap saturation diagnostic used
    /// by the experiment harness.
    pub fn l1_mass(&self) -> u64 {
        self.cells.iter().map(|c| c.to_i64().unsigned_abs()).sum()
    }

    /// Fraction of cells pinned at the counter type's min/max bound.
    pub fn saturation_ratio(&self) -> f64 {
        let max = C::zero().saturating_add_i64(i64::MAX).to_i64();
        let min = C::zero().saturating_add_i64(i64::MIN).to_i64();
        let saturated = self
            .cells
            .iter()
            .filter(|c| {
                let v = c.to_i64();
                v == max || v == min
            })
            .count();
        saturated as f64 / self.cells.len() as f64
    }
}

impl<C: SketchCounter> crate::invariants::CheckInvariants for CountSketch<C> {
    fn check_invariants(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        const S: &str = "CountSketch";
        if self.rows == 0 || self.rows > MAX_DEPTH {
            return Err(V::new(
                S,
                format!("rows {} outside 1..={MAX_DEPTH}", self.rows),
            ));
        }
        if self.width == 0 {
            return Err(V::new(S, "width is zero"));
        }
        if self.cells.len() != self.rows * self.width {
            return Err(V::new(
                S,
                format!(
                    "cell grid holds {} cells for {}x{} dims",
                    self.cells.len(),
                    self.rows,
                    self.width
                ),
            ));
        }
        if self.family.rows() != self.rows {
            return Err(V::new(
                S,
                format!(
                    "hash family has {} rows, grid has {}",
                    self.family.rows(),
                    self.rows
                ),
            ));
        }
        if self.family.width() != self.width {
            return Err(V::new(
                S,
                format!(
                    "hash family maps to width {}, grid has {}",
                    self.family.width(),
                    self.width
                ),
            ));
        }
        if self.family.seeds().len() != self.rows {
            return Err(V::new(
                S,
                format!(
                    "{} row seeds for {} rows",
                    self.family.seeds().len(),
                    self.rows
                ),
            ));
        }
        Ok(())
    }
}

impl<C: SketchCounter> SketchState for CountSketch<C> {
    fn shape(&self) -> SketchShape {
        SketchShape {
            kind: SKETCH_KIND_CS,
            counter_bytes: C::BYTES as u8,
            rows: self.rows as u64,
            width: self.width as u64,
        }
    }

    fn write_state(&self, w: &mut ByteWriter) {
        write_seeds_and_cells(self.family.seeds(), &self.cells, w);
    }

    fn from_state(shape: SketchShape, r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        if shape.kind != SKETCH_KIND_CS {
            return Err(WireError::Invalid("sketch kind mismatch (want CS)"));
        }
        if usize::from(shape.counter_bytes) != C::BYTES {
            return Err(WireError::Invalid("sketch counter width mismatch"));
        }
        let (rows, width) = shape.checked_dims()?;
        if rows > MAX_DEPTH {
            return Err(WireError::Invalid("sketch depth out of range"));
        }
        let (family, cells) = read_seeds_and_cells(rows, width, r)?;
        Ok(Self {
            cells,
            family,
            rows,
            width,
        })
    }
}

impl<C: SketchCounter> WeightSketch for CountSketch<C> {
    #[inline]
    fn add<K: StreamKey + ?Sized>(&mut self, key: &K, delta: i64) {
        for row in 0..self.rows {
            let (col, sign) = self.family.column_and_sign(row, key);
            let cell = self.cell_mut(row, col);
            let w = sign * delta;
            #[cfg(feature = "telemetry")]
            let before = cell.to_i64();
            *cell = cell.saturating_add_i64(w);
            // A cell that clamped instead of absorbing the full delta is a
            // saturation event (§III-B's overflow-reversal guard engaging).
            #[cfg(feature = "telemetry")]
            if before.checked_add(w) != Some(cell.to_i64()) {
                crate::telemetry::saturation_event();
                crate::trace::saturation(row, col);
            }
        }
    }

    #[inline]
    fn estimate<K: StreamKey + ?Sized>(&self, key: &K) -> i64 {
        let mut buf = [0i64; MAX_DEPTH];
        for (row, slot) in buf.iter_mut().enumerate().take(self.rows) {
            let (col, sign) = self.family.column_and_sign(row, key);
            *slot = sign * self.cell(row, col).to_i64();
        }
        median_in_place(&mut buf[..self.rows])
    }

    #[inline]
    fn remove_estimate<K: StreamKey + ?Sized>(&mut self, key: &K) -> i64 {
        let est = self.estimate(key);
        if est != 0 {
            for row in 0..self.rows {
                let (col, sign) = self.family.column_and_sign(row, key);
                let cell = self.cell_mut(row, col);
                *cell = cell.saturating_add_i64(-sign * est);
            }
        }
        est
    }

    #[inline]
    fn prepare_lanes<K: StreamKey + ?Sized>(&self, key: &K) -> RowLanes {
        self.family.lanes(key)
    }

    #[inline]
    fn add_and_estimate<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        lanes: &RowLanes,
        delta: i64,
    ) -> i64 {
        if lanes.len() != self.rows {
            self.add(key, delta);
            return self.estimate(key);
        }
        // One pass: each row's cell is bumped and then read back. Rows live
        // in disjoint slices of the grid, and within a row the read hits the
        // very cell just written, so the result is bit-identical to a full
        // `add` followed by a full `estimate` — at d row hashes saved.
        if self.rows == 3 {
            // The paper-default depth stays entirely in registers: no
            // median buffer to zero, no selection call — median3 returns
            // the same middle value median_in_place would.
            let (s0, s1, s2) = (lanes.sign(0), lanes.sign(1), lanes.sign(2));
            let e0 = s0 * self.bump_cell(0, lanes.col(0), s0 * delta);
            let e1 = s1 * self.bump_cell(1, lanes.col(1), s1 * delta);
            let e2 = s2 * self.bump_cell(2, lanes.col(2), s2 * delta);
            return crate::traits::median3(e0, e1, e2);
        }
        // Lanes exist, so rows ≤ MAX_LANES — the buffer is sized for the
        // hot path's depth ceiling, not the full MAX_DEPTH.
        let mut buf = [0i64; qf_hash::MAX_LANES];
        for (row, slot) in buf.iter_mut().enumerate().take(self.rows) {
            let (col, sign) = (lanes.col(row), lanes.sign(row));
            *slot = sign * self.bump_cell(row, col, sign * delta);
        }
        median_in_place(&mut buf[..self.rows])
    }

    #[inline]
    fn fetch_remove<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        lanes: &RowLanes,
        estimate: i64,
    ) -> i64 {
        if lanes.len() != self.rows {
            return self.remove_estimate(key);
        }
        if estimate != 0 {
            if self.rows == 3 {
                // Constant trip count unrolls; same stores as the loop below.
                for row in 0..3 {
                    let (col, sign) = (lanes.col(row), lanes.sign(row));
                    let cell = self.cell_mut(row, col);
                    *cell = cell.saturating_add_i64(-sign * estimate);
                }
            } else {
                for row in 0..self.rows {
                    let (col, sign) = (lanes.col(row), lanes.sign(row));
                    let cell = self.cell_mut(row, col);
                    *cell = cell.saturating_add_i64(-sign * estimate);
                }
            }
        }
        estimate
    }

    fn clear(&mut self) {
        self.cells.fill(C::zero());
    }

    fn memory_bytes(&self) -> usize {
        self.cells.len() * C::BYTES
    }

    fn kind_name(&self) -> &'static str {
        "CS"
    }

    fn state_digest(&self, seed: u64) -> u64 {
        digest_seeds_and_cells(self.family.seeds(), &self.cells, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_key_exact_when_alone() {
        let mut cs = CountSketch::<i64>::new(3, 64, 1);
        cs.add(&7u64, 10);
        cs.add(&7u64, -3);
        assert_eq!(cs.estimate(&7u64), 7);
    }

    #[test]
    fn absent_key_estimates_zero_on_empty_sketch() {
        let cs = CountSketch::<i32>::new(3, 64, 2);
        assert_eq!(cs.estimate(&123u64), 0);
    }

    #[test]
    fn remove_estimate_zeroes_lone_key() {
        let mut cs = CountSketch::<i64>::new(5, 128, 3);
        cs.add(&42u64, 99);
        let removed = cs.remove_estimate(&42u64);
        assert_eq!(removed, 99);
        assert_eq!(cs.estimate(&42u64), 0);
        assert_eq!(cs.l1_mass(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cs = CountSketch::<i16>::new(3, 32, 4);
        for k in 0u64..100 {
            cs.add(&k, 5);
        }
        cs.clear();
        assert_eq!(cs.l1_mass(), 0);
    }

    #[test]
    fn memory_accounting() {
        let cs = CountSketch::<i16>::new(3, 1000, 5);
        assert_eq!(cs.memory_bytes(), 3 * 1000 * 2);
        let cs = CountSketch::<i8>::with_memory_budget(4, 4096, 6);
        assert!(cs.memory_bytes() <= 4096);
        assert!(cs.memory_bytes() >= 4096 - 4); // within one column per row
    }

    #[test]
    fn unbiased_over_random_collisions() {
        // Theorem 1 (unbiasedness): average the estimate of one key across
        // many independently-seeded sketches under heavy collision load.
        let truth = 50i64;
        let trials = 300;
        let mut sum = 0i64;
        for seed in 0..trials {
            let mut cs = CountSketch::<i64>::new(1, 16, seed);
            cs.add(&0u64, truth);
            for k in 1u64..200 {
                cs.add(&k, 7);
            }
            sum += cs.estimate(&0u64);
        }
        let mean = sum as f64 / trials as f64;
        // Collision noise per trial is large but the mean converges to 50.
        assert!(
            (mean - truth as f64).abs() < 12.0,
            "mean {mean} should approximate {truth}"
        );
    }

    #[test]
    fn median_suppresses_collision_outliers() {
        // With d = 5 rows, one collided row cannot corrupt the median.
        let mut cs = CountSketch::<i64>::new(5, 4096, 7);
        cs.add(&1u64, 100);
        for k in 2u64..50 {
            cs.add(&k, 1000);
        }
        let est = cs.estimate(&1u64);
        assert!((est - 100).abs() < 1000, "estimate {est}");
    }

    #[test]
    fn narrow_counters_saturate_but_do_not_wrap() {
        let mut cs = CountSketch::<i8>::new(1, 1, 8);
        // Everything lands in the single cell; drive it far past i8::MAX.
        // Sign of key 0 under this seed is fixed; push in its positive
        // direction and ensure the estimate is pinned, never negative flip.
        let sign_probe = {
            cs.add(&0u64, 1);
            let s = cs.estimate(&0u64).signum();
            cs.clear();
            s
        };
        for _ in 0..1000 {
            cs.add(&0u64, sign_probe);
        }
        let est = cs.estimate(&0u64);
        assert_eq!(est, sign_probe * 127);
        assert!(cs.saturation_ratio() > 0.99);
    }

    #[test]
    fn deletion_matches_algorithm_one() {
        // After report+delete, re-inserting accumulates from zero again.
        let mut cs = CountSketch::<i64>::new(3, 256, 9);
        cs.add(&5u64, 60);
        assert_eq!(cs.remove_estimate(&5u64), 60);
        cs.add(&5u64, 4);
        assert_eq!(cs.estimate(&5u64), 4);
    }

    #[test]
    #[should_panic(expected = "rows must be")]
    fn zero_rows_rejected() {
        let _ = CountSketch::<i32>::new(0, 8, 0);
    }

    #[test]
    fn add_and_estimate_matches_separate_ops() {
        // The fused one-pass update must be bit-identical to add + estimate
        // on an identically-seeded twin, across a colliding workload.
        let mut fused = CountSketch::<i8>::new(3, 32, 21);
        let mut split = CountSketch::<i8>::new(3, 32, 21);
        for step in 0u64..5_000 {
            let key = step % 97;
            let delta = (step as i64 % 9) - 4;
            let lanes = fused.prepare_lanes(&key);
            let got = fused.add_and_estimate(&key, &lanes, delta);
            split.add(&key, delta);
            let want = split.estimate(&key);
            assert_eq!(got, want, "step {step}");
            assert_eq!(fused.raw_cells(), split.raw_cells(), "step {step}");
        }
    }

    #[test]
    fn fetch_remove_matches_remove_estimate() {
        let mut fused = CountSketch::<i64>::new(5, 64, 22);
        let mut split = CountSketch::<i64>::new(5, 64, 22);
        for k in 0u64..200 {
            fused.add(&k, (k as i64 % 13) - 6);
            split.add(&k, (k as i64 % 13) - 6);
        }
        for k in 0u64..200 {
            let lanes = fused.prepare_lanes(&k);
            let est = fused.estimate(&k);
            assert_eq!(
                fused.fetch_remove(&k, &lanes, est),
                split.remove_estimate(&k)
            );
        }
        assert_eq!(fused.raw_cells(), split.raw_cells());
    }

    #[test]
    fn empty_lanes_fall_back_to_key_hashing() {
        let mut cs = CountSketch::<i64>::new(3, 64, 23);
        let got = cs.add_and_estimate(&5u64, &RowLanes::empty(), 12);
        assert_eq!(got, 12);
        assert_eq!(cs.fetch_remove(&5u64, &RowLanes::empty(), got), 12);
        assert_eq!(cs.estimate(&5u64), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_add_then_remove_restores_empty(keys in proptest::collection::vec(0u64..1000, 1..40)) {
            // Insert a batch, then remove each key's estimate in reverse;
            // an isolated single key sketch (wide) must return to zero mass.
            let mut cs = CountSketch::<i64>::new(3, 4096, 11);
            let k = keys[0];
            let mut total = 0i64;
            for (i, _) in keys.iter().enumerate() {
                let w = (i as i64 % 7) - 3;
                cs.add(&k, w);
                total += w;
            }
            proptest::prop_assert_eq!(cs.estimate(&k), total);
            cs.remove_estimate(&k);
            proptest::prop_assert_eq!(cs.estimate(&k), 0);
        }

        #[test]
        fn prop_estimates_exact_when_no_collisions(weights in proptest::collection::vec(-50i64..50, 1..20)) {
            // A huge width makes collisions vanishingly unlikely for a
            // handful of keys: estimates must be exact sums.
            let mut cs = CountSketch::<i64>::new(5, 1 << 16, 13);
            for (i, &w) in weights.iter().enumerate() {
                cs.add(&(i as u64), w);
            }
            for (i, &w) in weights.iter().enumerate() {
                proptest::prop_assert_eq!(cs.estimate(&(i as u64)), w);
            }
        }
    }
}
