//! A Count-Min sketch with signed counters — the alternative vague part of
//! the paper's Choice 2 (§III-D) and Fig. 12 ablation.
//!
//! CM sketches (Cormode & Muthukrishnan 2005) were designed for
//! *non-negative* frequencies, where taking the minimum over rows gives a
//! one-sided overestimate. Qweights are signed, so the one-sided guarantee
//! is lost when this structure is "forced into service" — exactly the
//! degradation the paper observes ("using CMS does not improve the
//! accuracy"). We keep the classic min-over-rows estimator so the ablation
//! measures the real design the paper compared against.

use crate::counter::SketchCounter;
use crate::snapshot::{
    read_seeds_and_cells, write_seeds_and_cells, SketchShape, SketchState, SKETCH_KIND_CMS,
};
use crate::traits::{digest_seeds_and_cells, WeightSketch};
use qf_hash::wire::{ByteReader, ByteWriter, WireError};
use qf_hash::{HashFamily, RowLanes, StreamKey};

/// A Count-Min sketch over cells of type `C` with signed updates.
#[derive(Debug)]
pub struct CountMinSketch<C: SketchCounter = i32> {
    cells: Vec<C>,
    family: HashFamily,
    rows: usize,
    width: usize,
}

// By hand so that `clone_from` copies into the existing grid: a checkpoint
// refreshed this way allocates nothing.
impl<C: SketchCounter> Clone for CountMinSketch<C> {
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

impl<C: SketchCounter> CountMinSketch<C> {
    /// Create a sketch with `rows` arrays of `width` counters.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `width == 0`.
    pub fn new(rows: usize, width: usize, seed: u64) -> Self {
        assert!(rows > 0, "rows must be positive");
        assert!(width > 0, "width must be positive");
        Self {
            cells: vec![C::zero(); rows * width],
            family: HashFamily::new(rows, width, seed),
            rows,
            width,
        }
    }

    /// Build the sketch that fits a byte budget at the given depth.
    pub fn with_memory_budget(rows: usize, bytes: usize, seed: u64) -> Self {
        let width = (bytes / (rows * C::BYTES)).max(1);
        Self::new(rows, width, seed)
    }

    /// Number of rows `d`.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `w`.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Direct read of the raw counter grid (tests and diagnostics).
    pub fn raw_cells(&self) -> &[C] {
        &self.cells
    }

    /// Saturating-add `w` into one cell and return the post-add value —
    /// the shared kernel of the fused one-pass entry points.
    #[inline(always)]
    fn bump_cell(&mut self, row: usize, col: usize, w: i64) -> i64 {
        let cell = &mut self.cells[row * self.width + col];
        *cell = cell.saturating_add_i64(w);
        cell.to_i64()
    }
}

impl<C: SketchCounter> crate::invariants::CheckInvariants for CountMinSketch<C> {
    fn check_invariants(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        const S: &str = "CountMinSketch";
        if self.rows == 0 {
            return Err(V::new(S, "rows is zero"));
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
        if self.family.rows() != self.rows || self.family.width() != self.width {
            return Err(V::new(
                S,
                format!(
                    "hash family is {}x{}, grid is {}x{}",
                    self.family.rows(),
                    self.family.width(),
                    self.rows,
                    self.width
                ),
            ));
        }
        Ok(())
    }
}

impl<C: SketchCounter> SketchState for CountMinSketch<C> {
    fn shape(&self) -> SketchShape {
        SketchShape {
            kind: SKETCH_KIND_CMS,
            counter_bytes: C::BYTES as u8,
            rows: self.rows as u64,
            width: self.width as u64,
        }
    }

    fn write_state(&self, w: &mut ByteWriter) {
        write_seeds_and_cells(self.family.seeds(), &self.cells, w);
    }

    fn from_state(shape: SketchShape, r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        if shape.kind != SKETCH_KIND_CMS {
            return Err(WireError::Invalid("sketch kind mismatch (want CMS)"));
        }
        if usize::from(shape.counter_bytes) != C::BYTES {
            return Err(WireError::Invalid("sketch counter width mismatch"));
        }
        let (rows, width) = shape.checked_dims()?;
        let (family, cells) = read_seeds_and_cells(rows, width, r)?;
        Ok(Self {
            cells,
            family,
            rows,
            width,
        })
    }
}

impl<C: SketchCounter> WeightSketch for CountMinSketch<C> {
    #[inline]
    fn add<K: StreamKey + ?Sized>(&mut self, key: &K, delta: i64) {
        for row in 0..self.rows {
            let col = self.family.column(row, key);
            let cell = &mut self.cells[row * self.width + col];
            *cell = cell.saturating_add_i64(delta);
        }
    }

    #[inline]
    fn estimate<K: StreamKey + ?Sized>(&self, key: &K) -> i64 {
        let mut min = i64::MAX;
        for row in 0..self.rows {
            let col = self.family.column(row, key);
            let v = self.cells[row * self.width + col].to_i64();
            if v < min {
                min = v;
            }
        }
        min
    }

    #[inline]
    fn remove_estimate<K: StreamKey + ?Sized>(&mut self, key: &K) -> i64 {
        let est = self.estimate(key);
        if est != 0 {
            for row in 0..self.rows {
                let col = self.family.column(row, key);
                let cell = &mut self.cells[row * self.width + col];
                *cell = cell.saturating_add_i64(-est);
            }
        }
        est
    }

    #[inline]
    fn prepare_lanes<K: StreamKey + ?Sized>(&self, key: &K) -> RowLanes {
        // CMS ignores the sign half of each lane; the column half is the
        // same multiply-shift `column` computes, so lanes are shared with CS.
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
        // One pass: bump each row's cell and fold the post-add value into
        // the running minimum. Rows occupy disjoint grid slices, so this is
        // bit-identical to a full `add` followed by a full `estimate`.
        if self.rows == 3 {
            // Paper-default depth: constant trip count, stays in registers.
            let v0 = self.bump_cell(0, lanes.col(0), delta);
            let v1 = self.bump_cell(1, lanes.col(1), delta);
            let v2 = self.bump_cell(2, lanes.col(2), delta);
            return v0.min(v1).min(v2);
        }
        let mut min = i64::MAX;
        for row in 0..self.rows {
            let v = self.bump_cell(row, lanes.col(row), delta);
            if v < min {
                min = v;
            }
        }
        min
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
            for row in 0..self.rows {
                let col = lanes.col(row);
                let cell = &mut self.cells[row * self.width + col];
                *cell = cell.saturating_add_i64(-estimate);
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
        "CMS"
    }

    fn state_digest(&self, seed: u64) -> u64 {
        digest_seeds_and_cells(self.family.seeds(), &self.cells, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_key_exact() {
        let mut cms = CountMinSketch::<i64>::new(3, 64, 1);
        cms.add(&9u64, 25);
        cms.add(&9u64, -5);
        assert_eq!(cms.estimate(&9u64), 20);
    }

    #[test]
    fn positive_load_overestimates() {
        // The classical CM property: with only positive weights, the min
        // estimate is ≥ the true value.
        let mut cms = CountMinSketch::<i64>::new(2, 16, 2);
        cms.add(&0u64, 10);
        for k in 1u64..100 {
            cms.add(&k, 3);
        }
        assert!(cms.estimate(&0u64) >= 10);
    }

    #[test]
    fn negative_load_breaks_one_sidedness() {
        // With negative collision mass the min estimator can *under*estimate
        // — the weakness the paper's Fig. 12 exposes.
        let mut cms = CountMinSketch::<i64>::new(1, 2, 3);
        cms.add(&0u64, 10);
        // Find another key colliding with key 0 in the single row.
        let target = {
            let fam = qf_hash::HashFamily::new(1, 2, 3);
            let c0 = fam.column(0, &0u64);
            (1u64..100).find(|k| fam.column(0, k) == c0).unwrap()
        };
        cms.add(&target, -7);
        assert_eq!(cms.estimate(&0u64), 3);
    }

    #[test]
    fn remove_estimate_then_zero() {
        let mut cms = CountMinSketch::<i32>::new(4, 128, 4);
        cms.add(&77u64, 55);
        assert_eq!(cms.remove_estimate(&77u64), 55);
        assert_eq!(cms.estimate(&77u64), 0);
    }

    #[test]
    fn clear_and_memory() {
        let mut cms = CountMinSketch::<i8>::new(2, 256, 5);
        cms.add(&1u64, 3);
        cms.clear();
        assert_eq!(cms.estimate(&1u64), 0);
        assert_eq!(cms.memory_bytes(), 2 * 256);
        assert_eq!(cms.kind_name(), "CMS");
    }

    #[test]
    fn add_and_estimate_matches_separate_ops() {
        let mut fused = CountMinSketch::<i16>::new(4, 48, 31);
        let mut split = CountMinSketch::<i16>::new(4, 48, 31);
        for step in 0u64..5_000 {
            let key = step % 83;
            let delta = (step as i64 % 11) - 5;
            let lanes = fused.prepare_lanes(&key);
            let got = fused.add_and_estimate(&key, &lanes, delta);
            split.add(&key, delta);
            assert_eq!(got, split.estimate(&key), "step {step}");
            assert_eq!(fused.raw_cells(), split.raw_cells(), "step {step}");
        }
    }

    #[test]
    fn fetch_remove_matches_remove_estimate() {
        let mut fused = CountMinSketch::<i64>::new(3, 64, 32);
        let mut split = CountMinSketch::<i64>::new(3, 64, 32);
        for k in 0u64..120 {
            fused.add(&k, k as i64 % 17);
            split.add(&k, k as i64 % 17);
        }
        for k in 0u64..120 {
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
    fn deep_sketch_falls_back_when_lanes_unavailable() {
        // Depth beyond qf_hash::MAX_LANES: prepare_lanes yields the empty
        // marker and the fused entry points serve from the key instead.
        let mut cms = CountMinSketch::<i64>::new(40, 8, 33);
        let lanes = cms.prepare_lanes(&9u64);
        assert!(lanes.is_empty());
        assert_eq!(cms.add_and_estimate(&9u64, &lanes, 6), 6);
        assert_eq!(cms.fetch_remove(&9u64, &lanes, 6), 6);
        assert_eq!(cms.estimate(&9u64), 0);
    }

    #[test]
    fn budget_constructor_fits() {
        let cms = CountMinSketch::<i32>::with_memory_budget(3, 12_000, 6);
        assert!(cms.memory_bytes() <= 12_000);
        assert_eq!(cms.rows(), 3);
        assert_eq!(cms.width(), 1000);
    }

    proptest::proptest! {
        #[test]
        fn prop_min_never_exceeds_any_row(adds in proptest::collection::vec((0u64..50, -20i64..20), 1..60)) {
            let mut cms = CountMinSketch::<i64>::new(3, 64, 7);
            for &(k, w) in &adds {
                cms.add(&k, w);
            }
            // The estimate is the min over rows: for a key that received
            // only non-negative total weight it can never exceed the
            // total weight inserted overall.
            let total_pos: i64 = adds.iter().map(|&(_, w)| w.max(0)).sum();
            for k in 0u64..50 {
                let est = cms.estimate(&k);
                proptest::prop_assert!(est <= total_pos, "est {} > total {}", est, total_pos);
            }
        }
    }
}
