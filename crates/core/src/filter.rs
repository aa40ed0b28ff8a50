//! The QuantileFilter (Algorithm 2): candidate part + vague part with
//! candidate election.

use crate::candidate::{CandidatePart, OfferOutcome};
use crate::criteria::Criteria;
use crate::error::QfError;
use crate::strategy::ElectionStrategy;
use crate::vague::{VagueKey, VaguePart};
use qf_hash::{mix64, HashedKey, SplitMix64, StreamKey};
use qf_sketch::{CountSketch, SplitWeight, StochasticRounder, WeightSketch};

/// Items per chunk of the two-pass [`QuantileFilter::insert_batch`]. Sized
/// so the chunk's coordinate/delta arrays live in a few hundred stack bytes
/// and its prefetched bucket lines all fit in L1.
pub const INGEST_CHUNK: usize = 64;

/// Which part of the structure produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportSource {
    /// The key's fingerprint was tracked exactly in the candidate part.
    Candidate,
    /// The key was estimated by the vague part's sketch.
    Vague,
}

/// A report that the just-inserted key is quantile-outstanding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    /// Where the decisive Qweight lived.
    pub source: ReportSource,
    /// The (estimated) Qweight that crossed `ε/(1−δ)`. The structure's
    /// Qweight for the key has been reset to zero (Definition 4).
    pub estimated_qweight: i64,
}

/// Running operation statistics, used by the throughput/hit-rate analysis
/// of §V-C ("initially querying the candidate part followed by the vague
/// part, enhancing the hit rate of the candidate part").
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterStats {
    /// Items answered entirely inside the candidate part.
    pub candidate_hits: u64,
    /// Items that created a fresh candidate entry.
    pub candidate_inserts: u64,
    /// Items that had to touch the vague part.
    pub vague_visits: u64,
    /// Candidate⇄vague exchanges performed.
    pub exchanges: u64,
    /// Reports emitted.
    pub reports: u64,
}

impl FilterStats {
    /// Fraction of items that never left the candidate part.
    pub fn candidate_hit_rate(&self) -> f64 {
        let total = self.candidate_hits + self.candidate_inserts + self.vague_visits;
        if total == 0 {
            return 0.0;
        }
        self.candidate_hits as f64 / total as f64
    }
}

/// Seed of [`QuantileFilter::state_digest`].
const DIGEST_SEED: u64 = 0x5EED_D16E_57A7_E000;

/// The QuantileFilter of Algorithm 2, generic over the vague-part sketch
/// (`CS` by default; `CMS` for the Fig. 12 ablation).
#[derive(Debug)]
pub struct QuantileFilter<S: WeightSketch = CountSketch<i8>> {
    criteria: Criteria,
    candidate: CandidatePart,
    vague: VaguePart<S>,
    strategy: ElectionStrategy,
    rounder: StochasticRounder,
    rng: SplitMix64,
    stats: FilterStats,
    // Derived from `criteria` whenever it is (re)set, so the default-
    // criteria ingest paths never re-divide or `floor` per item. Not
    // serialized: snapshots restore `criteria` and recompute.
    report_at: f64,
    above: SplitWeight,
}

// By hand so that `clone_from` copies into the destination's arrays: a
// checkpoint refreshed this way allocates nothing.
impl<S: WeightSketch + Clone> Clone for QuantileFilter<S> {
    fn clone(&self) -> Self {
        Self {
            candidate: self.candidate.clone(),
            vague: self.vague.clone(),
            rounder: self.rounder.clone(),
            rng: self.rng.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            criteria,
            candidate,
            vague,
            strategy,
            rounder,
            rng,
            stats,
            report_at,
            above,
        } = source;
        self.candidate.clone_from(candidate);
        self.vague.clone_from(vague);
        self.criteria = *criteria;
        self.strategy = *strategy;
        self.rounder.clone_from(rounder);
        self.rng.clone_from(rng);
        self.stats = *stats;
        self.report_at = *report_at;
        self.above = *above;
    }
}

impl<S: WeightSketch> QuantileFilter<S> {
    /// Assemble a filter from its parts. Most callers should use
    /// [`crate::QuantileFilterBuilder`] instead.
    pub fn from_parts(
        criteria: Criteria,
        candidate: CandidatePart,
        vague_sketch: S,
        strategy: ElectionStrategy,
        seed: u64,
    ) -> Self {
        Self {
            criteria,
            candidate,
            vague: VaguePart::new(vague_sketch),
            strategy,
            rounder: StochasticRounder::new(seed ^ 0x5EED_0001),
            rng: SplitMix64::new(seed ^ 0x5EED_0002),
            stats: FilterStats::default(),
            report_at: criteria.report_threshold(),
            above: StochasticRounder::split(criteria.weight_above()),
        }
    }

    /// The filter-wide default criteria.
    pub fn default_criteria(&self) -> Criteria {
        self.criteria
    }

    /// Replace the filter-wide default criteria. Existing Qweights are kept
    /// (§III-C recommends deleting affected keys first; see
    /// [`Self::delete`]).
    pub fn set_default_criteria(&mut self, criteria: Criteria) {
        self.criteria = criteria;
        self.report_at = criteria.report_threshold();
        self.above = StochasticRounder::split(criteria.weight_above());
    }

    /// Operation statistics since construction or the last [`Self::reset`].
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// The election strategy in use.
    pub fn strategy(&self) -> ElectionStrategy {
        self.strategy
    }

    /// Total charged memory (candidate entries + vague counters).
    pub fn memory_bytes(&self) -> usize {
        self.candidate.memory_bytes() + self.vague.memory_bytes()
    }

    /// Borrow the candidate part (diagnostics / tests).
    pub fn candidate_part(&self) -> &CandidatePart {
        &self.candidate
    }

    /// Borrow the vague part (diagnostics / tests).
    pub fn vague_part(&self) -> &VaguePart<S> {
        &self.vague
    }

    /// Does an integer Qweight meet the report threshold `ε/(1−δ)`? The
    /// threshold is computed once per insert (or once per batch) and passed
    /// in, so the division behind `report_threshold()` is off the per-check
    /// path.
    #[inline(always)]
    fn meets(report_at: f64, qw: i64) -> bool {
        qw as f64 + 1e-9 >= report_at
    }

    /// Insert an item under the filter-wide default criteria.
    ///
    /// Non-finite values (NaN, ±∞) are silently dropped — they carry no
    /// quantile information and would otherwise corrupt Qweight accounting
    /// (NaN compares below every `T` and would count −1; +∞ above every `T`
    /// and would count +δ/(1−δ)). Use [`Self::try_insert`] to surface the
    /// rejection as a typed error instead.
    #[inline]
    pub fn insert<K: StreamKey + ?Sized>(&mut self, key: &K, value: f64) -> Option<Report> {
        if !value.is_finite() {
            return None;
        }
        let (threshold, report_at, above) = (self.criteria.threshold(), self.report_at, self.above);
        self.insert_finite(key, value, threshold, report_at, above)
    }

    /// Insert an item under per-item criteria (§III-C first flexibility:
    /// "input the criteria ⟨ε_x, δ_x, T_x⟩ along with each item ⟨x, v⟩").
    ///
    /// Non-finite values are silently dropped, as in [`Self::insert`].
    pub fn insert_with_criteria<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        value: f64,
        criteria: &Criteria,
    ) -> Option<Report> {
        if !value.is_finite() {
            return None;
        }
        self.insert_finite(
            key,
            value,
            criteria.threshold(),
            criteria.report_threshold(),
            StochasticRounder::split(criteria.weight_above()),
        )
    }

    /// Fallible insert under the filter-wide default criteria: rejects
    /// NaN/±∞ with [`QfError::NonFiniteValue`] instead of dropping them.
    #[inline]
    pub fn try_insert<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        value: f64,
    ) -> Result<Option<Report>, QfError> {
        if !value.is_finite() {
            return Err(QfError::NonFiniteValue { value });
        }
        let (threshold, report_at, above) = (self.criteria.threshold(), self.report_at, self.above);
        Ok(self.insert_finite(key, value, threshold, report_at, above))
    }

    /// Fallible insert under per-item criteria: rejects NaN/±∞ with
    /// [`QfError::NonFiniteValue`] instead of dropping them.
    pub fn try_insert_with_criteria<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        value: f64,
        criteria: &Criteria,
    ) -> Result<Option<Report>, QfError> {
        if !value.is_finite() {
            return Err(QfError::NonFiniteValue { value });
        }
        Ok(self.insert_finite(
            key,
            value,
            criteria.threshold(),
            criteria.report_threshold(),
            StochasticRounder::split(criteria.weight_above()),
        ))
    }

    /// The shared finite-value ingest: callers pass the criteria already
    /// broken into its three hot constants (value threshold, report
    /// threshold, split above-`T` weight) so the default-criteria paths
    /// read the cached derivations and never divide or `floor` per item.
    fn insert_finite<K: StreamKey + ?Sized>(
        &mut self,
        key: &K,
        value: f64,
        value_threshold: f64,
        report_at: f64,
        above: SplitWeight,
    ) -> Option<Report> {
        let weight = if value > value_threshold {
            above
        } else {
            SplitWeight::MINUS_ONE
        };
        let delta = self.rounder.round_split(weight);
        let hk = self.candidate.coords_of(key);
        self.offer_hashed(hk, delta, report_at)
    }

    /// The one-pass core of Algorithm 2, operating on precomputed
    /// candidate coordinates. Every hash the insert needs is evaluated
    /// exactly once — `h_b`/`h_fp` arrive in `hk`, and the vague path
    /// captures its `d` row lanes once and reuses them for the fused
    /// add-estimate, the post-report reset, and the election's pull — and
    /// the candidate bucket is walked exactly once: `offer_or_min` carries
    /// the bucket's minimum entry out of the same scan that established
    /// bucket-full, so the election never rescans the slots.
    #[inline]
    fn offer_hashed(&mut self, hk: HashedKey, delta: i64, report_at: f64) -> Option<Report> {
        let HashedKey { bucket, fp } = hk;
        match self.candidate.offer_or_min(bucket, fp, delta) {
            OfferOutcome::Updated { qweight } => {
                self.stats.candidate_hits += 1;
                if Self::meets(report_at, qweight) {
                    self.candidate.reset_entry(bucket, fp);
                    self.stats.reports += 1;
                    crate::trace::report_candidate(qweight);
                    return Some(Report {
                        source: ReportSource::Candidate,
                        estimated_qweight: qweight,
                    });
                }
                None
            }
            OfferOutcome::Inserted => {
                self.stats.candidate_inserts += 1;
                // A single item can already be outstanding when ε = 0 and
                // its weight crosses the (then zero-or-negative) threshold.
                if Self::meets(report_at, delta) {
                    self.candidate.reset_entry(bucket, fp);
                    self.stats.reports += 1;
                    crate::trace::report_candidate(delta);
                    return Some(Report {
                        source: ReportSource::Candidate,
                        estimated_qweight: delta,
                    });
                }
                None
            }
            OfferOutcome::BucketFull { min_fp, min_qw } => {
                self.stats.vague_visits += 1;
                let vk = VagueKey::new(bucket, fp);
                let lanes = self.vague.prepare_lanes(vk);
                let est = self.vague.add_and_estimate(vk, &lanes, delta);
                if Self::meets(report_at, est) {
                    // Report and reset the key's Qweight in the vague part —
                    // removing exactly the estimate just acted on, not a
                    // recomputed one.
                    self.vague.fetch_remove(vk, &lanes, est);
                    self.stats.reports += 1;
                    crate::trace::report_vague(est);
                    return Some(Report {
                        source: ReportSource::Vague,
                        estimated_qweight: est,
                    });
                }
                // Candidate election (Algorithm 2 lines 14–17), against the
                // ⟨min_fp, min_qw⟩ entry the offer walk already found.
                if self.strategy.should_replace(est, min_qw, &mut self.rng) {
                    crate::trace::election_win(est, min_qw);
                    // Evicted entry's Qweight moves into the vague part
                    // under its own composite key... The challenger's
                    // mass pulled out of the sketch is `est` itself —
                    // the same value the election just weighed, never a
                    // third query that could disagree with it.
                    let pulled = self.vague.fetch_remove(vk, &lanes, est);
                    self.vague.add(VagueKey::new(bucket, min_fp), min_qw);
                    // ...and the challenger enters the candidate part
                    // with the mass just pulled out of the sketch.
                    self.candidate.replace(bucket, min_fp, fp, pulled);
                    self.stats.exchanges += 1;
                    // The exchange is the one mutation that rewrites an
                    // entry in place — the natural audit point.
                    #[cfg(feature = "strict-invariants")]
                    self.assert_candidate_invariants();
                } else {
                    crate::trace::election_loss(est, min_qw);
                }
                None
            }
        }
    }

    /// Insert a batch of items under the filter-wide default criteria,
    /// invoking `sink(index, report)` for each item that fires a report.
    ///
    /// Behaviorally identical to calling [`Self::insert`] on each item in
    /// order — same reports, same statistics, same RNG consumption, bit for
    /// bit. The batch is cut into [`INGEST_CHUNK`]-item chunks, and each
    /// chunk runs two passes. Pass 1 checks that each value is finite,
    /// hashes the key's candidate coordinates, rounds the item's weight and
    /// prefetches its candidate bucket. Pass 2 applies each item through the
    /// same one-pass core the scalar path uses.
    ///
    /// Why pass 1 prefetches: a scalar insert probes its bucket right after
    /// hashing the key, so each cold bucket line is a stall of its own.
    /// Pass 1 requests all of a chunk's bucket lines before pass 2 reads the
    /// first one, so their misses overlap. That pays when the filter's lines
    /// are cold and costs little when they are warm: a plain loop over the
    /// scalar core lost throughput on the repository benchmark's supervised
    /// pipeline workload (DESIGN.md §11).
    ///
    /// Why this is bit-identical: the rounder RNG and the election RNG are
    /// *separate* streams (`seed ^ 0x5EED_0001` vs `seed ^ 0x5EED_0002`).
    /// Pass 1 draws the roundings in item order — exactly the sequence the
    /// scalar path draws — and pass 2 makes the election draws in item
    /// order, so each stream individually sees the scalar sequence even
    /// though the two are no longer interleaved in time. The sketch/
    /// candidate mutations themselves cannot be batched across items (item
    /// `i`'s report-triggered removal must land before item `i+1`'s bump),
    /// which is why only the pure stages — hash, classify, round, prefetch —
    /// run ahead in pass 1.
    ///
    /// Non-finite values are dropped exactly as [`Self::insert`] drops them.
    /// The sink is a callback (not a collection) so this path allocates
    /// nothing.
    pub fn insert_batch<K, F>(&mut self, items: &[(K, f64)], sink: &mut F)
    where
        K: StreamKey,
        F: FnMut(usize, Report),
    {
        let report_at = self.report_at;
        let above = self.above;
        let value_threshold = self.criteria.threshold();
        let mut coords = [HashedKey { bucket: 0, fp: 0 }; INGEST_CHUNK];
        let mut deltas = [0i64; INGEST_CHUNK];
        let mut live = [false; INGEST_CHUNK];
        let mut base = 0;
        for chunk in items.chunks(INGEST_CHUNK) {
            // Pass 1: hash + classify + round + prefetch, one memory stream
            // over the chunk. Rounder draws happen here, in item order.
            for (j, (key, value)) in chunk.iter().enumerate() {
                if value.is_finite() {
                    let hk = self.candidate.coords_of(key);
                    self.candidate.prefetch(hk.bucket);
                    let weight = if *value > value_threshold {
                        above
                    } else {
                        SplitWeight::MINUS_ONE
                    };
                    coords[j] = hk;
                    deltas[j] = self.rounder.round_split(weight);
                    live[j] = true;
                } else {
                    live[j] = false;
                }
            }
            // Pass 2: apply in item order against warm bucket lines.
            // Election draws happen here, in item order.
            for j in 0..chunk.len() {
                if live[j] {
                    if let Some(report) = self.offer_hashed(coords[j], deltas[j], report_at) {
                        sink(base + j, report);
                    }
                }
            }
            base += chunk.len();
        }
    }

    /// Query a key's current Qweight: candidate part first, then the vague
    /// estimate (§III-B query operation).
    pub fn query<K: StreamKey + ?Sized>(&self, key: &K) -> i64 {
        let HashedKey { bucket, fp } = self.candidate.coords_of(key);
        if let Some(qw) = self.candidate.get(bucket, fp) {
            return qw;
        }
        self.vague.estimate(VagueKey::new(bucket, fp))
    }

    /// Delete a key's Qweight (§III-B delete operation; also the first step
    /// of a per-key criteria change, §III-C). Returns the removed Qweight.
    pub fn delete<K: StreamKey + ?Sized>(&mut self, key: &K) -> i64 {
        let HashedKey { bucket, fp } = self.candidate.coords_of(key);
        if let Some(old) = self.candidate.reset_entry(bucket, fp) {
            return old;
        }
        self.vague.remove_estimate(VagueKey::new(bucket, fp))
    }

    /// Change the reporting criteria for a specific key (§III-C second
    /// flexibility): deletes the key's accumulated Qweight so subsequent
    /// inserts (passing the new criteria) start from an empty value set.
    pub fn modify_key_criteria<K: StreamKey + ?Sized>(&mut self, key: &K) -> i64 {
        self.delete(key)
    }

    /// Periodic full reset (§III-B): clear both parts and the statistics.
    pub fn reset(&mut self) {
        self.candidate.clear();
        self.vague.clear();
        self.stats = FilterStats::default();
    }

    /// A digest of the filter's mutable state: the candidate slots, the
    /// sketch, both RNG states and the statistics. Equal filters have
    /// equal digests, so a digest stored next to a copy tells a damaged
    /// copy from a good one. It hashes memory with the
    /// [`qf_hash::stripe_digest`] kernel, not the snapshot encoding with
    /// xxh64, and is only meaningful within one process.
    pub fn state_digest(&self) -> u64 {
        let s = self.stats;
        let scalars = [
            self.rounder.state(),
            self.rng.state(),
            s.candidate_hits,
            s.candidate_inserts,
            s.vague_visits,
            s.exchanges,
            s.reports,
        ];
        let seed = scalars.iter().fold(DIGEST_SEED, |h, &x| mix64(h ^ x));
        let seed = self.candidate.state_digest(seed);
        self.vague.inner().state_digest(seed)
    }

    /// Stochastic-rounder RNG state, captured by snapshots so a restored
    /// filter rounds the resumed stream identically.
    pub(crate) fn rounder_state(&self) -> u64 {
        self.rounder.state()
    }

    /// Election RNG state, captured by snapshots for the same reason.
    pub(crate) fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Abort on any candidate-part invariant violation. Compiled only
    /// under the `strict-invariants` feature; called from the mutation
    /// sites that rewrite entries in place.
    ///
    /// # Panics
    /// Panics if the candidate part fails [`CheckInvariants`].
    #[cfg(feature = "strict-invariants")]
    fn assert_candidate_invariants(&self) {
        use qf_sketch::invariants::CheckInvariants;
        if let Err(e) = self.candidate.check_invariants() {
            panic!("strict-invariants: {e}");
        }
    }

    /// Reassemble a filter from fully-restored components, including the
    /// two RNG states and the running statistics.
    pub(crate) fn from_restored(
        criteria: Criteria,
        candidate: CandidatePart,
        vague_sketch: S,
        strategy: ElectionStrategy,
        rounder_state: u64,
        rng_state: u64,
        stats: FilterStats,
    ) -> Self {
        Self {
            criteria,
            candidate,
            vague: VaguePart::new(vague_sketch),
            strategy,
            rounder: StochasticRounder::from_state(rounder_state),
            rng: SplitMix64::from_state(rng_state),
            stats,
            report_at: criteria.report_threshold(),
            above: StochasticRounder::split(criteria.weight_above()),
        }
    }
}

impl<S> qf_sketch::invariants::CheckInvariants for QuantileFilter<S>
where
    S: WeightSketch + qf_sketch::invariants::CheckInvariants,
{
    /// Audit the whole filter: candidate part, vague sketch, and the
    /// cross-structure relationship between slot occupancy and the running
    /// statistics (occupied entries are only ever created by the
    /// `Inserted` path, so occupancy can never exceed `candidate_inserts`).
    fn check_invariants(&self) -> Result<(), qf_sketch::invariants::InvariantViolation> {
        use qf_sketch::invariants::InvariantViolation as V;
        self.candidate.check_invariants()?;
        self.vague.inner().check_invariants()?;
        let occupancy = self.candidate.occupancy() as u64;
        if occupancy > self.stats.candidate_inserts {
            return Err(V::new(
                "QuantileFilter",
                format!(
                    "{} occupied entries but only {} recorded inserts",
                    occupancy, self.stats.candidate_inserts
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QuantileFilterBuilder;
    use crate::qweight::QweightTracker;
    use qf_sketch::CountMinSketch;

    fn small_filter(criteria: Criteria) -> QuantileFilter {
        QuantileFilterBuilder::new(criteria)
            .candidate_buckets(64)
            .bucket_len(6)
            .vague_dims(3, 512)
            .seed(7)
            .build()
    }

    fn default_criteria() -> Criteria {
        // δ = 0.9, ε = 5, T = 100 ⇒ weight +9 / −1, report at Qw ≥ 50.
        Criteria::new(5.0, 0.9, 100.0).unwrap()
    }

    #[test]
    fn hot_outstanding_key_is_reported() {
        let mut qf = small_filter(default_criteria());
        let mut reported = false;
        // All values above T: Qweight climbs +9 per item; report at item 6
        // (6·9 = 54 ≥ 50).
        for i in 0..20 {
            if let Some(r) = qf.insert(&1u64, 500.0) {
                reported = true;
                assert!(r.estimated_qweight >= 50);
                assert!(i >= 5, "report before enough evidence at item {i}");
            }
        }
        assert!(reported);
    }

    #[test]
    fn quiet_key_is_never_reported() {
        let mut qf = small_filter(default_criteria());
        for _ in 0..10_000 {
            assert!(qf.insert(&2u64, 10.0).is_none());
        }
    }

    #[test]
    fn report_resets_qweight() {
        let mut qf = small_filter(default_criteria());
        let mut reports = 0;
        for _ in 0..12 {
            if qf.insert(&3u64, 500.0).is_some() {
                reports += 1;
                // Right after a report the tracked Qweight must be zero.
                assert_eq!(qf.query(&3u64), 0);
            }
        }
        // 12 items · (+9) with reset at ≥50 ⇒ exactly two reports
        // (at items 6 and 12).
        assert_eq!(reports, 2);
    }

    #[test]
    fn matches_exact_tracker_on_single_key() {
        // With one key and ample space the filter is exact: its report
        // times equal the exact Qweight tracker's threshold crossings.
        let c = default_criteria();
        let mut qf = small_filter(c);
        let mut tracker = QweightTracker::new();
        let values: Vec<f64> = (0..500)
            .map(|i| if i % 3 == 0 { 500.0 } else { 5.0 })
            .collect();
        for &v in &values {
            let got = qf.insert(&9u64, v).is_some();
            tracker.observe(v, &c);
            let want = tracker.qweight(&c) >= c.report_threshold();
            assert_eq!(got, want, "divergence at value {v}");
            if want {
                tracker.reset();
            }
        }
    }

    #[test]
    fn mixed_values_follow_qweight_math() {
        // δ = 0.5 ⇒ +1/−1. Equal numbers above/below keep Qw at 0;
        // ε = 2 ⇒ threshold 4 never crossed.
        let c = Criteria::new(2.0, 0.5, 10.0).unwrap();
        let mut qf = small_filter(c);
        for i in 0..1000 {
            let v = if i % 2 == 0 { 20.0 } else { 5.0 };
            assert!(qf.insert(&4u64, v).is_none());
        }
    }

    #[test]
    fn query_sees_accumulation_and_delete_clears() {
        let mut qf = small_filter(default_criteria());
        for _ in 0..3 {
            qf.insert(&5u64, 500.0);
        }
        assert_eq!(qf.query(&5u64), 27);
        assert_eq!(qf.delete(&5u64), 27);
        assert_eq!(qf.query(&5u64), 0);
    }

    #[test]
    fn per_item_criteria_override() {
        let default = default_criteria();
        // Tight criteria for one key: δ = 0.9, ε = 1 ⇒ threshold 10.
        let tight = Criteria::new(1.0, 0.9, 100.0).unwrap();
        let mut qf = small_filter(default);
        let mut first_report_item = None;
        for i in 0..10 {
            if qf.insert_with_criteria(&6u64, 500.0, &tight).is_some()
                && first_report_item.is_none()
            {
                first_report_item = Some(i);
            }
        }
        // +9 per item crosses 10 at the second item.
        assert_eq!(first_report_item, Some(1));
    }

    #[test]
    fn many_keys_spill_to_vague_and_still_detect() {
        let c = default_criteria();
        let mut qf = small_filter(c);
        let mut outstanding_reported = false;
        // 5000 distinct cold keys overflow the 64×6 candidate part; one hot
        // outstanding key must still be caught via the vague part or an
        // exchange.
        for round in 0..40 {
            for k in 0u64..500 {
                qf.insert(&(k + 100), 5.0);
            }
            if qf.insert(&7u64, 500.0).is_some() && round >= 5 {
                outstanding_reported = true;
            }
        }
        assert!(outstanding_reported, "hot key lost in the crowd");
        assert!(qf.stats().vague_visits > 0, "vague part never exercised");
    }

    #[test]
    fn cms_vague_part_works_too() {
        let c = default_criteria();
        let mut qf: QuantileFilter<CountMinSketch<i32>> = QuantileFilterBuilder::new(c)
            .candidate_buckets(16)
            .bucket_len(4)
            .vague_dims(3, 256)
            .seed(9)
            .build_with_sketch(CountMinSketch::new(3, 256, 9));
        let mut reported = false;
        for _ in 0..100 {
            reported |= qf.insert(&1u64, 500.0).is_some();
        }
        assert!(reported);
        assert_eq!(qf.vague_part().kind_name(), "CMS");
    }

    #[test]
    fn stats_track_paths() {
        let mut qf = small_filter(default_criteria());
        for k in 0u64..2000 {
            qf.insert(&k, 5.0);
        }
        let s = qf.stats();
        assert!(s.candidate_inserts > 0);
        assert!(s.vague_visits > 0, "2000 keys must overflow 384 slots");

        // On an uncontended filter, repeat inserts of one key are pure
        // candidate hits after the first.
        let mut fresh = small_filter(default_criteria());
        for _ in 0..11 {
            fresh.insert(&1u64, 5.0);
        }
        assert_eq!(fresh.stats().candidate_inserts, 1);
        assert_eq!(fresh.stats().candidate_hits, 10);
        assert!(fresh.stats().candidate_hit_rate() > 0.9);
    }

    #[test]
    fn reset_clears_everything() {
        let mut qf = small_filter(default_criteria());
        for _ in 0..5 {
            qf.insert(&8u64, 500.0);
        }
        qf.reset();
        assert_eq!(qf.query(&8u64), 0);
        assert_eq!(qf.stats().candidate_hits, 0);
    }

    #[test]
    fn exchange_promotes_heavy_key() {
        // Tiny candidate part (1 bucket × 1 slot) forces the election path.
        let c = Criteria::new(5.0, 0.9, 100.0).unwrap();
        let mut qf: QuantileFilter = QuantileFilterBuilder::new(c)
            .candidate_buckets(1)
            .bucket_len(1)
            .vague_dims(3, 1024)
            .seed(11)
            .build();
        // Fill the slot with a cold key, then hammer a hot key.
        qf.insert(&100u64, 5.0);
        for _ in 0..4 {
            qf.insert(&200u64, 500.0);
        }
        // The hot key's vague estimate (+9 each) should have beaten the
        // cold key's −1 and swapped in.
        assert!(qf.stats().exchanges >= 1, "no exchange happened");
        let b = qf.candidate_part().bucket_of(&200u64);
        let fp = qf.candidate_part().fingerprint_of(&200u64);
        assert!(
            qf.candidate_part().get(b, fp).is_some(),
            "hot key not promoted"
        );
    }

    #[test]
    fn set_default_criteria_applies_to_future_inserts() {
        let mut qf = small_filter(default_criteria());
        let lax = Criteria::new(50.0, 0.9, 100.0).unwrap(); // threshold 500
        qf.set_default_criteria(lax);
        for _ in 0..20 {
            assert!(qf.insert(&12u64, 500.0).is_none());
        }
        assert_eq!(qf.default_criteria().epsilon(), 50.0);
    }

    #[test]
    fn set_default_criteria_refreshes_cached_thresholds() {
        // The derived report-threshold/weight cache must track criteria
        // changes: a filter switched to tighter criteria reports at exactly
        // the same item as a fresh filter built with them.
        let tight = Criteria::new(1.0, 0.9, 100.0).unwrap();
        let mut switched = small_filter(default_criteria());
        switched.set_default_criteria(tight);
        let mut fresh = small_filter(tight);
        for i in 0..10 {
            assert_eq!(
                switched.insert(&30u64, 500.0).is_some(),
                fresh.insert(&30u64, 500.0).is_some(),
                "divergence at item {i}"
            );
        }
    }

    #[test]
    fn epsilon_zero_single_item_report() {
        // ε = 0, δ = 0.5, T = 10: one value above T gives Qw = +1 ≥ 0 ⇒
        // immediate report (the "premature reporting" the paper's ε > 0
        // avoids — but legal when the user asks for it).
        let c = Criteria::new(0.0, 0.5, 10.0).unwrap();
        let mut qf = small_filter(c);
        let r = qf.insert(&13u64, 100.0);
        assert!(r.is_some());
    }

    #[test]
    fn non_finite_values_would_corrupt_qweight_accounting() {
        // The raw item-weight function has no NaN/∞ defense: NaN fails
        // `value > T` and lands on the −1 side, +∞ lands on the +δ/(1−δ)
        // side. A poisoned stream therefore used to shift Qweights silently
        // — which is exactly why the filter guards the API boundary.
        let c = default_criteria();
        assert_eq!(c.item_weight(f64::NAN), -1.0);
        assert_eq!(c.item_weight(f64::NEG_INFINITY), -1.0);
        assert_eq!(c.item_weight(f64::INFINITY), c.weight_above());
    }

    #[test]
    fn infallible_insert_drops_non_finite() {
        let mut qf = small_filter(default_criteria());
        for _ in 0..3 {
            qf.insert(&21u64, 500.0);
        }
        let before = qf.query(&21u64);
        let stats_before = qf.stats();
        assert!(qf.insert(&21u64, f64::NAN).is_none());
        assert!(qf.insert(&21u64, f64::INFINITY).is_none());
        assert!(qf.insert(&21u64, f64::NEG_INFINITY).is_none());
        // Dropped items leave both the Qweight and the path stats untouched.
        assert_eq!(qf.query(&21u64), before);
        assert_eq!(qf.stats().candidate_hits, stats_before.candidate_hits);
        assert_eq!(qf.stats().vague_visits, stats_before.vague_visits);
    }

    #[test]
    fn try_insert_reports_non_finite() {
        let mut qf = small_filter(default_criteria());
        match qf.try_insert(&22u64, f64::NAN) {
            Err(crate::error::QfError::NonFiniteValue { value }) => assert!(value.is_nan()),
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        assert!(matches!(
            qf.try_insert(&22u64, f64::INFINITY),
            Err(crate::error::QfError::NonFiniteValue { .. })
        ));
        // Finite values flow through identically to insert().
        assert_eq!(qf.try_insert(&22u64, 500.0).unwrap(), None);
        assert_eq!(qf.query(&22u64), 9);
    }

    #[test]
    fn memory_accounting_sums_parts() {
        let qf = small_filter(default_criteria());
        assert_eq!(
            qf.memory_bytes(),
            qf.candidate_part().memory_bytes() + qf.vague_part().memory_bytes()
        );
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        // Identically-seeded twins over a collision-heavy trace: the batch
        // path must reproduce the scalar path bit for bit — same report
        // sequence at the same item indices, same stats, same final state.
        let c = default_criteria();
        let build = || {
            QuantileFilterBuilder::new(c)
                .candidate_buckets(8)
                .bucket_len(2)
                .vague_dims(3, 256)
                .seed(0xBA7C)
                .build()
        };
        let mut scalar = build();
        let mut batched = build();

        let mut rng = qf_hash::SplitMix64::new(99);
        let items: Vec<(u64, f64)> = (0..20_000)
            .map(|_| {
                let key = rng.next_u64() % 400;
                let value = if rng.next_u64() % 100 < 60 {
                    500.0
                } else {
                    5.0
                };
                (key, value)
            })
            .collect();

        let mut want = Vec::new();
        for (i, &(k, v)) in items.iter().enumerate() {
            if let Some(r) = scalar.insert(&k, v) {
                want.push((i, r));
            }
        }
        let mut got = Vec::new();
        batched.insert_batch(&items, &mut |i, r| got.push((i, r)));

        assert!(!want.is_empty(), "trace produced no reports — too tame");
        assert_eq!(got, want, "batch report sequence diverged from scalar");
        let (s, b) = (scalar.stats(), batched.stats());
        assert_eq!(s.candidate_hits, b.candidate_hits);
        assert_eq!(s.vague_visits, b.vague_visits);
        assert_eq!(s.exchanges, b.exchanges);
        assert_eq!(s.reports, b.reports);
        assert_eq!(scalar.rounder_state(), batched.rounder_state());
        assert_eq!(scalar.rng_state(), batched.rng_state());
        for k in 0u64..400 {
            assert_eq!(
                scalar.query(&k),
                batched.query(&k),
                "state differs at key {k}"
            );
        }
    }

    #[test]
    fn insert_batch_drops_non_finite_like_scalar() {
        let c = default_criteria();
        let mut qf = small_filter(c);
        let items = [
            (1u64, 500.0),
            (1u64, f64::NAN),
            (1u64, f64::INFINITY),
            (1u64, 500.0),
        ];
        qf.insert_batch(&items, &mut |_, _| {});
        // Only the two finite items count: Qweight 2 × (+9).
        assert_eq!(qf.query(&1u64), 18);
        assert_eq!(qf.stats().candidate_hits + qf.stats().candidate_inserts, 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut qf = small_filter(default_criteria());
        let mut fired = false;
        qf.insert_batch::<u64, _>(&[], &mut |_, _| fired = true);
        assert!(!fired);
        assert_eq!(qf.stats().candidate_inserts, 0);
    }

    /// A [`WeightSketch`] shim that counts how many times each estimate
    /// derivation path runs, pinning the one-estimate-per-insert contract.
    #[derive(Debug, Clone)]
    struct CountingSketch {
        inner: CountSketch<i8>,
        lanes: std::cell::Cell<u64>,
        adds: std::cell::Cell<u64>,
        estimates: std::cell::Cell<u64>,
        removes: std::cell::Cell<u64>,
        fused: std::cell::Cell<u64>,
        fetches: std::cell::Cell<u64>,
    }

    impl CountingSketch {
        fn new(inner: CountSketch<i8>) -> Self {
            Self {
                inner,
                lanes: std::cell::Cell::new(0),
                adds: std::cell::Cell::new(0),
                estimates: std::cell::Cell::new(0),
                removes: std::cell::Cell::new(0),
                fused: std::cell::Cell::new(0),
                fetches: std::cell::Cell::new(0),
            }
        }
    }

    impl WeightSketch for CountingSketch {
        fn add<K: StreamKey + ?Sized>(&mut self, key: &K, delta: i64) {
            self.adds.set(self.adds.get() + 1);
            self.inner.add(key, delta);
        }
        fn estimate<K: StreamKey + ?Sized>(&self, key: &K) -> i64 {
            self.estimates.set(self.estimates.get() + 1);
            self.inner.estimate(key)
        }
        fn remove_estimate<K: StreamKey + ?Sized>(&mut self, key: &K) -> i64 {
            self.removes.set(self.removes.get() + 1);
            self.inner.remove_estimate(key)
        }
        fn prepare_lanes<K: StreamKey + ?Sized>(&self, key: &K) -> qf_hash::RowLanes {
            self.lanes.set(self.lanes.get() + 1);
            self.inner.prepare_lanes(key)
        }
        fn add_and_estimate<K: StreamKey + ?Sized>(
            &mut self,
            key: &K,
            lanes: &qf_hash::RowLanes,
            delta: i64,
        ) -> i64 {
            self.fused.set(self.fused.get() + 1);
            self.inner.add_and_estimate(key, lanes, delta)
        }
        fn fetch_remove<K: StreamKey + ?Sized>(
            &mut self,
            key: &K,
            lanes: &qf_hash::RowLanes,
            estimate: i64,
        ) -> i64 {
            self.fetches.set(self.fetches.get() + 1);
            self.inner.fetch_remove(key, lanes, estimate)
        }
        fn clear(&mut self) {
            self.inner.clear();
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn kind_name(&self) -> &'static str {
            self.inner.kind_name()
        }
        fn state_digest(&self, seed: u64) -> u64 {
            self.inner.state_digest(seed)
        }
    }

    /// A filter whose 1×1 candidate part funnels nearly everything through
    /// the vague path, over a [`CountingSketch`].
    fn counting_filter() -> QuantileFilter<CountingSketch> {
        let c = Criteria::new(5.0, 0.9, 100.0).unwrap();
        let candidate = match CandidatePart::try_new(1, 1, 17) {
            Some(p) => p,
            None => panic!("candidate part"),
        };
        let sketch = CountingSketch::new(CountSketch::new(3, 512, 17));
        QuantileFilter::from_parts(c, candidate, sketch, ElectionStrategy::Comparative, 17)
    }

    /// 64 keys, 70% of values above `T`: plain visits, elections and
    /// vague reports all occur.
    fn vague_heavy_items(n: usize) -> Vec<(u64, f64)> {
        let mut rng = qf_hash::SplitMix64::new(5);
        (0..n)
            .map(|_| {
                let key = rng.next_u64() % 64;
                let value = if rng.next_u64() % 100 < 70 {
                    500.0
                } else {
                    5.0
                };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn insert_computes_exactly_one_estimate_per_vague_visit() {
        // Regression for the old three-query flow (add → estimate →
        // remove_estimate, each rehashing and the last re-deriving the
        // estimate): every vague visit must run exactly one fused
        // add-and-estimate, and the report/election resets must reuse that
        // value via fetch_remove — never a standalone estimate or a
        // re-deriving remove_estimate.
        let mut qf = counting_filter();
        for (key, value) in vague_heavy_items(5_000) {
            qf.insert(&key, value);
        }

        let visits = qf.stats().vague_visits;
        assert!(visits > 1_000, "vague path barely exercised: {visits}");
        let s = qf.vague_part().inner();
        assert_eq!(
            s.fused.get(),
            visits,
            "each vague visit must derive its estimate exactly once"
        );
        assert_eq!(s.estimates.get(), 0, "standalone estimate on insert path");
        assert_eq!(
            s.removes.get(),
            0,
            "re-deriving remove_estimate on insert path"
        );
        assert!(
            s.fetches.get() <= visits,
            "at most one reset per vague visit"
        );
        // The election's incumbent push-back is the only plain add left.
        assert_eq!(s.adds.get(), qf.stats().exchanges);
    }

    #[test]
    fn insert_batch_captures_lanes_only_for_vague_visits() {
        // The batch path does no speculative lane work: an item's vague
        // lanes are captured when, and only when, it visits the vague part.
        // A lane pass run ahead of item order, even one gated on running
        // stats (10,000 vague-heavy items open any such gate), would also
        // capture lanes for items that then hit the candidate part.
        let mut qf = counting_filter();
        qf.insert_batch(&vague_heavy_items(10_000), &mut |_, _| {});

        let visits = qf.stats().vague_visits;
        assert!(visits > 4_096, "vague path barely exercised: {visits}");
        let s = qf.vague_part().inner();
        assert_eq!(s.lanes.get(), visits, "one lane capture per vague visit");
        assert_eq!(
            s.fused.get(),
            visits,
            "each vague visit must derive its estimate exactly once"
        );
    }

    /// Where the arrays of `f` live: the two candidate slot arrays and the
    /// sketch grid, whose address `grid` reads.
    fn array_ptrs<S: WeightSketch>(f: &mut QuantileFilter<S>, grid: fn(&S) -> usize) -> [usize; 3] {
        let cells = grid(f.vague.inner());
        let (fps, qws) = f.candidate.slots_mut();
        [fps.as_ptr() as usize, qws.as_ptr() as usize, cells]
    }

    /// Bytes `f` allocates for its state: the candidate slot arrays and
    /// the sketch grid, whose size `grid` reads.
    fn array_bytes<S: WeightSketch>(f: &mut QuantileFilter<S>, grid: fn(&S) -> usize) -> usize {
        let cells = grid(f.vague.inner());
        let (fps, qws) = f.candidate.slots_mut();
        std::mem::size_of_val(&fps[..]) + std::mem::size_of_val(&qws[..]) + cells
    }

    /// A filter allocates what it charges: `memory_bytes()` is the bytes of
    /// its slot arrays and sketch grid, less the `FP_PAD` padding cells of
    /// each slot array.
    #[test]
    fn memory_bytes_is_what_the_arrays_allocate() {
        use crate::candidate::{ENTRY_BYTES, FP_PAD};
        fn assert_charged<S: WeightSketch>(
            what: &str,
            mut f: QuantileFilter<S>,
            grid: fn(&S) -> usize,
        ) {
            let charged = f.memory_bytes() + FP_PAD * ENTRY_BYTES;
            assert_eq!(charged, array_bytes(&mut f, grid), "{what}");
        }
        let cs = |s: &CountSketch<i8>| std::mem::size_of_val(s.raw_cells());
        let cms = |s: &CountMinSketch<i32>| std::mem::size_of_val(s.raw_cells());
        let budget = |bytes| {
            QuantileFilterBuilder::new(default_criteria())
                .memory_budget_bytes(bytes)
                .seed(5)
        };
        assert_charged("512 KiB", budget(512 << 10).build(), cs);
        assert_charged("32 KiB", budget(32 << 10).build(), cs);
        for b in [4, 8, 65] {
            assert_charged(
                &format!("b = {b}"),
                budget(64 << 10).bucket_len(b).build(),
                cs,
            );
        }
        let sketch = CountMinSketch::with_memory_budget(3, 12 << 10, 5);
        let f = budget(64 << 10).build_with_sketch(sketch);
        assert_charged("Count-Min", f, cms);
    }

    fn cs_grid(s: &CountSketch<i8>) -> usize {
        s.raw_cells().as_ptr() as usize
    }

    fn cms_grid(s: &CountMinSketch<i32>) -> usize {
        s.raw_cells().as_ptr() as usize
    }

    /// `copy.clone_from(live)` keeps `copy`'s three arrays and reproduces
    /// `live`: equal digests and equal snapshots.
    fn assert_cloned_in_place<S>(
        live: &QuantileFilter<S>,
        copy: &mut QuantileFilter<S>,
        grid: fn(&S) -> usize,
    ) where
        S: WeightSketch + qf_sketch::snapshot::SketchState + Clone,
    {
        let before = array_ptrs(copy, grid);
        copy.clone_from(live);
        assert_eq!(array_ptrs(copy, grid), before, "clone_from reallocated");
        assert_eq!(copy.state_digest(), live.state_digest());
        assert_eq!(copy.snapshot(), live.snapshot());
    }

    /// Flip bit `bit` of sketch cell `cell` of `f`, through the sketch's
    /// snapshot state (the grid has no mutable accessor).
    fn flip_cell(f: &mut QuantileFilter, cell: usize, bit: u32) {
        use qf_hash::wire::{ByteReader, ByteWriter};
        use qf_sketch::snapshot::SketchState;

        let sketch = f.vague.inner();
        let mut w = ByteWriter::new();
        sketch.write_state(&mut w);
        let mut state = w.into_bytes();
        // The state ends with the grid, one byte per `i8` cell.
        let at = state.len() - sketch.raw_cells().len() + cell;
        state[at] ^= 1 << bit;
        let damaged = CountSketch::from_state(sketch.shape(), &mut ByteReader::new(&state));
        f.vague = VaguePart::new(damaged.unwrap());
    }

    /// A checkpoint copy: `clone_from` into a filter of the same shape
    /// reuses its arrays and reproduces the source byte for byte, for the
    /// default filter and a Count-Min one, and the state digest moves when
    /// any one piece of state does.
    #[test]
    fn clone_from_reuses_arrays_and_the_digest_sees_every_component() {
        let c = default_criteria();
        let mut live = small_filter(c);
        let mut cms: QuantileFilter<CountMinSketch<i32>> = QuantileFilterBuilder::new(c)
            .candidate_buckets(16)
            .bucket_len(4)
            .vague_dims(3, 256)
            .seed(9)
            .build_with_sketch(CountMinSketch::new(3, 256, 9));
        for i in 0..2_000u64 {
            let v = if i % 5 == 0 { 500.0 } else { 10.0 };
            let _ = live.insert(&(i % 97), v);
            let _ = cms.insert(&(i % 97), v);
        }
        let mut copy = small_filter(c);
        let _ = copy.insert(&1u64, 500.0);
        assert_cloned_in_place(&live, &mut copy, cs_grid);
        let mut cms_copy = cms.clone();
        let _ = cms_copy.insert(&1u64, 500.0);
        assert_cloned_in_place(&cms, &mut cms_copy, cms_grid);

        type Mutation<'a> = (&'a str, &'a dyn Fn(&mut QuantileFilter));
        let mutations: [Mutation; 10] = [
            ("fingerprint", &|f| f.candidate.slots_mut().0[0] ^= 1),
            ("qweight", &|f| f.candidate.slots_mut().1[0] ^= 1),
            ("sketch cell", &|f| {
                let last = f.vague.inner().raw_cells().len() - 1;
                flip_cell(f, last, 0)
            }),
            ("rounder", &|f| {
                f.rounder = StochasticRounder::from_state(f.rounder.state() ^ 1)
            }),
            ("rng", &|f| {
                f.rng = SplitMix64::from_state(f.rng.state() ^ 1)
            }),
            ("candidate_hits", &|f| f.stats.candidate_hits += 1),
            ("candidate_inserts", &|f| f.stats.candidate_inserts += 1),
            ("vague_visits", &|f| f.stats.vague_visits += 1),
            ("exchanges", &|f| f.stats.exchanges += 1),
            ("reports", &|f| f.stats.reports += 1),
        ];
        let base = live.state_digest();
        for (name, mutate) in mutations {
            let mut f = live.clone();
            mutate(&mut f);
            assert_ne!(f.state_digest(), base, "{name} is not in the digest");
        }

        // Every bit of every array of a tiny filter, padding cells
        // included, moves the digest to a value no other flip produced.
        let mut tiny = QuantileFilterBuilder::new(c)
            .candidate_buckets(2)
            .bucket_len(3)
            .vague_dims(2, 8)
            .seed(3)
            .build();
        for i in 0..200u64 {
            let _ = tiny.insert(&(i % 13), if i % 3 == 0 { 500.0 } else { 10.0 });
        }
        let (fps, qws) = {
            let (fps, qws) = tiny.candidate.slots_mut();
            (fps.len(), qws.len())
        };
        let cells = tiny.vague.inner().raw_cells().len();
        let mut seen = std::collections::HashSet::from([tiny.state_digest()]);
        let mut flip = |what: &str, i: usize, bit: u32, mutate: &dyn Fn(&mut QuantileFilter)| {
            let mut f = tiny.clone();
            mutate(&mut f);
            assert!(seen.insert(f.state_digest()), "{what}[{i}] bit {bit}");
        };
        for i in 0..fps {
            for bit in 0..16 {
                flip("fps", i, bit, &|f| f.candidate.slots_mut().0[i] ^= 1 << bit);
            }
        }
        for i in 0..qws {
            for bit in 0..32 {
                flip("qws", i, bit, &|f| f.candidate.slots_mut().1[i] ^= 1 << bit);
            }
        }
        for i in 0..cells {
            for bit in 0..8 {
                flip("cells", i, bit, &|f| flip_cell(f, i, bit));
            }
        }
        assert_eq!(seen.len(), 1 + 16 * fps + 32 * qws + 8 * cells);
    }

    /// `clone_from` into a filter of another shape copies the shape too:
    /// the copy digests, encodes and goes on reporting like the source.
    #[test]
    fn clone_from_a_filter_of_another_shape_still_agrees() {
        let mut live = small_filter(default_criteria());
        for i in 0..1_000u64 {
            let _ = live.insert(&(i % 97), if i % 5 == 0 { 500.0 } else { 10.0 });
        }
        let mut other = QuantileFilterBuilder::new(default_criteria())
            .candidate_buckets(8)
            .bucket_len(70)
            .vague_dims(2, 64)
            .seed(1)
            .build();
        other.clone_from(&live);
        assert_eq!(other.state_digest(), live.state_digest());
        assert_eq!(other.snapshot(), live.snapshot());
        for i in 0..300u64 {
            let v = if i % 3 == 0 { 500.0 } else { 10.0 };
            assert_eq!(
                other.insert(&(i % 89), v),
                live.insert(&(i % 89), v),
                "item {i}"
            );
        }
    }
}
