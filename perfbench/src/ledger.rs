//! The insert's stage ledger: the filter's insert replayed from its public
//! parts, one stage at a time, on the same precomputed inputs.
//!
//! A stage is the calls into one module, in the insert's order:
//! `coords_of` (qf-hash) → `StochasticRounder::round` (qf-sketch) →
//! `offer_or_min`, `reset_entry`, `replace` (candidate) → `prepare_lanes`,
//! `add_and_estimate`, `fetch_remove`, `add` (vague) → `should_replace`
//! (election). A first, untimed replay runs every stage interleaved, as
//! the insert does; it must reproduce `insert_batch` report for report,
//! and it records each vague visit's outcome so that each stage can then
//! be replayed, and timed, on its own with its state evolving exactly as
//! in the full insert. The stage times are compared with the whole
//! `insert_batch` time; the difference is the ledger's residual.

use crate::check::RefReport;
use qf_hash::{HashedKey, SplitMix64};
use qf_sketch::StochasticRounder;
use quantile_filter::candidate::OfferOutcome;
use quantile_filter::vague::VagueKey;
use quantile_filter::{QuantileFilter, Report, ReportSource};
use std::hint::black_box;
use std::time::Instant;

/// The rounder and election RNG seeds `QuantileFilter::from_parts` derives
/// from the filter seed.
const ROUNDER_SEED: u64 = 0x5EED_0001;
const ELECTION_SEED: u64 = 0x5EED_0002;

/// One vague-part visit of the full replay.
#[derive(Debug, Clone, Copy)]
struct Visit {
    item: u32,
    estimate: i64,
    /// What `fetch_remove` returned when the challenger won.
    pulled: i64,
    min_qw: i64,
    min_fp: u16,
    /// The estimate crossed the report threshold (no election held).
    reported: bool,
    /// An election was held and the challenger won it.
    won: bool,
}

/// Stage inputs and outcomes of one trace on one filter.
pub struct Ledger<'a> {
    proto: &'a QuantileFilter,
    seed: u64,
    items: &'a [(u64, f64)],
    coords: Vec<HashedKey>,
    deltas: Vec<i64>,
    visits: Vec<Visit>,
    /// Reports of the full replay, in item order.
    pub reports: Vec<RefReport>,
    /// Items answered by an existing candidate entry.
    pub candidate_hits: u64,
    /// Elections held (visits that did not report).
    pub elections: u64,
    /// Elections the challenger won (candidate⇄vague exchanges).
    pub exchanges: u64,
}

/// Nanoseconds of each stage over the whole trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub hash: f64,
    pub round: f64,
    pub candidate: f64,
    pub vague: f64,
    pub election: f64,
}

impl StageTimes {
    pub fn sum(&self) -> f64 {
        self.hash + self.round + self.candidate + self.vague + self.election
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_nanos() as f64)
}

impl<'a> Ledger<'a> {
    /// Run the full interleaved replay of `items` on a fresh copy of
    /// `proto`, a freshly built filter with seed `seed`.
    pub fn replay(proto: &'a QuantileFilter, seed: u64, items: &'a [(u64, f64)]) -> Self {
        let mut coords = vec![HashedKey { bucket: 0, fp: 0 }; items.len()];
        let mut deltas = vec![0; items.len()];
        Self::hash(proto, items, &mut coords);
        Self::round(proto, seed, items, &mut deltas);
        let report_at = proto.default_criteria().report_threshold();
        let meets = |qw: i64| qw as f64 + 1e-9 >= report_at;
        let mut candidate = proto.candidate_part().clone();
        let mut vague = proto.vague_part().clone();
        let mut rng = SplitMix64::new(seed ^ ELECTION_SEED);
        let mut ledger = Ledger {
            proto,
            seed,
            items,
            coords,
            deltas,
            visits: Vec::new(),
            reports: Vec::new(),
            candidate_hits: 0,
            elections: 0,
            exchanges: 0,
        };
        let report = |source, estimated_qweight| Report {
            source,
            estimated_qweight,
        };
        for (i, (&HashedKey { bucket, fp }, &delta)) in
            ledger.coords.iter().zip(&ledger.deltas).enumerate()
        {
            match candidate.offer_or_min(bucket, fp, delta) {
                OfferOutcome::Updated { qweight } => {
                    ledger.candidate_hits += 1;
                    if meets(qweight) {
                        candidate.reset_entry(bucket, fp);
                        ledger
                            .reports
                            .push((i, report(ReportSource::Candidate, qweight)));
                    }
                }
                OfferOutcome::Inserted => {
                    if meets(delta) {
                        candidate.reset_entry(bucket, fp);
                        ledger
                            .reports
                            .push((i, report(ReportSource::Candidate, delta)));
                    }
                }
                OfferOutcome::BucketFull { min_fp, min_qw } => {
                    let vk = VagueKey::new(bucket, fp);
                    let lanes = vague.prepare_lanes(vk);
                    let estimate = vague.add_and_estimate(vk, &lanes, delta);
                    let mut visit = Visit {
                        item: i as u32,
                        estimate,
                        pulled: 0,
                        min_qw,
                        min_fp,
                        reported: meets(estimate),
                        won: false,
                    };
                    if visit.reported {
                        vague.fetch_remove(vk, &lanes, estimate);
                        ledger
                            .reports
                            .push((i, report(ReportSource::Vague, estimate)));
                    } else {
                        ledger.elections += 1;
                        visit.won = proto.strategy().should_replace(estimate, min_qw, &mut rng);
                        if visit.won {
                            visit.pulled = vague.fetch_remove(vk, &lanes, estimate);
                            vague.add(VagueKey::new(bucket, min_fp), min_qw);
                            candidate.replace(bucket, min_fp, fp, visit.pulled);
                            ledger.exchanges += 1;
                        }
                    }
                    ledger.visits.push(visit);
                }
            }
        }
        ledger
    }

    /// The hash stage into `out` (one slot per item); returns its time.
    fn hash(proto: &QuantileFilter, items: &[(u64, f64)], out: &mut [HashedKey]) -> f64 {
        let candidate = proto.candidate_part();
        timed(|| {
            for (slot, (k, _)) in out.iter_mut().zip(items) {
                *slot = candidate.coords_of(k);
            }
        })
        .1
    }

    /// The rounding stage into `out` (one slot per item); returns its time.
    fn round(proto: &QuantileFilter, seed: u64, items: &[(u64, f64)], out: &mut [i64]) -> f64 {
        let criteria = proto.default_criteria();
        let (threshold, above) = (criteria.threshold(), criteria.weight_above());
        let mut rounder = StochasticRounder::new(seed ^ ROUNDER_SEED);
        timed(|| {
            for (slot, &(_, v)) in out.iter_mut().zip(items) {
                *slot = rounder.round(if v > threshold { above } else { -1.0 });
            }
        })
        .1
    }

    /// Vague-part visits (items whose candidate bucket was full).
    pub fn visits(&self) -> u64 {
        self.visits.len() as u64
    }

    /// Time every stage once, each on its own and on fresh state. The
    /// hash and rounding stages write into `scratch`, which the caller
    /// keeps across calls so that its first touch is not timed twice.
    pub fn time_stages(&self, scratch: &mut (Vec<HashedKey>, Vec<i64>)) -> StageTimes {
        let report_at = self.proto.default_criteria().report_threshold();
        let meets = |qw: i64| qw as f64 + 1e-9 >= report_at;

        scratch
            .0
            .resize(self.items.len(), HashedKey { bucket: 0, fp: 0 });
        scratch.1.resize(self.items.len(), 0);
        let hash = Self::hash(self.proto, self.items, &mut scratch.0);
        let round = Self::round(self.proto, self.seed, self.items, &mut scratch.1);

        let mut candidate_part = self.proto.candidate_part().clone();
        let (_, candidate) = timed(|| {
            let mut visits = self.visits.iter();
            for (&HashedKey { bucket, fp }, &delta) in self.coords.iter().zip(&self.deltas) {
                match candidate_part.offer_or_min(bucket, fp, delta) {
                    OfferOutcome::Updated { qweight } => {
                        if meets(qweight) {
                            candidate_part.reset_entry(bucket, fp);
                        }
                    }
                    OfferOutcome::Inserted => {
                        if meets(delta) {
                            candidate_part.reset_entry(bucket, fp);
                        }
                    }
                    OfferOutcome::BucketFull { .. } => {
                        if let Some(v) = visits.next().filter(|v| v.won) {
                            candidate_part.replace(bucket, v.min_fp, fp, v.pulled);
                        }
                    }
                }
            }
        });

        let mut vague_part = self.proto.vague_part().clone();
        let (_, vague) = timed(|| {
            for v in &self.visits {
                let i = v.item as usize;
                let HashedKey { bucket, fp } = self.coords[i];
                let vk = VagueKey::new(bucket, fp);
                let lanes = vague_part.prepare_lanes(vk);
                let estimate = vague_part.add_and_estimate(vk, &lanes, self.deltas[i]);
                if meets(estimate) {
                    vague_part.fetch_remove(vk, &lanes, estimate);
                } else if v.won {
                    vague_part.fetch_remove(vk, &lanes, estimate);
                    vague_part.add(VagueKey::new(bucket, v.min_fp), v.min_qw);
                }
            }
        });

        let strategy = self.proto.strategy();
        let mut rng = SplitMix64::new(self.seed ^ ELECTION_SEED);
        let (_, election) = timed(|| {
            self.visits
                .iter()
                .filter(|v| !v.reported)
                .filter(|v| strategy.should_replace(v.estimate, v.min_qw, &mut rng))
                .count()
        });

        StageTimes {
            hash,
            round,
            candidate,
            vague,
            election,
        }
    }
}
