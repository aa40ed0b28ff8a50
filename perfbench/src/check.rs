//! Output checks: the exact-detector reference, report-sequence matching
//! and the pipeline's conservation laws. Every violation is counted as a
//! failed operation.

use qf_baselines::{ExactDetector, OutstandingDetector};
use qf_pipeline::{PipelineSummary, ReportEvent};
use quantile_filter::{Criteria, QuantileFilter, Report};
use std::collections::HashSet;

/// One report of a serial reference run: the index of the item that
/// caused it, and the report itself.
pub type RefReport = (usize, Report);

/// Serial `insert_batch` over `items` on `filter`: the reference report
/// sequence every measured run of the same filter must reproduce.
pub fn reference_reports(filter: &mut QuantileFilter, items: &[(u64, f64)]) -> Vec<RefReport> {
    let mut out = Vec::new();
    filter.insert_batch(items, &mut |i, r| out.push((i, r)));
    out
}

/// Reports of `got` that differ from `want`, position by position,
/// missing and surplus reports included.
pub fn mismatches(got: &[RefReport], want: &[RefReport]) -> u64 {
    let differ = got.iter().zip(want).filter(|(a, b)| a != b).count();
    (differ + got.len().abs_diff(want.len())) as u64
}

/// Keys `ExactDetector` reports over `items`.
pub fn exact_keys(criteria: Criteria, items: &[(u64, f64)]) -> HashSet<u64> {
    let mut exact = ExactDetector::new(criteria);
    items
        .iter()
        .filter(|&&(k, v)| exact.insert(k, v))
        .map(|&(k, _)| k)
        .collect()
}

/// Precision and recall of a reported key set against the exact one. An
/// empty side counts as perfect on that side.
pub fn precision_recall(reported: &HashSet<u64>, exact: &HashSet<u64>) -> (f64, f64) {
    let hit = reported.intersection(exact).count() as f64;
    let ratio = |n: usize| if n == 0 { 1.0 } else { hit / n as f64 };
    (ratio(reported.len()), ratio(exact.len()))
}

/// Match a shard's reports, in arrival order, to the serial reference of
/// that shard's items: the k-th report must equal the reference's k-th, in
/// key and payload. Returns, per report, the index (into `shard_items`) of
/// the item that caused it (`None` for a mismatch), and the number of
/// mismatches, missing and surplus reports included.
pub fn match_reports(
    reference: &[RefReport],
    shard_items: &[(u64, f64)],
    got: &[ReportEvent],
) -> (Vec<Option<usize>>, u64) {
    let mut failed = reference.len().abs_diff(got.len()) as u64;
    let causes = got
        .iter()
        .zip(reference.iter().map(Some).chain(std::iter::repeat(None)))
        .map(|(event, want)| match want {
            Some(&(i, report)) if shard_items[i].0 == event.key && report == event.report => {
                Some(i)
            }
            Some(_) => {
                failed += 1;
                None
            }
            None => None,
        })
        .collect();
    (causes, failed)
}

/// Items the pipeline lost or refused, plus one per broken conservation
/// law: `offered == enqueued + dropped + rejected` and
/// `enqueued == processed + shed + lost_to_crash`.
pub fn pipeline_failures(s: &PipelineSummary, offered: u64) -> u64 {
    let laws = [
        s.offered == offered,
        s.offered == s.enqueued + s.dropped + s.rejected,
        s.enqueued == s.processed + s.shed + s.lost_to_crash,
    ];
    s.dropped
        + s.shed
        + s.rejected
        + s.lost_to_crash
        + laws.iter().filter(|&&held| !held).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantile_filter::ReportSource;

    fn event(key: u64, qw: i64) -> ReportEvent {
        ReportEvent {
            shard: 0,
            key,
            report: Report {
                source: ReportSource::Candidate,
                estimated_qweight: qw,
            },
        }
    }

    fn reference() -> (Vec<(u64, f64)>, Vec<RefReport>) {
        let items = vec![(5, 1.0), (7, 1.0), (5, 1.0), (9, 1.0)];
        let r = |qw| Report {
            source: ReportSource::Candidate,
            estimated_qweight: qw,
        };
        (items, vec![(1, r(40)), (3, r(41))])
    }

    #[test]
    fn reports_match_the_items_that_caused_them() {
        let (items, reference) = reference();
        let (causes, failed) = match_reports(&reference, &items, &[event(7, 40), event(9, 41)]);
        assert_eq!(causes, vec![Some(1), Some(3)]);
        assert_eq!(failed, 0);
    }

    #[test]
    fn wrong_key_payload_or_count_is_a_failure() {
        let (items, reference) = reference();
        let (causes, failed) = match_reports(&reference, &items, &[event(5, 40), event(9, 99)]);
        assert_eq!(causes, vec![None, None]);
        assert_eq!(failed, 2);
        let (causes, failed) = match_reports(&reference, &items, &[event(7, 40)]);
        assert_eq!(causes, vec![Some(1)]);
        assert_eq!(failed, 1, "a missing report counts");
        let extra = [event(7, 40), event(9, 41), event(5, 1)];
        let (causes, failed) = match_reports(&reference, &items, &extra);
        assert_eq!(causes, vec![Some(1), Some(3), None]);
        assert_eq!(failed, 1, "a surplus report counts");
    }

    #[test]
    fn precision_and_recall_of_key_sets() {
        let set = |keys: &[u64]| keys.iter().copied().collect::<HashSet<_>>();
        let (p, r) = precision_recall(&set(&[1, 2, 3, 4]), &set(&[2, 3, 4, 5, 6]));
        assert_eq!((p, r), (0.75, 0.6));
        assert_eq!(precision_recall(&set(&[]), &set(&[])), (1.0, 1.0));
    }
}
