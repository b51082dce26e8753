//! BOND on compressed (8-bit quantized) dimensional fragments
//! (Section 7.4, Figure 9 and Table 4).
//!
//! The approximation idea of the VA-File combines transparently with BOND:
//! the pruning iterations read the small per-dimension *codes* instead of
//! the exact doubles, which cuts the scanned volume by a factor of eight,
//! and a final refinement step computes exact scores only for the candidates
//! that survive. Because a code only brackets the original value, the
//! partial "score" of a candidate becomes an interval
//! `[partial_worst, partial_best]`; pruning compares a candidate's
//! optimistic full-score bound against the k-th best pessimistic one —
//! exactly the exact-value criteria with the quantization slack folded in,
//! so no true neighbour can be lost.
//!
//! The codes are a one-segment [`StoreCodes`]
//! ([`StoreCodes::whole_table`]), and the per-cell bounds come from the LUT
//! build the execution engine's quantized filter uses
//! ([`quantfilter::fill_contribution_lut`]): per scanned dimension, one
//! `[best, worst]` contribution pair per code cell, which every alive row
//! then picks up by its code byte. The paper runs this experiment with
//! histogram intersection (criterion Hq); the same interval argument holds
//! for every decomposable metric, so callers pass the metric.

use bond_metrics::{DecomposableMetric, Objective};
use vdstore::{DecomposedTable, RowId, StoreCodes, TopKLargest, TopKSmallest};

use crate::error::{BondError, Result};
use crate::kernels::Kernel;
use crate::ordering::DimensionOrdering;
use crate::quantfilter;
use crate::schedule::BlockSchedule;
use crate::searcher::{BondParams, SearchOutcome};
use crate::trace::{PruneTrace, TraceCheckpoint};

/// The result of the compressed filter phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedFilter {
    /// Rows that survived pruning on the quantized fragments.
    pub candidates: Vec<RowId>,
    /// The pruning trace over the compressed fragments.
    pub trace: PruneTrace,
}

/// Runs the BOND pruning loop on the codes of a one-segment [`StoreCodes`]
/// under any decomposable metric, returning the surviving candidate set
/// (guaranteed to contain the true top k).
///
/// Per scanned dimension a candidate accumulates the best- and worst-case
/// contribution of its code cell, read from the dimension's contribution
/// LUT; the unscanned remainder is bounded by the grids' `[min, max]`
/// envelopes. κ is the k-th best pessimistic full-score bound; a candidate
/// is pruned when its optimistic full-score bound cannot reach κ. Metrics
/// whose [`DecomposableMetric::worst_contribution`] keeps the vacuous
/// default degrade to an unpruned scan, never to a wrong answer.
pub fn compressed_filter(
    codes: &StoreCodes,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    schedule: BlockSchedule,
    ordering: &DimensionOrdering,
) -> Result<CompressedFilter> {
    let dims = codes.dims();
    let rows = codes.rows();
    if query.len() != dims {
        return Err(BondError::QueryDimensionMismatch { expected: dims, actual: query.len() });
    }
    if k == 0 || k > rows {
        return Err(BondError::InvalidK { k, rows });
    }
    if codes.n_segments() != 1 {
        return Err(BondError::InvalidParams(format!(
            "compressed search needs whole-table codes (one segment), got {} segments",
            codes.n_segments()
        )));
    }
    let view = codes.segment_view(0)?;
    let order = ordering.order(query, None, dims);
    if !DimensionOrdering::is_valid_permutation(&order, dims) {
        return Err(BondError::InvalidParams(
            "dimension ordering is not a permutation of the table's dimensions".into(),
        ));
    }
    let objective = metric.objective();
    let kernel = Kernel::active();

    let mut partial_best = vec![0.0f64; rows];
    let mut partial_worst = vec![0.0f64; rows];
    let mut alive: Vec<RowId> = (0..rows as RowId).collect();
    let mut trace = PruneTrace::default();
    let mut lut = vec![0.0f64; view.levels() * 2];
    let mut bounds = Vec::new();

    let mut processed = 0usize;
    let mut attempts = 0usize;
    loop {
        let block = schedule.next_block(processed, dims, attempts);
        if block == 0 {
            break;
        }
        for &d in &order[processed..processed + block] {
            quantfilter::fill_contribution_lut(
                kernel,
                metric,
                d,
                view.params(d),
                query[d],
                &mut bounds,
                &mut lut,
            );
            let column = view.dim_codes(d)?;
            for &row in &alive {
                let cell = 2 * column[row as usize] as usize;
                partial_best[row as usize] += lut[cell];
                partial_worst[row as usize] += lut[cell + 1];
            }
        }
        trace.contributions_evaluated += (block * alive.len()) as u64;
        processed += block;
        trace.dims_accessed = processed;
        if alive.len() <= k {
            break;
        }

        // The unscanned dimensions contribute at best/worst what their
        // whole grid envelope admits.
        let mut remaining_best = 0.0f64;
        let mut remaining_worst = 0.0f64;
        for &d in &order[processed..] {
            let grid = view.params(d);
            remaining_best += metric.best_contribution(d, grid.min, grid.max, query[d]);
            remaining_worst += metric.worst_contribution(d, grid.min, grid.max, query[d]);
        }
        let kappa = match objective {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(k);
                for &row in &alive {
                    heap.push(row, partial_worst[row as usize] + remaining_worst);
                }
                heap.kth()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(k);
                for &row in &alive {
                    heap.push(row, partial_worst[row as usize] + remaining_worst);
                }
                heap.kth()
            }
        };
        attempts += 1;
        trace.pruning_attempts = attempts;
        let mut pruned_now = 0;
        // an infinite pessimistic bound (vacuous metric default) proves
        // nothing — skip the pruning attempt entirely
        if let Some(kappa) = kappa.filter(|v| v.is_finite()) {
            let slack = crate::searcher::prune_slack(kappa);
            let before = alive.len();
            alive.retain(|&row| {
                let optimistic = partial_best[row as usize] + remaining_best;
                match objective {
                    Objective::Maximize => optimistic >= kappa - slack,
                    Objective::Minimize => optimistic <= kappa + slack,
                }
            });
            pruned_now = before - alive.len();
        }
        trace.checkpoints.push(TraceCheckpoint {
            dims_processed: processed,
            candidates: alive.len(),
            pruned_now,
        });
        if alive.len() <= k {
            break;
        }
    }

    Ok(CompressedFilter { candidates: alive, trace })
}

/// Complete compressed search under any decomposable metric: filter on the
/// whole-table codes, then refine the candidates with exact values from the
/// original table.
pub fn search_compressed(
    exact: &DecomposedTable,
    codes: &StoreCodes,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    params: &BondParams,
) -> Result<SearchOutcome> {
    if exact.rows() != codes.rows() || exact.dims() != codes.dims() {
        return Err(BondError::InvalidParams(
            "exact table and codes must describe the same collection".into(),
        ));
    }
    let filter = compressed_filter(codes, metric, query, k, params.schedule, &params.ordering)?;
    let mut trace = filter.trace;
    trace.contributions_evaluated += (filter.candidates.len() * exact.dims()) as u64;
    let hits = match metric.objective() {
        Objective::Maximize => {
            let mut heap = TopKLargest::new(k);
            for &row in &filter.candidates {
                heap.push(row, metric.score(&exact.row(row)?, query));
            }
            heap.into_sorted_vec()
        }
        Objective::Minimize => {
            let mut heap = TopKSmallest::new(k);
            for &row in &filter.candidates {
                heap.push(row, metric.score(&exact.row(row)?, query));
            }
            heap.into_sorted_vec()
        }
    };
    Ok(SearchOutcome { hits, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::searcher::BondSearcher;
    use bond_metrics::{
        HistogramIntersection, SquaredEuclidean, WeightedHistogramIntersection,
        WeightedSquaredEuclidean,
    };

    fn table() -> DecomposedTable {
        // 40 histograms over 8 bins with varying shapes
        let mut vectors = Vec::new();
        for i in 0..40usize {
            let mut v = vec![0.01; 8];
            v[i % 8] += 0.5;
            v[(i / 8) % 8] += 0.3 + 0.01 * i as f64;
            let total: f64 = v.iter().sum();
            for x in &mut v {
                *x /= total;
            }
            vectors.push(v);
        }
        DecomposedTable::from_vectors("hists", &vectors).unwrap()
    }

    /// Brute-force top-k row set under `metric`.
    fn brute_force(
        exact: &DecomposedTable,
        metric: &dyn DecomposableMetric,
        query: &[f64],
        k: usize,
    ) -> Vec<RowId> {
        let mut scored: Vec<(RowId, f64)> = (0..exact.rows() as RowId)
            .map(|r| (r, metric.score(&exact.row(r).unwrap(), query)))
            .collect();
        match metric.objective() {
            Objective::Maximize => scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap()),
            Objective::Minimize => scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap()),
        }
        let mut rows: Vec<RowId> = scored[..k].iter().map(|&(r, _)| r).collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn compressed_search_finds_the_exact_top_k() {
        let exact = table();
        let quantized = StoreCodes::whole_table(&exact, 8).unwrap();
        let searcher = BondSearcher::new(&exact);
        let params = BondParams { schedule: BlockSchedule::Fixed(2), ..BondParams::default() };
        for qi in [0u32, 7, 21] {
            let query = exact.row(qi).unwrap();
            for k in [1usize, 5, 10] {
                let truth = searcher.histogram_intersection_hq(&query, k, &params).unwrap();
                let compressed = search_compressed(
                    &exact,
                    &quantized,
                    &HistogramIntersection,
                    &query,
                    k,
                    &params,
                )
                .unwrap();
                let rows = |o: &SearchOutcome| {
                    let mut v: Vec<RowId> = o.hits.iter().map(|h| h.row).collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(rows(&truth), rows(&compressed), "query {qi}, k {k}");
                // scores after refinement are exact
                for (a, b) in truth.hits.iter().zip(&compressed.hits) {
                    assert!((a.score - b.score).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn all_four_metric_families_filter_safely() {
        // property-style sweep: for every metric family, across bit widths
        // and queries, the filter never loses a true neighbour and the
        // refined search returns exactly the brute-force answer
        let exact = table();
        let w_hist = WeightedHistogramIntersection::new(
            (0..8).map(|d| 0.25 + 0.5 * (d % 3) as f64).collect(),
        )
        .unwrap();
        let w_euc =
            WeightedSquaredEuclidean::new((0..8).map(|d| 0.1 + 0.7 * (d % 4) as f64).collect())
                .unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &w_hist, &w_euc];
        let params = BondParams { schedule: BlockSchedule::Fixed(2), ..BondParams::default() };
        for metric in metrics {
            for bits in [4u8, 8] {
                let quantized = StoreCodes::whole_table(&exact, bits).unwrap();
                for qi in [2u32, 13, 30] {
                    let query = exact.row(qi).unwrap();
                    for k in [1usize, 4, 9] {
                        let truth = brute_force(&exact, metric, &query, k);
                        let filter = compressed_filter(
                            &quantized,
                            metric,
                            &query,
                            k,
                            BlockSchedule::Fixed(2),
                            &DimensionOrdering::QueryValueDescending,
                        )
                        .unwrap();
                        for row in &truth {
                            assert!(
                                filter.candidates.contains(row),
                                "{} bits={bits} q={qi} k={k}: filter lost true neighbour {row}",
                                metric.name()
                            );
                        }
                        let searched =
                            search_compressed(&exact, &quantized, metric, &query, k, &params)
                                .unwrap();
                        let mut got: Vec<RowId> = searched.hits.iter().map(|h| h.row).collect();
                        got.sort_unstable();
                        assert_eq!(got, truth, "{} bits={bits} q={qi} k={k}", metric.name());
                    }
                }
            }
        }
    }

    #[test]
    fn filter_candidates_superset_of_top_k() {
        let exact = table();
        let quantized = StoreCodes::whole_table(&exact, 4).unwrap();
        let searcher = BondSearcher::new(&exact);
        let query = exact.row(3).unwrap();
        let params = BondParams::default();
        let truth = searcher.histogram_intersection_hq(&query, 5, &params).unwrap();
        let filter = compressed_filter(
            &quantized,
            &HistogramIntersection,
            &query,
            5,
            BlockSchedule::Fixed(2),
            &DimensionOrdering::QueryValueDescending,
        )
        .unwrap();
        for hit in &truth.hits {
            assert!(filter.candidates.contains(&hit.row), "lost true neighbour {}", hit.row);
        }
        assert!(!filter.trace.checkpoints.is_empty());
    }

    #[test]
    fn coarser_codes_leave_more_candidates() {
        let exact = table();
        let q8 = StoreCodes::whole_table(&exact, 8).unwrap();
        let q2 = StoreCodes::whole_table(&exact, 2).unwrap();
        let query = exact.row(11).unwrap();
        let run = |qt: &StoreCodes| {
            compressed_filter(
                qt,
                &HistogramIntersection,
                &query,
                3,
                BlockSchedule::Fixed(2),
                &DimensionOrdering::QueryValueDescending,
            )
            .unwrap()
            .candidates
            .len()
        };
        assert!(run(&q2) >= run(&q8));
    }

    #[test]
    fn vacuous_metrics_keep_every_candidate() {
        struct Opaque;
        impl DecomposableMetric for Opaque {
            fn objective(&self) -> Objective {
                Objective::Maximize
            }
            fn contribution(&self, _d: usize, v: f64, q: f64) -> f64 {
                v * q
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        let exact = table();
        let quantized = StoreCodes::whole_table(&exact, 8).unwrap();
        let query = exact.row(0).unwrap();
        let filter = compressed_filter(
            &quantized,
            &Opaque,
            &query,
            3,
            BlockSchedule::Fixed(2),
            &DimensionOrdering::Natural,
        )
        .unwrap();
        assert_eq!(filter.candidates.len(), exact.rows(), "no bound, no pruning");
    }

    #[test]
    fn validation() {
        let exact = table();
        let quantized = StoreCodes::whole_table(&exact, 8).unwrap();
        let params = BondParams::default();
        let hq = &HistogramIntersection;
        assert!(matches!(
            search_compressed(&exact, &quantized, hq, &[0.5; 3], 1, &params),
            Err(BondError::QueryDimensionMismatch { .. })
        ));
        assert!(matches!(
            search_compressed(&exact, &quantized, hq, &[0.125; 8], 0, &params),
            Err(BondError::InvalidK { .. })
        ));
        let other = DecomposedTable::from_vectors("other", &[vec![0.5, 0.5]]).unwrap();
        let other_q = StoreCodes::whole_table(&other, 8).unwrap();
        assert!(search_compressed(&exact, &other_q, hq, &[0.125; 8], 1, &params).is_err());
        // per-segment engine codes are not a whole-table grid
        let specs = exact.partition_specs(2);
        let stats: Vec<_> = specs.iter().map(|s| s.view(&exact).unwrap().stats()).collect();
        let segmented = StoreCodes::build(&exact, &specs, &stats, 8).unwrap();
        assert!(matches!(
            search_compressed(&exact, &segmented, hq, &[0.125; 8], 1, &params),
            Err(BondError::InvalidParams(_))
        ));
    }
}
