//! The Vector-Approximation File (Weber, Schek & Blott, VLDB 1998).
//!
//! The VA-File is the paper's strongest sequential competitor (Table 4): a
//! small approximation (typically 8 bits per dimension) of every vector is
//! scanned in a *filter* step that produces a candidate set with safe
//! score bounds; a *refinement* step then looks up the exact vectors of the
//! candidates and resolves the true top k, under any decomposable metric.
//!
//! The filter keeps the k-th best *pessimistic* bound τ and retains every
//! vector whose *optimistic* bound can still reach it, which is precisely
//! the VA-SSA variant of the original paper.
//!
//! Nothing about the codes or the bounds is implemented here. The
//! approximation is a one-segment [`StoreCodes`]
//! ([`StoreCodes::whole_table`]) and the filter sweep is the execution
//! engine's quantized first pass
//! ([`bond::quantfilter::interval_scores`]): per-cell contribution LUTs
//! accumulated over every code column by the dispatched ISA kernel. The
//! baseline, compressed BOND and the engine therefore agree by
//! construction on what the codes prove.

use bond::quantfilter;
use bond::BondError;
use bond_metrics::{DecomposableMetric, Objective};
use vdstore::topk::Scored;
use vdstore::{
    DecomposedTable, Result, RowId, RowMatrix, StoreCodes, TopKLargest, TopKSmallest, VdError,
};

/// The result of a complete VA-File search (filter + refinement).
#[derive(Debug, Clone, PartialEq)]
pub struct VaSearchResult {
    /// The k best rows, best first, with exact scores.
    pub hits: Vec<Scored>,
    /// Number of vectors surviving the filter step (those needing exact
    /// refinement) — the quantity Table 4 compares against BOND-on-codes.
    pub candidates_after_filter: usize,
    /// Per-dimension code inspections performed in the filter step.
    pub filter_dims_touched: usize,
    /// Per-dimension exact-value inspections performed in the refinement.
    pub refine_dims_touched: usize,
}

/// A vector-approximation file over a decomposed table.
#[derive(Debug, Clone)]
pub struct VaFile {
    codes: StoreCodes,
}

impl VaFile {
    /// Builds the approximation with the given number of bits per dimension
    /// (1..=8; the paper and the original VA-File use 8).
    pub fn build(table: &DecomposedTable, bits: u8) -> Result<Self> {
        Ok(VaFile { codes: StoreCodes::whole_table(table, bits)? })
    }

    /// The underlying whole-table codes.
    pub fn codes(&self) -> &StoreCodes {
        &self.codes
    }

    /// Size of the approximation file in bytes: one code byte per
    /// (row, dimension).
    pub fn approx_bytes(&self) -> usize {
        self.codes.rows() * self.codes.dims()
    }

    /// Filter step under any decomposable metric: sweeps every code column
    /// into per-row optimistic and pessimistic full-score bounds, proves
    /// the k-th best pessimistic bound τ and keeps every row whose
    /// optimistic bound can still reach it. Returns the candidate rows and
    /// the number of code inspections.
    ///
    /// Metrics that leave the default (vacuous) interval bounds degenerate
    /// the filter to "keep everything" — never to a wrong answer.
    ///
    /// # Errors
    ///
    /// [`VdError::DimensionMismatch`] when the query's length differs from
    /// the table's dimensionality; [`VdError::InvalidK`] when `k` is zero.
    pub fn filter_metric(
        &self,
        metric: &dyn DecomposableMetric,
        query: &[f64],
        k: usize,
    ) -> Result<(Vec<RowId>, usize)> {
        let rows = self.codes.rows();
        let dims = self.codes.dims();
        if query.len() != dims {
            return Err(VdError::DimensionMismatch { expected: dims, actual: query.len() });
        }
        if k == 0 {
            return Err(VdError::InvalidK { k, rows });
        }
        let bounds = quantfilter::interval_scores(&self.codes.segment_view(0)?, metric, query)
            .map_err(|e| match e {
                BondError::Storage(e) => e,
                other => VdError::InvalidArgument(other.to_string()),
            })?;
        let tau = match metric.objective() {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(k.min(rows));
                for (r, &p) in bounds.pes.iter().enumerate() {
                    heap.push(r as RowId, p);
                }
                heap.kth()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(k.min(rows));
                for (r, &p) in bounds.pes.iter().enumerate() {
                    heap.push(r as RowId, p);
                }
                heap.kth()
            }
        };
        // a vacuous (infinite) pessimistic bound proves nothing
        let candidates: Vec<RowId> = match tau.filter(|t| t.is_finite()) {
            None => (0..rows as RowId).collect(),
            Some(tau) => (0..rows as RowId)
                .filter(|&r| match metric.objective() {
                    Objective::Maximize => bounds.opt[r as usize] >= tau - 1e-12,
                    Objective::Minimize => bounds.opt[r as usize] <= tau + 1e-12,
                })
                .collect(),
        };
        Ok((candidates, bounds.cells as usize))
    }

    /// Complete search (filter + exact refinement) under any decomposable
    /// metric. `exact` must hold the original vectors. Fails like
    /// [`VaFile::filter_metric`].
    pub fn search_metric(
        &self,
        exact: &RowMatrix,
        metric: &dyn DecomposableMetric,
        query: &[f64],
        k: usize,
    ) -> Result<VaSearchResult> {
        let (candidates, filter_work) = self.filter_metric(metric, query, k)?;
        let cap = k.min(candidates.len().max(1));
        let hits = match metric.objective() {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(cap);
                for &r in &candidates {
                    heap.push(r, metric.score(exact.row(r), query));
                }
                heap.into_sorted_vec()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(cap);
                for &r in &candidates {
                    heap.push(r, metric.score(exact.row(r), query));
                }
                heap.into_sorted_vec()
            }
        };
        Ok(VaSearchResult {
            hits,
            candidates_after_filter: candidates.len(),
            filter_dims_touched: filter_work,
            refine_dims_touched: candidates.len() * exact.dims(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqscan::sequential_scan;
    use bond_metrics::{HistogramIntersection, SquaredEuclidean};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_table(rows: usize, dims: usize, seed: u64) -> DecomposedTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let vectors: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                let mut v: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
                let s: f64 = v.iter().sum();
                for x in &mut v {
                    *x /= s;
                }
                v
            })
            .collect();
        DecomposedTable::from_vectors("rand", &vectors).unwrap()
    }

    #[test]
    fn euclidean_search_matches_sequential_scan() {
        let table = random_table(400, 12, 3);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        for (qi, k) in [(0u32, 1usize), (5, 5), (17, 10)] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, k, &SquaredEuclidean);
            let result = va.search_metric(&exact, &SquaredEuclidean, &query, k).unwrap();
            let rows = |hits: &[Scored]| {
                let mut v: Vec<RowId> = hits.iter().map(|s| s.row).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(rows(&truth.hits), rows(&result.hits), "query {qi}, k {k}");
            assert!(result.candidates_after_filter >= k);
            assert!(result.candidates_after_filter < exact.rows());
        }
    }

    #[test]
    fn histogram_search_matches_sequential_scan() {
        let table = random_table(400, 12, 7);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        for (qi, k) in [(3u32, 1usize), (42, 5), (99, 10)] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, k, &HistogramIntersection);
            let result = va.search_metric(&exact, &HistogramIntersection, &query, k).unwrap();
            let rows = |hits: &[Scored]| {
                let mut v: Vec<RowId> = hits.iter().map(|s| s.row).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(rows(&truth.hits), rows(&result.hits), "query {qi}, k {k}");
        }
    }

    #[test]
    fn fewer_bits_mean_more_candidates() {
        let table = random_table(500, 8, 11);
        let query = table.row(0).unwrap();
        let va8 = VaFile::build(&table, 8).unwrap();
        let va2 = VaFile::build(&table, 2).unwrap();
        let (c8, _) = va8.filter_metric(&SquaredEuclidean, &query, 10).unwrap();
        let (c2, _) = va2.filter_metric(&SquaredEuclidean, &query, 10).unwrap();
        assert!(
            c2.len() >= c8.len(),
            "coarser quantization cannot produce fewer candidates ({} vs {})",
            c2.len(),
            c8.len()
        );
        assert!(va2.approx_bytes() <= va8.approx_bytes());
    }

    #[test]
    fn filter_never_discards_a_true_neighbor() {
        let table = random_table(300, 10, 13);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 4).unwrap();
        for qi in [1u32, 50, 200] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, 10, &SquaredEuclidean);
            let (candidates, _) = va.filter_metric(&SquaredEuclidean, &query, 10).unwrap();
            for hit in &truth.hits {
                assert!(
                    candidates.contains(&hit.row),
                    "true neighbour {} missing from the candidate set",
                    hit.row
                );
            }
        }
    }

    /// The generic filter serves metrics the hand-rolled filters never
    /// knew: weighted Euclidean flows through the same shared
    /// `best/worst_contribution` bounds and matches the sequential truth.
    #[test]
    fn weighted_metrics_flow_through_the_shared_bounds() {
        use bond_metrics::WeightedSquaredEuclidean;
        let table = random_table(300, 8, 23);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        let metric =
            WeightedSquaredEuclidean::new(vec![2.0, 0.5, 1.0, 3.0, 1.0, 0.0, 1.5, 1.0]).unwrap();
        for qi in [4u32, 120, 250] {
            let query = table.row(qi).unwrap();
            let truth = sequential_scan(&exact, &query, 10, &metric);
            let result = va.search_metric(&exact, &metric, &query, 10).unwrap();
            let rows = |hits: &[Scored]| {
                let mut v: Vec<RowId> = hits.iter().map(|s| s.row).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(rows(&truth.hits), rows(&result.hits), "query {qi}");
            assert!(result.candidates_after_filter < exact.rows());
        }
    }

    #[test]
    fn work_accounting_is_reported() {
        let table = random_table(100, 6, 17);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        let query = table.row(9).unwrap();
        let r = va.search_metric(&exact, &SquaredEuclidean, &query, 3).unwrap();
        assert_eq!(r.filter_dims_touched, 600);
        assert_eq!(r.refine_dims_touched, r.candidates_after_filter * 6);
        assert_eq!(r.hits.len(), 3);
        assert_eq!(va.codes().bits(), 8);
    }

    #[test]
    fn query_dimension_mismatch_is_a_typed_error() {
        let table = random_table(50, 6, 19);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        let expected = VdError::DimensionMismatch { expected: 6, actual: 4 };
        assert_eq!(va.filter_metric(&SquaredEuclidean, &[0.1; 4], 3).unwrap_err(), expected);
        assert_eq!(
            va.search_metric(&exact, &HistogramIntersection, &[0.1; 4], 3).unwrap_err(),
            expected
        );
    }

    #[test]
    fn zero_k_is_a_typed_error() {
        let table = random_table(50, 6, 29);
        let exact = table.to_row_matrix();
        let va = VaFile::build(&table, 8).unwrap();
        let query = table.row(0).unwrap();
        let expected = VdError::InvalidK { k: 0, rows: 50 };
        assert_eq!(va.filter_metric(&SquaredEuclidean, &query, 0).unwrap_err(), expected);
        assert_eq!(
            va.search_metric(&exact, &HistogramIntersection, &query, 0).unwrap_err(),
            expected
        );
    }
}
