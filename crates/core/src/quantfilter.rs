//! The quantized first-pass scan kernel.
//!
//! Section 7.4 of the paper composes BOND with VA-File-style codes: prune
//! on small approximations first, touch exact values only for survivors.
//! This module is that first pass in the shape the execution engine's hot
//! loop wants it: a word-wise sweep over flat `&[u8]` code fragments with
//! **no per-row branching** — per dimension the kernel builds two tiny
//! lookup tables (one entry per quantization level, at most 256) holding
//! the best and worst contribution any value in that cell can make, then
//! accumulates both per-row running bounds in 64-cell blocks the
//! auto-vectorizer can unroll. After all dimensions the row's exact score
//! is bracketed by `[pes, opt]` (Maximize; the interval flips roles under
//! Minimize):
//!
//! * the k-th best **pessimistic** bound over live rows is a valid κ for
//!   the whole query (k rows provably score at least that well), and
//! * every row whose **optimistic** bound cannot reach κ can be dropped
//!   before a single exact `f64` is read.
//!
//! Safety rests on one invariant, property-tested per metric in
//! `bond-metrics` and on the built LUTs themselves in
//! `crates/core/tests/lut_bounds.rs`:
//! `worst_contribution ≤ contribution ≤ best_contribution` for any value
//! inside the cell. Metrics that do not override
//! `worst_contribution` keep the vacuous default, which degenerates the
//! filter to "keep everything" — never to a wrong answer.
//!
//! The same interval, collapsed to its midpoint, powers the approximate
//! scan mode: [`approximate_topk`] ranks live rows by midpoint score and
//! reports half the interval width as a per-hit error bound.

use std::cell::RefCell;

use bond_metrics::{DecomposableMetric, Objective};
use vdstore::topk::Scored;
use vdstore::{Bitmap, CodeParams, SegmentCodesView, TopKLargest, TopKSmallest};

use crate::error::{BondError, Result};
use crate::kappa::KappaCell;
use crate::kernels::{self, Kernel};
use crate::searcher::prune_slack;

/// Per-row full-score interval bounds proven from the codes alone.
#[derive(Debug, Clone)]
pub struct QuantIntervals {
    /// Optimistic bound per local row: no exact score can beat it.
    pub opt: Vec<f64>,
    /// Pessimistic bound per local row: every exact score is at least
    /// (Maximize) / at most (Minimize) this good.
    pub pes: Vec<f64>,
    /// Number of `(row, dimension)` code cells swept.
    pub cells: u64,
}

/// Reusable working memory of the quantized filter: the two per-row bound
/// accumulators plus the two per-level contribution LUTs.
///
/// Allocated fresh, these four `Vec`s were the filter path's only per-task
/// allocations; hoisting them into a scratch that lives as long as the
/// worker (the engine keeps one per thread, see [`filter_segment`]) makes
/// the sweep itself allocation-free once the buffers have grown to the
/// segment's size — a property the `zero_alloc_filter` integration test
/// pins with a counting allocator.
#[derive(Debug, Default)]
pub struct QuantScratch {
    opt: Vec<f64>,
    pes: Vec<f64>,
    opt_lut: Vec<f64>,
    pes_lut: Vec<f64>,
    /// Interleaved `[opt, pes]` accumulator for the dimension-blocked
    /// kernels (see [`kernels::sweep_pairs`]); `opt_lut` doubles as their
    /// interleaved pair-LUT storage.
    inter: Vec<f64>,
    /// Per-level `(lo, hi)` cell bounds of the dimension currently having
    /// its LUT built — input to the metric's batched
    /// `fill_contribution_pairs`.
    bounds: Vec<(f64, f64)>,
}

impl QuantScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        QuantScratch::default()
    }

    /// The optimistic bounds of the last [`interval_scores_into`] sweep.
    pub fn opt(&self) -> &[f64] {
        &self.opt
    }

    /// The pessimistic bounds of the last [`interval_scores_into`] sweep.
    pub fn pes(&self) -> &[f64] {
        &self.pes
    }
}

thread_local! {
    /// One scratch per worker thread. The engine runs each (query,
    /// segment) task on one rayon-style worker, so this is exactly the
    /// "per-task scratch" the filter path wants without threading a
    /// handle through every call site.
    static SCRATCH: RefCell<QuantScratch> = RefCell::new(QuantScratch::new());
}

/// Fills `lut` with one dimension's interleaved `[best, worst]`
/// contribution pairs, one per cell of `grid` (`lut.len()` must be
/// `2 * grid.levels()`): `lut[2*c]` / `lut[2*c + 1]` bracket the
/// contribution of any value inside cell `c` against `query`.
///
/// This is the one place a code grid becomes bounds. The fused ISA build
/// ([`kernels::fill_pair_lut`]) runs when the metric exposes a kernel op
/// and `kernel` has one; otherwise the portable
/// [`vdstore::CodeParams::fill_cell_bounds`] +
/// [`DecomposableMetric::fill_contribution_pairs`] build runs, with
/// `bounds` as its scratch. Both produce the same bits.
#[inline]
pub fn fill_contribution_lut(
    kernel: Kernel,
    metric: &dyn DecomposableMetric,
    dim: usize,
    grid: CodeParams,
    query: f64,
    bounds: &mut Vec<(f64, f64)>,
    lut: &mut [f64],
) {
    let fused = metric
        .kernel_op()
        .is_some_and(|op| kernels::fill_pair_lut(kernel, op, dim, grid, query, lut));
    if !fused {
        bounds.resize(grid.levels() as usize, (0.0, 0.0));
        grid.fill_cell_bounds(bounds);
        metric.fill_contribution_pairs(dim, bounds, query, lut);
    }
}

/// Sweeps all code fragments of one segment into `scratch` using the given
/// [`Kernel`], leaving the per-row interval `[pes, opt]` bracketing each
/// exact full-dimensional score in [`QuantScratch::pes`] /
/// [`QuantScratch::opt`]. Returns the number of code cells swept.
///
/// Once the scratch buffers have reached the segment's size, the whole
/// sweep — LUT builds included — performs no allocation.
pub fn interval_scores_into(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    kernel: Kernel,
    scratch: &mut QuantScratch,
) -> Result<u64> {
    let dims = codes.dims();
    if query.len() != dims {
        return Err(BondError::QueryDimensionMismatch { expected: dims, actual: query.len() });
    }
    let rows = codes.len();
    let levels = codes.levels();
    let group = kernels::sweep_group(kernel, levels);
    // The hot sweep: flat bytes in, two multiply-free accumulations out,
    // no branches on row content — dispatched to the pinned per-ISA
    // kernel. Bit-identical across kernels by contract: every row adds its
    // per-dimension contributions in dimension order either way.
    if group <= 1 {
        scratch.opt.clear();
        scratch.opt.resize(rows, 0.0);
        scratch.pes.clear();
        scratch.pes.resize(rows, 0.0);
        // one dimension at a time, straight into the bound arrays — the
        // reference pass structure
        scratch.opt_lut.resize(levels, 0.0);
        scratch.pes_lut.resize(levels, 0.0);
        scratch.inter.clear();
        scratch.inter.resize(levels * 2, 0.0);
        for (d, &q) in query.iter().enumerate() {
            let grid = codes.params(d);
            scratch.bounds.resize(levels, (0.0, 0.0));
            grid.fill_cell_bounds(&mut scratch.bounds);
            metric.fill_contribution_pairs(d, &scratch.bounds, q, &mut scratch.inter);
            for (code, pair) in scratch.inter.chunks_exact(2).enumerate() {
                scratch.opt_lut[code] = pair[0];
                scratch.pes_lut[code] = pair[1];
            }
            let column = codes.dim_codes(d)?;
            kernels::sweep(
                kernel,
                column,
                &scratch.opt_lut,
                &scratch.pes_lut,
                &mut scratch.opt,
                &mut scratch.pes,
            );
        }
        return Ok((rows * dims) as u64);
    }
    // The dimension-blocked kernels: up to `group` code columns fold into
    // an interleaved `[opt, pes]` accumulator per pass, with each cell's
    // contribution pair adjacent so the kernel fetches both in one load.
    // None of the output buffers need zeroing: the first block sweeps in
    // `init` mode and every row of `opt`/`pes` is overwritten by the final
    // de-interleave, so stale contents are only ever resized away.
    if scratch.inter.len() != rows * 2 {
        scratch.inter.clear();
        scratch.inter.resize(rows * 2, 0.0);
    }
    if scratch.opt.len() != rows {
        scratch.opt.clear();
        scratch.opt.resize(rows, 0.0);
        scratch.pes.clear();
        scratch.pes.resize(rows, 0.0);
    }
    scratch.opt_lut.resize(group * levels * 2, 0.0);
    let mut columns: [&[u8]; kernels::MAX_SWEEP_GROUP] = [&[]; kernels::MAX_SWEEP_GROUP];
    for start in (0..dims).step_by(group) {
        let g = group.min(dims - start);
        for (j, column) in columns.iter_mut().enumerate().take(g) {
            let d = start + j;
            let q = query[d];
            let grid = codes.params(d);
            let lut = &mut scratch.opt_lut[j * levels * 2..(j + 1) * levels * 2];
            fill_contribution_lut(kernel, metric, d, grid, q, &mut scratch.bounds, lut);
            *column = codes.dim_codes(d)?;
        }
        kernels::sweep_pairs(
            kernel,
            &columns[..g],
            &scratch.opt_lut,
            levels,
            &mut scratch.inter,
            start == 0,
        );
    }
    for (i, pair) in scratch.inter.chunks_exact(2).enumerate() {
        scratch.opt[i] = pair[0];
        scratch.pes[i] = pair[1];
    }
    Ok((rows * dims) as u64)
}

/// Sweeps all code fragments of one segment and returns, for every local
/// row, the interval `[pes, opt]` bracketing its exact full-dimensional
/// score under `metric`. Allocates a fresh result; the engine's hot path
/// goes through [`interval_scores_into`] and a per-thread scratch instead.
pub fn interval_scores(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
) -> Result<QuantIntervals> {
    let mut scratch = QuantScratch::new();
    let cells = interval_scores_into(codes, metric, query, Kernel::active(), &mut scratch)?;
    Ok(QuantIntervals { opt: scratch.opt, pes: scratch.pes, cells })
}

/// The result of the quantized first pass over one segment.
#[derive(Debug, Clone)]
pub struct QuantFilter {
    /// Live rows whose optimistic bound reaches κ — the only rows the
    /// exact scan needs to touch. Always a superset of the true top k.
    pub survivors: Bitmap,
    /// The κ proven from the codes (the k-th best pessimistic bound,
    /// tightened with the shared cell when one is given). `None` when the
    /// segment holds fewer than `k` live rows or the metric's bounds are
    /// vacuous — the filter then keeps everything.
    pub kappa: Option<f64>,
    /// Number of `(row, dimension)` code cells swept.
    pub cells: u64,
}

/// Runs the quantized filter over one segment: sweep codes, prove κ from
/// the pessimistic bounds, keep every live row whose optimistic bound can
/// still reach κ. Publishes the proven κ to `shared` (it is a valid bound
/// for the whole query, so sibling segments benefit immediately).
///
/// The sweep runs on the process-wide [`Kernel::active`] flavour and a
/// per-thread scratch, so steady-state calls allocate nothing beyond the
/// survivor bitmap and the κ heap.
pub fn filter_segment(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    live: &Bitmap,
    shared: Option<&dyn KappaCell>,
) -> Result<QuantFilter> {
    filter_segment_with_kernel(codes, metric, query, k, live, shared, Kernel::active())
}

/// [`filter_segment`] with an explicit kernel flavour — the entry point
/// tests and benches use to compare flavours inside one process (the
/// `BOND_KERNEL` override is latched once and cannot be varied later).
pub fn filter_segment_with_kernel(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    live: &Bitmap,
    shared: Option<&dyn KappaCell>,
    kernel: Kernel,
) -> Result<QuantFilter> {
    let rows = codes.len();
    if live.len() != rows {
        return Err(BondError::InvalidParams(format!(
            "live bitmap covers {} rows but the segment's codes cover {rows}",
            live.len()
        )));
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let cells = interval_scores_into(codes, metric, query, kernel, &mut scratch)?;
        let scratch = &*scratch;
        let objective = metric.objective();
        let local = match objective {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(k);
                for row in live.iter() {
                    heap.push(row, scratch.pes[row as usize]);
                }
                heap.kth()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(k);
                for row in live.iter() {
                    heap.push(row, scratch.pes[row as usize]);
                }
                heap.kth()
            }
        };
        // a vacuous (infinite) pessimistic bound proves nothing: do not
        // publish it, and keep every live row
        let local = local.filter(|v| v.is_finite());
        let kappa = match shared {
            None => local,
            Some(cell) => match local {
                Some(local) => Some(cell.tighten(local)),
                None => cell.current(),
            },
        };
        let mut survivors = Bitmap::new(rows);
        match kappa {
            None => {
                for row in live.iter() {
                    survivors.set(row);
                }
            }
            Some(kappa) => {
                let slack = prune_slack(kappa);
                for row in live.iter() {
                    let opt = scratch.opt[row as usize];
                    let keep = match objective {
                        Objective::Maximize => opt >= kappa - slack,
                        Objective::Minimize => opt <= kappa + slack,
                    };
                    if keep {
                        survivors.set(row);
                    }
                }
            }
        }
        Ok(QuantFilter { survivors, kappa, cells })
    })
}

/// The approximate (codes-only) answer for one segment.
#[derive(Debug, Clone)]
pub struct ApproxOutcome {
    /// The k best live rows by midpoint score, best first, with
    /// segment-local row ids.
    pub hits: Vec<Scored>,
    /// Per-hit error bound, parallel to `hits`: half the interval width —
    /// the exact score differs from the reported one by at most this.
    pub error_bounds: Vec<f64>,
    /// Number of `(row, dimension)` code cells swept.
    pub cells: u64,
}

/// Answers a top-k query from the codes alone: rows are ranked by the
/// midpoint of their score interval and each hit carries the bound on how
/// far its exact score can be. No exact fragment is read at all. Runs on
/// the process-wide [`Kernel::active`] flavour and the per-thread scratch.
pub fn approximate_topk(
    codes: &SegmentCodesView<'_>,
    metric: &dyn DecomposableMetric,
    query: &[f64],
    k: usize,
    live: &Bitmap,
) -> Result<ApproxOutcome> {
    let rows = codes.len();
    if live.len() != rows {
        return Err(BondError::InvalidParams(format!(
            "live bitmap covers {} rows but the segment's codes cover {rows}",
            live.len()
        )));
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let cells = interval_scores_into(codes, metric, query, Kernel::active(), &mut scratch)?;
        let scratch = &*scratch;
        let mid = |row: usize| 0.5 * (scratch.opt[row] + scratch.pes[row]);
        let hits = match metric.objective() {
            Objective::Maximize => {
                let mut heap = TopKLargest::new(k);
                for row in live.iter() {
                    heap.push(row, mid(row as usize));
                }
                heap.into_sorted_vec()
            }
            Objective::Minimize => {
                let mut heap = TopKSmallest::new(k);
                for row in live.iter() {
                    heap.push(row, mid(row as usize));
                }
                heap.into_sorted_vec()
            }
        };
        let error_bounds = hits
            .iter()
            .map(|h| {
                let row = h.row as usize;
                0.5 * (scratch.opt[row] - scratch.pes[row]).abs()
            })
            .collect();
        Ok(ApproxOutcome { hits, error_bounds, cells })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bond_metrics::{HistogramIntersection, SquaredEuclidean, WeightedSquaredEuclidean};
    use vdstore::{DecomposedTable, SegmentStats, StoreCodes};

    fn setup(partitions: usize) -> (DecomposedTable, StoreCodes) {
        let vectors: Vec<Vec<f64>> = (0..24)
            .map(|r| (0..4).map(|d| ((r * 4 + d) as f64 * 0.41).sin().abs()).collect())
            .collect();
        let table = DecomposedTable::from_vectors("qf", &vectors).unwrap();
        let specs = table.partition_specs(partitions);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
        (table, codes)
    }

    #[test]
    fn intervals_bracket_exact_scores_for_all_metrics() {
        let (table, codes) = setup(2);
        let query: Vec<f64> = table.row(5).unwrap();
        let weighted = WeightedSquaredEuclidean::new(vec![2.0, 0.5, 1.5, 3.0]).unwrap();
        let metrics: Vec<&dyn DecomposableMetric> =
            vec![&HistogramIntersection, &SquaredEuclidean, &weighted];
        for metric in metrics {
            for si in 0..codes.n_segments() {
                let view = codes.segment_view(si).unwrap();
                let iv = interval_scores(&view, metric, &query).unwrap();
                let spec = codes.specs()[si];
                for (local, global) in spec.range().enumerate() {
                    let v = table.row(global as u32).unwrap();
                    let exact = metric.score(&v, &query);
                    let (lo, hi) = match metric.objective() {
                        Objective::Maximize => (iv.pes[local], iv.opt[local]),
                        Objective::Minimize => (iv.opt[local], iv.pes[local]),
                    };
                    assert!(
                        lo <= exact + 1e-9 && exact <= hi + 1e-9,
                        "{}: row {global} score {exact} outside [{lo}, {hi}]",
                        metric.name()
                    );
                }
            }
        }
    }

    #[test]
    fn filter_keeps_the_true_top_k() {
        let (table, codes) = setup(1);
        let query: Vec<f64> = table.row(17).unwrap();
        let live = table.live_bitmap();
        let view = codes.segment_view(0).unwrap();
        for k in [1usize, 3, 10] {
            let filter =
                filter_segment(&view, &HistogramIntersection, &query, k, &live, None).unwrap();
            assert!(filter.kappa.is_some());
            assert_eq!(filter.cells, (table.rows() * table.dims()) as u64);
            // brute-force truth
            let mut scores: Vec<(u32, f64)> = (0..table.rows() as u32)
                .map(|r| (r, HistogramIntersection.score(&table.row(r).unwrap(), &query)))
                .collect();
            scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let survivors = filter.survivors.to_rows();
            for &(row, _) in &scores[..k] {
                assert!(survivors.contains(&row), "filter lost true top-{k} row {row}");
            }
            assert!(survivors.len() >= k);
        }
    }

    #[test]
    fn filter_respects_the_live_bitmap() {
        let (table, codes) = setup(1);
        let query: Vec<f64> = table.row(0).unwrap();
        let mut live = table.live_bitmap();
        live.clear(0); // the query row itself is the best match — kill it
        let view = codes.segment_view(0).unwrap();
        let filter = filter_segment(&view, &HistogramIntersection, &query, 3, &live, None).unwrap();
        assert!(!filter.survivors.to_rows().contains(&0));
    }

    #[test]
    fn vacuous_bounds_keep_everything() {
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
        let (table, codes) = setup(1);
        let query: Vec<f64> = table.row(2).unwrap();
        let live = table.live_bitmap();
        let view = codes.segment_view(0).unwrap();
        let filter = filter_segment(&view, &Opaque, &query, 2, &live, None).unwrap();
        assert!(filter.kappa.is_none(), "an infinite pessimistic bound proves nothing");
        assert_eq!(filter.survivors.to_rows().len(), table.live_rows());
    }

    #[test]
    fn approximate_hits_carry_honest_error_bounds() {
        let (table, codes) = setup(2);
        let query: Vec<f64> = table.row(9).unwrap();
        for si in 0..codes.n_segments() {
            let spec = codes.specs()[si];
            let view = codes.segment_view(si).unwrap();
            let live = table.live_bitmap().slice(spec.range());
            let approx = approximate_topk(&view, &SquaredEuclidean, &query, 3, &live).unwrap();
            assert_eq!(approx.hits.len(), approx.error_bounds.len());
            for (hit, &err) in approx.hits.iter().zip(&approx.error_bounds) {
                let global = spec.start() + hit.row as usize;
                let exact = SquaredEuclidean.score(&table.row(global as u32).unwrap(), &query);
                assert!(
                    (hit.score - exact).abs() <= err + 1e-9,
                    "hit {global}: |{} - {exact}| > {err}",
                    hit.score
                );
            }
        }
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let (_table, codes) = setup(1);
        let view = codes.segment_view(0).unwrap();
        assert!(interval_scores(&view, &HistogramIntersection, &[0.5; 2]).is_err());
        let short = Bitmap::new(3);
        assert!(filter_segment(&view, &HistogramIntersection, &[0.1; 4], 1, &short, None).is_err());
        assert!(approximate_topk(&view, &HistogramIntersection, &[0.1; 4], 1, &short).is_err());
    }
}
