//! Soundness of the shared per-cell contribution LUTs.
//!
//! Every quantized consumer — the engine's quantized filter, BOND on
//! compressed fragments and the VA-File — prunes on the `[best, worst]`
//! pairs of one LUT build: the portable [`CodeParams::fill_cell_bounds`] +
//! [`DecomposableMetric::fill_contribution_pairs`] pair, or the fused
//! [`kernels::fill_pair_lut`]. This checks that build directly instead of
//! through end results: for every metric, bit width 1..=8 and random grid
//! (degenerate `min == max` included), the pair at `encode(v)` brackets
//! `contribution(d, v, q)` for any `v` in the grid's range — cell edges
//! included — and any query value, on the portable build and on every
//! supported fused kernel.

use bond::kernels::{self, Kernel};
use bond_metrics::{
    DecomposableMetric, HistogramIntersection, Objective, SquaredEuclidean,
    WeightedHistogramIntersection, WeightedSquaredEuclidean,
};
use proptest::prelude::*;
use vdstore::CodeParams;

const DIMS: usize = 4;

/// Asserts `pair = [best, worst]` brackets `exact` in the metric's
/// objective direction.
fn brackets(objective: Objective, pair: &[f64], exact: f64) -> bool {
    let (best, worst) = (pair[0], pair[1]);
    match objective {
        Objective::Maximize => worst <= exact && exact <= best,
        Objective::Minimize => best <= exact && exact <= worst,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lut_pairs_bracket_every_contribution_in_the_cell(
        metric_index in 0usize..4,
        weights in proptest::collection::vec(0.05f64..=4.0, DIMS),
        dim in 0usize..DIMS,
        bits in 1u8..=8,
        min in -2.0f64..2.0,
        span in 0.0f64..3.0,
        degenerate in proptest::bool::ANY,
        position in 0.0f64..=1.0,
        on_edge in proptest::bool::ANY,
        edge in 0u32..256,
        query in -3.0f64..3.0,
    ) {
        let w_hist = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let w_euc = WeightedSquaredEuclidean::new(weights).unwrap();
        let metrics: [&dyn DecomposableMetric; 4] =
            [&HistogramIntersection, &SquaredEuclidean, &w_hist, &w_euc];
        let metric = metrics[metric_index];
        let max = if degenerate { min } else { min + span };
        let grid = CodeParams::new(min, max, bits).unwrap();
        // a value strictly inside the range, or exactly on a cell's lower
        // edge, where encode's rounding decides the cell
        let value = if on_edge {
            grid.cell_bounds((edge % grid.levels()) as u8).0
        } else {
            (min + position * (max - min)).min(max)
        };
        let code = grid.encode(value) as usize;
        let exact = metric.contribution(dim, value, query);
        let levels = grid.levels() as usize;

        let mut bounds = vec![(0.0, 0.0); levels];
        grid.fill_cell_bounds(&mut bounds);
        let mut portable = vec![0.0; levels * 2];
        metric.fill_contribution_pairs(dim, &bounds, query, &mut portable);
        let pair = &portable[2 * code..2 * code + 2];
        prop_assert!(
            brackets(metric.objective(), pair, exact),
            "{} portable: {pair:?} does not bracket {exact} (v={value}, q={query}, {grid:?})",
            metric.name()
        );

        let op = metric.kernel_op().unwrap();
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_supported()) {
            let mut fused = vec![0.0; levels * 2];
            if kernels::fill_pair_lut(kernel, op, dim, grid, query, &mut fused) {
                let pair = &fused[2 * code..2 * code + 2];
                prop_assert!(
                    brackets(metric.objective(), pair, exact),
                    "{} {}: {pair:?} does not bracket {exact} (v={value}, q={query}, {grid:?})",
                    metric.name(),
                    kernel.label()
                );
            }
        }
    }
}
