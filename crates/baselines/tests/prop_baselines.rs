//! Property-based tests for the baselines: the VA-File filter may never lose
//! a true neighbour (whatever the bit width), the early-abandoning scan must
//! agree with the plain scan, and stream merging must agree with a brute
//! force evaluation of the aggregate whenever it certifies completeness.

use bond_baselines::{
    merge_streams, sequential_scan, sequential_scan_early_abandon, RankedStream, VaFile,
};
use bond_metrics::{
    DecomposableMetric, FuzzyMin, HistogramIntersection, ScoreAggregate, SquaredEuclidean,
    WeightedAverage,
};
use proptest::prelude::*;
use vdstore::topk::Scored;
use vdstore::DecomposedTable;

const DIMS: usize = 8;
const ROWS: usize = 50;

fn collection() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, DIMS), ROWS), 0..ROWS)
}

fn sorted_scores(hits: &[Scored]) -> Vec<f64> {
    let mut v: Vec<f64> = hits.iter().map(|h| h.score).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vafile_filter_never_loses_a_true_neighbor(
        (vectors, qi) in collection(),
        k in 1usize..=10,
        bits in 2u8..=8,
    ) {
        let table = DecomposedTable::from_vectors("t", &vectors).unwrap();
        let matrix = table.to_row_matrix();
        let query = vectors[qi].clone();
        let va = VaFile::build(&table, bits).unwrap();

        let truth_e = sequential_scan(&matrix, &query, k, &SquaredEuclidean);
        let (candidates, _) = va.filter_metric(&SquaredEuclidean, &query, k).unwrap();
        for hit in &truth_e.hits {
            prop_assert!(candidates.contains(&hit.row));
        }
        let full = va.search_metric(&matrix, &SquaredEuclidean, &query, k).unwrap();
        for (a, b) in sorted_scores(&full.hits).iter().zip(sorted_scores(&truth_e.hits)) {
            prop_assert!((a - b).abs() < 1e-9);
        }

        let truth_h = sequential_scan(&matrix, &query, k, &HistogramIntersection);
        let (candidates, _) = va.filter_metric(&HistogramIntersection, &query, k).unwrap();
        for hit in &truth_h.hits {
            prop_assert!(candidates.contains(&hit.row));
        }
    }

    #[test]
    fn early_abandon_scan_agrees_with_full_scan(
        (vectors, qi) in collection(),
        k in 1usize..=10,
        check_every in 1usize..=DIMS,
    ) {
        let table = DecomposedTable::from_vectors("t", &vectors).unwrap();
        let matrix = table.to_row_matrix();
        let query = vectors[qi].clone();
        for metric in [&HistogramIntersection as &dyn DecomposableMetric, &SquaredEuclidean] {
            let full = sequential_scan(&matrix, &query, k, metric);
            let fast = sequential_scan_early_abandon(&matrix, &query, k, metric, check_every);
            for (a, b) in sorted_scores(&fast.hits).iter().zip(sorted_scores(&full.hits)) {
                prop_assert!((a - b).abs() < 1e-9);
            }
            prop_assert!(fast.dims_touched <= full.dims_touched);
        }
    }

    #[test]
    fn stream_merge_is_correct_when_complete(
        sims in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 30),
            2..4
        ),
        k in 1usize..=5,
        use_min in proptest::bool::ANY,
    ) {
        let rows = sims[0].len();
        let streams: Vec<RankedStream> = sims
            .iter()
            .map(|per_feature| {
                RankedStream::new(
                    per_feature
                        .iter()
                        .enumerate()
                        .map(|(r, &s)| Scored { row: r as u32, score: s })
                        .collect(),
                )
            })
            .collect();
        let aggregate: Box<dyn ScoreAggregate> = if use_min {
            Box::new(FuzzyMin)
        } else {
            Box::new(WeightedAverage::uniform(sims.len()).unwrap())
        };
        let ra = |f: usize, row: u32| sims[f][row as usize];
        let result = merge_streams(&streams, &ra, aggregate.as_ref(), k);
        prop_assert!(result.complete, "full-depth streams must certify the result");

        // brute force
        let mut scored: Vec<(u32, f64)> = (0..rows)
            .map(|r| {
                let component: Vec<f64> = sims.iter().map(|s| s[r]).collect();
                (r as u32, aggregate.combine(&component))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let expected: Vec<f64> = {
            let mut v: Vec<f64> = scored.iter().take(k).map(|(_, s)| *s).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        for (a, b) in sorted_scores(&result.hits).iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
