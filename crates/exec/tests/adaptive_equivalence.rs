//! The a-priori adaptive plans' contract: the per-segment plan a segment
//! gets from its statistics alone — what `PlannerKind::Feedback` runs on a
//! freshly built engine, before any execution feedback exists — together
//! with κ-aware whole-segment skipping returns the *same k-NN set and
//! ranks* as the sequential reference searcher, for every rule, any
//! partition count, any k, and under score ties (duplicate vectors), where
//! the deterministic `RowId` tie-break must agree with the sequential total
//! order. Every search runs on its own new engine, so each one is cold.
//! Scores are re-verified exact values, so they match the reference up to
//! summation order (≤ a few ulps), not necessarily bit for bit. (Distinct
//! rows whose exact scores differ by *less than an ulp or two* could in
//! principle rank either way at a segment cutoff; random collections never
//! produce such pairs, and exact duplicates — which these strategies
//! generate on purpose — order identically by row id everywhere.)

use bond_exec::{Engine, PlannerKind, RuleKind};
use proptest::prelude::*;
use std::sync::Arc;
use vdstore::topk::Scored;
use vdstore::DecomposedTable;

const DIMS: usize = 8;
const PARTITIONS: [usize; 4] = [1, 2, 3, 7];

/// Random normalized histograms, *each duplicated once* so every distance
/// value occurs at least twice and the merge's tie-breaking is exercised on
/// every query; plus a query index.
fn duplicated_collection() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, DIMS), 15..40), 0usize..30)
        .prop_map(|(mut vectors, qi)| {
            for v in &mut vectors {
                let total: f64 = v.iter().sum();
                if total <= 0.0 {
                    v[0] = 1.0;
                } else {
                    for x in v.iter_mut() {
                        *x /= total;
                    }
                }
            }
            let dupes: Vec<Vec<f64>> = vectors.clone();
            vectors.extend(dupes);
            (vectors, qi)
        })
}

/// Same k-NN set *and ranks*; scores equal up to floating-point summation
/// order.
fn assert_rank_correct(adaptive: &[Scored], reference: &[Scored], context: &str) {
    assert_eq!(adaptive.len(), reference.len(), "{context}: hit counts differ");
    for (i, (a, r)) in adaptive.iter().zip(reference).enumerate() {
        assert_eq!(a.row, r.row, "{context}: rank {i} row diverges");
        assert!(
            (a.score - r.score).abs() <= 1e-9 * r.score.abs().max(1.0),
            "{context}: rank {i} score {} vs reference {}",
            a.score,
            r.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn adaptive_plans_are_rank_correct_for_every_rule(
        (vectors, qi) in duplicated_collection(),
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("adaptive", &vectors).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let n = table.rows();
        for rule in RuleKind::ALL {
            for partitions in PARTITIONS {
                for k in [1, 10.min(n), n] {
                    let engine = Engine::builder(table.clone())
                        .partitions(partitions)
                        .threads(3)
                        .rule(rule.clone())
                        .planner(PlannerKind::Feedback)
                        .build()
                        .unwrap();
                    prop_assert_eq!(engine.feedback_snapshot().total_searches(), 0);
                    let outcome = engine.search(&query, k).unwrap();
                    let reference = engine.sequential_reference(&query, k).unwrap();
                    let context = format!(
                        "rule {} partitions {partitions} k {k} rows {n}",
                        rule.name()
                    );
                    assert_rank_correct(&outcome.hits, &reference, &context);
                }
            }
        }
    }
}
