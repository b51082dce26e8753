//! The feedback planner's contract: per-segment plans, most-promising-first
//! visits and κ-aware whole-segment skipping may change *work*, never
//! *answers*. `PlannerKind::Feedback` must return the sequential
//! reference's k-NN set and ranks for every rule (weighted ones included),
//! any partition count and any k — both cold (where each segment gets the
//! a-priori plan from its statistics) and after warming on a hundred
//! queries (where orders and warmups have moved to the learned values) —
//! and under score ties (duplicate vectors), where the deterministic
//! `RowId` tie-break must agree with the sequential total order. Scores are
//! re-verified exact values, so they match the reference up to summation
//! order (≤ a few ulps), not necessarily bit for bit — that relaxation is
//! exactly what buys per-segment plan freedom. (Distinct rows whose exact
//! scores differ by *less than an ulp or two* could in principle rank
//! either way at a segment cutoff; random collections never produce such
//! pairs, and exact duplicates — which these strategies generate on
//! purpose — order identically by row id everywhere.)
//!
//! Zone-map skips must fire without touching a skipped segment's columns,
//! and never under uniform planning. On clustered, cluster-major data — the
//! regime where a-priori moments mislead — the warmed planner must also do
//! measurably *less* scanned-row work than its own cold first pass.

use bond::{BondParams, BondSearcher};
use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{Engine, PlannerKind, QuerySpec, RequestBatch, RuleKind};
use proptest::prelude::*;
use std::sync::Arc;
use vdstore::topk::Scored;
use vdstore::DecomposedTable;

const DIMS: usize = 8;
const PARTITIONS: [usize; 4] = [1, 2, 3, 7];
const WARMING_QUERIES: usize = 100;

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
fn assert_rank_correct(feedback: &[Scored], reference: &[Scored], context: &str) {
    assert_eq!(feedback.len(), reference.len(), "{context}: hit counts differ");
    for (i, (a, r)) in feedback.iter().zip(reference).enumerate() {
        assert_eq!(a.row, r.row, "{context}: rank {i} row diverges");
        assert!(
            (a.score - r.score).abs() <= 1e-9 * r.score.abs().max(1.0),
            "{context}: rank {i} score {} vs reference {}",
            a.score,
            r.score
        );
    }
}

/// Runs `WARMING_QUERIES` feedback-planned queries drawn from the
/// collection itself, folding their traces into the engine's store.
fn warm(engine: &Engine, vectors: &[Vec<f64>], k: usize) {
    let specs: Vec<QuerySpec> = (0..WARMING_QUERIES)
        .map(|i| {
            QuerySpec::new(vectors[(i * 13) % vectors.len()].clone(), k)
                .planner(PlannerKind::Feedback)
        })
        .collect();
    engine.execute(&RequestBatch::from_specs(specs)).expect("warming batch executes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn feedback_plans_stay_rank_correct_cold_and_warm_for_every_rule(
        (vectors, qi) in duplicated_collection(),
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("feedback", &vectors).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let n = table.rows();
        for rule in RuleKind::ALL {
            for partitions in PARTITIONS {
                let engine = Engine::builder(table.clone())
                    .partitions(partitions)
                    .threads(3)
                    .rule(rule.clone())
                    .planner(PlannerKind::Feedback)
                    .build()
                    .unwrap();
                prop_assert_eq!(engine.feedback_snapshot().total_searches(), 0);
                for k in [1, 10.min(n), n] {
                    // cold: every segment runs its a-priori plan, and the
                    // answer must already be rank-correct
                    let spec = QuerySpec::new(query.clone(), k);
                    let cold = engine.search_spec(&spec).unwrap();
                    let reference = engine.sequential_reference_spec(&spec).unwrap();
                    let context = format!(
                        "cold rule {} partitions {partitions} k {k} rows {n}",
                        rule.name()
                    );
                    assert_rank_correct(&cold.hits, &reference, &context);
                }
                // warm the store with 100 feedback queries …
                warm(&engine, &vectors, 5.min(n));
                prop_assert!(
                    engine.feedback_snapshot().total_searches()
                        + engine.feedback_snapshot().total_skips() > 0,
                    "warming must fold observations into the store"
                );
                // … and the learned plans must still be rank-correct
                for k in [1, 10.min(n), n] {
                    let spec = QuerySpec::new(query.clone(), k);
                    let warm_outcome = engine.search_spec(&spec).unwrap();
                    let reference = engine.sequential_reference_spec(&spec).unwrap();
                    let context = format!(
                        "warm rule {} partitions {partitions} k {k} rows {n}",
                        rule.name()
                    );
                    assert_rank_correct(&warm_outcome.hits, &reference, &context);
                }
            }
        }
    }

    #[test]
    fn mixed_planner_batches_answer_each_spec_on_its_own_terms(
        (vectors, _) in duplicated_collection(),
        k in 1usize..=5,
    ) {
        let table = DecomposedTable::from_vectors("mixed", &vectors).unwrap();
        let engine = Engine::builder(table).partitions(3).threads(2).build().unwrap();
        let queries: Vec<Vec<f64>> =
            vectors.iter().step_by(vectors.len().div_ceil(4).max(1)).cloned().collect();
        let specs: Vec<QuerySpec> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let planner =
                    if i % 2 == 0 { PlannerKind::Uniform } else { PlannerKind::Feedback };
                QuerySpec::new(q.clone(), k).planner(planner)
            })
            .collect();
        let outcome = engine.execute(&RequestBatch::from_specs(specs.clone())).unwrap();
        for (spec, merged) in specs.iter().zip(&outcome.queries) {
            let reference = engine.sequential_reference_spec(spec).unwrap();
            assert_rank_correct(&merged.hits, &reference, "mixed-planner batch");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn weighted_rules_match_the_sequential_weighted_searcher(
        (vectors, qi) in duplicated_collection(),
        uniform_planner in proptest::bool::ANY,
    ) {
        let table = Arc::new(DecomposedTable::from_vectors("weighted", &vectors).unwrap());
        let query = vectors[qi % vectors.len()].clone();
        let n = table.rows();
        let k = 5.min(n);
        // a subspace-ish weight profile: one heavy, one zero, rest moderate
        let mut weights = vec![1.0; DIMS];
        weights[0] = 4.0;
        weights[DIMS - 1] = 0.0;
        let planner =
            if uniform_planner { PlannerKind::Uniform } else { PlannerKind::Feedback };
        let params = BondParams::default();
        let searcher = BondSearcher::new(&table);

        for (kind, sequential) in [
            (
                RuleKind::weighted_euclidean(weights.clone()).unwrap(),
                searcher.weighted_euclidean(&query, &weights, k, &params).unwrap().hits,
            ),
            (
                RuleKind::weighted_histogram(weights.clone()).unwrap(),
                searcher
                    .weighted_histogram_intersection(&query, &weights, k, &params)
                    .unwrap()
                    .hits,
            ),
        ] {
            let engine = Engine::builder(table.clone())
                .partitions(3)
                .threads(2)
                .rule(kind.clone())
                .planner(planner)
                .build()
                .unwrap();
            let outcome = engine.search(&query, k).unwrap();
            let context = format!("weighted rule {} planner {planner:?}", kind.name());
            assert_rank_correct(&outcome.hits, &sequential, &context);
        }
    }

    #[test]
    fn feedback_batches_match_single_queries(
        (vectors, _) in duplicated_collection(),
        k in 1usize..=5,
    ) {
        let table = DecomposedTable::from_vectors("batch", &vectors).unwrap();
        let queries: Vec<Vec<f64>> =
            vectors.iter().step_by(vectors.len().div_ceil(4).max(1)).cloned().collect();
        let engine = Engine::builder(table)
            .partitions(3)
            .threads(2)
            .planner(PlannerKind::Feedback)
            .build()
            .unwrap();
        let outcome = engine
            .execute(&RequestBatch::from_queries(queries.clone(), k))
            .unwrap();
        for (q, merged) in queries.iter().zip(&outcome.queries) {
            let reference = engine.sequential_reference(q, k).unwrap();
            assert_rank_correct(&merged.hits, &reference, "feedback batch");
        }
    }
}

/// Two well-separated clusters in distinct row ranges: the query's own
/// segment is visited first and proves κ, after which the second segment's
/// envelope bound cannot reach it and the whole segment must be skipped
/// with *zero* column touches (no contributions, no dimensions accessed,
/// no pruning attempts).
#[test]
fn far_segment_is_skipped_without_touching_columns() {
    let dims = 8;
    let mut vectors = Vec::new();
    for i in 0..50 {
        // cluster A: tightly around 0.1
        vectors.push(vec![0.1 + (i % 10) as f64 * 1e-3; dims]);
    }
    for i in 0..50 {
        // cluster B: tightly around 0.9, provably far from cluster A
        vectors.push(vec![0.9 - (i % 10) as f64 * 1e-3; dims]);
    }
    let table = DecomposedTable::from_vectors("two_clusters", &vectors).unwrap();
    let query = vectors[0].clone();

    let engine = Engine::builder(table)
        .partitions(2)
        .threads(1) // deterministic task order: segment 0 runs first
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Feedback)
        .build()
        .unwrap();
    let outcome = engine.search(&query, 5).unwrap();

    // the answers all come from cluster A and match the reference
    let reference = engine.sequential_reference(&query, 5).unwrap();
    assert_rank_correct(&outcome.hits, &reference, "two clusters");
    assert!(outcome.hits.iter().all(|h| h.row < 50));

    // segment 1 (rows 50..100) was skipped outright
    assert_eq!(outcome.segments.len(), 2);
    let skipped = &outcome.segments[1].trace;
    assert!(skipped.segment_skipped, "far segment must be skipped");
    assert_eq!(skipped.contributions_evaluated, 0, "zero column touches");
    assert_eq!(skipped.dims_accessed, 0);
    assert_eq!(skipped.pruning_attempts, 0);
    assert!(skipped.checkpoints.is_empty());
    assert_eq!(outcome.segments_skipped(), 1);
    // segment 0 did real work
    assert!(outcome.segments[0].trace.contributions_evaluated > 0);
}

/// The similarity-side skip: a segment with no mass on the query's
/// dimensions has envelope bound ~0 and is skipped.
#[test]
fn massless_segment_is_skipped_under_histogram_intersection() {
    let mut vectors = Vec::new();
    for i in 0..40 {
        let x = 0.8 + (i % 5) as f64 * 0.01;
        vectors.push(vec![x, 1.0 - x, 0.0, 0.0]);
    }
    for i in 0..40 {
        let x = 0.8 + (i % 5) as f64 * 0.01;
        vectors.push(vec![0.0, 0.0, x, 1.0 - x]);
    }
    let table = DecomposedTable::from_vectors("disjoint_support", &vectors).unwrap();
    let query = vec![0.8, 0.2, 0.0, 0.0];

    let engine = Engine::builder(table)
        .partitions(2)
        .threads(1)
        .rule(RuleKind::HistogramHq)
        .planner(PlannerKind::Feedback)
        .build()
        .unwrap();
    let outcome = engine.search(&query, 3).unwrap();
    assert!(outcome.segments[1].trace.segment_skipped);
    assert_eq!(outcome.segments[1].trace.contributions_evaluated, 0);
    assert!(outcome.hits.iter().all(|h| h.row < 40));
}

/// Skipping needs the feedback planner: under uniform planning every
/// segment runs, even one the zone map could rule out.
#[test]
fn no_skipping_under_uniform_planning() {
    let mut vectors = Vec::new();
    for _ in 0..30 {
        vectors.push(vec![0.1; 4]);
    }
    for _ in 0..30 {
        vectors.push(vec![0.9; 4]);
    }
    let table = DecomposedTable::from_vectors("no_skip", &vectors).unwrap();
    let engine = Engine::builder(table)
        .partitions(2)
        .threads(1)
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Uniform)
        .build()
        .unwrap();
    let outcome = engine.search(&[0.1; 4], 3).unwrap();
    assert_eq!(outcome.segments_skipped(), 0);
    assert!(outcome.segments.iter().all(|s| s.trace.contributions_evaluated > 0));
}

/// The clustered, cluster-major workload: contiguous row segments cover
/// few clusters each, so observed prune behaviour is a sharper signal than
/// a-priori moments. A feedback engine warmed on 100 queries must scan
/// strictly fewer `(candidate, dimension)` cells than a fresh engine's
/// first pass over the same evaluation batch — whose segments are all cold
/// and run their a-priori adaptive plans — while every answer stays
/// rank-correct.
#[test]
fn warmed_feedback_beats_adaptive_on_cluster_major_data() {
    let rows = 8_000;
    let dims = 16;
    let k = 10;
    let partitions = 8;
    let table = Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(rows, dims, 0.0) }
            .with_cluster_major(true)
            .generate(),
    );
    let eval_queries = sample_queries(&table, 12, 4321);
    let eval = RequestBatch::from_queries(eval_queries.clone(), k);

    let build = || {
        Engine::builder(table.clone())
            .partitions(partitions)
            .threads(1) // deterministic task order isolates plan quality
            .rule(RuleKind::EuclideanEv)
            .planner(PlannerKind::Feedback)
            .build()
            .unwrap()
    };

    let cold_outcome = build().execute(&eval).unwrap();
    let cold_work: u64 = cold_outcome.queries.iter().map(|q| q.contributions_evaluated()).sum();

    let feedback = build();
    let warming = RequestBatch::from_queries(sample_queries(&table, 100, 99), k);
    feedback.execute(&warming).unwrap();
    let snapshot = feedback.feedback_snapshot();
    assert!(snapshot.total_searches() > 0, "warming folded nothing");

    let feedback_outcome = feedback.execute(&eval).unwrap();
    let feedback_work: u64 =
        feedback_outcome.queries.iter().map(|q| q.contributions_evaluated()).sum();

    assert!(
        feedback_work < cold_work,
        "warmed feedback must scan strictly less than its cold first pass: {feedback_work} vs \
         {cold_work}"
    );

    // work went down; answers did not change
    for (q, merged) in eval_queries.iter().zip(&feedback_outcome.queries) {
        let reference = feedback.sequential_reference(q, k).unwrap();
        assert_eq!(merged.hits.len(), reference.len());
        for (a, r) in merged.hits.iter().zip(&reference) {
            assert_eq!(a.row, r.row, "feedback planning changed an answer");
        }
    }
}

/// Warm estimates reflect what was observed: a segment the zone map keeps
/// skipping prices lower than it did cold, and uniform planning (which
/// never skips) prices at least as high as feedback planning.
#[test]
fn cost_estimates_learn_from_feedback() {
    let mut vectors = Vec::new();
    for i in 0..400 {
        vectors.push(vec![0.1 + (i % 10) as f64 * 1e-3; 8]);
    }
    for i in 0..400 {
        vectors.push(vec![0.9 - (i % 10) as f64 * 1e-3; 8]);
    }
    let table = Arc::new(DecomposedTable::from_vectors("cost_learn", &vectors).unwrap());
    let engine = Engine::builder(table.clone())
        .partitions(2)
        .threads(1)
        .rule(RuleKind::EuclideanEv)
        .planner(PlannerKind::Feedback)
        .build()
        .unwrap();

    let spec = QuerySpec::new(vectors[0].clone(), 5);
    let cold = engine.estimate_cost(&spec);
    assert!(cold > 0.0);

    // queries from cluster A keep skipping the far cluster-B segment
    let warming: Vec<QuerySpec> =
        (0..40).map(|i| QuerySpec::new(vectors[i * 7 % 400].clone(), 5)).collect();
    let outcome = engine.execute(&RequestBatch::from_specs(warming)).unwrap();
    assert!(outcome.queries.iter().map(|q| q.segments_skipped()).sum::<usize>() > 0);

    let warm = engine.estimate_cost(&spec);
    assert!(warm < cold, "observed skips and pruning must cheapen the estimate: {warm} vs {cold}");

    let uniform = engine.estimate_cost(&spec.clone().planner(PlannerKind::Uniform));
    assert!(uniform >= warm, "uniform planning never skips, so it cannot price lower");

    // the snapshot exposes the same signals for introspection
    let snapshot = engine.feedback_snapshot();
    assert_eq!(snapshot.segments.len(), engine.partitions());
    assert!(snapshot.segments[1].skips > 0, "the far segment accumulated skip hits");
}
