//! Uniform vs. cold and warmed feedback planning on clustered data: batch
//! latency, scanned work and zone-map segment skipping.
//!
//! ```text
//! cargo bench -p bond-bench --bench bench_feedback
//! ```
//!
//! Generates `datagen`'s clustered distribution in the cluster-major layout
//! (the regime where a-priori moments mislead: contiguous row segments have
//! divergent statistics), then runs the same evaluation batch as three
//! series:
//!
//! * `uniform` — a `PlannerKind::Uniform` engine (one global plan, no
//!   segment skipping);
//! * `feedback_cold` — the first batch of a fresh `PlannerKind::Feedback`
//!   engine, whose segments are all cold and run their a-priori plans (each
//!   timed rep builds a new engine, untimed, and times its first batch);
//! * `feedback_warm` — a `PlannerKind::Feedback` engine warmed with 100
//!   queries first, planning from the accumulated per-segment prune traces.
//!
//! Reports per-series batch latency, scanned work and skip counts, the
//! warm/cold work ratio, and two machine-readable `BENCH_JSON` lines for the
//! perf trajectory: the timing summary, then each engine's full
//! metrics-registry snapshot (`MetricsRegistry::render_json`).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bond_datagen::{sample_queries, ClusteredConfig};
use bond_exec::{BatchOutcome, Engine, PlannerKind, RequestBatch, RuleKind};

struct Series {
    planner: &'static str,
    batch_ms: f64,
    ms_per_query: f64,
    contributions: u64,
    segments_skipped: usize,
    /// The engine's full metrics-registry snapshot after the timed reps.
    metrics_json: String,
}

impl Series {
    /// A series whose work counters come from `counted` and whose latency
    /// is `elapsed_ms` averaged over `reps` batches of `queries` queries.
    fn new(
        planner: &'static str,
        counted: &BatchOutcome,
        elapsed_ms: f64,
        reps: usize,
        queries: usize,
        engine: &Engine,
    ) -> Series {
        let batch_ms = elapsed_ms / reps as f64;
        let series = Series {
            planner,
            batch_ms,
            ms_per_query: batch_ms / queries as f64,
            contributions: counted.queries.iter().map(|q| q.contributions_evaluated()).sum(),
            segments_skipped: counted.queries.iter().map(|q| q.segments_skipped()).sum(),
            metrics_json: engine.metrics().render_json(),
        };
        println!(
            "  {:>13}: {:>8.2} ms/batch, {:>6.2} ms/query, {:>12} contributions, {:>3} segment \
             searches skipped",
            series.planner,
            series.batch_ms,
            series.ms_per_query,
            series.contributions,
            series.segments_skipped,
        );
        series
    }
}

fn main() {
    let rows = 40_000;
    let dims = 32;
    let k = 10;
    let n_queries = 16;
    let partitions = 8;
    let warming_queries = 100;
    let reps = 3;

    // Few clusters relative to the partition count: contiguous segments
    // cover a handful of clusters each, their envelopes are narrow, and the
    // zone-map check has something to skip — exactly where per-segment
    // plans and observed prune behaviour outrun one global plan.
    let table = Arc::new(
        ClusteredConfig { clusters: 16, ..ClusteredConfig::small(rows, dims, 0.0) }
            .with_cluster_major(true)
            .generate(),
    );
    let eval = RequestBatch::from_queries(sample_queries(&table, n_queries, 4321), k);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "feedback planning: {} rows x {dims} dims (clustered, cluster-major), \
         {n_queries} queries, k = {k}, {partitions} partitions, {warming_queries} warming \
         queries, {cores} cores",
        table.rows()
    );

    let build = |planner: PlannerKind| {
        Engine::builder(table.clone())
            .partitions(partitions)
            .threads(1) // isolate plan quality + skipping from parallel speedup
            .rule(RuleKind::EuclideanEv)
            .planner(planner)
            .build()
            .expect("valid engine configuration")
    };
    let execute = |engine: &Engine| engine.execute(&eval).expect("batch executes");
    // `reps` timed batches on one engine, in milliseconds
    let time_reps = |engine: &Engine| {
        let timer = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(execute(engine));
        }
        timer.elapsed().as_secs_f64() * 1000.0
    };
    let mut series: Vec<Series> = Vec::new();

    // Uniform: plans do not depend on feedback, so the first (untimed)
    // pass counts the work of every later one.
    let uniform = build(PlannerKind::Uniform);
    let counted = execute(&uniform);
    let elapsed = time_reps(&uniform);
    series.push(Series::new("uniform", &counted, elapsed, reps, eval.len(), &uniform));

    // Feedback, cold: the first batch of a fresh engine, every rep.
    let mut cold = build(PlannerKind::Feedback);
    let counted = execute(&cold);
    let mut elapsed = 0.0;
    for _ in 0..reps {
        cold = build(PlannerKind::Feedback);
        let timer = Instant::now();
        std::hint::black_box(execute(&cold));
        elapsed += timer.elapsed().as_secs_f64() * 1000.0;
    }
    series.push(Series::new("feedback_cold", &counted, elapsed, reps, eval.len(), &cold));

    // Feedback, warm: fold a disjoint query sample into the store first.
    let warm = build(PlannerKind::Feedback);
    let warming = RequestBatch::from_queries(sample_queries(&table, warming_queries, 99), k);
    warm.execute(&warming).expect("warming batch executes");
    let snapshot = warm.feedback_snapshot();
    println!(
        "  warmed on {warming_queries} queries: {} searches folded, {} segment skips observed",
        snapshot.total_searches(),
        snapshot.total_skips(),
    );
    let counted = execute(&warm);
    let elapsed = time_reps(&warm);
    series.push(Series::new("feedback_warm", &counted, elapsed, reps, eval.len(), &warm));

    let (uniform, cold, warm) = (&series[0], &series[1], &series[2]);
    let work_ratio = warm.contributions as f64 / cold.contributions.max(1) as f64;
    println!(
        "  cold feedback vs uniform: {:.2}x latency, {:.2}x scanned work",
        cold.batch_ms / uniform.batch_ms,
        cold.contributions as f64 / uniform.contributions.max(1) as f64,
    );
    println!(
        "  warmed vs cold feedback: {:.2}x latency, {work_ratio:.2}x scanned work, \
         {} vs {} segment searches skipped (of {})",
        warm.batch_ms / cold.batch_ms,
        warm.segments_skipped,
        cold.segments_skipped,
        n_queries * partitions,
    );

    // Machine-readable summary for the perf trajectory.
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"feedback_planning\",\"rows\":{},\"dims\":{dims},\"k\":{k},\
         \"queries\":{n_queries},\"partitions\":{partitions},\
         \"warming_queries\":{warming_queries},\"reps\":{reps},\"cores\":{cores},\
         \"rule\":\"Ev\",\"distribution\":\"clustered_cluster_major\",\
         \"work_ratio\":{work_ratio:.4},\"series\":[",
        table.rows()
    );
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"planner\":\"{}\",\"batch_ms\":{:.4},\"ms_per_query\":{:.4},\
             \"contributions\":{},\"segments_skipped\":{}}}",
            s.planner, s.batch_ms, s.ms_per_query, s.contributions, s.segments_skipped
        );
    }
    json.push_str("]}");
    println!("BENCH_JSON {json}");

    // Second machine-readable line: each engine's metrics-registry
    // snapshot, keyed by series. The feedback engines' snapshots carry
    // non-zero `engine.segment.skipped`, the warmed one also
    // `planner.feedback.warm_segments`.
    let mut metrics = String::from("{\"bench\":\"feedback_planning_metrics\",\"registries\":{");
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(metrics, "\"{}\":{}", s.planner, s.metrics_json);
    }
    metrics.push_str("}}");
    println!("BENCH_JSON {metrics}");
}
