//! The layer pass of a traced run: requests one at a time on one thread,
//! each through the public calls of every layer, each call in a span.
//!
//! A request's tree is `request` → `planner.estimate` (`estimate_cost`),
//! `planner.explain` (`explain`), `codes.ensure` (`ensure_adaptive_codes`
//! or `ensure_codes`, for scans that read codes) and `engine.execute`
//! (`execute`). Calling `codes.ensure` just before `execute` moves any
//! code rebuild the request triggers out of `execute` and into its own
//! span; `execute` then finds the codes cached.
//!
//! Inside `execute` the program's own stage tracing ([`bond_obs::span`])
//! is on for the pass: its `engine.plan`, `engine.scan` (one per searched
//! segment, each one `search_segment` or approximate code sweep) and
//! `engine.merge` records, and any `engine.codes.build`, are grafted into
//! the request's tree under the benchmark span they fall in. The part of
//! `engine.execute` they leave uncovered is its self time,
//! `engine.unattributed_us`.
//!
//! The program does not time a quantized-filter scan's code sweep apart
//! from its exact refine, so after each request that read codes a
//! `quantfilter.probe` root calls `interval_scores_into` once per swept
//! segment, with the same codes and query: a probe of the sweep, not the
//! served work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bond::quantfilter::interval_scores_into;
use bond::{Kernel, QuantScratch};
use bond_exec::{Engine, QueryOutcome, RequestBatch, ScanMode, Server};
use bond_obs::span::{self as obs, SpanRecord};
use vdstore::StoreCodes;

use crate::drive::{request, Answer};
use crate::trace::{SpanRec, Tracer};
use crate::workload::Inputs;

/// The program's span stages grafted into a request's tree.
const GRAFTED: [&str; 4] = ["engine.plan", "engine.scan", "engine.merge", "engine.codes.build"];

/// What one request of the layer pass measured.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Stream position.
    pub id: u64,
    /// Id of the request's root span.
    pub root: u32,
    /// Id of its `engine.execute` span.
    pub execute_span: u32,
    /// The answer `execute` returned, for the oracle.
    pub answer: Option<Answer>,
    /// `engine.execute` duration.
    pub execute: Duration,
    /// Summed `engine.scan` durations of an exact or quantized-filter
    /// request (`None` for an approximate one, whose scans are sweeps).
    pub searcher: Option<Duration>,
    /// Summed `engine.plan` durations.
    pub plan: Duration,
    /// Summed `engine.merge` durations.
    pub merge: Duration,
    /// Summed probe `quantfilter.sweep` durations.
    pub sweep: Duration,
    /// Code cells those sweeps covered.
    pub sweep_cells: u64,
    /// `estimate_cost`'s estimate.
    pub estimate: f64,
    /// Whether the request's scan read codes.
    pub uses_codes: bool,
    /// Exact `(row, dimension)` cells `execute` evaluated.
    pub exact_cells: u64,
    /// Segments `execute` skipped by zone map.
    pub skipped: usize,
    /// Code cells `execute` swept.
    pub code_cells: u64,
    /// Refine rows over swept rows (quantized-filter requests).
    pub selectivity: Option<f64>,
    /// `PruneTrace::work_fraction` over the whole table.
    pub work_fraction: f64,
    /// Pruning attempts across segments.
    pub prune_attempts: usize,
}

/// Keeps the program's stage tracing on while alive.
struct ProgramTracing;

impl ProgramTracing {
    fn on() -> ProgramTracing {
        obs::set_enabled(true);
        ProgramTracing
    }
}

impl Drop for ProgramTracing {
    fn drop(&mut self) {
        obs::set_enabled(false);
        let _ = obs::take_spans();
    }
}

/// Runs up to `count` requests from stream position `first_id`, stopping
/// early once `budget` has passed. The server must be idle: the program's
/// span records are process-wide.
///
/// # Errors
///
/// The first engine error, as text.
pub fn layer_pass(
    server: &Server,
    inputs: &Inputs,
    first_id: u64,
    count: usize,
    budget: Duration,
    tracer: &Tracer,
) -> Result<Vec<LayerSample>, String> {
    let engine = server.engine();
    let _tracing = ProgramTracing::on();
    let offset = clock_offset(tracer);
    let started = Instant::now();
    let mut samples = Vec::new();
    for id in first_id..first_id + count as u64 {
        if started.elapsed() >= budget && !samples.is_empty() {
            break;
        }
        let _ = obs::take_spans();
        let (mut sample, outcome, codes) = one_request(engine, inputs, id, tracer)?;
        graft(tracer, &obs::take_spans(), offset, &mut sample);
        if let Some(codes) = &codes {
            probe(engine, inputs, id, &outcome, codes, tracer, &mut sample)?;
        }
        sample.answer = Some(Answer::from(outcome));
        samples.push(sample);
    }
    Ok(samples)
}

/// Nanoseconds to add to a program span's microsecond timestamp to place
/// it on the tracer's clock, to within a microsecond or two.
fn clock_offset(t: &Tracer) -> i64 {
    let _ = obs::take_spans();
    let before = t.now_ns();
    drop(bond_obs::Span::begin("perfbench.clock"));
    let mark = obs::take_spans().into_iter().find(|s| s.stage == "perfbench.clock");
    mark.map_or(0, |m| before as i64 - m.start_us as i64 * 1000)
}

/// What one request of the layer pass leaves for the graft and the probe:
/// the sample so far, the outcome `execute` returned and the codes it read.
type Executed = (LayerSample, QueryOutcome, Option<Arc<StoreCodes>>);

fn one_request(engine: &Engine, inputs: &Inputs, id: u64, t: &Tracer) -> Result<Executed, String> {
    let spec = &request(&inputs.pool, id).spec;
    let scan = spec.scan_mode_override().unwrap_or(engine.scan_mode());
    t.span("request", None, id, |root| {
        let estimate = t.span("planner.estimate", Some(root), id, |_| engine.estimate_cost(spec));
        t.span("planner.explain", Some(root), id, |_| engine.explain(spec))
            .map_err(|e| e.to_string())?;
        let codes = match scan {
            ScanMode::QuantizedFilter => {
                Some(t.span("codes.ensure", Some(root), id, |_| engine.ensure_adaptive_codes()))
            }
            ScanMode::ApproximateQuantized { bits } => {
                Some(t.span("codes.ensure", Some(root), id, |_| engine.ensure_codes(bits)))
            }
            _ => None,
        }
        .transpose()
        .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let mut execute_span = 0;
        let mut batch = t
            .span("engine.execute", Some(root), id, |sid| {
                execute_span = sid;
                engine.execute(&RequestBatch::single(spec.clone()))
            })
            .map_err(|e| e.to_string())?;
        let execute = start.elapsed();
        let outcome = batch.queries.pop().expect("one outcome per request");
        let table = engine.table();
        let sample = LayerSample {
            id,
            root,
            execute_span,
            execute,
            searcher: (!scan.is_approximate()).then_some(Duration::ZERO),
            estimate,
            uses_codes: codes.is_some(),
            exact_cells: outcome.contributions_evaluated(),
            skipped: outcome.segments_skipped(),
            code_cells: outcome.quant_filter_cells(),
            selectivity: (scan == ScanMode::QuantizedFilter)
                .then(|| outcome.quant_filter_selectivity())
                .flatten(),
            work_fraction: outcome.work_fraction(table.rows(), table.dims()),
            prune_attempts: outcome.pruning_attempts(),
            ..LayerSample::default()
        };
        Ok((sample, outcome, codes))
    })
}

/// Records the program's span records of one request into its tree. A
/// record's parent is the innermost benchmark span of the request, or
/// `engine.plan` record, that holds its midpoint; sums the scan, plan and
/// merge times into `sample`.
fn graft(t: &Tracer, records: &[SpanRecord], offset: i64, sample: &mut LayerSample) {
    let to_ns = |us: u64| (us as i64 * 1000 + offset).max(0) as u64;
    let mut holders: Vec<SpanRec> = t.spans_of(sample.id);
    let mut records: Vec<&SpanRecord> =
        records.iter().filter(|r| GRAFTED.contains(&r.stage)).collect();
    // plans first, so that a code build inside one finds it
    records.sort_by_key(|r| r.stage != "engine.plan");
    for r in records {
        let (start_ns, end_ns) = (to_ns(r.start_us), to_ns(r.start_us + r.duration_us));
        let mid = (start_ns + end_ns) / 2;
        let parent = holders
            .iter()
            .filter(|h| h.start_ns <= mid && mid <= h.end_ns)
            .min_by_key(|h| h.dur_ns())
            .map_or(sample.root, |h| h.id);
        let rec = SpanRec {
            id: t.alloc_id(),
            parent: Some(parent),
            request: sample.id,
            name: r.stage,
            start_ns,
            end_ns,
        };
        let dur = Duration::from_micros(r.duration_us);
        match r.stage {
            "engine.scan" => sample.searcher = sample.searcher.map(|s| s + dur),
            "engine.plan" => {
                sample.plan += dur;
                holders.push(rec.clone());
            }
            "engine.merge" => sample.merge += dur,
            _ => {}
        }
        t.record(rec);
    }
}

/// Times the code sweep of one request's swept segments alone, under a
/// `quantfilter.probe` root.
fn probe(
    engine: &Engine,
    inputs: &Inputs,
    id: u64,
    outcome: &QueryOutcome,
    codes: &StoreCodes,
    t: &Tracer,
    sample: &mut LayerSample,
) -> Result<(), String> {
    let spec = &request(&inputs.pool, id).spec;
    let metric = spec.rule_override().unwrap_or(engine.rule()).make_metric();
    let mut scratch = QuantScratch::new();
    t.span("quantfilter.probe", None, id, |proot| {
        for (si, run) in outcome.segments.iter().enumerate() {
            if run.trace.filter_cells == 0 {
                continue;
            }
            let view = codes.segment_view(si).map_err(|e| e.to_string())?;
            let begun = Instant::now();
            sample.sweep_cells += t
                .span("quantfilter.sweep", Some(proot), id, |_| {
                    interval_scores_into(
                        &view,
                        metric.as_ref(),
                        spec.vector(),
                        Kernel::active(),
                        &mut scratch,
                    )
                })
                .map_err(|e| e.to_string())?;
            sample.sweep += begun.elapsed();
        }
        Ok(())
    })
}
