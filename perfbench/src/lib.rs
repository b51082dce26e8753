//! End-to-end and per-layer benchmark of k-NN serving through
//! [`bond_exec::Server`].
//!
//! One run: generate a workload's inputs from a seed, compute the oracle
//! answers, set the engine up several times (the median is `setup_s`),
//! warm up, then drive request traffic for a timed window and check every
//! answer. The window is served in slices with a sequential-scan probe
//! ([`scan`]) between them, and latencies are reported relative to it.
//! A traced run (`trace = true`) adds a second window with
//! benchmark-side spans around `Server::submit` / `Ticket::wait`, and a
//! serial layer pass ([`layers`]) that spans each layer's public calls;
//! it reports the per-layer metrics instead of the end-to-end ones.

pub mod drive;
pub mod layers;
pub mod oracle;
pub mod scan;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::Duration;

use bond_exec::{ScanMode, Server};

use crate::drive::Sliced;
use crate::layers::LayerSample;
use crate::scan::ScanProbe;
use crate::stats::{mean, median, tail_percentile, MIN_BEYOND};
use crate::trace::{self_times, Tracer};
use crate::workload::{
    Inputs, Scale, SetupSample, WorkDir, Workload, CLIENTS, MIXED_RATE, TINY_RATE,
};

/// Samples a run keeps at least, so that ten lie beyond p99.
pub const MIN_SAMPLES: usize = 1000;
/// Length of a closed-loop slice between two host-speed probes.
pub const CLOSED_SLICE_S: f64 = 0.5;
/// Length of an open-loop slice: about 320 arrivals at [`MIXED_RATE`].
pub const OPEN_SLICE_S: f64 = 2.0;
/// An open-loop run whose median submit started later than this had a
/// generator that fell behind its schedule, and is invalid. Single late
/// submits (a descheduled thread) do not count: requests are timed from
/// their due time, so such a delay is already in their latency.
pub const LATE_LIMIT_MS: f64 = 2.0;
/// An open-loop window that ends with more than this much of its offered
/// traffic still unanswered built a backlog, and is invalid.
pub const BACKLOG_LIMIT_S: f64 = 0.25;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of a timed window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No exact answer was wrong.
    pub correct: bool,
    /// Requests sent and checked.
    pub attempted: u64,
    /// Errors, rejections and wrong exact answers among them.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The oracle's verdict on a set of answers.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    errors: u64,
    wrong: u64,
    recalls: Vec<f64>,
}

impl Verdict {
    fn add(&mut self, inputs: &Inputs, id: u64, result: &Result<drive::Answer, String>) {
        self.attempted += 1;
        let req = drive::request(&inputs.pool, id);
        match result {
            Err(e) => {
                self.errors += 1;
                eprintln!("request {id}: error: {e}");
            }
            Ok(answer) => match inputs.check(req, &answer.hits) {
                Ok(Some(recall)) => self.recalls.push(recall),
                Ok(None) => {}
                Err(why) => {
                    self.wrong += 1;
                    eprintln!("request {id}: wrong exact answer: {why}");
                }
            },
        }
    }

    fn add_window(&mut self, inputs: &Inputs, window: &Sliced) {
        for d in window.done() {
            self.add(inputs, d.id, &d.result);
        }
    }
}

/// Everything one draw — one generated table behind its own server —
/// measured.
#[derive(Debug)]
struct Draw {
    plain: Sliced,
    traced: Option<Sliced>,
    samples: Vec<LayerSample>,
    setups: Vec<SetupSample>,
    store_bytes: u64,
    raw_bytes: u64,
    service: ServiceCounters,
    /// Width changes between consecutive quantized-filter answers, and
    /// how many such answers there were.
    rebuilds: (usize, usize),
    /// Host CPU ticks `(steal, total)` over the untraced window.
    steal: (u64, u64),
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Set-up failures, a run too short for its percentiles, and an open-loop
/// run that could not keep its schedule.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let work = WorkDir::create().map_err(|e| format!("work directory: {e}"))?;
    let tracer = cfg.trace.then(Tracer::new);
    let mut verdict = Verdict::default();
    let n = workload::draws(cfg.workload, cfg.scale);
    let draws = (0..n)
        .map(|d| run_draw(cfg, d, n, &work, tracer.as_ref(), &mut verdict))
        .collect::<Result<Vec<Draw>, String>>()?;
    let metrics = match &tracer {
        None => end_to_end(cfg.workload, &draws, &verdict)?,
        Some(t) => {
            let path = PathBuf::from(".perfbench").join(format!(
                "spans-{}-seed{}.tsv",
                cfg.workload.name(),
                cfg.seed
            ));
            t.write_tsv(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
            per_layer(t, &draws)
        }
    };
    drop(work);
    Ok(Report {
        correct: verdict.wrong == 0,
        attempted: verdict.attempted,
        failed: verdict.errors + verdict.wrong,
        metrics,
    })
}

/// Draw `d` of `n`: generate, set up, warm up, serve its share of the
/// window, and check every answer into `verdict`.
fn run_draw(
    cfg: &Config,
    d: usize,
    n: usize,
    work: &WorkDir,
    tracer: Option<&Tracer>,
    verdict: &mut Verdict,
) -> Result<Draw, String> {
    let tiny = cfg.scale == Scale::Tiny;
    let inputs = workload::generate(cfg.workload, workload::draw_seed(cfg.seed, d), cfg.scale);
    let reps = match (tiny, cfg.workload) {
        (true, _) => 2,
        (false, Workload::CorelExact) => 5,
        (false, _) => 9,
    };
    let mut setups: Vec<SetupSample> = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        // the previous server (and its store mapping) goes first
        drop(server.take());
        let (s, sample) = workload::set_up(&inputs, work, tracer)?;
        setups.push(sample);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let store_bytes = store_bytes(&inputs, &server, work)?;

    let warmup = Duration::from_secs_f64(match (tiny, n) {
        (true, _) => 0.1,
        (false, 1) => 1.0,
        (false, _) => 0.5,
    });
    // a traced run splits its time between an untraced window, a traced
    // window and the layer pass
    let share = if cfg.trace { 0.4 } else { 1.0 };
    let window = Duration::from_secs_f64(cfg.seconds * share / n as f64);
    let rate = if tiny { TINY_RATE } else { MIXED_RATE };
    let open = cfg.workload == Workload::MixedOpen;
    let slice = Duration::from_secs_f64(match (tiny, open) {
        (true, _) => 0.1,
        (false, false) => CLOSED_SLICE_S,
        (false, true) => OPEN_SLICE_S,
    });
    let serve = |first_id: u64, window: Duration, tracer: Option<&Tracer>| {
        if open {
            let seed = inputs.arrival_seed ^ first_id;
            drive::open_loop(&server, &inputs.pool, rate, first_id, window, seed, tracer)
        } else {
            drive::closed_loop(&server, &inputs.pool, CLIENTS, first_id, window, tracer)
        }
    };
    let probe = ScanProbe::new(&inputs);
    let drive_window = |first_id: u64, tracer: Option<&Tracer>| {
        drive::sliced(
            first_id,
            window,
            MIN_SAMPLES.div_ceil(n),
            window * 3 + Duration::from_secs(5),
            |id| serve(id, slice, tracer),
            || probe.time_ms(&inputs),
        )
    };

    // stream ids are unique across draws; the pool index is id % len
    let first_id = d as u64 * 1_000_000_000;
    // warm-up traffic, served and not kept
    let warm = serve(first_id, warmup, None);
    let ticks = cpu_ticks();
    let plain = drive_window(warm.next_id, None);
    let now = cpu_ticks();
    let steal = (now.0.saturating_sub(ticks.0), now.1.saturating_sub(ticks.1));
    eprintln!(
        "host steal during the window: {:.1} %; scan {:.2} ms (median of {})",
        100.0 * ratio(steal.0 as f64, steal.1 as f64),
        median(&plain.scan_ms),
        plain.scan_ms.len()
    );
    check_schedule(cfg.workload, &plain, rate)?;
    verdict.add_window(&inputs, &plain);
    let mut draw = Draw {
        rebuilds: rebuilds(&inputs, &plain),
        plain,
        traced: None,
        samples: Vec::new(),
        setups,
        store_bytes,
        raw_bytes: inputs.raw_bytes(),
        service: ServiceCounters::default(),
        steal,
    };
    if let Some(t) = tracer {
        let before = ServiceCounters::read(&server);
        let traced = drive_window(draw.plain.next_id(), Some(t));
        draw.service = ServiceCounters::read(&server).minus(&before);
        check_schedule(cfg.workload, &traced, rate)?;
        verdict.add_window(&inputs, &traced);
        let count = if tiny { 24 } else { 400 } / n;
        let budget = Duration::from_secs_f64(cfg.seconds.max(1.0) * 0.2 / n as f64);
        draw.samples = layers::layer_pass(&server, &inputs, traced.next_id(), count, budget, t)?;
        for s in &draw.samples {
            let answer = s.answer.clone().ok_or("layer sample without answer")?;
            verdict.add(&inputs, s.id, &Ok(answer));
        }
        draw.traced = Some(traced);
    }
    Ok(draw)
}

/// Bytes of the persisted store: the served store on `corel-exact`; on
/// the heap workloads a store persisted once, untimed, only to be sized.
fn store_bytes(inputs: &Inputs, server: &Server, work: &WorkDir) -> Result<u64, String> {
    let path = work.store();
    let heap = inputs.workload != Workload::CorelExact;
    if heap {
        server.engine().persist(&path).map_err(|e| format!("persist: {e}"))?;
    }
    let bytes = std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?.len();
    if heap {
        let _ = std::fs::remove_file(&path);
    }
    Ok(bytes)
}

/// Rejects an open-loop window whose generator fell behind or whose
/// answers trailed the offered rate in any slice.
fn check_schedule(workload: Workload, w: &Sliced, rate: f64) -> Result<(), String> {
    if workload != Workload::MixedOpen {
        return Ok(());
    }
    let late = lateness_ms(w);
    let median_late = median(&late);
    let backlog = w.slices.iter().map(|s| s.backlog).max().unwrap_or(0);
    eprintln!(
        "open loop: submit lateness p50 {median_late:.3} ms, p99 {:.3} ms; largest backlog {backlog}",
        tail_percentile(&late, 0.99, 0).unwrap_or(0.0),
    );
    if median_late > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: generator median lateness {median_late:.2} ms > {LATE_LIMIT_MS} ms"
        ));
    }
    let limit = (rate * BACKLOG_LIMIT_S).max(10.0) as usize;
    if backlog > limit {
        return Err(format!(
            "invalid run: {backlog} requests still unanswered at a slice's end (limit {limit})"
        ));
    }
    Ok(())
}

fn lateness_ms(w: &Sliced) -> Vec<f64> {
    w.done().map(|d| d.late.as_secs_f64() * 1e3).collect()
}

/// Host CPU ticks `(steal, total)` since boot, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The request latencies of every draw's untraced window, in
/// milliseconds and relative to the scan time around their slice.
fn latencies(draws: &[Draw]) -> (Vec<f64>, Vec<f64>) {
    let ms = draws.iter().flat_map(|d| d.plain.latencies_ms()).collect();
    let relative = draws.iter().flat_map(|d| d.plain.relative_latencies()).collect();
    (ms, relative)
}

/// The median scan time of every probe of every draw's untraced window.
fn scan_ms(draws: &[Draw]) -> f64 {
    median(&draws.iter().flat_map(|d| d.plain.scan_ms.iter().copied()).collect::<Vec<_>>())
}

fn end_to_end(
    workload: Workload,
    draws: &[Draw],
    verdict: &Verdict,
) -> Result<Vec<Metric>, String> {
    let (ms, relative) = latencies(draws);
    let setup: Vec<f64> = draws.iter().flat_map(|d| d.setups.iter().map(|s| s.total_s)).collect();
    let store: Vec<f64> = draws.iter().map(|d| d.store_bytes as f64 / d.raw_bytes as f64).collect();
    let failed = verdict.errors + verdict.wrong;
    // workloads without approximate requests score their exact answers,
    // which the oracle has already required to be the exact rows
    let recall = if verdict.recalls.is_empty() { 1.0 } else { mean(&verdict.recalls) };
    eprintln!(
        "{}: {} requests over {} tables, {failed} failed, {} set-ups; {:.1} req/s, \
         latency mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms; scan {:.3} ms",
        workload.name(),
        ms.len(),
        draws.len(),
        setup.len(),
        drive::qps(draws.iter().flat_map(|d| &d.plain.slices)),
        mean(&ms),
        tail_percentile(&ms, 0.5, 0)?,
        tail_percentile(&ms, 0.99, MIN_BEYOND)?,
        scan_ms(draws),
    );
    Ok(vec![
        metric("latency_mean_vs_scan", mean(&relative), "ratio"),
        metric("ok_ratio", 1.0 - failed as f64 / verdict.attempted.max(1) as f64, "fraction"),
        metric("approx_recall", recall, "fraction"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("store_bytes_ratio", median(&store), "ratio"),
    ])
}

/// The service counters of the server's registry at one moment.
#[derive(Debug, Clone, Copy, Default)]
struct ServiceCounters {
    batches: u64,
    served: u64,
    rejected: u64,
    wait_count: u64,
    wait_sum_us: u64,
}

impl ServiceCounters {
    fn read(server: &Server) -> ServiceCounters {
        let wait = server.metrics().histogram_snapshot("service.queue.wait_us");
        ServiceCounters {
            batches: server.batches_executed() as u64,
            served: server.queries_served() as u64,
            rejected: server.queries_rejected() as u64,
            wait_count: wait.as_ref().map_or(0, |h| h.count),
            wait_sum_us: wait.as_ref().map_or(0, |h| h.sum),
        }
    }

    fn plus(&self, other: &ServiceCounters) -> ServiceCounters {
        ServiceCounters {
            batches: self.batches + other.batches,
            served: self.served + other.served,
            rejected: self.rejected + other.rejected,
            wait_count: self.wait_count + other.wait_count,
            wait_sum_us: self.wait_sum_us + other.wait_sum_us,
        }
    }

    fn minus(&self, earlier: &ServiceCounters) -> ServiceCounters {
        ServiceCounters {
            batches: self.batches - earlier.batches,
            served: self.served - earlier.served,
            rejected: self.rejected - earlier.rejected,
            wait_count: self.wait_count - earlier.wait_count,
            wait_sum_us: self.wait_sum_us - earlier.wait_sum_us,
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Quantized-filter answers whose per-segment code widths differ from
/// the previous such answer's — each difference made the engine rebuild
/// its code companion — and the number of such answers.
fn rebuilds(inputs: &Inputs, window: &Sliced) -> (usize, usize) {
    let widths: Vec<&Vec<u8>> = window
        .done()
        .filter(|d| {
            inputs.scan_of(&drive::request(&inputs.pool, d.id).spec) == ScanMode::QuantizedFilter
        })
        .filter_map(|d| d.result.as_ref().ok().map(|a| &a.filter_bits))
        .collect();
    (widths.windows(2).filter(|w| w[0] != w[1]).count(), widths.len())
}

/// The `q`-quantile of a traced run's untraced window; its samples are
/// fewer than an untraced run's, so the tail rule is not applied.
fn percentile(values: &[f64], q: f64) -> f64 {
    tail_percentile(values, q, 0).unwrap_or(0.0)
}

fn per_layer(t: &Tracer, draws: &[Draw]) -> Vec<Metric> {
    let spans = t.spans();
    let selfs = self_times(&spans);
    let span_us = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    };
    let samples: Vec<&LayerSample> = draws.iter().flat_map(|d| &d.samples).collect();
    let dur_us: std::collections::HashMap<u32, f64> =
        spans.iter().map(|s| (s.id, s.dur_ns() as f64 / 1e3)).collect();
    let layer_latency_us: Vec<f64> = samples.iter().map(|s| dur_us[&s.root]).collect();
    let self_us = |id: u32| selfs[&id] as f64 / 1e3;
    let ensure_us = span_us("codes.ensure");
    let ensure_total = ensure_us.iter().fold(0.0, |a, b| a + b);

    let per =
        |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(|s| f(s)).collect::<Vec<_>>());
    let coded: Vec<&&LayerSample> = samples.iter().filter(|s| s.uses_codes).collect();
    let selectivities: Vec<f64> = samples.iter().filter_map(|s| s.selectivity).collect();
    let sweep_s: f64 = samples.iter().map(|s| s.sweep.as_secs_f64()).sum();
    let sweep_cells: u64 = samples.iter().map(|s| s.sweep_cells).sum();
    let cost_errors: Vec<f64> = samples
        .iter()
        .filter(|s| s.exact_cells > 0)
        .map(|s| (s.estimate - s.exact_cells as f64).abs() / s.exact_cells as f64)
        .collect();
    let zero_if_nan = |v: f64| if v.is_nan() { 0.0 } else { v };
    let setups: Vec<&SetupSample> = draws.iter().flat_map(|d| &d.setups).collect();
    let setup_med =
        |f: fn(&SetupSample) -> f64| median(&setups.iter().map(|s| f(s)).collect::<Vec<_>>());
    let service = draws.iter().fold(ServiceCounters::default(), |acc, d| acc.plus(&d.service));
    let (changes, coded_answers) =
        draws.iter().fold((0, 0), |acc, d| (acc.0 + d.rebuilds.0, acc.1 + d.rebuilds.1));
    let plain_qps = drive::qps(draws.iter().flat_map(|d| &d.plain.slices));
    let traced_qps =
        drive::qps(draws.iter().filter_map(|d| d.traced.as_ref()).flat_map(|d| &d.slices));
    let (ms, relative) = latencies(draws);
    let late: Vec<f64> = draws.iter().flat_map(|d| lateness_ms(&d.plain)).collect();
    let (stolen, ticks) =
        draws.iter().fold((0, 0), |acc, d| (acc.0 + d.steal.0, acc.1 + d.steal.1));
    let store_bytes = median(&draws.iter().map(|d| d.store_bytes as f64).collect::<Vec<_>>());

    vec![
        metric("service.submit_us", median(&span_us("service.submit")), "us"),
        metric("service.wait_us", median(&span_us("service.wait")), "us"),
        metric(
            "service.queue_wait_us",
            ratio(service.wait_sum_us as f64, service.wait_count as f64),
            "us",
        ),
        metric("service.batch_size", ratio(service.served as f64, service.batches as f64), "count"),
        metric("service.rejected", service.rejected as f64, "count"),
        metric("planner.estimate_us", median(&span_us("planner.estimate")), "us"),
        metric("planner.explain_us", median(&span_us("planner.explain")), "us"),
        metric("planner.cost_error", zero_if_nan(median(&cost_errors)), "ratio"),
        metric("engine.execute_us", per(&|s| us(s.execute)), "us"),
        metric("engine.exact_cells", per(&|s| s.exact_cells as f64), "count"),
        metric(
            "engine.segments_skipped",
            mean(&samples.iter().map(|s| s.skipped as f64).collect::<Vec<_>>()),
            "count",
        ),
        metric("engine.plan_us", per(&|s| us(s.plan)), "us"),
        metric("engine.merge_us", per(&|s| us(s.merge)), "us"),
        metric("engine.unattributed_us", per(&|s| self_us(s.execute_span)), "us"),
        metric("codes.ensure_us", zero_if_nan(median(&ensure_us)), "us"),
        metric(
            "codes.ensure_share",
            ratio(ensure_total, layer_latency_us.iter().fold(0.0, |a, b| a + b)),
            "ratio",
        ),
        metric(
            "codes.rebuilds_per_1k",
            ratio(changes as f64 * 1000.0, coded_answers as f64),
            "count",
        ),
        metric("codes.encode_ms", setup_med(|s| s.encode_s) * 1e3, "ms"),
        metric(
            "quantfilter.sweep_us",
            zero_if_nan(median(&coded.iter().map(|s| us(s.sweep)).collect::<Vec<_>>())),
            "us",
        ),
        metric("quantfilter.cells_per_s", ratio(sweep_cells as f64, sweep_s), "1/s"),
        metric(
            "quantfilter.code_cells",
            zero_if_nan(median(&coded.iter().map(|s| s.code_cells as f64).collect::<Vec<_>>())),
            "count",
        ),
        metric("quantfilter.selectivity", zero_if_nan(median(&selectivities)), "ratio"),
        metric(
            "searcher.segment_us",
            zero_if_nan(median(
                &samples.iter().filter_map(|s| s.searcher.map(us)).collect::<Vec<_>>(),
            )),
            "us",
        ),
        metric("searcher.work_fraction", per(&|s| s.work_fraction), "ratio"),
        metric("searcher.prune_attempts", per(&|s| s.prune_attempts as f64), "count"),
        metric("store.persist_s", setup_med(|s| s.persist_s), "s"),
        metric("store.open_s", setup_med(|s| s.open_s), "s"),
        metric("store.bytes", store_bytes, "bytes"),
        metric("trace.overhead_ratio", ratio(traced_qps, plain_qps), "ratio"),
        metric("trace.request_us", median(&layer_latency_us), "us"),
        metric("trace.harness_us", per(&|s| self_us(s.root)), "us"),
        metric("loadgen.late_ms", tail_percentile(&late, 0.99, 0).unwrap_or(0.0), "ms"),
        metric("host.steal_ratio", ratio(stolen as f64, ticks as f64), "ratio"),
        metric("host.scan_ms", scan_ms(draws), "ms"),
        metric("latency_p50_vs_scan", percentile(&relative, 0.5), "ratio"),
        metric("latency_p99_vs_scan", percentile(&relative, 0.99), "ratio"),
        metric("raw.qps", plain_qps, "req/s"),
        metric("raw.latency_mean_ms", mean(&ms), "ms"),
        metric("raw.latency_p50_ms", percentile(&ms, 0.5), "ms"),
        metric("raw.latency_p99_ms", percentile(&ms, 0.99), "ms"),
    ]
}
