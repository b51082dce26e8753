//! The three workloads: generated inputs, oracle answers and engine set-up.
//!
//! Everything a run sends is derived from its seed: the table, the query
//! rows, the predicate filters, the request mix and (for the open loop)
//! the arrival times. The oracle answers are computed once per run, after
//! generation and outside the timed set-up.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bond::{BondParams, Scored};
use bond_datagen::{sample_query_rows, ClusteredConfig, CorelLikeConfig};
use bond_exec::{
    Engine, EngineBuilder, PlannerKind, Priority, QuerySpec, RuleKind, ScanMode, Server,
};
use vdstore::{Bitmap, DecomposedTable, StorageBackend};

use crate::oracle::{self, ScoreFn};
use crate::trace::Tracer;

/// Row-range segments every engine is split into.
pub const PARTITIONS: usize = 8;
/// Worker threads of every engine.
pub const THREADS: usize = 2;
/// Client threads of the closed loops, each with one request outstanding.
pub const CLIENTS: usize = 2;
/// Offered rate of `mixed-open`, in requests per second: about a fifth
/// of the mix's open-loop capacity on a 2-core host, so that a shared
/// host's slow phases do not push the queue towards saturation.
pub const MIXED_RATE: f64 = 160.0;
/// Offered rate of the tiny-scale open loop (self-tests).
pub const TINY_RATE: f64 = 400.0;
/// Tables one `clustered-quantized` or `mixed-open` run serves (see
/// [`draws`]).
pub const CLUSTERED_DRAWS: usize = 8;
/// `k` of the k = 10 requests.
pub const K: usize = 10;
/// `k` of `mixed-open`'s wide exact third.
pub const K_WIDE: usize = 50;
/// Share of rows a `mixed-open` predicate filter admits.
pub const FILTER_DENSITY: f64 = 0.1;
/// Distinct predicate filters per `mixed-open` run.
const FILTERS: usize = 8;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Corel-style histograms, exact HQ, mapped store.
    CorelExact,
    /// Clustered vectors, Euclidean, quantized first pass.
    ClusteredQuantized,
    /// Poisson arrivals of filtered, approximate and wide exact requests.
    MixedOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::CorelExact, Workload::ClusteredQuantized, Workload::MixedOpen];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorelExact => "corel-exact",
            Workload::ClusteredQuantized => "clustered-quantized",
            Workload::MixedOpen => "mixed-open",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the real workloads, or a tiny version for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// A few thousand rows: every code path, in well under a second.
    Tiny,
}

/// What a correct answer to one request is.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `Uniform` exact: these hits, bit for bit.
    Identical(Vec<Scored>),
    /// Stats-driven exact: these hits up to ties within summation drift.
    RankExact(Vec<Scored>),
    /// Approximate: scored by recall@k against these exact hits.
    Approx(Vec<Scored>),
}

/// One request of the pool and its oracle answer.
#[derive(Debug, Clone)]
pub struct Request {
    /// What is submitted.
    pub spec: QuerySpec,
    /// What must come back.
    pub expect: Expect,
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The generated table (heap-resident; the oracle reads it).
    pub table: Arc<DecomposedTable>,
    /// The engine's default rule.
    pub rule: RuleKind,
    /// The engine's default scan mode.
    pub scan: ScanMode,
    /// The oracle's scoring function for that rule.
    pub score: ScoreFn,
    /// The request pool; request `i` of a run sends `pool[i % len]`.
    pub pool: Vec<Request>,
    /// Seed of the open loop's arrival times.
    pub arrival_seed: u64,
}

/// SplitMix64: a tiny seeded generator for the benchmark's own choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The request shapes a pool is made of.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// k = 10 under the engine defaults.
    Plain,
    /// `mixed-open` (a): filtered exact k = 10, `Feedback`, `Interactive`.
    Filtered(usize),
    /// `mixed-open` (b): 8-bit approximate k = 10, `Normal`.
    Approx,
    /// `mixed-open` (c): exact k = 50, `Feedback`, `Batch`.
    Wide,
}

/// How many tables a run of `workload` draws and serves one after the
/// other. On the clustered generator's tables latency depends on the
/// table's cluster geometry (through pruning and the adaptive code-width
/// feedback), so one run averages over several tables from the same
/// generator.
pub fn draws(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (Workload::CorelExact, _) => 1,
        (_, Scale::Full) => CLUSTERED_DRAWS,
        (_, Scale::Tiny) => 2,
    }
}

/// The seed of draw `d` of a run seeded with `seed`; draw 0 is `seed`.
pub fn draw_seed(seed: u64, d: usize) -> u64 {
    seed.wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates the table, the request pool and the oracle answers of
/// `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let tiny = scale == Scale::Tiny;
    let mut rng = SplitMix::new(seed ^ 0x005E_ED0F_BE7C);
    let (table, rule, per_shape) = match workload {
        Workload::CorelExact => {
            let cfg = if tiny {
                CorelLikeConfig::small(3_000, 32)
            } else {
                CorelLikeConfig::paper_scale()
            };
            (cfg.with_seed(seed).generate(), RuleKind::HistogramHq, if tiny { 24 } else { 256 })
        }
        Workload::ClusteredQuantized | Workload::MixedOpen => {
            let (rows, dims) = if tiny { (3_000, 16) } else { (40_000, 32) };
            // mixed-open draws the same distribution from its own seed
            let table_seed = if workload == Workload::MixedOpen { rng.next_u64() } else { seed };
            let cfg = ClusteredConfig { clusters: 16, ..ClusteredConfig::small(rows, dims, 0.0) }
                .with_cluster_major(true)
                .with_seed(table_seed);
            // mixed-open's pool holds three shapes of each size
            let per_shape = match (tiny, workload) {
                (true, _) => 12,
                (false, Workload::MixedOpen) => 128,
                (false, _) => 256,
            };
            (cfg.generate(), RuleKind::EuclideanEv, per_shape)
        }
    };
    let rows = table.rows();
    let shapes: Vec<Shape> = match workload {
        Workload::MixedOpen => (0..per_shape)
            .flat_map(|i| [Shape::Filtered(i % FILTERS), Shape::Approx, Shape::Wide])
            .collect(),
        _ => vec![Shape::Plain; per_shape],
    };
    let filters: Vec<Arc<Bitmap>> = (0..FILTERS)
        .map(|_| {
            let admitted: Vec<u32> =
                (0..rows as u32).filter(|_| rng.next_f64() < FILTER_DENSITY).collect();
            Arc::new(Bitmap::from_rows(rows, &admitted))
        })
        .collect();
    let query_rows = sample_query_rows(&table, shapes.len(), rng.next_u64());
    let score = ScoreFn::of(&rule);
    let pool = oracle_pool(&table, score, &shapes, &query_rows, &filters);
    let scan = match workload {
        Workload::ClusteredQuantized => ScanMode::QuantizedFilter,
        _ => ScanMode::Exact,
    };
    let mut inputs = Inputs {
        workload,
        table: Arc::new(table),
        rule,
        scan,
        score,
        pool,
        arrival_seed: rng.next_u64(),
    };
    // the request stream cycles through the pool in a seeded order
    for i in (1..inputs.pool.len()).rev() {
        let j = rng.below(i + 1);
        inputs.pool.swap(i, j);
    }
    inputs
}

/// The order the `Uniform` plan sums a query's dimensions in.
fn uniform_order(query: &[f64]) -> Vec<usize> {
    BondParams::default().ordering.order(query, None, query.len())
}

/// Builds every request of the pool with its oracle answer, on two threads.
fn oracle_pool(
    table: &DecomposedTable,
    score: ScoreFn,
    shapes: &[Shape],
    query_rows: &[u32],
    filters: &[Arc<Bitmap>],
) -> Vec<Request> {
    let build = |i: usize| {
        let query = table.row(query_rows[i]).expect("sampled row exists");
        let scores = oracle::scores(table, score, &query, &uniform_order(&query));
        match shapes[i] {
            Shape::Plain => Request {
                expect: Expect::Identical(oracle::topk(score, &scores, K, None)),
                spec: QuerySpec::new(query, K),
            },
            Shape::Filtered(f) => Request {
                expect: Expect::RankExact(oracle::topk(score, &scores, K, Some(&filters[f]))),
                spec: QuerySpec::new(query, K)
                    .filter_shared(Arc::clone(&filters[f]))
                    .planner(PlannerKind::Feedback)
                    .priority(Priority::Interactive),
            },
            Shape::Approx => Request {
                expect: Expect::Approx(oracle::topk(score, &scores, K, None)),
                spec: QuerySpec::new(query, K)
                    .scan_mode(ScanMode::ApproximateQuantized { bits: 8 })
                    .priority(Priority::Normal),
            },
            Shape::Wide => Request {
                expect: Expect::RankExact(oracle::topk(score, &scores, K_WIDE, None)),
                spec: QuerySpec::new(query, K_WIDE)
                    .planner(PlannerKind::Feedback)
                    .priority(Priority::Batch),
            },
        }
    };
    let half = shapes.len() / 2;
    std::thread::scope(|s| {
        let second = s.spawn(|| (half..shapes.len()).map(build).collect::<Vec<_>>());
        let mut pool: Vec<Request> = (0..half).map(build).collect();
        pool.extend(second.join().expect("oracle thread"));
        pool
    })
}

impl Inputs {
    /// A row's exact score for `query`, summed in `Uniform` order.
    pub fn rescore(&self, query: &[f64], row: u32) -> f64 {
        oracle::row_score(&self.table, self.score, row, query, &uniform_order(query))
    }

    /// Checks one answer: `Ok(None)` for a correct exact answer,
    /// `Ok(Some(recall))` for an approximate one.
    ///
    /// # Errors
    ///
    /// Why an exact answer is wrong.
    pub fn check(&self, request: &Request, hits: &[Scored]) -> Result<Option<f64>, String> {
        match &request.expect {
            Expect::Identical(exact) => oracle::check_identical(hits, exact).map(|()| None),
            Expect::RankExact(exact) => {
                let q = request.spec.vector();
                oracle::check_rank_exact(hits, exact, |r| self.rescore(q, r)).map(|()| None)
            }
            Expect::Approx(exact) => Ok(Some(oracle::recall(hits, exact))),
        }
    }

    /// The scan mode `spec` runs under on this workload's engine.
    pub fn scan_of(&self, spec: &QuerySpec) -> ScanMode {
        spec.scan_mode_override().unwrap_or(self.scan)
    }

    /// Bytes of the f64 data: rows × dims × 8.
    pub fn raw_bytes(&self) -> u64 {
        (self.table.rows() * self.table.dims() * 8) as u64
    }
}

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    /// Generated inputs to a server ready to serve.
    pub total_s: f64,
    /// `Engine::persist` (`corel-exact` only).
    pub persist_s: f64,
    /// `EngineBuilder::open_with(Mapped)` plus its build (`corel-exact`).
    pub open_s: f64,
    /// The explicit 8-bit code encode (`ensure_codes`, or on `corel-exact`
    /// `ensure_adaptive_codes` for the store).
    pub encode_s: f64,
}

/// A directory inside the working directory for store files, removed
/// with everything in it when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench/<pid>` under the current directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The store file a set-up persists to; each set-up overwrites it.
    pub fn store(&self) -> PathBuf {
        self.0.join("store.bondvd")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent only if no other run is using it
        let _ = std::fs::remove_dir(".perfbench");
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` inside a set-up span (request id 0) and returns its result
/// with its wall time in seconds.
fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    f: impl FnOnce() -> bond::Result<T>,
) -> Result<(T, f64), String> {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, None, 0, |_| f()),
        None => f(),
    };
    out.map(|v| (v, secs(start))).map_err(|e| format!("{name}: {e}"))
}

/// One set-up: from the generated table to a [`Server`] ready to serve.
///
/// # Errors
///
/// Any engine or store error, as text.
pub fn set_up(
    inputs: &Inputs,
    work: &WorkDir,
    tracer: Option<&Tracer>,
) -> Result<(Server, SetupSample), String> {
    let start = Instant::now();
    let mut sample = SetupSample::default();
    let (mut engine, _) = timed(tracer, "engine.build", || {
        Engine::builder(Arc::clone(&inputs.table))
            .partitions(PARTITIONS)
            .threads(THREADS)
            .rule(inputs.rule.clone())
            .scan_mode(inputs.scan)
            .build()
    })?;
    match inputs.workload {
        Workload::CorelExact => {
            // the store carries the adaptively sized codes; encoding them
            // here keeps `persist` to the write
            sample.encode_s = timed(tracer, "codes.encode", || engine.ensure_adaptive_codes())?.1;
            let path = work.store();
            sample.persist_s = timed(tracer, "store.persist", || engine.persist(&path))?.1;
            drop(engine);
            (engine, sample.open_s) = timed(tracer, "store.open", || {
                EngineBuilder::open_with(&path, StorageBackend::Mapped)?.threads(THREADS).build()
            })?;
        }
        Workload::ClusteredQuantized | Workload::MixedOpen => {
            sample.encode_s = timed(tracer, "codes.encode", || engine.ensure_codes(8))?.1;
        }
    }
    let server = Server::new(engine);
    sample.total_s = secs(start);
    Ok((server, sample))
}
