//! A long-lived k-NN service: an owned, `Send + Sync` [`Engine`] behind a
//! [`Server`] front-end that coalesces concurrently submitted requests
//! into engine batches — with per-request `k`, pruning rule and planner.
//!
//! ```text
//! cargo run --release --example service
//! ```

use std::sync::Arc;
use std::time::Instant;

use bond_datagen::{sample_queries, CorelLikeConfig};
use bond_exec::{Engine, PlannerKind, QuerySpec, RuleKind, Server};

fn main() {
    // 1. Build the engine once, at startup. It owns the table (Arc'd), so
    //    nothing ties it to this stack frame: it can be stored in a server
    //    struct and shared across request threads for the process lifetime.
    let table = Arc::new(CorelLikeConfig::small(40_000, 32).generate());
    let engine = Engine::builder(table.clone())
        .partitions(8)
        .threads(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
        .rule(RuleKind::HistogramHh) // the default; requests may override
        .build()
        .expect("valid engine configuration");
    println!(
        "engine: {} histograms x {} bins, {} partitions, {} worker threads",
        table.rows(),
        table.dims(),
        engine.partitions(),
        engine.threads(),
    );

    // 2. Front it with a Server: a submission queue + one batching worker.
    //    Concurrent submitters hand in individual QuerySpecs; the worker
    //    drains whatever has accumulated into one engine pass.
    let server = Server::builder(engine.clone()).max_batch(32).build().expect("valid server");

    // 3. Simulate a mixed production workload from 6 concurrent client
    //    threads: navigation queries (k=10, default rule), lookups (k=1,
    //    Euclidean), and re-ranking jobs (k=50, feedback planning).
    let queries = sample_queries(&table, 36, 99);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (client, chunk) in queries.chunks(6).enumerate() {
            let server = &server;
            let engine = &engine;
            scope.spawn(move || {
                for (i, q) in chunk.iter().enumerate() {
                    let spec = match i % 3 {
                        0 => QuerySpec::new(q.clone(), 10),
                        1 => QuerySpec::new(q.clone(), 1).rule(RuleKind::EuclideanEq),
                        _ => QuerySpec::new(q.clone(), 50).planner(PlannerKind::Feedback),
                    };
                    let ticket = server.submit(spec.clone()).expect("spec admitted");
                    let answer = ticket.wait().expect("request served");
                    assert_eq!(answer.hits.len(), spec.k());
                    // every answer routed back to the right requester:
                    // re-ask the engine directly and compare
                    let direct = engine.search_spec(&spec).expect("direct search");
                    assert_eq!(
                        answer.hits, direct.hits,
                        "client {client} got someone else's answer"
                    );
                }
            });
        }
    });
    let elapsed = t0.elapsed();

    // 4. The coalescing ratio: how many requests each engine pass served.
    println!(
        "\nserved {} mixed requests (k ∈ {{1, 10, 50}}, 3 rules/planners) in {elapsed:?}",
        server.queries_served(),
    );
    println!(
        "coalescing: {} engine passes for {} requests ({:.1} requests/pass)",
        server.batches_executed(),
        server.queries_served(),
        server.queries_served() as f64 / server.batches_executed().max(1) as f64,
    );
    println!("\nall answers matched direct engine searches — routing is correct");

    // 5. Shutdown is graceful: queued tickets resolve, new submissions are
    //    rejected.
    server.shutdown();
    let q = queries[0].clone();
    assert!(server.submit(QuerySpec::new(q, 1)).is_err());
    println!("after shutdown: new submissions are rejected, the queue was drained");
}
