//! Image-retrieval scenario: the workload that motivates the paper.
//!
//! Builds a Corel-like collection at the paper's dimensionality (166 HSV
//! bins), compares BOND against a sequential scan and against the VA-File
//! on the same queries, and prints response times and result agreement —
//! a miniature version of Tables 3 and 4.
//!
//! ```text
//! cargo run --release --example image_search
//! ```

use std::time::Instant;

use bond::{BlockSchedule, BondParams, BondSearcher, DimensionOrdering};
use bond_baselines::{sequential_scan, VaFile};
use bond_datagen::{sample_queries, CorelLikeConfig};
use bond_metrics::HistogramIntersection;

fn main() {
    let vectors = 20_000;
    let dims = 166;
    let k = 10;
    println!("generating {vectors} histograms x {dims} bins ...");
    let table = CorelLikeConfig { vectors, dims, ..CorelLikeConfig::default() }.generate();
    let matrix = table.to_row_matrix();
    let queries = sample_queries(&table, 20, 7);

    let searcher = BondSearcher::new(&table);
    let params = BondParams {
        schedule: BlockSchedule::Fixed(8),
        ordering: DimensionOrdering::QueryValueDescending,
        ..BondParams::default()
    };
    let vafile = VaFile::build(&table, 8).expect("va-file build");

    let mut bond_ms = 0.0;
    let mut scan_ms = 0.0;
    let mut va_ms = 0.0;
    let mut agree_scan = true;
    let mut agree_va = true;
    let mut avg_dims_read = 0.0;

    for query in &queries {
        let start = Instant::now();
        let bond_result =
            searcher.histogram_intersection_hq(query, k, &params).expect("bond search succeeds");
        bond_ms += start.elapsed().as_secs_f64() * 1000.0;
        avg_dims_read += bond_result.trace.dims_accessed as f64;

        let start = Instant::now();
        let scan_result = sequential_scan(&matrix, query, k, &HistogramIntersection);
        scan_ms += start.elapsed().as_secs_f64() * 1000.0;

        let start = Instant::now();
        let va_result = vafile
            .search_metric(&matrix, &HistogramIntersection, query, k)
            .expect("va-file search succeeds");
        va_ms += start.elapsed().as_secs_f64() * 1000.0;

        let rows = |hits: &[vdstore::topk::Scored]| {
            let mut v: Vec<u32> = hits.iter().map(|h| h.row).collect();
            v.sort_unstable();
            v
        };
        if rows(&bond_result.hits) != rows(&scan_result.hits) {
            agree_scan = false;
        }
        if rows(&bond_result.hits) != rows(&va_result.hits) {
            agree_va = false;
        }
    }

    let n = queries.len() as f64;
    println!("\naverage response time over {} queries (k = {k}):", queries.len());
    println!("  BOND (Hq, m = 8)          : {:>8.2} ms", bond_ms / n);
    println!("  sequential scan (SSH)     : {:>8.2} ms", scan_ms / n);
    println!("  VA-File (filter + refine) : {:>8.2} ms", va_ms / n);
    println!("  BOND speedup over scan    : {:>8.2}x", scan_ms / bond_ms);
    println!("\nBOND read {:.1} of {} dimension fragments on average", avg_dims_read / n, dims);
    println!(
        "results identical to sequential scan: {}",
        if agree_scan { "yes" } else { "NO (unexpected)" }
    );
    println!(
        "results identical to VA-File:         {}",
        if agree_va { "yes" } else { "NO (unexpected)" }
    );
}
