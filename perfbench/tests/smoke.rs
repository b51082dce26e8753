//! A tiny-scale run of every workload, untraced and traced: every answer
//! correct, every metric `BENCHMARK.json` names reported under its unit.

use perfbench::workload::{Scale, Workload};
use perfbench::{run, Config, Report};

/// The `BENCHMARK.json` at the repository root.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
}

/// The `(name, unit)` pairs listed in one section of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry.find(&format!("\"{f}\"")).expect("field present");
                entry[at..].split('"').nth(3).expect("string value").to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let cfg = Config { workload, seed: 7, seconds: 0.5, trace, scale: Scale::Tiny };
    run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()))
}

fn assert_reports(report: &Report, expected: &[(String, String)], ctx: &str) {
    assert!(report.correct, "{ctx}: wrong answers");
    assert_eq!(report.failed, 0, "{ctx}: failed requests");
    assert!(report.attempted >= 1000, "{ctx}: only {} requests", report.attempted);
    let got: Vec<(String, String)> =
        report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    assert_eq!(&got, expected, "{ctx}: metric names and units");
    assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{ctx}: non-finite metric");
    let json = report.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
}

#[test]
fn every_workload_runs_tiny_untraced_and_traced() {
    let json = benchmark_json();
    let end_to_end = section(&json, "end_to_end");
    let per_layer = section(&json, "per_layer");
    for w in Workload::ALL {
        let plain = tiny(w, false);
        assert_reports(&plain, &end_to_end, w.name());
        for name in ["latency_mean_vs_scan", "setup_s"] {
            assert!(plain.get(name).unwrap() > 0.0, "{}: {name} is 0", w.name());
        }
        let traced = tiny(w, true);
        assert_reports(&traced, &per_layer, &format!("{} traced", w.name()));
        let codes_and_sweeps = [
            "codes.ensure_us",
            "codes.rebuilds_per_1k",
            "quantfilter.sweep_us",
            "quantfilter.code_cells",
        ];
        match w {
            Workload::CorelExact => {
                for name in codes_and_sweeps {
                    assert_eq!(traced.get(name), Some(0.0), "corel-exact reads no codes: {name}");
                }
                // the persisted store carries codes, encoded in set-up
                assert!(traced.get("codes.encode_ms").unwrap() > 0.0);
                assert!(traced.get("store.persist_s").unwrap() > 0.0);
            }
            Workload::ClusteredQuantized => {
                assert!(traced.get("quantfilter.code_cells").unwrap() > 0.0);
                assert!(traced.get("codes.encode_ms").unwrap() > 0.0);
            }
            Workload::MixedOpen => {
                assert!(plain.get("approx_recall").unwrap() > 0.5);
                assert!(traced.get("quantfilter.sweep_us").unwrap() > 0.0);
            }
        }
    }
}
