//! Exact-count metrics repeat exactly across runs of the same code, on
//! any seed: the `nn.*` counts (taken on the fixed probe set), the
//! thread counts, the cache hit ratio and the test F1 of the fixed
//! model. Run with `cargo test --release`: each run trains the model.

use std::process::Command;

use serde_json::Value;

fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_explainti-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        // The repository root, where the benchmark is run (traces land in
        // the ignored `perfbench/out/`).
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v: Value = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true), "{workload}: {last}");
    v
}

fn metric(v: &Value, name: &str) -> f64 {
    v.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn exact_counts_repeat_across_runs_and_seeds() {
    let exact = [
        "nn.allocs_per_col",
        "nn.alloc_bytes_per_col",
        "nn.tape_nodes_per_col",
        "proc.threads",
        "pool.threads",
        "serve.cache_hit_ratio",
    ];
    for workload in ["serve_miss", "serve_hot"] {
        let a = run(workload, 1, true);
        let b = run(workload, 2, true);
        for name in exact {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload} {name}");
        }
    }
    let served = run("serve_miss", 3, false);
    let trained = run("train", 4, false);
    assert_eq!(metric(&served, "test_f1_weighted"), metric(&trained, "test_f1_weighted"));
}
