//! ExplainTI benchmark: one command per workload, printing every metric
//! by name with its unit and checking the outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_miss --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! a run that also records spans) with `--trace 1`. The line before it
//! is the run's context: workload, seed, run length, sample counts, git
//! revision, `nproc` and the SIMD dispatch tier. Workloads and metrics
//! are described in `perfbench/README.md`.

mod alloc;
mod client;
mod layers;
mod model;
mod payload;
mod procfs;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

use serde_json::json;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["serve_miss", "serve_hot", "train"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

/// The commit measured: `HEAD` when the working directory is the top of
/// a git repository (not merely inside one), else "unknown".
fn git_rev() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success());
    let text = out.map(|o| String::from_utf8_lossy(&o.stdout).into_owned()).unwrap_or_default();
    let mut lines = text.lines();
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    match (lines.next(), lines.next()) {
        (Some(top), Some(rev)) if std::fs::canonicalize(top).ok() == here => rev.to_string(),
        _ => "unknown".to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut r = report::Report::default();
    let outcome = match args.workload.as_str() {
        "serve_miss" => serve::run(serve::Kind::Miss, args.seed, args.seconds, args.trace, &mut r),
        "serve_hot" => serve::run(serve::Kind::Hot, args.seed, args.seconds, args.trace, &mut r),
        _ => train::run(args.seed, args.seconds, args.trace, &mut r),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    r.set("peak_rss_mb", procfs::peak_rss_mb());
    for v in &r.violations {
        eprintln!("perfbench: output check failed: {v}");
    }

    r.note("workload", json!(args.workload));
    r.note("seed", json!(args.seed));
    r.note("seconds", json!(args.seconds));
    r.note("trace", json!(args.trace));
    r.note("git_rev", json!(git_rev()));
    r.note("nproc", json!(std::thread::available_parallelism().map_or(0, |n| n.get())));
    r.note("simd_tier", json!(format!("{:?}", explainti_nn::simd::tier())));
    let keep = if args.trace { &report::PER_LAYER[..] } else { &report::END_TO_END[..] };
    match r.result_line(keep) {
        Ok(line) => {
            println!(
                "{}",
                serde_json::to_string(&json!({ "context": r.info })).unwrap_or_default()
            );
            println!("{}", serde_json::to_string(&line).unwrap_or_default());
            // A failed output check fails the command once the result
            // line has recorded it.
            if r.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists here are the ones BENCHMARK.json
    /// declares.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |key: &str, f: &str| -> Vec<String> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("array")
                .iter()
                .map(|m| m.get(f).and_then(|n| n.as_str()).expect("string field").to_string())
                .collect()
        };
        let pairs = |key: &str| -> Vec<(String, String)> {
            field(key, "name").into_iter().zip(field(key, "unit")).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(field("workloads", "name"), WORKLOADS);
        assert_eq!(pairs("end_to_end"), own(&report::END_TO_END));
        assert_eq!(pairs("per_layer"), own(&report::PER_LAYER));
    }
}
