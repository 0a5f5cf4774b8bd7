//! The `train` workload: Algorithm 5 fine-tunes of the fixed model from
//! one MLM pre-trained checkpoint; after each, the trained model
//! interprets held-out columns in-process, the way `interpret --json`
//! does.

use std::time::Instant;

use explainti_api::{PredictRequest, PredictResponse, DEFAULT_TOP_K};
use explainti_core::{ExplainTi, Prediction};
use serde_json::json;

use crate::client::request_bytes;
use crate::model::{self, Standalone};
use crate::payload::{column_body, probe_columns, training_corpus, HeldOut};
use crate::report::Report;
use crate::serve::check_prediction;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{layers, procfs};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Held-out columns the trained model interprets, at least; enough for
/// a p99 with ten samples beyond it.
const INTERPRET_COLS: usize = 1200;
/// Interpretations after each fine-tune.
const INTERPRET_SLICE: usize = 300;

/// One column through the library the way `interpret --json` runs it:
/// tokenize, predict, project and serialise.
fn interpret(
    m: &ExplainTi,
    labels: &[String],
    c: &PredictRequest,
) -> (Prediction, PredictResponse) {
    let cells: Vec<&str> = c.cells.iter().map(String::as_str).collect();
    let p = m.predict_column(&c.title, &c.header, &cells);
    let resp = PredictResponse::from_prediction(&p, labels, DEFAULT_TOP_K);
    std::hint::black_box(serde_json::to_string(&resp).expect("response DTOs serialise"));
    (p, resp)
}

/// Checks an interpretation: the full distribution and the wire view.
fn check(p: &Prediction, resp: &PredictResponse, labels: &[String]) -> Result<(), String> {
    let total: f32 = p.probs.iter().sum();
    if (total - 1.0).abs() > 1e-4 {
        return Err(format!("probabilities sum to {total}"));
    }
    check_prediction(resp, labels)
}

/// Runs the `train` workload.
pub fn run(seed: u64, seconds: f64, trace: bool, r: &mut Report) -> Result<(), String> {
    // ---- set-up, several times: corpus and MLM pre-training ----
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let dataset = training_corpus();
        let checkpoint = model::pretrained_checkpoint(&dataset);
        setups.push(t.elapsed().as_secs_f64());
        ready = Some((dataset, checkpoint));
    }
    let (dataset, checkpoint) = ready.expect("at least one set-up");
    let labels = dataset.collection.type_labels.clone();
    let cols = HeldOut::new(seed, &dataset).columns(INTERPRET_COLS);

    // ---- timed: whole fine-tunes until `seconds` of them, each followed
    // by a slice of interpretations, so both are sampled across the run
    // (every fine-tune from the checkpoint trains the same model) ----
    let mut busy = 0.0;
    let mut samples = 0usize;
    let mut runs = 0u64;
    let mut lat_us = Vec::new();
    let mut failed = 0u64;
    let mut cpu_s = 0.0;
    let mut next_col = cols.iter().cycle();
    let mut m = loop {
        let mut m = model::from_checkpoint(&dataset, &checkpoint);
        busy += model::finetune(&mut m);
        samples += model::finetune_samples(&m);
        runs += 1;
        let cpu0 = procfs::cpu_seconds();
        for c in next_col.by_ref().take(INTERPRET_SLICE) {
            let t = Instant::now();
            let (p, resp) = interpret(&m, &labels, c);
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = check(&p, &resp, &labels) {
                failed += 1;
                if failed == 1 {
                    r.violate(format!("invalid interpretation: {e}"));
                }
            }
        }
        cpu_s += procfs::cpu_seconds() - cpu0;
        if busy >= seconds && lat_us.len() >= INTERPRET_COLS {
            break m;
        }
    };
    let f1 = model::test_f1(&m);
    if !f1.is_finite() || f1 <= 0.0 {
        r.violate(format!("test F1 {f1} after fine-tuning"));
    }
    let interpreted = lat_us.len();
    r.attempted = runs + interpreted as u64;
    r.failed = failed;

    let untraced_p50 = quantile(&mut lat_us, 0.50);
    r.set("setup_s", median(&mut setups));
    // The columns this workload processes per second are training samples
    // (a column, or a column pair for relations) stepped through.
    r.set("cols_per_s", samples as f64 / busy);
    r.set("req_p50_ms", untraced_p50 / 1e3);
    r.set("req_p99_ms", quantile(&mut lat_us, 0.99) / 1e3);
    r.set("ok_frac", 1.0 - r.failed as f64 / r.attempted as f64);
    r.set("test_f1_weighted", f1);
    r.note("finetunes", json!(runs));
    r.note("requests", json!(interpreted));
    r.note("p99_samples_beyond", json!(interpreted - (0.99 * interpreted as f64).ceil() as usize));

    // ---- per-layer ----
    let (refresh, eval, step_us) = model::finetune_layers(&mut m, busy / runs as f64);
    r.set("core.refresh_ms", refresh);
    r.set("core.eval_ms", eval);
    r.set("train.step_us", step_us);
    r.set("pool.threads", explainti_pool::global().threads() as f64);
    r.set("proc.threads", procfs::threads() as f64);
    r.set("proc.cpu_ms_per_col", cpu_s * 1e3 / interpreted as f64);
    // No server runs on this workload.
    for name in [
        "serve.cache_hit_ratio",
        "serve.queue_full",
        "serve.jobs_expired",
        "serve.jobs_retried",
        "serve.batch_size_mean",
        "serve.table_cols_per_s",
        "serve.table_p50_ms",
        "core.batch_us_per_col",
        "serve.frontend_us",
        "serve.overhead_us",
    ] {
        r.set(name, 0.0);
    }
    let sa = Standalone::of(&m);
    layers::counts(&m, &sa, &probe_columns(), r);
    if trace {
        traced(&m, &sa, &labels, &cols, seconds, untraced_p50, r);
    }
    Ok(())
}

/// The traced pass: each interpretation under a `request` span with its
/// tokenizer, predict and api children, plus the encoder forward and
/// store lookup timed on their own.
fn traced(
    m: &ExplainTi,
    sa: &Standalone,
    labels: &[String],
    cols: &[PredictRequest],
    seconds: f64,
    untraced_p50_us: f64,
    r: &mut Report,
) {
    let mut t = Tracer::new();
    let start = Instant::now();
    let store = &m.tasks()[0].q;
    for (i, c) in cols.iter().cycle().enumerate() {
        if i >= cols.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let req = i as u64;
        let body = column_body(c);
        let wire = request_bytes("POST", "/v1/interpret", &body);
        t.time("serve.http_parse", None, req, || {
            std::hint::black_box(explainti_serve::http::parse_request(&wire));
        });
        let text = std::str::from_utf8(&body).expect("bodies are UTF-8");
        let decoded: PredictRequest =
            t.time("api.req_decode", None, req, || serde_json::from_str(text)).expect("decodes");
        let root = t.begin("request", None, req);
        let cells: Vec<&str> = decoded.cells.iter().map(String::as_str).collect();
        let enc = t.time("tokenizer.encode", Some(root), req, || {
            m.encode_ad_hoc_column(&decoded.title, &decoded.header, &cells)
        });
        let p = t.time("core.predict", Some(root), req, || m.predict_encoded(&enc));
        t.time("api.resp_encode", Some(root), req, || {
            let resp = PredictResponse::from_prediction(&p, labels, DEFAULT_TOP_K);
            std::hint::black_box(serde_json::to_string(&resp).expect("serialises"));
        });
        t.end(root);
        t.time("encoder.forward", None, req, || sa.forward(&enc));
        let cls = sa.embed_cls(&enc);
        t.time("ann.top_k", None, req, || {
            std::hint::black_box(store.top_k(&cls, m.cfg.top_k, None));
        });
    }
    match t.save("train") {
        Ok(path) => r.note("trace_file", json!(path)),
        Err(e) => r.violate(e),
    }
    let request = median(&mut t.total_us("request"));
    let path = layers::times(&t, r);
    let unexplained = untraced_p50_us - (path.tokenizer + path.predict + path.encode);
    r.set("trace.unexplained_us", unexplained);
    r.set("trace.unexplained_frac", unexplained / untraced_p50_us);
    r.set("trace.overhead_frac", request / untraced_p50_us - 1.0);
}
