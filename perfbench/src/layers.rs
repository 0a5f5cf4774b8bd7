//! Per-layer figures: exact per-column counts of the inference forward
//! on the fixed probe set (the same columns for every seed, so the
//! counts repeat exactly), and the median self times a traced run
//! records.

use explainti_api::PredictRequest;
use explainti_core::ExplainTi;

use crate::alloc;
use crate::model::Standalone;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Exact counts of one column's inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Allocations `predict_encoded` makes.
    pub allocs: u64,
    /// Bytes those allocations request.
    pub bytes: u64,
    /// Tape nodes of one encoder forward.
    pub tape_nodes: u64,
}

/// Counts for every column of `cols`. Also checks that the standalone
/// encoder replays the model: its `E_[CLS]` must retrieve exactly the
/// samples the prediction's global view names.
fn measure(m: &ExplainTi, sa: &Standalone, cols: &[PredictRequest]) -> Result<Vec<Counts>, String> {
    let encs: Vec<_> = cols
        .iter()
        .map(|c| {
            let cells: Vec<&str> = c.cells.iter().map(String::as_str).collect();
            m.encode_ad_hoc_column(&c.title, &c.header, &cells)
        })
        .collect();
    // First calls on a thread register telemetry names; count warm calls.
    if let Some(e) = encs.first() {
        m.predict_encoded(e);
    }
    let store = &m.tasks()[0].q;
    encs.iter()
        .map(|enc| {
            let (pred, allocs, bytes) = alloc::count(|| m.predict_encoded(enc));
            let mut via_store: Vec<usize> =
                store.top_k(&sa.embed_cls(enc), m.cfg.top_k, None).iter().map(|n| n.id).collect();
            let mut via_model: Vec<usize> =
                pred.explanation.global.iter().map(|g| g.sample).collect();
            via_store.sort_unstable();
            via_model.sort_unstable();
            if via_store != via_model {
                return Err(
                    "the standalone encoder does not reproduce the model's retrieval".into()
                );
            }
            Ok(Counts { allocs, bytes, tape_nodes: sa.forward(enc) as u64 })
        })
        .collect()
}

/// Records the per-column means of [`measure`] as `nn.*` metrics.
pub fn counts(m: &ExplainTi, sa: &Standalone, cols: &[PredictRequest], r: &mut Report) {
    match measure(m, sa, cols) {
        Ok(c) => {
            let n = c.len().max(1) as f64;
            let sum = |f: fn(&Counts) -> u64| c.iter().map(f).sum::<u64>() as f64 / n;
            r.set("nn.allocs_per_col", sum(|c| c.allocs));
            r.set("nn.alloc_bytes_per_col", sum(|c| c.bytes));
            r.set("nn.tape_nodes_per_col", sum(|c| c.tape_nodes));
        }
        Err(e) => r.violate(e),
    }
}

/// Median self times, µs, of the spans on an interpretation's path.
pub struct PathTimes {
    /// `tokenizer.encode`.
    pub tokenizer: f64,
    /// `core.predict`.
    pub predict: f64,
    /// `api.resp_encode`.
    pub encode: f64,
}

/// Records the median self time of each layer span in `t` as its
/// per-layer metric. `core.views_us` is what `core.predict` spends beyond
/// the encoder forward and the store lookup it contains.
pub fn times(t: &Tracer, r: &mut Report) -> PathTimes {
    let mut by = t.self_us();
    let mut p50 = |name: &str| by.get_mut(name).map_or(0.0, |v| median(v));
    let path = PathTimes {
        tokenizer: p50("tokenizer.encode"),
        predict: p50("core.predict"),
        encode: p50("api.resp_encode"),
    };
    let (encoder, ann) = (p50("encoder.forward"), p50("ann.top_k"));
    r.set("tokenizer.encode_us", path.tokenizer);
    r.set("encoder.forward_us", encoder);
    r.set("ann.top_k_us", ann);
    r.set("core.predict_us", path.predict);
    r.set("core.views_us", path.predict - encoder - ann);
    r.set("api.req_decode_us", p50("api.req_decode"));
    r.set("api.resp_encode_us", path.encode);
    r.set("serve.http_parse_us", p50("serve.http_parse"));
    path
}
