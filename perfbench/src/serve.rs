//! The serve workloads: an in-process server with shipped
//! `ServeConfig::default()` sizing, driven by one keep-alive connection
//! in a closed loop (the next request goes out when the previous answer
//! is in), so no queue forms and latency is per-request service cost.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use explainti_api::{
    ColumnPrediction, InterpretTableRequest, InterpretTableResponse, PredictRequest,
    PredictResponse, DEFAULT_TOP_K, SCHEMA_VERSION,
};
use explainti_core::ExplainTi;
use explainti_serve::{ServeConfig, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

use crate::client::{request_bytes, Client};
use crate::model::{self, Standalone};
use crate::payload::{
    column_body, probe_columns, probe_tables, table_body, training_corpus, HeldOut,
};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{layers, procfs};

/// Which single-column traffic the client sends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Unique held-out columns: every request misses the response cache.
    /// The traced run adds a phase of unique whole tables.
    Miss,
    /// Columns from a hot set the cache holds.
    Hot,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Distinct columns in the `serve_hot` set: well under the cache
/// capacity, so after warm-up every request hits.
pub const HOT_SET: usize = 64;
/// Warm-up requests after the server starts.
const WARMUP: usize = 200;
/// Columns generated per payload refill.
const REFILL: usize = 512;
/// Tables generated per payload refill.
const TABLE_REFILL: usize = 64;

/// One request, rendered before it is timed.
#[derive(Clone)]
struct Payload {
    /// Bytes on the wire (head + body).
    wire: Vec<u8>,
    /// The JSON body.
    body: Vec<u8>,
    /// Whether the body is a whole table.
    table: bool,
    /// Title and headers of its columns, to check the answer against.
    title: String,
    headers: Vec<String>,
}

impl Payload {
    fn column(r: &PredictRequest) -> Self {
        let body = column_body(r);
        Self {
            wire: request_bytes("POST", "/v1/interpret", &body),
            body,
            table: false,
            title: r.title.clone(),
            headers: vec![r.header.clone()],
        }
    }

    fn table(r: &InterpretTableRequest) -> Self {
        let body = table_body(r);
        Self {
            wire: request_bytes("POST", "/v1/interpret", &body),
            body,
            table: true,
            title: r.title.clone(),
            headers: r.columns.iter().map(|c| c.header.clone()).collect(),
        }
    }
}

/// The seeded request stream of one workload. Columns and tables come
/// from one held-out stream, so no two requests share a column.
struct Supply {
    kind: Kind,
    held: HeldOut,
    columns: VecDeque<Payload>,
    tables: VecDeque<Payload>,
    hot: Vec<Payload>,
    rng: SmallRng,
}

impl Supply {
    fn new(kind: Kind, seed: u64) -> Self {
        let mut held = HeldOut::new(seed, &training_corpus());
        let hot = match kind {
            Kind::Hot => held.columns(HOT_SET).iter().map(Payload::column).collect(),
            Kind::Miss => Vec::new(),
        };
        Self {
            kind,
            held,
            columns: VecDeque::new(),
            tables: VecDeque::new(),
            hot,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The next single-column request, and the seconds spent generating
    /// payloads for it (excluded from the timed phase).
    fn next_column(&mut self) -> (Payload, f64) {
        if self.kind == Kind::Hot {
            let i = self.rng.gen_range(0..self.hot.len());
            return (self.hot[i].clone(), 0.0);
        }
        let t = Instant::now();
        if self.columns.is_empty() {
            self.columns.extend(self.held.columns(REFILL).iter().map(Payload::column));
        }
        let spent = t.elapsed().as_secs_f64();
        (self.columns.pop_front().expect("refilled"), spent)
    }

    /// The next whole-table request, as [`Self::next_column`].
    fn next_table(&mut self) -> (Payload, f64) {
        let t = Instant::now();
        if self.tables.is_empty() {
            self.tables.extend(self.held.tables(TABLE_REFILL).iter().map(Payload::table));
        }
        let spent = t.elapsed().as_secs_f64();
        (self.tables.pop_front().expect("refilled"), spent)
    }

    /// Warm-up traffic: fresh columns, or the hot set enough times to
    /// fill the cache and settle.
    fn warmup(&mut self) -> Vec<Payload> {
        match self.kind {
            Kind::Miss => (0..WARMUP).map(|_| self.next_column().0).collect(),
            Kind::Hot => {
                let rounds = 1 + WARMUP / HOT_SET;
                (0..rounds).flat_map(|_| self.hot.iter().cloned()).collect()
            }
        }
    }
}

/// A running server and the model it serves.
struct Served {
    handle: ServerHandle,
    model: Arc<ExplainTi>,
    labels: Vec<String>,
    client: Client,
    /// `core.refresh_ms`, `core.eval_ms` and `train.step_us` of the
    /// set-up's fine-tune, when asked for.
    finetune_layers: Option<(f64, f64, f64)>,
}

impl Served {
    fn stop(mut self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// One set-up: corpus, pre-training, fine-tune, server start and
/// warm-up. With `layers`, also times the fine-tune's non-step parts
/// (outside the set-up clock).
fn setup(supply: &mut Supply, layers: bool) -> Result<(Served, f64), String> {
    let warm = supply.warmup();

    let t = Instant::now();
    let dataset = training_corpus();
    let checkpoint = model::pretrained_checkpoint(&dataset);
    let mut m = model::from_checkpoint(&dataset, &checkpoint);
    let finetune_s = model::finetune(&mut m);
    let mut setup_s = t.elapsed().as_secs_f64();

    let finetune_layers = layers.then(|| model::finetune_layers(&mut m, finetune_s));

    let t = Instant::now();
    let labels = dataset.collection.type_labels.clone();
    let model = Arc::new(m);
    let handle = explainti_serve::start(Arc::clone(&model), labels.clone(), ServeConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for p in &warm {
        let (status, _) = client.send(&p.wire).map_err(|e| format!("warm-up: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up request answered {status}"));
        }
    }
    setup_s += t.elapsed().as_secs_f64();
    Ok((Served { handle, model, labels, client, finetune_layers }, setup_s))
}

/// Checks one single-column answer; returns the reason it is invalid.
pub fn check_prediction(p: &PredictResponse, labels: &[String]) -> Result<(), String> {
    const EPS: f32 = 1e-4;
    if p.schema_version != SCHEMA_VERSION {
        return Err(format!("schema_version {}", p.schema_version));
    }
    if labels.get(p.label_id) != Some(&p.label) {
        return Err(format!("label {:?} / id {} not in the label set", p.label, p.label_id));
    }
    // The label is the argmax of a distribution over the label set.
    let floor = 1.0 / labels.len() as f32 - EPS;
    if !(p.confidence.is_finite() && p.confidence >= floor && p.confidence <= 1.0 + EPS) {
        return Err(format!("confidence {} is not an argmax probability", p.confidence));
    }
    if p.local.is_empty() || p.global.is_empty() {
        return Err("local or global explanation view missing".into());
    }
    // Each view is the top of a distribution: non-negative, summing to
    // at most one.
    let views: [Vec<f32>; 3] = [
        p.local.iter().map(|l| l.relevance).collect(),
        p.global.iter().map(|g| g.influence).collect(),
        p.structural.iter().map(|s| s.attention).collect(),
    ];
    for (name, v) in ["local", "global", "structural"].iter().zip(&views) {
        let sum: f32 = v.iter().sum();
        if v.iter().any(|x| !x.is_finite() || *x < 0.0) || sum > 1.0 + EPS {
            return Err(format!("{name} scores {v:?} are not part of a distribution"));
        }
    }
    if p.global.windows(2).any(|w| w[0].influence < w[1].influence) {
        return Err("global view not sorted by influence".into());
    }
    Ok(())
}

/// Checks a response body against its request; returns the columns
/// answered.
fn check_body(p: &Payload, body: &[u8], labels: &[String]) -> Result<usize, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if p.table {
        let r: InterpretTableResponse =
            serde_json::from_str(text).map_err(|e| format!("bad table response: {e}"))?;
        if r.schema_version != SCHEMA_VERSION || r.title != p.title {
            return Err("table response title or schema_version differs".into());
        }
        if !r.columns.iter().map(|c| &c.header).eq(p.headers.iter()) {
            return Err("table response columns differ from the request".into());
        }
        for c in &r.columns {
            check_prediction(&c.prediction, labels)?;
        }
        Ok(r.columns.len())
    } else {
        let r: PredictResponse =
            serde_json::from_str(text).map_err(|e| format!("bad response: {e}"))?;
        check_prediction(&r, labels)?;
        Ok(1)
    }
}

/// The `interpret --json` answer for one column: `predict_column`, then
/// `PredictResponse::from_prediction`.
fn expected(m: &ExplainTi, labels: &[String], c: &PredictRequest) -> PredictResponse {
    let cells: Vec<&str> = c.cells.iter().map(String::as_str).collect();
    let p = m.predict_column(&c.title, &c.header, &cells);
    PredictResponse::from_prediction(&p, labels, DEFAULT_TOP_K)
}

/// Sends the probe set and compares each answer's bytes with the
/// in-process `interpret --json` serialisation: single columns always,
/// whole tables (the chunked streaming path) with `tables`. Returns
/// (sent, mismatched).
fn check_probes(s: &mut Served, tables: bool) -> (u64, u64) {
    let (m, labels) = (&s.model, &s.labels);
    let bytes =
        |v: Result<String, serde_json::Error>| v.expect("response DTOs serialise").into_bytes();
    let mut cases: Vec<(Vec<u8>, Vec<u8>)> = probe_columns()
        .iter()
        .map(|c| (column_body(c), bytes(serde_json::to_string(&expected(m, labels, c)))))
        .collect();
    if tables {
        for t in probe_tables() {
            let columns = (0..t.columns.len())
                .map(|i| {
                    let c = t.column_request(i);
                    let prediction = expected(m, labels, &c);
                    ColumnPrediction { header: c.header, prediction }
                })
                .collect();
            let whole = InterpretTableResponse {
                schema_version: SCHEMA_VERSION,
                title: t.title.clone(),
                columns,
            };
            cases.push((table_body(&t), bytes(serde_json::to_string(&whole))));
        }
    }
    let mut mismatched = 0;
    for (body, want) in &cases {
        let got = s.client.send(&request_bytes("POST", "/v1/interpret", body));
        mismatched += u64::from(!matches!(&got, Ok((200, b)) if b == want));
    }
    (cases.len() as u64, mismatched)
}

/// Registry counters and histogram sums read from `/v1/metrics`.
#[derive(Default, Clone, Copy)]
struct Counters {
    hit: f64,
    miss: f64,
    expired: f64,
    retried: f64,
    batches: f64,
    batched_jobs: f64,
}

impl Counters {
    fn read(client: &mut Client) -> Result<Self, String> {
        let (status, body) = client.get("/v1/metrics").map_err(|e| format!("metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/v1/metrics answered {status}"));
        }
        let v: Value = serde_json::from_str(std::str::from_utf8(&body).unwrap_or(""))
            .map_err(|e| format!("metrics JSON: {e}"))?;
        let c = |name: &str| {
            v.get("counters").and_then(|c| c.get(name)).and_then(Value::as_f64).unwrap_or(0.0)
        };
        let h = |field: &str| {
            v.get("histograms")
                .and_then(|h| h.get("serve.batch.size"))
                .and_then(|h| h.get(field))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        Ok(Self {
            hit: c("serve.cache.hit"),
            miss: c("serve.cache.miss"),
            expired: c("serve.jobs.expired"),
            retried: c("serve.jobs.retried"),
            batches: h("count"),
            batched_jobs: h("sum_ns"),
        })
    }

    /// Share of cache lookups since `before` that hit.
    fn hit_ratio(&self, before: &Self) -> f64 {
        let lookups = (self.hit - before.hit) + (self.miss - before.miss);
        if lookups > 0.0 {
            (self.hit - before.hit) / lookups
        } else {
            0.0
        }
    }

    /// Mean micro-batch size since `before`; 0 when no batch ran.
    fn batch_mean(&self, before: &Self) -> f64 {
        let batches = self.batches - before.batches;
        if batches > 0.0 {
            (self.batched_jobs - before.batched_jobs) / batches
        } else {
            0.0
        }
    }
}

/// Outcome of the closed loop over one phase.
struct Phase {
    /// Latency and columns answered 200 with a valid body, per request.
    samples: Samples,
    /// Columns answered 200 with a valid body, in all.
    answered: usize,
    attempted: u64,
    failed: u64,
    refused_503: u64,
    /// Why the first invalid answer was invalid.
    first_invalid: Option<String>,
    cpu_s: f64,
}

/// Runs the closed loop for `seconds` of traffic from `next`. `after`
/// runs after each answer, outside the timing, with the request's send
/// and answer instants.
fn closed_loop(
    client: &mut Client,
    labels: &[String],
    seconds: f64,
    mut next: impl FnMut() -> (Payload, f64),
    mut after: impl FnMut(&mut Client, u64, &Payload, Instant, Instant) -> Result<(), String>,
) -> Result<Phase, String> {
    let mut ph = Phase {
        samples: Samples::new(),
        answered: 0,
        attempted: 0,
        failed: 0,
        refused_503: 0,
        first_invalid: None,
        cpu_s: 0.0,
    };
    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    let mut paused = 0.0;
    while start.elapsed().as_secs_f64() - paused < seconds {
        let (p, spent) = next();
        paused += spent;
        let sent = Instant::now();
        let out = client.send(&p.wire);
        let answered = Instant::now();
        ph.attempted += 1;
        let cols = match out {
            Ok((200, body)) => match check_body(&p, &body, labels) {
                Ok(n) => Some(n),
                Err(e) => {
                    ph.first_invalid.get_or_insert(e);
                    None
                }
            },
            Ok((status, _)) => {
                ph.refused_503 += u64::from(status == 503);
                None
            }
            Err(_) => None,
        };
        ph.failed += u64::from(cols.is_none());
        ph.answered += cols.unwrap_or(0);
        ph.samples.push(answered.duration_since(sent).as_secs_f64() * 1e6, cols.unwrap_or(0));
        after(client, ph.attempted, &p, sent, answered)?;
    }
    ph.cpu_s = procfs::cpu_seconds() - cpu0;
    Ok(ph)
}

/// Replays a request's layer calls in-process under spans: those on the
/// server's request path as children of a `replay` span, then the
/// encoder forward and store lookup that `core.predict` contains, timed
/// on their own.
struct Replayer<'a> {
    model: &'a ExplainTi,
    labels: &'a [String],
    standalone: &'a Standalone,
    /// Responses of the hot set, as the server caches them; empty unless
    /// the traffic hits.
    cached: HashMap<Vec<u8>, PredictResponse>,
}

impl Replayer<'_> {
    fn encode(&self, c: &PredictRequest) -> explainti_tokenizer::Encoded {
        let cells: Vec<&str> = c.cells.iter().map(String::as_str).collect();
        self.model.encode_ad_hoc_column(&c.title, &c.header, &cells)
    }

    fn replay(&self, t: &mut Tracer, req: u64, p: &Payload) {
        let text = std::str::from_utf8(&p.body).expect("payloads are UTF-8");
        let root = t.begin("replay", None, req);
        t.time("serve.http_parse", Some(root), req, || {
            std::hint::black_box(explainti_serve::http::parse_request(&p.wire));
        });
        let hit = self.cached.get(&p.body);
        let first = if p.table {
            let table: InterpretTableRequest = t
                .time("api.req_decode", Some(root), req, || serde_json::from_str(text))
                .expect("payload decodes");
            let encs: Vec<_> = t.time("tokenizer.encode", Some(root), req, || {
                (0..table.columns.len()).map(|i| self.encode(&table.column_request(i))).collect()
            });
            let preds =
                t.time("core.batch", Some(root), req, || self.model.predict_encoded_batch(&encs));
            t.time("api.resp_encode", Some(root), req, || {
                for (col, pred) in table.columns.iter().zip(&preds) {
                    let prediction =
                        PredictResponse::from_prediction(pred, self.labels, DEFAULT_TOP_K);
                    let c = ColumnPrediction { header: col.header.clone(), prediction };
                    std::hint::black_box(serde_json::to_string(&c).expect("serialises"));
                }
            });
            table.column_request(0)
        } else {
            let col: PredictRequest = t
                .time("api.req_decode", Some(root), req, || serde_json::from_str(text))
                .expect("payload decodes");
            if let Some(hit) = hit {
                // A hit serialises the cached response; nothing else runs.
                t.time("api.resp_encode", Some(root), req, || {
                    std::hint::black_box(serde_json::to_string(hit).expect("serialises"));
                });
            } else {
                let enc = t.time("tokenizer.encode", Some(root), req, || self.encode(&col));
                let pred =
                    t.time("core.predict", Some(root), req, || self.model.predict_encoded(&enc));
                t.time("api.resp_encode", Some(root), req, || {
                    let r = PredictResponse::from_prediction(&pred, self.labels, DEFAULT_TOP_K);
                    std::hint::black_box(serde_json::to_string(&r).expect("serialises"));
                });
            }
            col
        };
        t.end(root);
        // The same layers timed on their own: off the request path for
        // hits, and the parts of `core.predict` for every column.
        let enc = self.encode(&first);
        if hit.is_some() {
            t.time("tokenizer.encode", None, req, || std::hint::black_box(self.encode(&first)));
            t.time("core.predict", None, req, || {
                std::hint::black_box(self.model.predict_encoded(&enc));
            });
        }
        t.time("encoder.forward", None, req, || self.standalone.forward(&enc));
        let cls = self.standalone.embed_cls(&enc);
        let store = &self.model.tasks()[0].q;
        t.time("ann.top_k", None, req, || {
            std::hint::black_box(store.top_k(&cls, self.model.cfg.top_k, None));
        });
    }
}

/// Runs one serve workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, r: &mut Report) -> Result<(), String> {
    let mut supply = Supply::new(kind, seed);

    // ---- set-up, several times; the last server stays up ----
    let mut setups = Vec::new();
    let mut served: Option<Served> = None;
    for rep in 0..SETUP_REPS {
        let (s, secs) = setup(&mut supply, trace && rep + 1 == SETUP_REPS)?;
        setups.push(secs);
        if let Some(old) = served.replace(s) {
            old.stop();
        }
    }
    let mut s = served.expect("at least one set-up");
    let labels = s.labels.clone();
    let f1 = model::test_f1(&s.model);

    // ---- timed phase, untraced ----
    let c0 = Counters::read(&mut s.client)?;
    let ph = closed_loop(
        &mut s.client,
        &labels,
        seconds,
        || supply.next_column(),
        |_, _, _, _, _| Ok(()),
    )?;
    let threads = procfs::threads();
    let c1 = Counters::read(&mut s.client)?;

    // ---- output checks ----
    let (probes, mismatched) = check_probes(&mut s, kind == Kind::Miss);
    if mismatched > 0 {
        r.violate(format!("{mismatched} of {probes} probe responses differ from interpret --json"));
    }
    if let Some(e) = &ph.first_invalid {
        r.violate(format!("invalid response: {e}"));
    }
    let hit_ratio = c1.hit_ratio(&c0);
    match kind {
        Kind::Hot if hit_ratio < 0.99 => {
            r.violate(format!("serve_hot cache hit ratio {hit_ratio} < 0.99"))
        }
        Kind::Miss if hit_ratio != 0.0 => {
            r.violate(format!("serve_miss hit the cache (ratio {hit_ratio})"))
        }
        _ => {}
    }
    r.attempted = ph.attempted + probes;
    r.failed = ph.failed + mismatched;

    // ---- end-to-end metrics ----
    let n = ph.samples.len();
    let untraced_p50_us = ph.samples.quantile(0.50);
    r.set("setup_s", median(&mut setups));
    r.set("cols_per_s", ph.samples.mid_rate());
    r.set("req_p50_ms", untraced_p50_us / 1e3);
    r.set("ok_frac", 1.0 - r.failed as f64 / r.attempted as f64);
    r.set("test_f1_weighted", f1);
    r.note("requests", json!(ph.attempted));
    r.note("samples", json!(n));
    r.note("p99_samples_beyond", json!(n - (0.99 * n as f64).ceil() as usize));

    // ---- per-layer metrics ----
    r.set("req_p99_ms", ph.samples.quantile(0.99) / 1e3);
    r.set("serve.cache_hit_ratio", hit_ratio);
    r.set("serve.queue_full", ph.refused_503 as f64);
    r.set("serve.jobs_expired", c1.expired - c0.expired);
    r.set("serve.jobs_retried", c1.retried - c0.retried);
    r.set("pool.threads", explainti_pool::global().threads() as f64);
    r.set("proc.threads", threads as f64);
    r.set("proc.cpu_ms_per_col", ph.cpu_s * 1e3 / ph.answered.max(1) as f64);
    if let Some((refresh, eval, step)) = s.finetune_layers {
        r.set("core.refresh_ms", refresh);
        r.set("core.eval_ms", eval);
        r.set("train.step_us", step);
    }
    let standalone = Standalone::of(&s.model);
    layers::counts(&s.model, &standalone, &probe_columns(), r);

    if trace {
        let mut cached = HashMap::new();
        for p in &supply.hot {
            let (_, body) = s.client.send(&p.wire).map_err(|e| format!("hot fetch: {e}"))?;
            let resp = serde_json::from_str(std::str::from_utf8(&body).unwrap_or(""))
                .map_err(|e| format!("hot response: {e}"))?;
            cached.insert(p.body.clone(), resp);
        }
        let replayer =
            Replayer { model: &s.model, labels: &labels, standalone: &standalone, cached };
        let mut t = Tracer::new();
        traced_columns(&mut supply, &mut s.client, &replayer, &mut t, seconds, untraced_p50_us, r)?;
        if kind == Kind::Miss {
            tables(&mut supply, &mut s.client, &replayer, &mut t, seconds / 2.0, r)?;
        } else {
            for name in [
                "serve.table_cols_per_s",
                "serve.table_p50_ms",
                "serve.batch_size_mean",
                "core.batch_us_per_col",
            ] {
                r.set(name, 0.0);
            }
        }
        r.note("trace_file", json!(t.save(&format!("{kind:?}").to_lowercase())?));
    }
    s.stop();
    Ok(())
}

/// The traced column phase: the same traffic, each request followed by
/// a `/v1/healthz` front-end probe and the in-process replay; reports
/// self time per layer and the split of the untraced `req_p50_ms`.
fn traced_columns(
    supply: &mut Supply,
    client: &mut Client,
    replayer: &Replayer,
    t: &mut Tracer,
    seconds: f64,
    untraced_p50_us: f64,
    r: &mut Report,
) -> Result<(), String> {
    let next = || supply.next_column();
    let ph = closed_loop(client, replayer.labels, seconds, next, |client, req, p, sent, done| {
        t.record("request", req, sent, done);
        // The probe goes out back to back with the request, as requests
        // do in the untraced loop, so it wakes server threads in the
        // same state.
        let health = t.time("serve.frontend", None, req, || client.get("/v1/healthz"));
        if !matches!(health, Ok((200, _))) {
            return Err("traced /v1/healthz probe failed".into());
        }
        replayer.replay(t, req, p);
        Ok(())
    })?;
    r.attempted += ph.attempted;
    r.failed += ph.failed;
    r.note("traced_requests", json!(ph.attempted));

    layers::times(t, r);
    let frontend = median(&mut t.total_us("serve.frontend"));
    let request = median(&mut t.total_us("request"));
    // The request path in-process: the replay's children.
    let on_path = median(&mut t.children_us("replay"));
    r.set("serve.frontend_us", frontend);
    // What a request costs beyond the in-process calls on its path: HTTP
    // parsing, the event loop, thread hops and socket I/O.
    let overhead = untraced_p50_us - on_path;
    r.set("serve.overhead_us", overhead);
    // The split of the untraced p50 into tokenizer + core (encoder + ann
    // + views) + api + the serve front-end; the remainder is what no
    // measured layer explains: the worker hop, the cache and the larger
    // response write.
    let unexplained = overhead - frontend;
    r.set("trace.unexplained_us", unexplained);
    r.set("trace.unexplained_frac", unexplained / untraced_p50_us);
    r.set("trace.overhead_frac", request / untraced_p50_us - 1.0);
    Ok(())
}

/// The table phase of the traced `serve_miss` run: unique whole tables,
/// micro-batched by the server and streamed back chunked, each followed
/// by its in-process replay (`predict_encoded_batch` over its columns).
fn tables(
    supply: &mut Supply,
    client: &mut Client,
    replayer: &Replayer,
    t: &mut Tracer,
    seconds: f64,
    r: &mut Report,
) -> Result<(), String> {
    let c0 = Counters::read(client)?;
    let earlier = t.total_us("core.batch").len();
    let mut cols = Vec::new();
    let next = || supply.next_table();
    let ph = closed_loop(client, replayer.labels, seconds, next, |_, req, p, _, _| {
        replayer.replay(t, req, p);
        cols.push(p.headers.len() as f64);
        Ok(())
    })?;
    let c1 = Counters::read(client)?;
    if let Some(e) = &ph.first_invalid {
        r.violate(format!("invalid table response: {e}"));
    }
    let hit_ratio = c1.hit_ratio(&c0);
    if hit_ratio != 0.0 {
        r.violate(format!("unique tables hit the cache (ratio {hit_ratio})"));
    }
    r.attempted += ph.attempted;
    r.failed += ph.failed;
    let mut per_col: Vec<f64> =
        t.total_us("core.batch")[earlier..].iter().zip(&cols).map(|(us, n)| us / n).collect();
    r.set("core.batch_us_per_col", median(&mut per_col));
    r.set("serve.batch_size_mean", c1.batch_mean(&c0));
    r.set("serve.table_cols_per_s", ph.samples.mid_rate());
    r.set("serve.table_p50_ms", ph.samples.quantile(0.5) / 1e3);
    r.note("table_requests", json!(ph.attempted));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_set_fits_the_default_cache() {
        assert!(HOT_SET < ServeConfig::default().cache_cap);
        let s = Supply::new(Kind::Hot, 5);
        assert_eq!(s.hot.len(), HOT_SET);
        let distinct: std::collections::HashSet<&Vec<u8>> = s.hot.iter().map(|p| &p.body).collect();
        assert_eq!(distinct.len(), HOT_SET);
    }
}
