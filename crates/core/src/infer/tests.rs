//! Differential suite: the tape-free inference forward against the tape
//! forward, compared at `f32::to_bits` over whole predictions (label,
//! confidence, probabilities and every field of the LE, GE and SE
//! views), over ad-hoc columns from 5 live tokens up to `max_seq`,
//! dataset samples of both tasks, every ablation and pool widths 1, 2
//! and 4; plus `evaluate` and the embedding store `refresh_store` builds.

use crate::config::{ExplainTiConfig, LeMode, LeScoring, SeAggregation, TaskKind};
use crate::explain::Prediction;
use crate::model::{prediction, ExplainTi};
use explainti_corpus::{generate_wiki, Split, WikiConfig};
use explainti_nn::{Graph, Tensor};
use explainti_tokenizer::Encoded;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const MAX_SEQ: usize = 32;

fn model(cfg: ExplainTiConfig, epochs: usize) -> ExplainTi {
    let d = generate_wiki(&WikiConfig { num_tables: 24, seed: 77, ..Default::default() });
    let mut m = ExplainTi::new(&d, ExplainTiConfig { epochs, ..cfg });
    if epochs > 0 {
        m.train();
    }
    for task in 0..m.tasks().len() {
        m.refresh_store(task);
    }
    m
}

fn base() -> ExplainTiConfig {
    ExplainTiConfig::bert_like(2048, MAX_SEQ)
}

/// The tape's prediction for one column, as inference made it before the
/// tape-free path existed.
fn tape_prediction(m: &ExplainTi, task: usize, enc: &Encoded, node: Option<usize>) -> Prediction {
    let mut rng = SmallRng::seed_from_u64(m.cfg.seed);
    let fwd = m.forward_encoded(task, enc, node, false, &mut rng);
    prediction(fwd.graph.value(fwd.final_logits).as_slice(), fwd.explanation)
}

/// Every field of a prediction, floats as their bits.
fn fingerprint(p: &Prediction) -> String {
    let b = |x: f32| format!("{:08x}", x.to_bits());
    let mut out = format!("label {} conf {} probs", p.label, b(p.confidence));
    for &x in &p.probs {
        out += &format!(" {}", b(x));
    }
    for s in &p.explanation.local {
        out += &format!(
            "\nLE {} {} {:?} {:?} {}",
            s.start,
            s.window,
            s.pair_start,
            s.text,
            b(s.relevance)
        );
    }
    for g in &p.explanation.global {
        out += &format!("\nGE {} {} {}", g.sample, g.label, b(g.influence));
    }
    for n in &p.explanation.structural {
        out += &format!("\nSE {} {} {}", n.node, n.label, b(n.attention));
    }
    out
}

/// Ad-hoc columns from the corpus tables with 0, 1, 2 and all cells,
/// plus frame-only columns of 5–7 live tokens.
fn adhoc_columns(m: &ExplainTi) -> Vec<Encoded> {
    let d = generate_wiki(&WikiConfig { num_tables: 64, seed: 991, ..Default::default() });
    let mut out = vec![
        m.encode_ad_hoc_column("", "", &[]),
        m.encode_ad_hoc_column("", "city", &[]),
        m.encode_ad_hoc_column("country", "city", &[]),
    ];
    for table in &d.collection.tables {
        for col in &table.columns {
            let cells: Vec<&str> = col.cells.iter().map(String::as_str).collect();
            for n in [0, 1, 2, cells.len()] {
                out.push(m.encode_ad_hoc_column(&table.title, &col.header, &cells[..n]));
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_same(tape: &Prediction, free: &Prediction, what: &str) {
    assert_eq!(fingerprint(tape), fingerprint(free), "{what}: tape-free prediction differs");
}

#[test]
fn adhoc_columns_match_the_tape_at_every_pool_width() {
    let m = model(base(), 1);
    let encs = adhoc_columns(&m);
    assert!(encs.len() >= 500, "only {} ad-hoc columns", encs.len());
    assert!(encs.iter().any(|e| e.len <= 7), "no short column");
    assert!(encs.iter().any(|e| e.len == MAX_SEQ), "no full-length column");
    let task = m.task_index(TaskKind::Type).expect("type task");
    let tape: Vec<String> =
        encs.iter().map(|e| fingerprint(&tape_prediction(&m, task, e, None))).collect();
    assert!(tape.iter().any(|f| f.contains("\nLE ")) && tape.iter().any(|f| f.contains("\nGE ")));
    for (e, want) in encs.iter().zip(&tape) {
        assert_eq!(want, &fingerprint(&m.predict_encoded(e)), "ad-hoc column of len {}", e.len);
    }
    for width in [1, 2, 4] {
        explainti_pool::configure(width);
        let batch = m.predict_encoded_batch(&encs);
        explainti_pool::configure(explainti_pool::Threads::resolve(None).get());
        let got: Vec<String> = batch.iter().map(fingerprint).collect();
        assert!(got == tape, "predict_encoded_batch differs from the tape at pool width {width}");
    }
}

/// Dataset samples of every task (SE with sampled neighbours, relation
/// pairwise windows) under the full model and each ablation, plus
/// `evaluate` and the refreshed store.
#[test]
fn samples_evaluation_and_store_match_the_tape_under_every_ablation() {
    let ablations: Vec<(&str, ExplainTiConfig)> = vec![
        ("full", base()),
        ("no le", base().without("le")),
        ("no ge", base().without("ge")),
        ("no se", base().without("se")),
        ("segments", ExplainTiConfig { le_mode: LeMode::Segments, ..base() }),
        ("logit drop", ExplainTiConfig { le_scoring: LeScoring::LogitDrop, ..base() }),
        ("mean pooling", ExplainTiConfig { se_aggregation: SeAggregation::MeanPooling, ..base() }),
    ];
    for (name, cfg) in ablations {
        let m = model(cfg, usize::from(name == "full"));
        let mut saw = (false, false);
        for task in 0..m.tasks().len() {
            let data = &m.tasks()[task].data;
            for idx in (0..data.samples.len()).step_by(3) {
                let tape = tape_prediction(&m, task, &data.samples[idx].encoded, Some(idx));
                saw.0 |= !tape.explanation.structural.is_empty();
                saw.1 |= tape.explanation.local.iter().any(|s| s.pair_start.is_some());
                let free = m.predict(data.kind, idx);
                assert_same(&tape, &free, &format!("{name}: {:?} sample {idx}", data.kind));
            }

            // evaluate: the tape's arg-max over the split against the
            // tape-free F1.
            let mut rng = SmallRng::seed_from_u64(m.cfg.seed);
            let (mut preds, mut actual) = (Vec::new(), Vec::new());
            for &idx in data.indices(Split::Test) {
                let enc = &data.samples[idx].encoded;
                let fwd = m.forward_encoded(task, enc, Some(idx), false, &mut rng);
                preds.push(fwd.graph.value(fwd.final_logits).argmax_row(0));
                actual.push(data.samples[idx].label);
            }
            let want = explainti_metrics::f1_scores(&preds, &actual, data.num_classes);
            let got = m.evaluate(data.kind, Split::Test);
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "{name}: evaluate F1");

            // The store refresh_store built: every entry equals the tape's
            // E_[CLS] bit for bit.
            for &idx in &data.train_idx {
                let mut g = Graph::new();
                let e = m.encoder.forward(
                    &mut g,
                    &m.store,
                    &data.samples[idx].encoded,
                    false,
                    &mut rng,
                );
                let want = g.value(e).rows_range(0, 1);
                let got = m.tasks()[task].q.get(idx).expect("refreshed sample is stored");
                assert_eq!(bits(&want), bits(got), "{name}: stored embedding of sample {idx}");
            }
        }
        if m.cfg.use_se {
            assert!(saw.0, "{name}: no sample exercised SE neighbours");
        }
        if m.cfg.use_le && m.cfg.le_mode == LeMode::SlidingWindow {
            assert!(saw.1, "{name}: no relation sample exercised pairwise windows");
        }
    }
}
