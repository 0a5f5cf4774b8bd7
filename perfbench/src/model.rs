//! The fixed model every workload serves or trains, and the standalone
//! encoder the layer measurements call.

use std::time::Instant;

use explainti_core::{ExplainTi, ExplainTiConfig, TaskKind};
use explainti_corpus::{Dataset, Split};
use explainti_encoder::mlm::PretrainConfig;
use explainti_encoder::TransformerEncoder;
use explainti_nn::{Graph, ParamStore, Tensor};
use explainti_tokenizer::Encoded;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Tokenizer vocabulary cap and sequence length of the served model
/// (`bert_like(2048, 32)`: d = 32, two layers, ff = 64).
const VOCAB_CAP: usize = 2048;
/// Sequence length.
const MAX_SEQ: usize = 32;
/// Fine-tune epochs: the serve workloads' set-up budget and one `train`
/// workload iteration.
const EPOCHS: usize = 2;

/// Model configuration of every workload.
fn config() -> ExplainTiConfig {
    let mut cfg = ExplainTiConfig::bert_like(VOCAB_CAP, MAX_SEQ);
    cfg.epochs = EPOCHS;
    cfg
}

/// The encoder checkpoint of MLM pre-training over `dataset`.
pub fn pretrained_checkpoint(dataset: &Dataset) -> Vec<f32> {
    let mut m = ExplainTi::new(dataset, config());
    m.pretrain(&PretrainConfig::default());
    m.export_encoder()
}

/// A fresh model over `dataset` starting from `checkpoint`, ready to
/// fine-tune.
pub fn from_checkpoint(dataset: &Dataset, checkpoint: &[f32]) -> ExplainTi {
    let mut m = ExplainTi::new(dataset, config());
    m.load_encoder(checkpoint);
    m
}

/// Training samples one fine-tune of `m` steps over (all tasks, all
/// epochs).
pub fn finetune_samples(m: &ExplainTi) -> usize {
    m.tasks().iter().map(|t| t.data.train_idx.len()).sum::<usize>() * m.cfg.epochs
}

/// Wall time of one fine-tune, in seconds.
pub fn finetune(m: &mut ExplainTi) -> f64 {
    let t = Instant::now();
    m.train();
    t.elapsed().as_secs_f64()
}

/// `core.refresh_ms`, `core.eval_ms` and `train.step_us` of a fine-tune
/// of `m` that took `finetune_s`: one `refresh_store` and one validation
/// `evaluate` per task are timed on their own, and the step time is what
/// the fine-tune spent beyond them, per sample. `ExplainTi::train` makes
/// one refresh per task before the first epoch, one per later epoch and
/// one after restoring the best epoch, and one evaluation per task per
/// epoch.
pub fn finetune_layers(m: &mut ExplainTi, finetune_s: f64) -> (f64, f64, f64) {
    let tasks = m.tasks().len();
    let t = Instant::now();
    for task in 0..tasks {
        m.refresh_store(task);
    }
    let refresh_ms = t.elapsed().as_secs_f64() * 1e3 / tasks as f64;
    let kinds: Vec<TaskKind> = m.tasks().iter().map(|t| t.data.kind).collect();
    let t = Instant::now();
    for kind in kinds {
        std::hint::black_box(m.evaluate(kind, Split::Valid));
    }
    let eval_ms = t.elapsed().as_secs_f64() * 1e3 / tasks as f64;
    let (refreshes, evals) = ((tasks * (m.cfg.epochs + 1)) as f64, (tasks * m.cfg.epochs) as f64);
    let step_ms = finetune_s * 1e3 - refreshes * refresh_ms - evals * eval_ms;
    (refresh_ms, eval_ms, step_ms * 1e3 / finetune_samples(m) as f64)
}

/// Weighted F1 of the column-type task on the test split.
pub fn test_f1(m: &ExplainTi) -> f64 {
    m.evaluate(TaskKind::Type, Split::Test).weighted
}

/// The model's encoder rebuilt outside it from `export_encoder`, so its
/// forward and `embed_cls` can be timed on their own.
pub struct Standalone {
    store: ParamStore,
    encoder: TransformerEncoder,
}

impl Standalone {
    /// Copies `m`'s encoder weights into a fresh store.
    pub fn of(m: &ExplainTi) -> Self {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let encoder = TransformerEncoder::new(&mut store, m.cfg.encoder.clone(), &mut rng);
        encoder.import_weights(&mut store, &m.export_encoder());
        Self { store, encoder }
    }

    /// One inference forward on a fresh tape; returns the tape length.
    pub fn forward(&self, enc: &Encoded) -> usize {
        let mut g = Graph::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let out = self.encoder.forward(&mut g, &self.store, enc, false, &mut rng);
        std::hint::black_box(g.value(out));
        g.len()
    }

    /// `E_[CLS]` of `enc`, the query GE sends to the store.
    pub fn embed_cls(&self, enc: &Encoded) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(0);
        self.encoder.embed_cls(&self.store, enc, &mut rng)
    }
}
