//! The tape-free inference forward (DESIGN.md §18).
//!
//! [`ExplainTi::infer`] computes a column's final logits and its LE, GE
//! and SE views from the encoder's live rows and plain tensors, without
//! a [`Graph`](explainti_nn::Graph). Every value is produced by the same
//! kernels in the same order as the tape forward
//! ([`ExplainTi::forward_encoded`]), so predictions and explanations are
//! bit-identical to it; only the training losses' inputs `l_L` and `l_G`
//! are skipped. `tests` below holds the differential suite that checks
//! the equality.

use crate::config::SeAggregation;
use crate::explain::{Explanation, GlobalInfluence, LocalSpan, StructuralNeighbor};
use crate::model::{ge_inv_norm, le_scales, ExplainTi};
use explainti_nn::{mean_rows_into, softmax, Tensor};
use explainti_tokenizer::Encoded;

impl ExplainTi {
    /// Final logits (`1 x classes`) and explanation views of one column
    /// of `task`. `node` is its column-graph node (`None` for ad-hoc
    /// columns); `with_views = false` skips LE and GE, which never feed
    /// the logits.
    pub(crate) fn infer(
        &self,
        task: usize,
        encoded: &Encoded,
        node: Option<usize>,
        with_views: bool,
    ) -> (Tensor, Explanation) {
        let _span = explainti_obs::span!("model.forward");
        let live = self.encoder.forward_live(&self.store, encoded);
        let cls = live.rows_range(0, 1);
        let (logits, structural) = if self.cfg.use_se {
            self.structural_infer(task, &cls, node)
        } else {
            (self.tasks[task].heads.w.infer(&self.store, &cls, 1), Vec::new())
        };
        let local = if self.cfg.use_le && with_views {
            self.local_infer(task, &live, logits.as_slice(), encoded)
        } else {
            Vec::new()
        };
        let global =
            if self.cfg.use_ge && with_views { self.global_infer(task, &cls) } else { Vec::new() };
        (logits, Explanation { local, global, structural })
    }

    /// Algorithm 1's relevance scores over the live embeddings `live`.
    fn local_infer(
        &self,
        task: usize,
        live: &Tensor,
        logits: &[f32],
        encoded: &Encoded,
    ) -> Vec<LocalSpan> {
        let _span = explainti_obs::span!("explain.le");
        let anchors = self.le_anchors(encoded, self.tasks[task].data.kind);
        if anchors.is_empty() {
            return Vec::new();
        }
        let (len, d) = (encoded.len, live.cols());
        let mean = |start: usize, rows: usize| {
            let mut m = Tensor::zeros(1, d);
            mean_rows_into(&live.as_slice()[start * d..(start + rows) * d], d, m.as_mut_slice());
            m
        };
        let full_probs = softmax(logits);
        let all_mean = mean(0, len);
        let scores: Vec<f32> = anchors
            .iter()
            .map(|&(j, wlen, js)| {
                let (removed_mean, removed_count) = match js {
                    Some(js) => {
                        let mut sum = mean(j, wlen);
                        sum.add_assign(&mean(js, wlen));
                        sum.scale_assign(0.5);
                        (sum, 2 * wlen)
                    }
                    None => (mean(j, wlen), wlen),
                };
                let (all_scale, win_scale) = le_scales(len, removed_count);
                let mut t = all_mean.clone();
                t.scale_assign(all_scale);
                let mut removed = removed_mean;
                removed.scale_assign(win_scale);
                t.sub_assign(&removed);
                let s = self.tasks[task].heads.w_l.infer(&self.store, &t, 1);
                self.le_score(&softmax(s.as_slice()), &full_probs)
            })
            .collect();
        self.le_spans(&anchors, &scores, encoded)
    }

    /// Algorithm 2's influence scores for `cls` (no self-exclusion at
    /// inference).
    fn global_infer(&self, task: usize, cls: &Tensor) -> Vec<GlobalInfluence> {
        let _span = explainti_obs::span!("explain.ge");
        let Some((found, _, q_hat)) = self.ge_retrieve(task, cls, None) else {
            return Vec::new();
        };
        let mut scaled = cls.clone();
        scaled.scale_assign(ge_inv_norm(cls));
        let influences = softmax(scaled.matmul_nt(&q_hat).as_slice());
        self.ge_influences(task, &found, &influences)
    }

    /// Algorithm 4's structural logits and attention for `cls`.
    fn structural_infer(
        &self,
        task: usize,
        cls: &Tensor,
        node: Option<usize>,
    ) -> (Tensor, Vec<StructuralNeighbor>) {
        let _span = explainti_obs::span!("explain.se");
        let ids = self.se_eval_neighbours(task, node);
        let neigh = self.se_matrix(task, cls, &ids);
        let (attention, e_s) = match self.cfg.se_aggregation {
            SeAggregation::Attention => {
                let mut scores = cls.matmul_nt(&neigh);
                scores.scale_assign(1.0 / self.encoder.d_model() as f32);
                let attention = Tensor::row(softmax(scores.as_slice()));
                let e_s = attention.matmul(&neigh);
                (attention, e_s)
            }
            SeAggregation::MeanPooling => {
                let rows = neigh.rows();
                (Tensor::full(1, rows, 1.0 / rows as f32), neigh.mean_rows())
            }
        };
        let logits = self.tasks[task].heads.w_s.infer(&self.store, &e_s.concat_cols(cls), 1);
        (logits, self.se_merge(task, &ids, attention.as_slice()))
    }
}

#[cfg(test)]
mod tests;
