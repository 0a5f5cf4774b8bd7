//! Reusable layer modules built on [`Graph`](crate::graph::Graph).
//!
//! Each module registers its parameters in a [`ParamStore`] at construction
//! and replays them onto the tape with `forward`. This mirrors the usual
//! deep-learning module pattern while keeping ownership with the store.
//!
//! Inference skips the tape: `infer` reads the store's weights in place
//! and runs the same kernels in the same order as `forward`, so its
//! outputs are bit-identical to the tape's values. Linear layers may be
//! given only some rows of an `m`-row input (the live rows of a padded
//! sequence) and still pick every kernel by `m`, the row count the tape
//! sees.

use crate::graph::{Graph, NodeId};
use crate::params::{ParamId, ParamStore};
use crate::tensor::{layer_norm_row, matmul_rows_into, softmax_into, Tensor};
use rand::rngs::SmallRng;
use rand::Rng;

/// Dense affine layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim x out_dim` weight (Xavier) and a zero bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w = store.add_xavier(&format!("{name}.w"), in_dim, out_dim, rng);
        let b = store.add_zeros(&format!("{name}.b"), 1, out_dim);
        Self { w, b, in_dim, out_dim }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `rows x in_dim` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }

    /// Tape-free [`Self::forward`] for the rows of `x`, which are some
    /// rows of an `m`-row input: the kernel is the one `forward` runs on
    /// all `m` rows, fed the store's cached `Wᵀ` where it packs.
    pub fn infer(&self, store: &ParamStore, x: &Tensor, m: usize) -> Tensor {
        let w = store.value(self.w);
        let mut y = Tensor::zeros(x.rows(), w.cols());
        matmul_rows_into(x.as_slice(), m, w, store.transposed(self.w), y.as_mut_slice());
        y.add_row_assign(store.value(self.b).as_slice());
        y
    }
}

/// Token embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `vocab x dim` table initialised with small noise.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let table = store.add_normal(name, vocab, dim, 0.02, rng);
        Self { table, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Gathers embeddings for `ids`, producing a `ids.len() x dim` node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, ids: &[usize]) -> NodeId {
        let table = g.param(store, self.table);
        g.embedding(table, ids)
    }

    /// Tape-free [`Self::forward`]: the `ids.len() x dim` gathered rows.
    pub fn infer(&self, store: &ParamStore, ids: &[usize]) -> Tensor {
        let table = store.value(self.table);
        let mut out = Tensor::zeros(ids.len(), self.dim);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < table.rows(), "embedding id {id} out of range {}", table.rows());
            out.row_slice_mut(r).copy_from_slice(table.row_slice(id));
        }
        out
    }
}

/// Layer normalisation with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
}

impl LayerNorm {
    /// Registers gain (ones) and bias (zeros) rows of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gain = store.add_ones(&format!("{name}.gain"), 1, dim);
        let bias = store.add_zeros(&format!("{name}.bias"), 1, dim);
        Self { gain, bias }
    }

    /// Normalises each row of `x`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let gain = g.param(store, self.gain);
        let bias = g.param(store, self.bias);
        g.layer_norm(x, gain, bias)
    }

    /// Tape-free [`Self::forward`].
    pub fn infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let (gain, bias) = (store.value(self.gain).as_slice(), store.value(self.bias).as_slice());
        let mut out = Tensor::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            layer_norm_row(x.row_slice(r), gain, bias, out.row_slice_mut(r), None);
        }
        out
    }
}

/// Inverted-dropout helper owning its keep probability.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer that zeroes activations with probability `p`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        Self { p }
    }

    /// Applies dropout when `training`; identity otherwise.
    pub fn forward(&self, g: &mut Graph, x: NodeId, training: bool, rng: &mut SmallRng) -> NodeId {
        if !training || self.p == 0.0 {
            return x;
        }
        let (rows, cols) = g.value(x).shape();
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let data =
            (0..rows * cols).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }).collect();
        let mask = Tensor::from_vec(rows, cols, data);
        g.dropout(x, &mask)
    }
}

/// Two-layer feed-forward block with GELU: `W2(gelu(W1 x))`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
}

impl FeedForward {
    /// Registers the expansion (`dim -> hidden`) and projection layers.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        hidden: usize,
        rng: &mut SmallRng,
    ) -> Self {
        Self {
            fc1: Linear::new(store, &format!("{name}.fc1"), dim, hidden, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), hidden, dim, rng),
        }
    }

    /// Applies the block.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let h = self.fc1.forward(g, store, x);
        let a = g.gelu(h);
        self.fc2.forward(g, store, a)
    }

    /// Tape-free [`Self::forward`] for some rows of an `m`-row input
    /// (see [`Linear::infer`]).
    pub fn infer(&self, store: &ParamStore, x: &Tensor, m: usize) -> Tensor {
        let h = self.fc1.infer(store, x, m);
        let mut a = Tensor::zeros(h.rows(), h.cols());
        crate::simd::gelu_into(h.as_slice(), a.as_mut_slice());
        self.fc2.infer(store, &a, m)
    }
}

/// Multi-head scaled-dot-product self-attention.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Registers Q/K/V/O projections for `heads` heads over `dim` channels.
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} must divide into {heads} heads");
        Self {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, rng),
            heads,
            head_dim: dim / heads,
        }
    }

    /// Self-attention over a `seq x dim` node.
    ///
    /// `pad_mask` marks positions to exclude as keys: entry `j` of the mask
    /// is `0.0` for real tokens and a large negative number for padding.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        pad_mask: Option<&[f32]>,
    ) -> NodeId {
        let seq = g.value(x).rows();
        let q = self.wq.forward(g, store, x);
        let k = self.wk.forward(g, store, x);
        let v = self.wv.forward(g, store, x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mask_node = pad_mask.map(|m| {
            assert_eq!(m.len(), seq, "pad mask length must equal sequence length");
            let mut rowsv = Vec::with_capacity(seq * seq);
            for _ in 0..seq {
                rowsv.extend_from_slice(m);
            }
            g.input(Tensor::from_vec(seq, seq, rowsv))
        });

        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let start = h * self.head_dim;
            let qh = g.cols_range(q, start, self.head_dim);
            let kh = g.cols_range(k, start, self.head_dim);
            let vh = g.cols_range(v, start, self.head_dim);
            let scores = g.matmul_nt(qh, kh);
            let scaled = g.scale(scores, scale);
            let masked = match mask_node {
                Some(m) => g.add(scaled, m),
                None => scaled,
            };
            let attn = g.softmax(masked);
            head_outputs.push(g.matmul(attn, vh));
        }
        let mut merged = head_outputs[0];
        for &h in &head_outputs[1..] {
            merged = g.concat_cols(merged, h);
        }
        self.wo.forward(g, store, merged)
    }

    /// Tape-free masked self-attention for the first `x.rows()` positions of a
    /// `pad_mask.len()`-position sequence whose later positions are all
    /// padding, bit-identical to those rows of
    /// [`Self::forward`] on the full sequence:
    /// * a padding key's score is its mask entry (−1e9) instead of the
    ///   tape's `score + mask`; the row maximum is a live key's either
    ///   way, so the padding's softmax weight is exactly +0 in both;
    /// * `P·V` still reduces over every key, against zero rows of `V`
    ///   for the padding, so the reduction order (and thus every bit) is
    ///   the full-length product's: a +0 weight times any finite value
    ///   adds nothing to an accumulator that starts at +0.
    pub fn infer(&self, store: &ParamStore, x: &Tensor, pad_mask: &[f32]) -> Tensor {
        let (live, m, hd) = (x.rows(), pad_mask.len(), self.head_dim);
        assert!(live <= m, "more live rows ({live}) than sequence positions ({m})");
        assert!(
            pad_mask[live..].iter().all(|&v| v < 0.0),
            "positions past the live rows must be masked"
        );
        let q = self.wq.infer(store, x, m);
        let k = self.wk.infer(store, x, m);
        let v = self.wv.infer(store, x, m);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut kh = vec![0.0; live * hd];
        let mut vh = Tensor::zeros(m, hd);
        let mut scores = vec![0.0; m];
        let mut probs = Tensor::zeros(live, m);
        let mut head_out = vec![0.0; live * hd];
        let mut merged = Tensor::zeros(live, self.heads * hd);
        for h in 0..self.heads {
            let cols = h * hd..(h + 1) * hd;
            for j in 0..live {
                kh[j * hd..(j + 1) * hd].copy_from_slice(&k.row_slice(j)[cols.clone()]);
                vh.row_slice_mut(j).copy_from_slice(&v.row_slice(j)[cols.clone()]);
            }
            for i in 0..live {
                crate::simd::row_times_rows(
                    &q.row_slice(i)[cols.clone()],
                    &kh,
                    hd,
                    &mut scores[..live],
                );
                for (s, &mask) in scores[..live].iter_mut().zip(pad_mask) {
                    *s = *s * scale + mask;
                }
                scores[live..].copy_from_slice(&pad_mask[live..]);
                softmax_into(&scores, probs.row_slice_mut(i));
            }
            matmul_rows_into(probs.as_slice(), m, &vh, &vh.transpose(), &mut head_out);
            for i in 0..live {
                merged.row_slice_mut(i)[cols.clone()]
                    .copy_from_slice(&head_out[i * hd..(i + 1) * hd]);
            }
        }
        self.wo.infer(store, &merged, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 4));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (2, 3));
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut r);
        let mut g = Graph::new();
        let y = emb.forward(&mut g, &store, &[3, 3, 7]);
        assert_eq!(g.value(y).shape(), (3, 4));
        assert_eq!(g.value(y).row_slice(0), g.value(y).row_slice(1));
    }

    #[test]
    fn attention_output_shape_matches_input() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(5, 8, 0.1));
        let y = mha.forward(&mut g, &store, x, None);
        assert_eq!(g.value(y).shape(), (5, 8));
    }

    #[test]
    fn attention_mask_suppresses_padded_keys() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let mha = MultiHeadAttention::new(&mut store, "a", 4, 1, &mut r);

        // Build an input where position 2 has a wildly different value; with
        // the pad mask active, changing it must not affect output rows 0-1
        // beyond numerical noise.
        let mask = vec![0.0, 0.0, -1e9];
        let mut g1 = Graph::new();
        let x1 = g1.input(Tensor::from_vec(
            3,
            4,
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 9.0, 9.0, 9.0, 9.0],
        ));
        let y1 = mha.forward(&mut g1, &store, x1, Some(&mask));

        let mut g2 = Graph::new();
        let x2 = g2.input(Tensor::from_vec(
            3,
            4,
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, -5.0, 3.0, -2.0, 1.0],
        ));
        let y2 = mha.forward(&mut g2, &store, x2, Some(&mask));

        for c in 0..4 {
            assert!((g1.value(y1).get(0, c) - g2.value(y2).get(0, c)).abs() < 1e-5);
            assert!((g1.value(y1).get(1, c) - g2.value(y2).get(1, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn dropout_disabled_at_eval() {
        let mut g = Graph::new();
        let x = g.input(Tensor::full(2, 2, 1.0));
        let d = Dropout::new(0.5);
        let mut r = rng();
        let y = d.forward(&mut g, x, false, &mut r);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_preserves_expected_scale() {
        let mut g = Graph::new();
        let x = g.input(Tensor::full(1, 10_000, 1.0));
        let d = Dropout::new(0.3);
        let mut r = rng();
        let y = d.forward(&mut g, x, true, &mut r);
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean was {mean}");
    }

    #[test]
    fn feed_forward_round_trip_shape() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let ff = FeedForward::new(&mut store, "ff", 6, 12, &mut r);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(3, 6));
        let y = ff.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (3, 6));
    }
}
