//! Kernel microbench — times three matmul arms per shape (naive,
//! forced-scalar packed, runtime-dispatched SIMD), three GELU arms at the
//! served FFN shape (libm `tanhf`, the in-crate scalar tanh port, the
//! dispatched arm), plus the batched CLS-embedding path at 1 thread vs
//! N threads, writes `BENCH_kernels.json`, and **exits non-zero** when
//!
//! - the parallel results diverge bytewise from the serial ones,
//! - the SIMD arm's bytes differ from the forced-scalar fallback's
//!   (they are designed bitwise-equal — divergence is a kernel bug),
//! - the dispatched GELU arm is not bitwise equal to the scalar tanh
//!   port (the libm arm's equality, which holds on fdlibm-derived libms
//!   such as glibc's, is recorded as `libm_matches_port`), or
//! - the host dispatches AVX2 but `simd_speedup` (forced-scalar time
//!   over SIMD time, serial) lands under 1.2× on the two largest shapes.
//!
//! The JSON records which dispatch tier (`avx2`/`neon`/`scalar`)
//! actually ran, so a flat speedup on a scalar-only container is
//! interpretable from the artifact alone rather than alarming.

use explainti_bench::{write_json, MAX_SEQ, VOCAB_CAP};
use explainti_core::{build_tokenizer, TaskData};
use explainti_corpus::{generate_wiki, WikiConfig};
use explainti_encoder::{EncoderConfig, TransformerEncoder};
use explainti_nn::simd::{self, SimdTier};
use explainti_nn::{ParamStore, Tensor};
use explainti_pool::ThreadPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::time::Instant;

/// The forced-scalar / SIMD speedup floor enforced on AVX2 hosts, on
/// the gate shapes (the two largest).
const SIMD_SPEEDUP_FLOOR: f64 = 1.2;

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, last.expect("reps >= 1"))
}

fn random_tensor(rows: usize, cols: usize, rng: &mut SmallRng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Benchmark the width CI cares about even on narrower machines; the
    // JSON records both numbers so a 1-core container's "speedup" of
    // < 1 is interpretable rather than alarming.
    let par_threads = cores.max(4);
    simd::reset_tier();
    let tier = simd::tier();
    println!(
        "kernel microbench — dispatch tier {} — 1 thread vs {par_threads} ({cores} cores)",
        tier.name()
    );

    let pool1 = ThreadPool::new(1);
    let pool_n = ThreadPool::new(par_threads);
    let mut rng = SmallRng::seed_from_u64(0xbe9c);
    let mut failed = false;

    // -- Matmul arms ------------------------------------------------------
    // Several shapes so a flat speedup is diagnosable from the artifact
    // alone: ns/flop separates "kernel got slower" from "problem too
    // small to amortise fan-out". The last GATE_SHAPES entries carry the
    // AVX2 speedup floor.
    const SHAPES: [(usize, usize, usize); 3] = [(96, 128, 96), (192, 256, 192), (384, 256, 384)];
    const GATE_SHAPES: usize = 2;
    let mut matmul_shapes = Vec::new();
    for (which, &(m, k, n)) in SHAPES.iter().enumerate() {
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);

        let (naive_ms, reference) = time_ms(5, || a.matmul_naive(&b));
        simd::force_tier(SimdTier::Scalar);
        let (scalar_ms, scalar_out) = time_ms(5, || a.matmul_in(&b, &pool1));
        simd::force_tier(tier);
        let (simd_ms, serial) = time_ms(5, || a.matmul_in(&b, &pool1));
        let (parallel_ms, parallel) = time_ms(5, || a.matmul_in(&b, &pool_n));
        simd::reset_tier();

        if !bits_equal(&serial, &parallel) {
            eprintln!("FAIL: parallel matmul {m}x{k}x{n} diverges from serial");
            failed = true;
        }
        if !bits_equal(&serial, &scalar_out) {
            eprintln!(
                "FAIL: {} matmul {m}x{k}x{n} is not bitwise-equal to the scalar fallback",
                tier.name()
            );
            failed = true;
        }
        let worst_err = serial
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        if worst_err > 1e-3 {
            eprintln!("FAIL: packed matmul drifts from the naive reference by {worst_err}");
            failed = true;
        }

        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let simd_speedup = scalar_ms / simd_ms;
        let naive_speedup = naive_ms / simd_ms;
        let par_speedup = simd_ms / parallel_ms;
        let gated = which + GATE_SHAPES >= SHAPES.len();
        if gated && tier == SimdTier::Avx2 && simd_speedup < SIMD_SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: avx2 simd_speedup {simd_speedup:.2}x < {SIMD_SPEEDUP_FLOOR}x \
                 on gate shape {m}x{k}x{n}"
            );
            failed = true;
        }
        println!(
            "matmul {m}x{k}x{n}:  naive {naive_ms:.2} ms | scalar@1 {scalar_ms:.2} ms | \
             {}@1 {simd_ms:.2} ms | {}@{par_threads} {parallel_ms:.2} ms | \
             simd {simd_speedup:.2}x | vs-naive {naive_speedup:.2}x",
            tier.name(),
            tier.name()
        );
        matmul_shapes.push(json!({
            "shape": json!([m, k, n]),
            "flops": flops,
            "dispatch_tier": tier.name(),
            "naive_ms": naive_ms,
            "scalar_serial_ms": scalar_ms,
            "simd_serial_ms": simd_ms,
            "simd_parallel_ms": parallel_ms,
            "ns_per_flop_naive": naive_ms * 1e6 / flops,
            "ns_per_flop_scalar": scalar_ms * 1e6 / flops,
            "ns_per_flop_simd": simd_ms * 1e6 / flops,
            "simd_speedup": simd_speedup,
            "simd_speedup_vs_naive": naive_speedup,
            "parallel_speedup": par_speedup,
            "thread_efficiency": par_speedup / par_threads as f64,
            "speedup_gated": gated,
        }));
    }

    // -- GELU at the served FFN shape (seq 32 x ff 64) --------------------
    const GELU_SHAPE: (usize, usize) = (MAX_SEQ, 64);
    const GELU_REPS: usize = 500;
    let x = random_tensor(GELU_SHAPE.0, GELU_SHAPE.1, &mut rng);
    let xs: Vec<f32> = x.as_slice().iter().map(|v| v * 4.0).collect();
    let libm_gelu = |v: f32| 0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh());
    let mut out = vec![0.0f32; xs.len()];
    let per_elem = |ms: f64| ms * 1e6 / (GELU_REPS * xs.len()) as f64;
    let (libm_ms, libm) = time_ms(5, || {
        for _ in 0..GELU_REPS {
            for (o, &v) in out.iter_mut().zip(std::hint::black_box(&xs)) {
                *o = libm_gelu(v);
            }
        }
        out.clone()
    });
    let (port_ms, port) = time_ms(5, || {
        for _ in 0..GELU_REPS {
            for (o, &v) in out.iter_mut().zip(std::hint::black_box(&xs)) {
                *o = simd::gelu_scalar(v);
            }
        }
        out.clone()
    });
    let (dispatched_ms, dispatched) = time_ms(5, || {
        for _ in 0..GELU_REPS {
            simd::gelu_into(std::hint::black_box(&xs), &mut out);
        }
        out.clone()
    });
    let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    if !same(&port, &dispatched) {
        eprintln!("FAIL: {} GELU is not bitwise equal to the scalar port", tier.name());
        failed = true;
    }
    // The port is fdlibm's tanhf: equal to glibc's, not to every libm's.
    let libm_matches_port = same(&libm, &port);
    if !libm_matches_port {
        eprintln!("note: this libm's tanhf differs from the fdlibm port (not glibc?)");
    }
    let (libm_ns, port_ns, dispatched_ns) =
        (per_elem(libm_ms), per_elem(port_ms), per_elem(dispatched_ms));
    println!(
        "gelu {}x{}:  libm {libm_ns:.2} ns/elem | scalar port {port_ns:.2} ns/elem | \
         {} {dispatched_ns:.2} ns/elem",
        GELU_SHAPE.0,
        GELU_SHAPE.1,
        tier.name()
    );

    // -- Batched CLS embedding (the serving hot path) ---------------------
    let dataset = generate_wiki(&WikiConfig { num_tables: 60, seed: 777, ..Default::default() });
    let tokenizer = build_tokenizer(&dataset, VOCAB_CAP);
    let cfg = EncoderConfig::bert_like(tokenizer.vocab_size(), MAX_SEQ);
    let mut store = ParamStore::new();
    let encoder = TransformerEncoder::new(&mut store, cfg, &mut rng);
    let type_data = TaskData::prepare_type(&dataset, &tokenizer, MAX_SEQ, false);
    let encs: Vec<_> = type_data.samples.iter().take(48).map(|s| s.encoded.clone()).collect();
    let batch = encs.len();

    explainti_pool::configure(1);
    let (embed_serial_ms, embeds_serial) =
        time_ms(3, || encoder.embed_cls_batch(&store, &encs, &mut rng.clone()));
    explainti_pool::configure(par_threads);
    let (embed_parallel_ms, embeds_parallel) =
        time_ms(3, || encoder.embed_cls_batch(&store, &encs, &mut rng.clone()));
    explainti_pool::configure(explainti_pool::Threads::resolve(None).get());
    if embeds_serial != embeds_parallel {
        eprintln!("FAIL: parallel embed_cls_batch diverges from serial");
        failed = true;
    }
    let embed_speedup = embed_serial_ms / embed_parallel_ms;
    println!(
        "embed_cls_batch x{batch}:  1 thread {embed_serial_ms:.2} ms | \
         {par_threads} threads {embed_parallel_ms:.2} ms | speedup {embed_speedup:.2}x"
    );

    let summary = json!({
        "available_parallelism": cores,
        "threads_parallel": par_threads,
        "dispatch_tier": tier.name(),
        "simd_speedup_floor": SIMD_SPEEDUP_FLOOR,
        "matmul": json!(matmul_shapes),
        "gelu": json!({
            "shape": json!([GELU_SHAPE.0, GELU_SHAPE.1]),
            "libm_ns_per_elem": libm_ns,
            "scalar_port_ns_per_elem": port_ns,
            "dispatched_ns_per_elem": dispatched_ns,
            "dispatched_speedup_vs_libm": libm_ns / dispatched_ns,
            "libm_matches_port": libm_matches_port,
        }),
        "embed_cls_batch": json!({
            "batch": batch,
            "max_seq": MAX_SEQ,
            "serial_ms": embed_serial_ms,
            "parallel_ms": embed_parallel_ms,
            "speedup": embed_speedup,
            "thread_efficiency": embed_speedup / par_threads as f64,
        }),
        "parallel_matches_serial": !failed,
    });
    write_json("BENCH_kernels", &summary);

    if failed {
        std::process::exit(1);
    }
}
