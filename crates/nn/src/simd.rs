//! Explicit SIMD kernels with runtime dispatch.
//!
//! Every kernel in this module comes in (at least) two arms: a portable
//! 8-lane-unrolled scalar fallback and an x86_64 AVX2 arm built on
//! `std::arch` intrinsics (aarch64 NEON where noted). The arms are
//! **bitwise equivalent** for f32 inputs: the AVX2 code uses separate
//! multiply + add (never FMA, which fuses the rounding step) and reduces
//! its 8 lane accumulators in exactly the same tree order as the scalar
//! fallback (`half[l] = acc[l] + acc[l+4]`, then
//! `(half0+half1) + (half2+half3)`, then `+ tail`). The tanh and GELU
//! kernels hold the same contract against [`tanh_scalar`], a port of
//! fdlibm's `tanhf` that GELU uses instead of the host libm.
//!
//! Dispatch is decided once per process by [`tier`] (runtime
//! `is_x86_feature_detected!`, overridable via the `EXPLAINTI_NO_SIMD`
//! environment variable or [`force_tier`] in tests/benches) and cached in
//! an atomic. Under miri the scalar arm is always selected because miri
//! does not model vendor intrinsics.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel arm runtime dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// x86_64 AVX2 256-bit arm (8 × f32 lanes).
    Avx2,
    /// aarch64 NEON 128-bit arm (2 × 4 f32 lanes).
    Neon,
    /// Portable 8-lane-unrolled scalar fallback.
    Scalar,
}

impl SimdTier {
    /// Stable lower-case name for metrics / bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Avx2 => "avx2",
            SimdTier::Neon => "neon",
            SimdTier::Scalar => "scalar",
        }
    }
}

const TIER_UNSET: u8 = 0;
const TIER_AVX2: u8 = 1;
const TIER_NEON: u8 = 2;
const TIER_SCALAR: u8 = 3;

static TIER: AtomicU8 = AtomicU8::new(TIER_UNSET);

fn detect() -> u8 {
    if cfg!(miri) {
        // Miri cannot interpret vendor intrinsics; always take the
        // portable arm so the unsafe-free fallback is what gets checked.
        return TIER_SCALAR;
    }
    if std::env::var("EXPLAINTI_NO_SIMD").is_ok_and(|v| v == "1") {
        return TIER_SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return TIER_AVX2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return TIER_NEON;
        }
    }
    TIER_SCALAR
}

/// Returns the kernel arm in effect for this process (cached after the
/// first call). Honors `EXPLAINTI_NO_SIMD=1` and [`force_tier`].
pub fn tier() -> SimdTier {
    // ORDERING: Relaxed — the cached tier is a pure function of the
    // environment; racing initialisers compute the same value, so the
    // cell needs atomicity only.
    let mut t = TIER.load(Ordering::Relaxed);
    if t == TIER_UNSET {
        t = detect();
        TIER.store(t, Ordering::Relaxed); // ORDERING: Relaxed — as above
    }
    match t {
        TIER_AVX2 => SimdTier::Avx2,
        TIER_NEON => SimdTier::Neon,
        _ => SimdTier::Scalar,
    }
}

/// Overrides the dispatch tier for the rest of the process. Intended for
/// differential tests and benches; forcing a tier the host cannot execute
/// (e.g. Avx2 on a non-AVX2 machine) is a programmer error and will fault
/// at the first kernel call.
pub fn force_tier(t: SimdTier) {
    let v = match t {
        SimdTier::Avx2 => TIER_AVX2,
        SimdTier::Neon => TIER_NEON,
        SimdTier::Scalar => TIER_SCALAR,
    };
    // ORDERING: Relaxed — see `tier`; the forced value is self-contained.
    TIER.store(v, Ordering::Relaxed);
}

/// Clears any cached/forced tier so the next [`tier`] call re-detects.
pub fn reset_tier() {
    // ORDERING: Relaxed — see `tier`.
    TIER.store(TIER_UNSET, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// f32 dot product: 8-accumulator block with fixed reduction order.
// ---------------------------------------------------------------------------

/// Portable reference dot product: 8 independent lane accumulators over
/// `chunks_exact(8)`, a scalar tail, and the fixed reduction tree
/// `((h0+h1)+(h2+h3)) + tail` where `h[l] = acc[l] + acc[l+4]`.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    let half = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    ((half[0] + half[1]) + (half[2] + half[3])) + tail
}

/// Dot product on the currently dispatched arm. Bitwise equal to
/// [`dot_scalar`] on every arm.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() only returns Avx2 when is_x86_feature_detected!
            // confirmed AVX2 support at runtime (or a test forced it on an
            // AVX2-capable host).
            unsafe { dot_avx2(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => {
            // SAFETY: tier() only returns Neon when NEON support was
            // detected at runtime.
            unsafe { dot_neon(a, b) }
        }
        _ => dot_scalar(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (dispatch via tier()).
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    // One 8-lane vector accumulator == the scalar arm's acc[0..8].
    // Separate mul + add (no FMA) keeps each lane's rounding identical to
    // the scalar `acc[l] += x[l] * y[l]`.
    let mut vacc = _mm256_setzero_ps();
    for c in 0..chunks {
        // SAFETY: c < chunks so c*8 + 7 < n <= len of both slices; reads
        // are 32-byte unaligned loads fully inside the slices.
        let vx = unsafe { _mm256_loadu_ps(ap.add(c * 8)) };
        // SAFETY: same bounds argument as vx for slice b.
        let vy = unsafe { _mm256_loadu_ps(bp.add(c * 8)) };
        vacc = _mm256_add_ps(vacc, _mm256_mul_ps(vx, vy));
    }
    // Reduce in the exact scalar tree order:
    //   half[l] = acc[l] + acc[l+4]  -> add low/high 128-bit halves
    let lo = _mm256_castps256_ps128(vacc);
    let hi = _mm256_extractf128_ps::<1>(vacc);
    let h = _mm_add_ps(lo, hi);
    //   (h0+h1, h2+h3, h0+h1, h2+h3) then (h0+h1)+(h2+h3) in lane 0.
    let p = _mm_hadd_ps(h, h);
    let s = _mm_hadd_ps(p, p);
    let mut sum = _mm_cvtss_f32(s);
    let mut tail = 0.0f32;
    for i in chunks * 8..n {
        // SAFETY: i < n <= len of both slices.
        tail += unsafe { *ap.add(i) * *bp.add(i) };
    }
    sum += tail;
    sum
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller must ensure NEON is available (dispatch via tier()).
unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    // Two 4-lane accumulators == scalar acc[0..4] and acc[4..8].
    let mut acc_lo = vdupq_n_f32(0.0);
    let mut acc_hi = vdupq_n_f32(0.0);
    for c in 0..chunks {
        // SAFETY: c < chunks so c*8 + 7 < n; all loads in bounds.
        let x0 = unsafe { vld1q_f32(ap.add(c * 8)) };
        // SAFETY: as above.
        let x1 = unsafe { vld1q_f32(ap.add(c * 8 + 4)) };
        // SAFETY: as above for slice b.
        let y0 = unsafe { vld1q_f32(bp.add(c * 8)) };
        // SAFETY: as above for slice b.
        let y1 = unsafe { vld1q_f32(bp.add(c * 8 + 4)) };
        // Separate mul + add (vmulq/vaddq, not vfmaq) to match scalar
        // rounding per lane.
        acc_lo = vaddq_f32(acc_lo, vmulq_f32(x0, y0));
        acc_hi = vaddq_f32(acc_hi, vmulq_f32(x1, y1));
    }
    // half[l] = acc[l] + acc[l+4]
    let half = vaddq_f32(acc_lo, acc_hi);
    // vpaddq pairs: (h0+h1, h2+h3, h0+h1, h2+h3); second pass gives
    // (h0+h1)+(h2+h3) — the scalar tree order.
    let p = vpaddq_f32(half, half);
    let s = vpaddq_f32(p, p);
    let mut sum = vgetq_lane_f32::<0>(s);
    let mut tail = 0.0f32;
    for i in chunks * 8..n {
        // SAFETY: i < n <= len of both slices.
        tail += unsafe { *ap.add(i) * *bp.add(i) };
    }
    sum += tail;
    sum
}

// ---------------------------------------------------------------------------
// Row-block kernel: one A row against NR packed B^T rows at a time.
// ---------------------------------------------------------------------------

/// Computes `out[j] = dot(a_row, bt_rows(j))` for `j in 0..nj`, where
/// `bt` is the packed B^T matrix with rows of length `k` (row `j` starts
/// at `bt[j*k]`). Each output element's value is bitwise equal to
/// [`dot_scalar`] on every arm; the AVX2 arm blocks 4 output columns per
/// pass so the A row is loaded once per chunk (register-level reuse).
pub fn row_times_rows(a_row: &[f32], bt: &[f32], k: usize, out: &mut [f32]) {
    debug_assert_eq!(a_row.len(), k);
    debug_assert_eq!(bt.len(), k * out.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection of
            // AVX2 (or a forced tier on a capable host).
            unsafe { row_times_rows_avx2(a_row, bt, k, out) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => {
            for (j, out_v) in out.iter_mut().enumerate() {
                // SAFETY: tier() returned Neon only after runtime detection.
                *out_v = unsafe { dot_neon(a_row, &bt[j * k..j * k + k]) };
            }
        }
        _ => {
            for (j, out_v) in out.iter_mut().enumerate() {
                *out_v = dot_scalar(a_row, &bt[j * k..j * k + k]);
            }
        }
    }
}

/// Two A-rows against the same packed panel in one pass: the panel
/// streams through cache once for two output rows. Every (row, column)
/// accumulation chain is identical to [`row_times_rows`]'s — pairing
/// changes memory traffic, never bits.
pub fn rows2_times_rows(
    a0: &[f32],
    a1: &[f32],
    bt: &[f32],
    k: usize,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    debug_assert_eq!(a0.len(), k);
    debug_assert_eq!(a1.len(), k);
    debug_assert_eq!(out0.len(), out1.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection of
            // AVX2 (or a forced tier on a capable host).
            unsafe { rows2_times_rows_avx2(a0, a1, bt, k, out0, out1) }
        }
        _ => {
            row_times_rows(a0, bt, k, out0);
            row_times_rows(a1, bt, k, out1);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and bt holds out0.len() rows of k elements.
unsafe fn rows2_times_rows_avx2(
    a0: &[f32],
    a1: &[f32],
    bt: &[f32],
    k: usize,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    use std::arch::x86_64::*;
    let nj = out0.len();
    let chunks = k / 8;
    let a0p = a0.as_ptr();
    let a1p = a1.as_ptr();
    let btp = bt.as_ptr();
    let mut j = 0;
    // 2-row × 4-column register blocking: each B chunk is loaded once and
    // feeds both rows' accumulators (8 accs + 2 A vectors + 1 B temp fit
    // the 16 ymm registers). Per-(row, column) chains match dot_avx2, so
    // the bits equal the unpaired kernel's.
    while j + 4 <= nj {
        let bases =
            [btp.add(j * k), btp.add((j + 1) * k), btp.add((j + 2) * k), btp.add((j + 3) * k)];
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let off = c * 8;
            // SAFETY: off + 7 < k (c < chunks = k/8); a0/a1 have len k.
            let va0 = unsafe { _mm256_loadu_ps(a0p.add(off)) };
            // SAFETY: as above.
            let va1 = unsafe { _mm256_loadu_ps(a1p.add(off)) };
            for (l, &base) in bases.iter().enumerate() {
                // SAFETY: rows j..j+4 exist (j+4 <= nj) and each has k
                // elements in bt, so every load stays inside bt.
                let w = unsafe { _mm256_loadu_ps(base.add(off)) };
                acc0[l] = _mm256_add_ps(acc0[l], _mm256_mul_ps(va0, w));
                acc1[l] = _mm256_add_ps(acc1[l], _mm256_mul_ps(va1, w));
            }
        }
        let tail_start = chunks * 8;
        for (l, &base) in bases.iter().enumerate() {
            // SAFETY: reduction + scalar tail reads stay inside a0/a1
            // (len k) and row j+l of bt as argued above.
            out0[j + l] = unsafe { finish_avx2(acc0[l], a0p, base, tail_start, k) };
            // SAFETY: as above.
            out1[j + l] = unsafe { finish_avx2(acc1[l], a1p, base, tail_start, k) };
        }
        j += 4;
    }
    while j < nj {
        // SAFETY: row j exists and has k elements; AVX2 is enabled in
        // this target_feature context.
        let b_row = unsafe { std::slice::from_raw_parts(btp.add(j * k), k) };
        // SAFETY: as above.
        out0[j] = unsafe { dot_avx2(a0, b_row) };
        // SAFETY: as above.
        out1[j] = unsafe { dot_avx2(a1, b_row) };
        j += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and bt holds out.len() rows of k elements.
unsafe fn row_times_rows_avx2(a_row: &[f32], bt: &[f32], k: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let nj = out.len();
    let chunks = k / 8;
    let ap = a_row.as_ptr();
    let btp = bt.as_ptr();
    let mut j = 0;
    // 8-then-4-column register blocking: independent vector accumulators
    // per column, the A-row chunk loaded once and reused. Each column's
    // accumulation chain is element-for-element the same as dot_avx2 /
    // dot_scalar, so blocking changes speed, not bits. Eight parallel
    // chains fully hide the vaddps latency; 8 accs + va + a temp stay
    // within the 16 ymm registers.
    while j + 8 <= nj {
        let bases = [
            btp.add(j * k),
            btp.add((j + 1) * k),
            btp.add((j + 2) * k),
            btp.add((j + 3) * k),
            btp.add((j + 4) * k),
            btp.add((j + 5) * k),
            btp.add((j + 6) * k),
            btp.add((j + 7) * k),
        ];
        let mut acc = [_mm256_setzero_ps(); 8];
        for c in 0..chunks {
            let off = c * 8;
            // SAFETY: off + 7 < k (c < chunks = k/8); a_row has len k.
            let va = unsafe { _mm256_loadu_ps(ap.add(off)) };
            for (l, &base) in bases.iter().enumerate() {
                // SAFETY: rows j..j+8 exist (j+8 <= nj) and each has k
                // elements in bt, so every load stays inside bt.
                let w = unsafe { _mm256_loadu_ps(base.add(off)) };
                acc[l] = _mm256_add_ps(acc[l], _mm256_mul_ps(va, w));
            }
        }
        let tail_start = chunks * 8;
        for (l, &base) in bases.iter().enumerate() {
            // SAFETY: reduction + scalar tail reads stay inside a_row
            // (len k) and row j+l of bt as argued above.
            out[j + l] = unsafe { finish_avx2(acc[l], ap, base, tail_start, k) };
        }
        j += 8;
    }
    while j + 4 <= nj {
        let b0 = btp.add(j * k);
        let b1 = btp.add((j + 1) * k);
        let b2 = btp.add((j + 2) * k);
        let b3 = btp.add((j + 3) * k);
        let mut v0 = _mm256_setzero_ps();
        let mut v1 = _mm256_setzero_ps();
        let mut v2 = _mm256_setzero_ps();
        let mut v3 = _mm256_setzero_ps();
        for c in 0..chunks {
            let off = c * 8;
            // SAFETY: off + 7 < k (c < chunks = k/8); a_row has len k.
            let va = unsafe { _mm256_loadu_ps(ap.add(off)) };
            // SAFETY: rows j..j+4 exist (j+4 <= nj) and each has k
            // elements in bt, so every load below is inside bt.
            let w0 = unsafe { _mm256_loadu_ps(b0.add(off)) };
            // SAFETY: as above.
            let w1 = unsafe { _mm256_loadu_ps(b1.add(off)) };
            // SAFETY: as above.
            let w2 = unsafe { _mm256_loadu_ps(b2.add(off)) };
            // SAFETY: as above.
            let w3 = unsafe { _mm256_loadu_ps(b3.add(off)) };
            v0 = _mm256_add_ps(v0, _mm256_mul_ps(va, w0));
            v1 = _mm256_add_ps(v1, _mm256_mul_ps(va, w1));
            v2 = _mm256_add_ps(v2, _mm256_mul_ps(va, w2));
            v3 = _mm256_add_ps(v3, _mm256_mul_ps(va, w3));
        }
        let tail_start = chunks * 8;
        // SAFETY: reduction + scalar tail reads stay inside a_row (len
        // k) and row j of bt as argued above.
        out[j] = unsafe { finish_avx2(v0, ap, b0, tail_start, k) };
        // SAFETY: as above, for row j+1.
        out[j + 1] = unsafe { finish_avx2(v1, ap, b1, tail_start, k) };
        // SAFETY: as above, for row j+2.
        out[j + 2] = unsafe { finish_avx2(v2, ap, b2, tail_start, k) };
        // SAFETY: as above, for row j+3.
        out[j + 3] = unsafe { finish_avx2(v3, ap, b3, tail_start, k) };
        j += 4;
    }
    while j < nj {
        // SAFETY: row j exists and has k elements; AVX2 is enabled in this
        // target_feature context.
        out[j] = unsafe { dot_avx2(a_row, std::slice::from_raw_parts(btp.add(j * k), k)) };
        j += 1;
    }
}

/// Reduces one accumulator vector in scalar tree order and adds the
/// scalar tail `sum(a[i]*b[i] for i in tail_start..k)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and ap/bp point to k readable f32s.
unsafe fn finish_avx2(
    vacc: std::arch::x86_64::__m256,
    ap: *const f32,
    bp: *const f32,
    tail_start: usize,
    k: usize,
) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(vacc);
    let hi = _mm256_extractf128_ps::<1>(vacc);
    let h = _mm_add_ps(lo, hi);
    let p = _mm_hadd_ps(h, h);
    let s = _mm_hadd_ps(p, p);
    let mut sum = _mm_cvtss_f32(s);
    let mut tail = 0.0f32;
    for i in tail_start..k {
        // SAFETY: caller guarantees ap and bp point to buffers with at
        // least k readable f32 elements.
        tail += unsafe { *ap.add(i) * *bp.add(i) };
    }
    sum += tail;
    sum
}

// ---------------------------------------------------------------------------
// axpy sweep: out[j] += a * row[j]  (matmul_tn inner loop)
// ---------------------------------------------------------------------------

/// `out[j] += a * row[j]` for all j. Each `out[j]` has an independent
/// chain across successive calls, so the vector arm is lanewise bitwise
/// equal to the scalar one (separate mul + add, no FMA).
#[inline]
pub fn axpy(a: f32, row: &[f32], out: &mut [f32]) {
    debug_assert_eq!(row.len(), out.len());
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { axpy_avx2(a, row, out) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => {
            // SAFETY: tier() returned Neon only after runtime detection.
            unsafe { axpy_neon(a, row, out) }
        }
        _ => axpy_scalar(a, row, out),
    }
}

/// Portable reference arm for [`axpy`].
pub fn axpy_scalar(a: f32, row: &[f32], out: &mut [f32]) {
    for (o, r) in out.iter_mut().zip(row) {
        *o += a * r;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (dispatch via tier()).
unsafe fn axpy_avx2(a: f32, row: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = row.len().min(out.len());
    let chunks = n / 8;
    let rp = row.as_ptr();
    let op = out.as_mut_ptr();
    let va = _mm256_set1_ps(a);
    for c in 0..chunks {
        let off = c * 8;
        // SAFETY: off + 7 < n <= lengths of row and out; loads/stores are
        // unaligned and fully in bounds; rp and op never alias (&/&mut).
        unsafe {
            let vr = _mm256_loadu_ps(rp.add(off));
            let vo = _mm256_loadu_ps(op.add(off));
            _mm256_storeu_ps(op.add(off), _mm256_add_ps(vo, _mm256_mul_ps(va, vr)));
        }
    }
    for i in chunks * 8..n {
        // SAFETY: i < n <= lengths of row and out.
        unsafe { *op.add(i) += a * *rp.add(i) };
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// SAFETY: caller must ensure NEON is available (dispatch via tier()).
unsafe fn axpy_neon(a: f32, row: &[f32], out: &mut [f32]) {
    use std::arch::aarch64::*;
    let n = row.len().min(out.len());
    let chunks = n / 4;
    let rp = row.as_ptr();
    let op = out.as_mut_ptr();
    let va = vdupq_n_f32(a);
    for c in 0..chunks {
        let off = c * 4;
        // SAFETY: off + 3 < n <= lengths of row and out; rp/op don't alias.
        unsafe {
            let vr = vld1q_f32(rp.add(off));
            let vo = vld1q_f32(op.add(off));
            vst1q_f32(op.add(off), vaddq_f32(vo, vmulq_f32(va, vr)));
        }
    }
    for i in chunks * 4..n {
        // SAFETY: i < n <= lengths of row and out.
        unsafe { *op.add(i) += a * *rp.add(i) };
    }
}

// ---------------------------------------------------------------------------
// Cosine similarity (GE scoring hot path).
// ---------------------------------------------------------------------------

/// Portable reference arm for [`cosine`]: three parallel 8-lane
/// accumulator sets (dot, |a|², |b|²) reduced in the fixed tree order,
/// then `dot / (sqrt(na)*sqrt(nb))` with a zero-denominator guard.
pub fn cosine_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut dacc = [0.0f32; 8];
    let mut aacc = [0.0f32; 8];
    let mut bacc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            dacc[l] += x[l] * y[l];
            aacc[l] += x[l] * x[l];
            bacc[l] += y[l] * y[l];
        }
    }
    let (mut dt, mut at, mut bt) = (0.0f32, 0.0f32, 0.0f32);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        dt += x * y;
        at += x * x;
        bt += y * y;
    }
    let dot = fold8(&dacc) + dt;
    let na = fold8(&aacc) + at;
    let nb = fold8(&bacc) + bt;
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

fn fold8(acc: &[f32; 8]) -> f32 {
    let half = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    (half[0] + half[1]) + (half[2] + half[3])
}

/// Cosine similarity on the dispatched arm; bitwise equal to
/// [`cosine_scalar`] on every arm.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { cosine_avx2(a, b) }
        }
        _ => cosine_scalar(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (dispatch via tier()).
unsafe fn cosine_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut vd = _mm256_setzero_ps();
    let mut vna = _mm256_setzero_ps();
    let mut vnb = _mm256_setzero_ps();
    for c in 0..chunks {
        // SAFETY: c*8 + 7 < n <= len of both slices.
        let vx = unsafe { _mm256_loadu_ps(ap.add(c * 8)) };
        // SAFETY: as above for b.
        let vy = unsafe { _mm256_loadu_ps(bp.add(c * 8)) };
        vd = _mm256_add_ps(vd, _mm256_mul_ps(vx, vy));
        vna = _mm256_add_ps(vna, _mm256_mul_ps(vx, vx));
        vnb = _mm256_add_ps(vnb, _mm256_mul_ps(vy, vy));
    }
    // Tail sums are accumulated separately and added once, matching the
    // scalar arm's `fold8(acc) + tail` order exactly.
    let (mut dt, mut at, mut bt) = (0.0f32, 0.0f32, 0.0f32);
    for i in chunks * 8..n {
        // SAFETY: i < n <= len of both slices.
        let (x, y) = unsafe { (*ap.add(i), *bp.add(i)) };
        dt += x * y;
        at += x * x;
        bt += y * y;
    }
    // SAFETY: pure register reduction, no memory access.
    let dot = unsafe { reduce8_avx2(vd) } + dt;
    // SAFETY: pure register reduction, no memory access.
    let na = unsafe { reduce8_avx2(vna) } + at;
    // SAFETY: pure register reduction, no memory access.
    let nb = unsafe { reduce8_avx2(vnb) } + bt;
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Scalar-tree-order horizontal reduction of one 8-lane accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available; pure register math.
unsafe fn reduce8_avx2(vacc: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(vacc);
    let hi = _mm256_extractf128_ps::<1>(vacc);
    let h = _mm_add_ps(lo, hi);
    let p = _mm_hadd_ps(h, h);
    let s = _mm_hadd_ps(p, p);
    _mm_cvtss_f32(s)
}

// ---------------------------------------------------------------------------
// tanh and GELU: fdlibm's tanhf/expm1f, so no result depends on the host libm.
// ---------------------------------------------------------------------------

/// `ln2` split so `k·LN2_HI` is exact for the `k` expm1f produces.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// fdlibm's scaled coefficients of the expm1f rational approximation.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Adds `k` to the binary exponent of `y` (fdlibm's `SET_FLOAT_WORD(y,
/// i + (k << 23))`); no caller can leave the normal range.
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// fdlibm `expm1f` over the arguments [`tanh_scalar`] passes it: `y =
/// 2|x| ∈ [2, 44)` or `y = −2|x| ∈ (−2, −2⁻⁵⁴]`. The port keeps only the
/// branches those arguments reach (no overflow, no `k = 1`, no
/// saturation to −1); every operation is a separately rounded f32 step in
/// the C source's order.
fn expm1_scalar(y: f32) -> f32 {
    let hy = y.to_bits() & 0x7fff_ffff;
    let neg = y.is_sign_negative();
    // Argument reduction: y = k·ln2 + r, r ∈ [−ln2/2, ln2/2], with `c`
    // the rounding error of `r = hi − lo`.
    let (k, r, c) = if hy > 0x3eb1_7218 {
        // |y| > ln2/2
        let (k, hi, lo) = if hy < 0x3f85_1592 {
            // |y| < 3·ln2/2, and tanhf only passes negative y here.
            (-1, y + LN2_HI, -LN2_LO)
        } else {
            let k = (INV_LN2 * y + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (k, y - t * LN2_HI, t * LN2_LO)
        };
        let r = hi - lo;
        (k, r, (hi - r) - lo)
    } else if hy < 0x3300_0000 {
        // |y| < 2⁻²⁵: expm1(y) rounds to y.
        return y;
    } else {
        (0, y, 0.0)
    };
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    if k == 0 {
        return r - (r * e - hxs);
    }
    let e = (r * (e - c) - c) - hxs;
    if k == -1 {
        0.5 * (r - e) - 0.5
    } else if k <= -2 || k > 56 {
        add_exponent(1.0 - (e - r), k) - 1.0
    } else if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        add_exponent(t - (e - r), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
        add_exponent(r - (e + t) + 1.0, k)
    }
}

/// Scalar port of fdlibm's `tanhf` (glibc's `sysdeps/ieee754/flt-32`
/// implementation): on a glibc host it returns `f32::tanh`'s bits for
/// every input, which an exhaustive 2³² comparison checks.
pub fn tanh_scalar(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let positive = jx & 0x8000_0000 == 0;
    if ix >= 0x7f80_0000 {
        // ±inf → ±1, NaN → NaN.
        return if positive { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2⁻⁵⁵
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| ≥ 1
            let t = expm1_scalar(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1_scalar(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| ≥ 22: fdlibm's `one − tiny` rounds to 1.
        1.0
    };
    if positive {
        z
    } else {
        -z
    }
}

/// `tanh` of every element of `xs` into `out` on the dispatched arm;
/// bitwise equal to [`tanh_scalar`] on every arm.
pub fn tanh_into(xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "tanh_into length mismatch");
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { tanh_into_avx2(xs, out) }
        }
        _ => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = tanh_scalar(x);
            }
        }
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// GELU (tanh approximation, as in BERT) of one element:
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_scalar(GELU_C * (x + GELU_A * x * x * x)))
}

/// d GELU / dx at `x`, scaled by the upstream gradient `g`.
pub fn gelu_grad_scalar(x: f32, g: f32) -> f32 {
    let t = tanh_scalar(GELU_C * (x + GELU_A * x * x * x));
    g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x))
}

/// GELU of every element of `xs` into `out`; bitwise equal to
/// [`gelu_scalar`] on every arm.
pub fn gelu_into(xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "gelu_into length mismatch");
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { gelu_into_avx2(xs, out) }
        }
        _ => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = gelu_scalar(x);
            }
        }
    }
}

/// GELU's backward: `out[i] = grads[i] · gelu'(xs[i])`; bitwise equal to
/// [`gelu_grad_scalar`] on every arm.
pub fn gelu_grad_into(xs: &[f32], grads: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "gelu_grad_into length mismatch");
    assert_eq!(grads.len(), out.len(), "gelu_grad_into length mismatch");
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            // SAFETY: tier() returned Avx2 only after runtime detection.
            unsafe { gelu_grad_into_avx2(xs, grads, out) }
        }
        _ => {
            for ((o, &x), &g) in out.iter_mut().zip(xs).zip(grads) {
                *o = gelu_grad_scalar(x, g);
            }
        }
    }
}

/// Eight lanes of [`expm1_scalar`]: every branch is evaluated on all
/// lanes with the scalar port's operations (separate mul + add, never
/// FMA) and each lane keeps the result of the branch its own `k` selects.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available; pure register math.
unsafe fn expm1_avx2(y: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let half = _mm256_set1_ps(0.5);
    let sign = _mm256_set1_ps(-0.0);
    let hy = _mm256_castps_si256(_mm256_andnot_ps(sign, y));
    let reduce = _mm256_cmpgt_epi32(hy, _mm256_set1_epi32(0x3eb1_7218));
    let near = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f85_1592), hy);
    let near_ps = _mm256_castsi256_ps(near);
    let tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3300_0000), hy);
    // General reduction: k = trunc(y/ln2 ± 0.5), the sign taken from y.
    let bias = _mm256_blendv_ps(half, _mm256_set1_ps(-0.5), y);
    let kg = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(INV_LN2), y), bias));
    let tg = _mm256_cvtepi32_ps(kg);
    let hi_g = _mm256_sub_ps(y, _mm256_mul_ps(tg, _mm256_set1_ps(LN2_HI)));
    let lo_g = _mm256_mul_ps(tg, _mm256_set1_ps(LN2_LO));
    // |y| < 3·ln2/2: k = −1.
    let hi = _mm256_blendv_ps(hi_g, _mm256_add_ps(y, _mm256_set1_ps(LN2_HI)), near_ps);
    let lo = _mm256_blendv_ps(lo_g, _mm256_set1_ps(-LN2_LO), near_ps);
    let k = _mm256_blendv_epi8(kg, _mm256_set1_epi32(-1), near);
    let rr = _mm256_sub_ps(hi, lo);
    let cr = _mm256_sub_ps(_mm256_sub_ps(hi, rr), lo);
    // |y| ≤ ln2/2: k = 0, r = y.
    let k = _mm256_and_si256(k, reduce);
    let r = _mm256_blendv_ps(y, rr, _mm256_castsi256_ps(reduce));
    let c = _mm256_and_ps(cr, _mm256_castsi256_ps(reduce));

    let hfx = _mm256_mul_ps(half, r);
    let hxs = _mm256_mul_ps(r, hfx);
    let mut p = _mm256_mul_ps(hxs, _mm256_set1_ps(Q5));
    p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(Q4), p));
    p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(Q3), p));
    p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(Q2), p));
    p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(Q1), p));
    let r1 = _mm256_add_ps(one, p);
    let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(r, t)),
        ),
    );
    let out_k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
    let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
    let out_m1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
    let kexp = _mm256_slli_epi32::<23>(k);
    let add_exp = |v: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(v), kexp));
    let e_minus_r = _mm256_sub_ps(e, r);
    let out_far = _mm256_sub_ps(add_exp(_mm256_sub_ps(one, e_minus_r)), one);
    let t_lt23 = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f80_0000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
    ));
    let out_lt23 = add_exp(_mm256_sub_ps(t_lt23, e_minus_r));
    let t_ge23 =
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k)));
    let out_ge23 = add_exp(_mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, t_ge23)), one));

    // Select per lane in the scalar port's branch order, last wins.
    let is = |m: __m256i| _mm256_castsi256_ps(m);
    let k_lt23 = _mm256_cmpgt_epi32(_mm256_set1_epi32(23), k);
    let k_far = _mm256_or_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
        _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
    );
    let mut out = _mm256_blendv_ps(out_ge23, out_lt23, is(k_lt23));
    out = _mm256_blendv_ps(out, out_far, is(k_far));
    out = _mm256_blendv_ps(out, out_m1, is(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))));
    out = _mm256_blendv_ps(out, out_k0, is(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())));
    _mm256_blendv_ps(out, y, is(tiny))
}

/// Eight lanes of [`tanh_scalar`], branch-free like [`expm1_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available; pure register math.
unsafe fn tanh_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
    let sign = _mm256_set1_ps(-0.0);
    let ax = _mm256_andnot_ps(sign, x);
    let xsign = _mm256_and_ps(sign, x);
    let ix = _mm256_castps_si256(ax);
    let big = _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7f_ffff)));
    // y = 2|x| for |x| ≥ 1, −2|x| below (both exact).
    let y2 = _mm256_mul_ps(two, ax);
    let y = _mm256_blendv_ps(_mm256_or_ps(y2, sign), y2, big);
    // SAFETY: AVX2 is enabled in this target_feature context.
    let t = unsafe { expm1_avx2(y) };
    // One division serves both branches: 1 − 2/(t+2) and −t/(t+2).
    let num = _mm256_blendv_ps(_mm256_xor_ps(t, sign), two, big);
    let q = _mm256_div_ps(num, _mm256_add_ps(t, two));
    let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), big);
    let z = _mm256_blendv_ps(
        z,
        one,
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41af_ffff))),
    );
    let mut out = _mm256_xor_ps(z, xsign);
    // |x| < 2⁻⁵⁵ (±0 included): x·(1 + x).
    let small = _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(0x2400_0000), ix));
    out = _mm256_blendv_ps(out, _mm256_mul_ps(x, _mm256_add_ps(one, x)), small);
    // ±inf and NaN: 1/x ± 1, only paid for when a lane needs it.
    let special = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f7f_ffff));
    if _mm256_movemask_ps(_mm256_castsi256_ps(special)) != 0 {
        let inv = _mm256_div_ps(one, x);
        let inf = _mm256_blendv_ps(_mm256_add_ps(inv, one), _mm256_sub_ps(inv, one), xsign);
        out = _mm256_blendv_ps(out, inf, _mm256_castsi256_ps(special));
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and xs.len() == out.len().
unsafe fn tanh_into_avx2(xs: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len().min(out.len());
    let chunks = n / 8;
    let (xp, op) = (xs.as_ptr(), out.as_mut_ptr());
    for c in 0..chunks {
        let off = c * 8;
        // SAFETY: off + 7 < n <= both lengths; unaligned loads/stores in
        // bounds, and xs/out never alias (&/&mut).
        unsafe { _mm256_storeu_ps(op.add(off), tanh_avx2(_mm256_loadu_ps(xp.add(off)))) };
    }
    for i in chunks * 8..n {
        out[i] = tanh_scalar(xs[i]);
    }
}

/// `u = √(2/π)·(x + 0.044715·x³)` in [`gelu_scalar`]'s operation order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available; pure register math.
unsafe fn gelu_arg_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_A), x), x), x);
    _mm256_mul_ps(_mm256_set1_ps(GELU_C), _mm256_add_ps(x, cube))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and xs.len() == out.len().
unsafe fn gelu_into_avx2(xs: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len().min(out.len());
    let chunks = n / 8;
    let (xp, op) = (xs.as_ptr(), out.as_mut_ptr());
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    for c in 0..chunks {
        let off = c * 8;
        // SAFETY: off + 7 < n <= xs.len(); unaligned in-bounds load.
        let x = unsafe { _mm256_loadu_ps(xp.add(off)) };
        // SAFETY: AVX2 is enabled in this target_feature context.
        let t = unsafe { tanh_avx2(gelu_arg_avx2(x)) };
        let y = _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, t));
        // SAFETY: off + 7 < n <= out.len(); out does not alias xs.
        unsafe { _mm256_storeu_ps(op.add(off), y) };
    }
    for i in chunks * 8..n {
        out[i] = gelu_scalar(xs[i]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available and all three slices share one length.
unsafe fn gelu_grad_into_avx2(xs: &[f32], grads: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len().min(grads.len()).min(out.len());
    let chunks = n / 8;
    let (xp, gp, op) = (xs.as_ptr(), grads.as_ptr(), out.as_mut_ptr());
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let c3a = _mm256_set1_ps(3.0 * GELU_A);
    for c in 0..chunks {
        let off = c * 8;
        // SAFETY: off + 7 < n <= every slice's length; in-bounds loads.
        let (x, g) = unsafe { (_mm256_loadu_ps(xp.add(off)), _mm256_loadu_ps(gp.add(off))) };
        // SAFETY: AVX2 is enabled in this target_feature context.
        let t = unsafe { tanh_avx2(gelu_arg_avx2(x)) };
        let left = _mm256_mul_ps(half, _mm256_add_ps(one, t));
        let mut right =
            _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_sub_ps(one, _mm256_mul_ps(t, t)));
        right = _mm256_mul_ps(right, _mm256_set1_ps(GELU_C));
        right = _mm256_mul_ps(right, _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(c3a, x), x)));
        let y = _mm256_mul_ps(g, _mm256_add_ps(left, right));
        // SAFETY: off + 7 < n <= out.len(); out aliases neither input.
        unsafe { _mm256_storeu_ps(op.add(off), y) };
    }
    for i in chunks * 8..n {
        out[i] = gelu_grad_scalar(xs[i], grads[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.21).collect();
        (a, b)
    }

    #[test]
    fn dispatched_dot_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 64, 97] {
            let (a, b) = vecs(n);
            assert_eq!(dot(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn dispatched_cosine_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 13, 32, 100] {
            let (a, b) = vecs(n);
            assert_eq!(cosine(&a, &b).to_bits(), cosine_scalar(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn dispatched_axpy_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 33] {
            let (r, _) = vecs(n);
            let mut o1 = vec![0.5f32; n];
            let mut o2 = o1.clone();
            axpy(1.7, &r, &mut o1);
            axpy_scalar(1.7, &r, &mut o2);
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn row_times_rows_matches_scalar_bitwise() {
        for (k, nj) in [(1, 1), (7, 3), (8, 4), (13, 5), (32, 9), (67, 11)] {
            let (a, _) = vecs(k);
            let bt: Vec<f32> = (0..k * nj).map(|i| ((i * 41 % 29) as f32 - 14.0) * 0.13).collect();
            let mut out = vec![0.0f32; nj];
            row_times_rows(&a, &bt, k, &mut out);
            for j in 0..nj {
                let want = dot_scalar(&a, &bt[j * k..j * k + k]);
                assert_eq!(out[j].to_bits(), want.to_bits(), "k={k} j={j}");
            }
        }
    }
}
