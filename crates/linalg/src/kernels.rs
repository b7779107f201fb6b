//! Runtime-dispatched SIMD distance kernels.
//!
//! Every query this system answers bottoms out in a handful of inner loops:
//! the plaintext `dot`/`squared_euclidean` pair driving HNSW, the fused DCE
//! comparison `(o1∘p3 − o2∘p4)·t` driving the refine phase, and the AME
//! bilinear form `aᵀ·W·b`. This module provides one [`Kernels`] table per
//! implementation — the portable scalar loops (the *parity oracle*, retained
//! verbatim from the pre-SIMD code), AVX2+FMA on `x86_64`, NEON on
//! `aarch64` — and resolves which table to use **once** per process via
//! CPUID feature detection into a [`OnceLock`], never per call.
//!
//! ## Batched variants
//!
//! On top of the single-pair kernels, each table carries batched variants
//! ([`Kernels::squared_euclidean_many`], [`Kernels::dce_comp_many`]) that
//! score one query (or one trapdoor) against N candidates in a single call.
//! Batching wins twice: the query stays resident in registers across
//! candidates (row-blocked inner loops share every query load), and the
//! per-call dispatch/reduction overhead is amortized. Batched results are
//! **bit-identical** to N single-pair calls of the same table — the row
//! blocks keep each row's accumulator structure unchanged — which the
//! proptest parity suite pins down.
//!
//! ## Numeric exactness (DESIGN.md §6)
//!
//! SIMD kernels are *not* bit-identical to the scalar oracle: they use wider
//! accumulator fans (and FMA, which rounds once per multiply-add) than the
//! scalar loops, so sums are reassociated. The divergence is bounded by
//! ordinary summation-error analysis — `|simd − scalar| ≤ c·n·ε·Σ|termᵢ|`
//! for a small constant `c` — i.e. a few ULPs of the condition-scaled
//! result. The parity proptests enforce exactly that bound; DESIGN.md §6
//! discusses what it means for Theorem 3 sign decisions near zero. Within
//! one process the dispatch is fixed, so every result remains deterministic
//! and all same-process parity contracts (remote-vs-local bit equality,
//! dirty-vs-fresh scratch) are unaffected.
//!
//! ## Escape hatch
//!
//! Setting `PPANN_FORCE_SCALAR=1` in the environment pins the process to
//! the scalar oracle regardless of what the CPU supports — CI runs the
//! whole test suite both ways.

use std::sync::OnceLock;

/// Signature of the fused DCE comparison kernel: `(o1, o2, p3, p4, t)`,
/// all slices of one length, returning the blinded difference `Z`.
pub type DceCompFn = fn(&[f64], &[f64], &[f64], &[f64], &[f64]) -> f64;

/// Signature of the batched DCE comparison kernel:
/// `(o1, o2, incumbent (p3ᵢ, p4ᵢ) pairs, t, out)`.
pub type DceCompManyFn = fn(&[f64], &[f64], &[(&[f64], &[f64])], &[f64], &mut [f64]);

/// A complete set of distance kernels, resolved once at startup.
///
/// All function pointers share the slice-level calling convention of
/// [`crate::vector`]; dimension agreement is the caller's contract
/// (checked by the public wrappers, `debug_assert`ed here).
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Implementation name as it appears in bench JSON: `"scalar"`,
    /// `"avx2"` or `"neon"`.
    pub name: &'static str,
    /// Inner product `a · b`.
    pub dot: fn(&[f64], &[f64]) -> f64,
    /// Squared Euclidean distance `‖a − b‖²`.
    pub squared_euclidean: fn(&[f64], &[f64]) -> f64,
    /// Squared L2 norm `‖a‖²`.
    pub norm_sq: fn(&[f64]) -> f64,
    /// Batched `‖q − rowᵢ‖²` for every row, written into `out`
    /// (`out.len() == rows.len()`). Bit-identical to N single-pair calls
    /// of [`Self::squared_euclidean`].
    pub squared_euclidean_many: fn(&[f64], &[&[f64]], &mut [f64]),
    /// The fused DCE comparison `(o1∘p3 − o2∘p4)·t` (paper §IV-B):
    /// arguments `(o1, o2, p3, p4, t)`, all of one length.
    pub dce_comp: DceCompFn,
    /// Batched DCE comparison: one challenger `(o1, o2)` and one trapdoor
    /// `t` against N incumbent pairs `(p3ᵢ, p4ᵢ)`, written into `out`.
    /// Bit-identical to N single calls of [`Self::dce_comp`].
    pub dce_comp_many: DceCompManyFn,
    /// The AME bilinear form `aᵀ·W·b` for a row-major `a.len() × cols`
    /// matrix `w` (no `W·b` temporary): arguments `(a, w, cols, b)`.
    pub mat_vec_dot: fn(&[f64], &[f64], usize, &[f64]) -> f64,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels").field("name", &self.name).finish_non_exhaustive()
    }
}

/// The scalar parity oracle (the pre-SIMD loops, verbatim).
static SCALAR: Kernels = Kernels {
    name: "scalar",
    dot: scalar::dot,
    squared_euclidean: scalar::squared_euclidean,
    norm_sq: scalar::norm_sq,
    squared_euclidean_many: scalar::squared_euclidean_many,
    dce_comp: scalar::dce_comp,
    dce_comp_many: scalar::dce_comp_many,
    mat_vec_dot: scalar::mat_vec_dot,
};

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// The table the process dispatches through: the best SIMD implementation
/// the CPU supports, unless `PPANN_FORCE_SCALAR` pins the scalar oracle.
/// Resolved on first call, constant thereafter.
#[inline]
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| choose(force_scalar_requested()))
}

/// Whether the environment pins the scalar oracle (`PPANN_FORCE_SCALAR`
/// set to anything but `0` or empty).
pub fn force_scalar_requested() -> bool {
    std::env::var_os("PPANN_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Pure selection policy, separated from the [`OnceLock`] so tests can
/// exercise both branches in one process.
fn choose(force_scalar: bool) -> &'static Kernels {
    if force_scalar {
        return &SCALAR;
    }
    simd().unwrap_or(&SCALAR)
}

/// The scalar parity oracle, always available.
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// The SIMD table this CPU supports, if any (AVX2+FMA on `x86_64`, NEON on
/// `aarch64`).
pub fn simd() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Some(&avx2::KERNELS);
        }
        None
    }
    #[cfg(target_arch = "aarch64")]
    {
        Some(&neon::KERNELS)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// Every table runnable on this host — the scalar oracle plus the SIMD
/// table when detected. Parity tests iterate this.
pub fn all() -> Vec<&'static Kernels> {
    let mut v = vec![scalar()];
    v.extend(simd());
    v
}

/// Asks the CPU to start pulling every cache line of `data` toward L1, so
/// a graph walk can overlap the memory latency of the rows it reads next
/// with the distance work it is doing now.
///
/// Only a hint: a prefetch reads nothing the program can observe, so it
/// can never change a result. It does nothing off `x86_64`.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let per_line = (LINE / std::mem::size_of::<T>().max(1)).max(1);
        // One address per 64-byte step from the slice start, plus the last
        // element: together they touch every line an unaligned slice spans.
        let line_starts = data.chunks(per_line).map(<[T]>::as_ptr);
        for addr in line_starts.chain(data.last().map(std::ptr::from_ref)) {
            // SAFETY: `prefetch` never faults and has no architectural
            // effect, whatever the address; SSE is part of the x86_64
            // baseline. Each address is the start of a subslice or an
            // element of `data`, so none points past its end anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(addr.cast::<i8>()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// The scalar parity oracle. The four hot loops are the pre-SIMD
/// implementations moved here verbatim; `squared_euclidean_many` adds a
/// two-row interleave that keeps each row's accumulation order identical
/// to the single-pair loop (so batched == single bitwise).
pub(crate) mod scalar {
    /// Inner product with four independent accumulators (lets LLVM keep the
    /// loop vectorized even though floating point addition is not
    /// associative).
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
        let chunks = a.len() / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..chunks {
            let j = i * 4;
            s0 += a[j] * b[j];
            s1 += a[j + 1] * b[j + 1];
            s2 += a[j + 2] * b[j + 2];
            s3 += a[j + 3] * b[j + 3];
        }
        let mut tail = 0.0;
        for j in chunks * 4..a.len() {
            tail += a[j] * b[j];
        }
        s0 + s1 + s2 + s3 + tail
    }

    /// Squared Euclidean distance, 4-way unrolled like [`dot`].
    pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "squared_euclidean: dimension mismatch");
        let chunks = a.len() / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..chunks {
            let j = i * 4;
            let d0 = a[j] - b[j];
            let d1 = a[j + 1] - b[j + 1];
            let d2 = a[j + 2] - b[j + 2];
            let d3 = a[j + 3] - b[j + 3];
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
        let mut tail = 0.0;
        for j in chunks * 4..a.len() {
            let d = a[j] - b[j];
            tail += d * d;
        }
        s0 + s1 + s2 + s3 + tail
    }

    /// `‖a‖² = a · a`.
    pub fn norm_sq(a: &[f64]) -> f64 {
        dot(a, a)
    }

    /// Batched distances: rows are consumed in pairs so the query slice is
    /// walked once per two candidates. Each row keeps its own `s0..s3`
    /// chains, so per-row results are bit-identical to
    /// [`squared_euclidean`].
    pub fn squared_euclidean_many(q: &[f64], rows: &[&[f64]], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len(), "squared_euclidean_many: out length mismatch");
        let mut r = 0;
        while r + 1 < rows.len() {
            let (a, b) = (rows[r], rows[r + 1]);
            debug_assert!(a.len() == q.len() && b.len() == q.len());
            let chunks = q.len() / 4;
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            let (mut b0, mut b1, mut b2, mut b3) = (0.0, 0.0, 0.0, 0.0);
            for i in 0..chunks {
                let j = i * 4;
                let (q0, q1, q2, q3) = (q[j], q[j + 1], q[j + 2], q[j + 3]);
                let (da0, da1, da2, da3) = (q0 - a[j], q1 - a[j + 1], q2 - a[j + 2], q3 - a[j + 3]);
                a0 += da0 * da0;
                a1 += da1 * da1;
                a2 += da2 * da2;
                a3 += da3 * da3;
                let (db0, db1, db2, db3) = (q0 - b[j], q1 - b[j + 1], q2 - b[j + 2], q3 - b[j + 3]);
                b0 += db0 * db0;
                b1 += db1 * db1;
                b2 += db2 * db2;
                b3 += db3 * db3;
            }
            let (mut ta, mut tb) = (0.0, 0.0);
            for j in chunks * 4..q.len() {
                let da = q[j] - a[j];
                ta += da * da;
                let db = q[j] - b[j];
                tb += db * db;
            }
            out[r] = a0 + a1 + a2 + a3 + ta;
            out[r + 1] = b0 + b1 + b2 + b3 + tb;
            r += 2;
        }
        if r < rows.len() {
            out[r] = squared_euclidean(q, rows[r]);
        }
    }

    /// The fused DCE pass `(o1∘p3 − o2∘p4)·t`, two-way unrolled (verbatim
    /// from `ppann-dce`'s pre-SIMD `distance_comp`).
    pub fn dce_comp(o1: &[f64], o2: &[f64], p3: &[f64], p4: &[f64], t: &[f64]) -> f64 {
        let n = t.len();
        debug_assert!(o1.len() == n && o2.len() == n && p3.len() == n && p4.len() == n);
        let mut acc0 = 0.0;
        let mut acc1 = 0.0;
        let mut i = 0;
        while i + 1 < n {
            acc0 += (o1[i] * p3[i] - o2[i] * p4[i]) * t[i];
            acc1 += (o1[i + 1] * p3[i + 1] - o2[i + 1] * p4[i + 1]) * t[i + 1];
            i += 2;
        }
        if i < n {
            acc0 += (o1[i] * p3[i] - o2[i] * p4[i]) * t[i];
        }
        acc0 + acc1
    }

    /// Batched DCE comparisons: one `(o1, o2, t)` load against N `(p3, p4)`
    /// pairs. The challenger and trapdoor stay cache-hot across the batch.
    pub fn dce_comp_many(
        o1: &[f64],
        o2: &[f64],
        pairs: &[(&[f64], &[f64])],
        t: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(pairs.len(), out.len(), "dce_comp_many: out length mismatch");
        for (z, &(p3, p4)) in out.iter_mut().zip(pairs) {
            *z = dce_comp(o1, o2, p3, p4, t);
        }
    }

    /// `aᵀ·W·b` without materializing `W·b`: one [`dot`] per matrix row,
    /// accumulated in row order.
    pub fn mat_vec_dot(a: &[f64], w: &[f64], cols: usize, b: &[f64]) -> f64 {
        debug_assert_eq!(w.len(), a.len() * cols, "mat_vec_dot: matrix shape mismatch");
        debug_assert_eq!(b.len(), cols, "mat_vec_dot: dimension mismatch");
        let mut z = 0.0;
        for (i, ai) in a.iter().enumerate() {
            z += ai * dot(&w[i * cols..(i + 1) * cols], b);
        }
        z
    }
}

/// AVX2 + FMA kernels (`x86_64`). Strategy per kernel:
///
/// * `dot`/`squared_euclidean`/`norm_sq`: four 256-bit FMA accumulators
///   (16 f64 lanes in flight) break the add-latency chain that bounds the
///   scalar loop; reduction reassociates, bounded per the module docs.
/// * `squared_euclidean_many`: rows in pairs, each with the same four
///   accumulators as the single-pair kernel (bit-identical per row) while
///   every query load is shared between the two rows.
/// * `dce_comp`: two 256-bit accumulators over the fused
///   `fnmadd(o2, p4, o1·p3)·t` pass.
/// * `mat_vec_dot`: scalar row loop over the SIMD `dot`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    pub(super) static KERNELS: super::Kernels = super::Kernels {
        name: "avx2",
        dot,
        squared_euclidean,
        norm_sq,
        squared_euclidean_many,
        dce_comp,
        dce_comp_many,
        mat_vec_dot,
    };

    // Safe entry points: `KERNELS` is only ever selected after runtime
    // detection of AVX2 and FMA (see `super::simd`), so the target-feature
    // contract of the inner functions holds whenever these are reachable
    // through the dispatch table.

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
        // SAFETY: table selected only when AVX2+FMA are detected.
        unsafe { dot_impl(a, b) }
    }

    fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "squared_euclidean: dimension mismatch");
        // SAFETY: table selected only when AVX2+FMA are detected.
        unsafe { sqeuc_impl(a, b) }
    }

    fn norm_sq(a: &[f64]) -> f64 {
        // SAFETY: table selected only when AVX2+FMA are detected.
        unsafe { dot_impl(a, a) }
    }

    fn squared_euclidean_many(q: &[f64], rows: &[&[f64]], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len(), "squared_euclidean_many: out length mismatch");
        // SAFETY: table selected only when AVX2+FMA are detected.
        unsafe { sqeuc_many_impl(q, rows, out) }
    }

    fn dce_comp(o1: &[f64], o2: &[f64], p3: &[f64], p4: &[f64], t: &[f64]) -> f64 {
        let n = t.len();
        debug_assert!(o1.len() == n && o2.len() == n && p3.len() == n && p4.len() == n);
        // SAFETY: table selected only when AVX2+FMA are detected.
        unsafe { dce_comp_impl(o1, o2, p3, p4, t) }
    }

    fn dce_comp_many(
        o1: &[f64],
        o2: &[f64],
        pairs: &[(&[f64], &[f64])],
        t: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(pairs.len(), out.len(), "dce_comp_many: out length mismatch");
        // SAFETY: table selected only when AVX2+FMA are detected.
        unsafe { dce_comp_many_impl(o1, o2, pairs, t, out) }
    }

    fn mat_vec_dot(a: &[f64], w: &[f64], cols: usize, b: &[f64]) -> f64 {
        debug_assert_eq!(w.len(), a.len() * cols, "mat_vec_dot: matrix shape mismatch");
        debug_assert_eq!(b.len(), cols, "mat_vec_dot: dimension mismatch");
        // SAFETY: table selected only when AVX2+FMA are detected.
        unsafe { mat_vec_dot_impl(a, w, cols, b) }
    }

    /// Reduces four lanes pairwise (`(l0+l1) + (l2+l3)`) — one fixed order
    /// so results are deterministic per process, chosen to match the lane
    /// order [`hsum2`] produces for two vectors at once.
    #[inline(always)]
    unsafe fn hsum(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// Reduces two accumulator vectors with shared shuffles:
    /// `((a0+a1) + (a2+a3), (b0+b1) + (b2+b3))` — bit-identical to
    /// [`hsum`] on each input, at roughly the cost of one.
    #[inline(always)]
    unsafe fn hsum2(a: __m256d, b: __m256d) -> (f64, f64) {
        // hadd: [a0+a1, b0+b1, a2+a3, b2+b3]
        let pairs = _mm256_hadd_pd(a, b);
        let hi = _mm256_extractf128_pd(pairs, 1);
        let sums = _mm_add_pd(_mm256_castpd256_pd128(pairs), hi);
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), sums);
        (out[0], out[1])
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_impl(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut j = 0;
        while j + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(j)), _mm256_loadu_pd(pb.add(j)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(j + 4)),
                _mm256_loadu_pd(pb.add(j + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(j + 8)),
                _mm256_loadu_pd(pb.add(j + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(j + 12)),
                _mm256_loadu_pd(pb.add(j + 12)),
                acc3,
            );
            j += 16;
        }
        while j + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(j)), _mm256_loadu_pd(pb.add(j)), acc0);
            j += 4;
        }
        let mut tail = 0.0;
        while j < n {
            tail += a[j] * b[j];
            j += 1;
        }
        hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3))) + tail
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sqeuc_impl(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut j = 0;
        while j + 16 <= n {
            let d0 = _mm256_sub_pd(_mm256_loadu_pd(pa.add(j)), _mm256_loadu_pd(pb.add(j)));
            let d1 = _mm256_sub_pd(_mm256_loadu_pd(pa.add(j + 4)), _mm256_loadu_pd(pb.add(j + 4)));
            let d2 = _mm256_sub_pd(_mm256_loadu_pd(pa.add(j + 8)), _mm256_loadu_pd(pb.add(j + 8)));
            let d3 =
                _mm256_sub_pd(_mm256_loadu_pd(pa.add(j + 12)), _mm256_loadu_pd(pb.add(j + 12)));
            acc0 = _mm256_fmadd_pd(d0, d0, acc0);
            acc1 = _mm256_fmadd_pd(d1, d1, acc1);
            acc2 = _mm256_fmadd_pd(d2, d2, acc2);
            acc3 = _mm256_fmadd_pd(d3, d3, acc3);
            j += 16;
        }
        while j + 4 <= n {
            let d = _mm256_sub_pd(_mm256_loadu_pd(pa.add(j)), _mm256_loadu_pd(pb.add(j)));
            acc0 = _mm256_fmadd_pd(d, d, acc0);
            j += 4;
        }
        let mut tail = 0.0;
        while j < n {
            let d = a[j] - b[j];
            tail += d * d;
            j += 1;
        }
        hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3))) + tail
    }

    /// Two rows per pass: every query load feeds both rows' accumulators,
    /// and each row runs the exact accumulator structure of [`sqeuc_impl`]
    /// so per-row results stay bit-identical to the single-pair kernel.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sqeuc_many_impl(q: &[f64], rows: &[&[f64]], out: &mut [f64]) {
        let n = q.len();
        let pq = q.as_ptr();
        let mut r = 0;
        while r + 1 < rows.len() {
            let (a, b) = (rows[r], rows[r + 1]);
            debug_assert!(a.len() == n && b.len() == n);
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            let mut b0 = _mm256_setzero_pd();
            let mut b1 = _mm256_setzero_pd();
            let mut b2 = _mm256_setzero_pd();
            let mut b3 = _mm256_setzero_pd();
            let mut j = 0;
            while j + 16 <= n {
                let q0 = _mm256_loadu_pd(pq.add(j));
                let q1 = _mm256_loadu_pd(pq.add(j + 4));
                let q2 = _mm256_loadu_pd(pq.add(j + 8));
                let q3 = _mm256_loadu_pd(pq.add(j + 12));
                let da0 = _mm256_sub_pd(q0, _mm256_loadu_pd(pa.add(j)));
                let da1 = _mm256_sub_pd(q1, _mm256_loadu_pd(pa.add(j + 4)));
                let da2 = _mm256_sub_pd(q2, _mm256_loadu_pd(pa.add(j + 8)));
                let da3 = _mm256_sub_pd(q3, _mm256_loadu_pd(pa.add(j + 12)));
                a0 = _mm256_fmadd_pd(da0, da0, a0);
                a1 = _mm256_fmadd_pd(da1, da1, a1);
                a2 = _mm256_fmadd_pd(da2, da2, a2);
                a3 = _mm256_fmadd_pd(da3, da3, a3);
                let db0 = _mm256_sub_pd(q0, _mm256_loadu_pd(pb.add(j)));
                let db1 = _mm256_sub_pd(q1, _mm256_loadu_pd(pb.add(j + 4)));
                let db2 = _mm256_sub_pd(q2, _mm256_loadu_pd(pb.add(j + 8)));
                let db3 = _mm256_sub_pd(q3, _mm256_loadu_pd(pb.add(j + 12)));
                b0 = _mm256_fmadd_pd(db0, db0, b0);
                b1 = _mm256_fmadd_pd(db1, db1, b1);
                b2 = _mm256_fmadd_pd(db2, db2, b2);
                b3 = _mm256_fmadd_pd(db3, db3, b3);
                j += 16;
            }
            while j + 4 <= n {
                let qv = _mm256_loadu_pd(pq.add(j));
                let da = _mm256_sub_pd(qv, _mm256_loadu_pd(pa.add(j)));
                a0 = _mm256_fmadd_pd(da, da, a0);
                let db = _mm256_sub_pd(qv, _mm256_loadu_pd(pb.add(j)));
                b0 = _mm256_fmadd_pd(db, db, b0);
                j += 4;
            }
            let (mut ta, mut tb) = (0.0, 0.0);
            while j < n {
                let da = q[j] - a[j];
                ta += da * da;
                let db = q[j] - b[j];
                tb += db * db;
                j += 1;
            }
            let (sa, sb) = hsum2(
                _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)),
                _mm256_add_pd(_mm256_add_pd(b0, b1), _mm256_add_pd(b2, b3)),
            );
            out[r] = sa + ta;
            out[r + 1] = sb + tb;
            r += 2;
        }
        if r < rows.len() {
            out[r] = sqeuc_impl(q, rows[r]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dce_comp_impl(o1: &[f64], o2: &[f64], p3: &[f64], p4: &[f64], t: &[f64]) -> f64 {
        let n = t.len();
        let (po1, po2, pp3, pp4, pt) =
            (o1.as_ptr(), o2.as_ptr(), p3.as_ptr(), p4.as_ptr(), t.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut j = 0;
        while j + 8 <= n {
            // (o1·p3 − o2·p4) with one rounding for the subtraction via FNMADD.
            let m0 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(po2.add(j)),
                _mm256_loadu_pd(pp4.add(j)),
                _mm256_mul_pd(_mm256_loadu_pd(po1.add(j)), _mm256_loadu_pd(pp3.add(j))),
            );
            acc0 = _mm256_fmadd_pd(m0, _mm256_loadu_pd(pt.add(j)), acc0);
            let m1 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(po2.add(j + 4)),
                _mm256_loadu_pd(pp4.add(j + 4)),
                _mm256_mul_pd(_mm256_loadu_pd(po1.add(j + 4)), _mm256_loadu_pd(pp3.add(j + 4))),
            );
            acc1 = _mm256_fmadd_pd(m1, _mm256_loadu_pd(pt.add(j + 4)), acc1);
            j += 8;
        }
        while j + 4 <= n {
            let m = _mm256_fnmadd_pd(
                _mm256_loadu_pd(po2.add(j)),
                _mm256_loadu_pd(pp4.add(j)),
                _mm256_mul_pd(_mm256_loadu_pd(po1.add(j)), _mm256_loadu_pd(pp3.add(j))),
            );
            acc0 = _mm256_fmadd_pd(m, _mm256_loadu_pd(pt.add(j)), acc0);
            j += 4;
        }
        let mut tail = 0.0;
        while j < n {
            tail += (o1[j] * p3[j] - o2[j] * p4[j]) * t[j];
            j += 1;
        }
        hsum(_mm256_add_pd(acc0, acc1)) + tail
    }

    /// The challenger components and trapdoor stay register/cache resident
    /// while the incumbent pairs stream through.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dce_comp_many_impl(
        o1: &[f64],
        o2: &[f64],
        pairs: &[(&[f64], &[f64])],
        t: &[f64],
        out: &mut [f64],
    ) {
        for (z, &(p3, p4)) in out.iter_mut().zip(pairs) {
            *z = dce_comp_impl(o1, o2, p3, p4, t);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_vec_dot_impl(a: &[f64], w: &[f64], cols: usize, b: &[f64]) -> f64 {
        let mut z = 0.0;
        for (i, ai) in a.iter().enumerate() {
            z += ai * dot_impl(&w[i * cols..(i + 1) * cols], b);
        }
        z
    }
}

/// NEON kernels (`aarch64`, where NEON is a baseline feature). Mirrors the
/// AVX2 strategy at 128-bit width: four `float64x2_t` accumulators for the
/// reductions, row pairs for the batched kernel, fused multiply-adds
/// throughout. Same reassociation policy as AVX2 (module docs).
#[cfg(target_arch = "aarch64")]
mod neon {
    use core::arch::aarch64::*;

    pub(super) static KERNELS: super::Kernels = super::Kernels {
        name: "neon",
        dot: dot,
        squared_euclidean: squared_euclidean,
        norm_sq: norm_sq,
        squared_euclidean_many: squared_euclidean_many,
        dce_comp: dce_comp,
        dce_comp_many: dce_comp_many,
        mat_vec_dot: mat_vec_dot,
    };

    #[inline(always)]
    fn hsum4(a0: float64x2_t, a1: float64x2_t, a2: float64x2_t, a3: float64x2_t) -> f64 {
        // SAFETY: NEON is a baseline feature of aarch64.
        unsafe { vaddvq_f64(vaddq_f64(vaddq_f64(a0, a1), vaddq_f64(a2, a3))) }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        // SAFETY: in-bounds unaligned loads; NEON is baseline on aarch64.
        unsafe {
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            let mut acc2 = vdupq_n_f64(0.0);
            let mut acc3 = vdupq_n_f64(0.0);
            let mut j = 0;
            while j + 8 <= n {
                acc0 = vfmaq_f64(acc0, vld1q_f64(pa.add(j)), vld1q_f64(pb.add(j)));
                acc1 = vfmaq_f64(acc1, vld1q_f64(pa.add(j + 2)), vld1q_f64(pb.add(j + 2)));
                acc2 = vfmaq_f64(acc2, vld1q_f64(pa.add(j + 4)), vld1q_f64(pb.add(j + 4)));
                acc3 = vfmaq_f64(acc3, vld1q_f64(pa.add(j + 6)), vld1q_f64(pb.add(j + 6)));
                j += 8;
            }
            while j + 2 <= n {
                acc0 = vfmaq_f64(acc0, vld1q_f64(pa.add(j)), vld1q_f64(pb.add(j)));
                j += 2;
            }
            let mut tail = 0.0;
            while j < n {
                tail += a[j] * b[j];
                j += 1;
            }
            hsum4(acc0, acc1, acc2, acc3) + tail
        }
    }

    fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "squared_euclidean: dimension mismatch");
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        // SAFETY: in-bounds unaligned loads; NEON is baseline on aarch64.
        unsafe {
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            let mut acc2 = vdupq_n_f64(0.0);
            let mut acc3 = vdupq_n_f64(0.0);
            let mut j = 0;
            while j + 8 <= n {
                let d0 = vsubq_f64(vld1q_f64(pa.add(j)), vld1q_f64(pb.add(j)));
                let d1 = vsubq_f64(vld1q_f64(pa.add(j + 2)), vld1q_f64(pb.add(j + 2)));
                let d2 = vsubq_f64(vld1q_f64(pa.add(j + 4)), vld1q_f64(pb.add(j + 4)));
                let d3 = vsubq_f64(vld1q_f64(pa.add(j + 6)), vld1q_f64(pb.add(j + 6)));
                acc0 = vfmaq_f64(acc0, d0, d0);
                acc1 = vfmaq_f64(acc1, d1, d1);
                acc2 = vfmaq_f64(acc2, d2, d2);
                acc3 = vfmaq_f64(acc3, d3, d3);
                j += 8;
            }
            while j + 2 <= n {
                let d = vsubq_f64(vld1q_f64(pa.add(j)), vld1q_f64(pb.add(j)));
                acc0 = vfmaq_f64(acc0, d, d);
                j += 2;
            }
            let mut tail = 0.0;
            while j < n {
                let d = a[j] - b[j];
                tail += d * d;
                j += 1;
            }
            hsum4(acc0, acc1, acc2, acc3) + tail
        }
    }

    fn norm_sq(a: &[f64]) -> f64 {
        dot(a, a)
    }

    fn squared_euclidean_many(q: &[f64], rows: &[&[f64]], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len(), "squared_euclidean_many: out length mismatch");
        let mut r = 0;
        while r + 1 < rows.len() {
            let n = q.len();
            let (a, b) = (rows[r], rows[r + 1]);
            debug_assert!(a.len() == n && b.len() == n);
            let (pq, pa, pb) = (q.as_ptr(), a.as_ptr(), b.as_ptr());
            // SAFETY: in-bounds unaligned loads; NEON is baseline on aarch64.
            unsafe {
                let mut a0 = vdupq_n_f64(0.0);
                let mut a1 = vdupq_n_f64(0.0);
                let mut a2 = vdupq_n_f64(0.0);
                let mut a3 = vdupq_n_f64(0.0);
                let mut b0 = vdupq_n_f64(0.0);
                let mut b1 = vdupq_n_f64(0.0);
                let mut b2 = vdupq_n_f64(0.0);
                let mut b3 = vdupq_n_f64(0.0);
                let mut j = 0;
                while j + 8 <= n {
                    let q0 = vld1q_f64(pq.add(j));
                    let q1 = vld1q_f64(pq.add(j + 2));
                    let q2 = vld1q_f64(pq.add(j + 4));
                    let q3 = vld1q_f64(pq.add(j + 6));
                    let da0 = vsubq_f64(q0, vld1q_f64(pa.add(j)));
                    let da1 = vsubq_f64(q1, vld1q_f64(pa.add(j + 2)));
                    let da2 = vsubq_f64(q2, vld1q_f64(pa.add(j + 4)));
                    let da3 = vsubq_f64(q3, vld1q_f64(pa.add(j + 6)));
                    a0 = vfmaq_f64(a0, da0, da0);
                    a1 = vfmaq_f64(a1, da1, da1);
                    a2 = vfmaq_f64(a2, da2, da2);
                    a3 = vfmaq_f64(a3, da3, da3);
                    let db0 = vsubq_f64(q0, vld1q_f64(pb.add(j)));
                    let db1 = vsubq_f64(q1, vld1q_f64(pb.add(j + 2)));
                    let db2 = vsubq_f64(q2, vld1q_f64(pb.add(j + 4)));
                    let db3 = vsubq_f64(q3, vld1q_f64(pb.add(j + 6)));
                    b0 = vfmaq_f64(b0, db0, db0);
                    b1 = vfmaq_f64(b1, db1, db1);
                    b2 = vfmaq_f64(b2, db2, db2);
                    b3 = vfmaq_f64(b3, db3, db3);
                    j += 8;
                }
                while j + 2 <= n {
                    let qv = vld1q_f64(pq.add(j));
                    let da = vsubq_f64(qv, vld1q_f64(pa.add(j)));
                    a0 = vfmaq_f64(a0, da, da);
                    let db = vsubq_f64(qv, vld1q_f64(pb.add(j)));
                    b0 = vfmaq_f64(b0, db, db);
                    j += 2;
                }
                let (mut ta, mut tb) = (0.0, 0.0);
                while j < n {
                    let da = q[j] - a[j];
                    ta += da * da;
                    let db = q[j] - b[j];
                    tb += db * db;
                    j += 1;
                }
                out[r] = hsum4(a0, a1, a2, a3) + ta;
                out[r + 1] = hsum4(b0, b1, b2, b3) + tb;
            }
            r += 2;
        }
        if r < rows.len() {
            out[r] = squared_euclidean(q, rows[r]);
        }
    }

    fn dce_comp(o1: &[f64], o2: &[f64], p3: &[f64], p4: &[f64], t: &[f64]) -> f64 {
        let n = t.len();
        debug_assert!(o1.len() == n && o2.len() == n && p3.len() == n && p4.len() == n);
        let (po1, po2, pp3, pp4, pt) =
            (o1.as_ptr(), o2.as_ptr(), p3.as_ptr(), p4.as_ptr(), t.as_ptr());
        // SAFETY: in-bounds unaligned loads; NEON is baseline on aarch64.
        unsafe {
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            let mut j = 0;
            while j + 4 <= n {
                let m0 = vfmsq_f64(
                    vmulq_f64(vld1q_f64(po1.add(j)), vld1q_f64(pp3.add(j))),
                    vld1q_f64(po2.add(j)),
                    vld1q_f64(pp4.add(j)),
                );
                acc0 = vfmaq_f64(acc0, m0, vld1q_f64(pt.add(j)));
                let m1 = vfmsq_f64(
                    vmulq_f64(vld1q_f64(po1.add(j + 2)), vld1q_f64(pp3.add(j + 2))),
                    vld1q_f64(po2.add(j + 2)),
                    vld1q_f64(pp4.add(j + 2)),
                );
                acc1 = vfmaq_f64(acc1, m1, vld1q_f64(pt.add(j + 2)));
                j += 4;
            }
            let mut tail = 0.0;
            while j < n {
                tail += (o1[j] * p3[j] - o2[j] * p4[j]) * t[j];
                j += 1;
            }
            vaddvq_f64(vaddq_f64(acc0, acc1)) + tail
        }
    }

    fn dce_comp_many(
        o1: &[f64],
        o2: &[f64],
        pairs: &[(&[f64], &[f64])],
        t: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(pairs.len(), out.len(), "dce_comp_many: out length mismatch");
        for (z, &(p3, p4)) in out.iter_mut().zip(pairs) {
            *z = dce_comp(o1, o2, p3, p4, t);
        }
    }

    fn mat_vec_dot(a: &[f64], w: &[f64], cols: usize, b: &[f64]) -> f64 {
        debug_assert_eq!(w.len(), a.len() * cols, "mat_vec_dot: matrix shape mismatch");
        debug_assert_eq!(b.len(), cols, "mat_vec_dot: dimension mismatch");
        let mut z = 0.0;
        for (i, ai) in a.iter().enumerate() {
            z += ai * dot(&w[i * cols..(i + 1) * cols], b);
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_pins_the_oracle() {
        assert_eq!(choose(true).name, "scalar");
    }

    #[test]
    fn default_choice_prefers_simd_when_available() {
        match simd() {
            Some(k) => assert_eq!(choose(false).name, k.name),
            None => assert_eq!(choose(false).name, "scalar"),
        }
    }

    #[test]
    fn all_starts_with_the_oracle() {
        let tables = all();
        assert_eq!(tables[0].name, "scalar");
        assert!(tables.len() <= 2);
    }

    #[test]
    fn prefetch_accepts_any_slice() {
        let words: Vec<u32> = (0..100).collect();
        let rows = vec![1.0f64; 257];
        prefetch::<u32>(&[]);
        prefetch(&[(); 3]);
        for start in 0..5 {
            prefetch(&words[start..]);
            prefetch(&rows[start..start + 129]);
        }
        assert_eq!(words.iter().sum::<u32>(), 4950, "a prefetch never writes");
    }

    #[test]
    fn active_is_stable_across_calls() {
        assert!(std::ptr::eq(active(), active()));
    }
}
