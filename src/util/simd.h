// Vectorized numeric kernels for the embedding hot paths.
//
// Every kernel has two implementations with *bit-identical* results:
//
//   * simd::portable::* — plain C++ that fixes the reference semantics, and
//   * an AVX2 path (AVX2+FMA, or AVX2 alone for AdamRow) compiled via
//     function-level target attributes and selected at runtime with
//     __builtin_cpu_supports, so the default -O2 build gains vector code
//     on machines that have it and stays portable everywhere else.
//
// Bit-identity across backends (and therefore across machines) is part of
// the library's determinism contract, and is what lets the rest of the
// code call the dispatched entry points without thinking about hardware.
// It is achieved by construction:
//
//   * Reductions (Dot, ScoreDot, FloatH's sum of squares, FloatDot) are
//     defined over a fixed lane decomposition — lane j accumulates
//     elements j, j+L, j+2L, ... — with a fixed combination tree, and the
//     portable code replicates that decomposition exactly. float×float
//     products are exact in double (24+24 < 53 mantissa bits), so FMA and
//     mul-then-add agree on them.
//   * Where a product is *not* exact (ScoreDot's hu·hv, FloatH's h·h,
//     FloatDot's float hu·hv, CombineHalf's short_w·h^S), both paths use
//     IEEE fused multiply-add (std::fma / vfmadd), which pins a single
//     rounding on every platform.
//   * The final embedding h = ½(h^L + w·h^S + c^r) has one definition,
//     portable::H (avx2::H4 in lanes). ScoreDot builds both sides' h from
//     it on the fly; FloatH rounds an h row to float for the serving
//     cache, portable::FloatDot defines the float estimate of ScoreDot
//     from two such rows within a proven bound (FloatDotBound), and
//     FloatDots gives FloatDot's bits for a block of rows. The estimate
//     only filters: every score the engine returns is ScoreDot's.
//   * Elementwise kernels (Axpy, Scale, Add, AddInto, HalfSum,
//     CombineHalf, AdamRow) have no cross-lane dependency at all; both
//     paths apply the same per-element rounding sequence.
//   * AdamRow computes in float, where a product is inexact in general,
//     and rounds each product before the add that consumes it
//     (β1·m + (1−β1)·g, β2·v + (1−β2)·g·g, α·u + λ·p). The AVX2 path
//     must not fuse them. GCC contracts mul+add into vfmadd inside any
//     FMA-enabled target, so AdamRow is compiled with target("avx2")
//     alone: with no FMA instruction available there is nothing to
//     contract into. Its one divide and one sqrt are IEEE operations,
//     correctly rounded in every lane.
//
// The environment variable SUPA_SIMD=portable forces the portable path
// (useful for cross-checking and benchmarking).
//
// Aliasing: for kernels with an output span, the output must be disjoint
// from the inputs or exactly equal to one of them (AddInto's y, Scale's x);
// partial overlap is undefined, as with the scalar code they replace.

#ifndef SUPA_UTIL_SIMD_H_
#define SUPA_UTIL_SIMD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SUPA_SIMD_X86 1
#include <immintrin.h>
#else
#define SUPA_SIMD_X86 0
#endif

namespace supa::simd {

/// True when the AVX2+FMA fast path is compiled in, supported by the CPU,
/// and not disabled via SUPA_SIMD=portable.
inline bool HasAvx2() {
#if SUPA_SIMD_X86
  static const bool ok = [] {
    const char* env = std::getenv("SUPA_SIMD");
    if (env != nullptr && env[0] == 'p') return false;
    return static_cast<bool>(__builtin_cpu_supports("avx2")) &&
           static_cast<bool>(__builtin_cpu_supports("fma"));
  }();
  return ok;
#else
  return false;
#endif
}

/// Human-readable backend name for logs and bench reports.
inline const char* BackendName() { return HasAvx2() ? "avx2" : "portable"; }

/// One AdamW step t with Adam's bias corrections folded into the step
/// size and ε (Kingma & Ba, ICLR 2015, §2). Each field is computed in
/// double and rounded once to float:
///   alpha = lr · √(1 − β2^t) / (1 − β1^t)
///   eps   = ε · √(1 − β2^t)
///   lr_wd = lr · weight_decay
struct AdamCoeffs {
  float beta1;
  float one_minus_beta1;
  float beta2;
  float one_minus_beta2;
  float alpha;
  float eps;
  float lr_wd;
};

/// The coefficients of step t ≥ 1 of AdamW with hyperparameters
/// (β1, β2, ε, lr, weight decay).
inline AdamCoeffs FoldAdam(double beta1, double beta2, double eps, double lr,
                           double weight_decay, uint64_t t) {
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double sqrt_bc2 =
      std::sqrt(1.0 - std::pow(beta2, static_cast<double>(t)));
  return AdamCoeffs{static_cast<float>(beta1),
                    static_cast<float>(1.0 - beta1),
                    static_cast<float>(beta2),
                    static_cast<float>(1.0 - beta2),
                    static_cast<float>(lr * sqrt_bc2 / bc1),
                    static_cast<float>(eps * sqrt_bc2),
                    static_cast<float>(lr * weight_decay)};
}

/// How far FloatDot's estimate may lie from ScoreDot's value. For rows
/// that FloatH wrote from the final embeddings u and v, returning the
/// norm bounds N_u and N_v,
///   |FloatDot(f_u, f_v, n) − ScoreDot(u, v, n)| ≤ slope·N_v + offset
/// whenever the estimate and the bound are finite, with margin enough
/// that the bound and estimate ± bound may be evaluated in double.
struct EstimateBound {
  double slope;
  double offset;
};

/// The bound for one user row with norm bound N_u, at length n:
///   slope  = ρ·((2u + γ_f + γ_d)·N_u + n·η)
///   offset = ρ·(n·η·N_u + 2(n + 8)·η)
/// with u = 2^-24, η = 2^-150, ρ = 1 + 2^-20, γ_f = h_f·u / (1 − h_f·u)
/// over FloatDot's depth h_f = ⌊n/8⌋ + 3 + n mod 8, and γ_d the same in
/// double (2^-53) over ScoreDot's depth h_d = ⌊n/4⌋ + 2 + n mod 4.
/// DESIGN.md §12.3 proves it.
inline EstimateBound FloatDotBound(float user_norm, size_t n) {
  constexpr double kU = 0x1p-24, kUd = 0x1p-53, kEta = 0x1p-150;
  constexpr double kRho = 1.0 + 0x1p-20;
  const double nd = static_cast<double>(n);
  const double hf = static_cast<double>(n / 8 + 3 + n % 8);
  const double hd = static_cast<double>(n / 4 + 2 + n % 4);
  // (1 + u)^h_f ≤ 2 while h_f·u < 1/2 (< ln 2); past that the slope is
  // +∞ and no item is skipped.
  const double gamma_f =
      hf * kU < 0.5 ? hf * kU / (1.0 - hf * kU) : HUGE_VAL;
  const double gamma_d = hd * kUd / (1.0 - hd * kUd);
  const double nu = user_norm;
  return EstimateBound{
      kRho * ((2.0 * kU + gamma_f + gamma_d) * nu + nd * kEta),
      kRho * (nd * kEta * nu + 2.0 * (nd + 8.0) * kEta)};
}

// ---------------------------------------------------------------------------
// Portable reference implementations. These define the semantics; the AVX2
// path below reproduces them bit-for-bit.
// ---------------------------------------------------------------------------

namespace portable {

/// The 8-lane combination tree of Dot, FloatH and FloatDot:
/// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
template <typename T>
inline T CombineEight(const T (&lane)[8]) {
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

/// Dot product with double accumulation over 8 fixed lanes:
/// lane j sums elements j, j+8, ...; lanes combine as
/// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)); the tail is added sequentially.
inline double Dot(const float* a, const float* b, size_t n) {
  double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (int j = 0; j < 8; ++j) {
      // Exact product (float mantissas fit double); += cannot contract
      // differently from FMA here, so the result is pinned either way.
      lane[j] += static_cast<double>(a[i + j]) * static_cast<double>(b[i + j]);
    }
  }
  double acc = CombineEight(lane);
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

/// y[i] += float(alpha * x[i]) — the product rounds to double, converts to
/// float, then adds in float, exactly like the scalar code it replaces.
inline void Axpy(double alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += static_cast<float>(alpha * static_cast<double>(x[i]));
  }
}

/// x[i] = float(alpha * x[i]).
inline void Scale(double alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(alpha * static_cast<double>(x[i]));
  }
}

/// out[i] = a[i] + b[i] in float.
inline void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

/// y[i] += x[i] in float.
inline void AddInto(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

/// out[i] = 0.5f * (a[i] + b[i]) in float.
inline void HalfSum(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = 0.5f * (a[i] + b[i]);
}

/// out[i] = float(0.5 * (fma(short_w, hs[i], hl[i]) + c[i])) — the final
/// embedding h^r = ½(h^L + w·h^S + c^r) in double precision.
inline void CombineHalf(const float* hl, const float* hs, const float* c,
                        double short_w, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double t = std::fma(short_w, static_cast<double>(hs[i]),
                              static_cast<double>(hl[i])) +
                     static_cast<double>(c[i]);
    out[i] = static_cast<float>(0.5 * t);
  }
}

/// Element i of a final embedding, h_i = ½(fma(w, h^S_i, h^L_i) + c^r_i)
/// in double (Eq. 14). The one definition of h: every scoring kernel
/// builds h through it or through its 4-lane AVX2 twin (avx2::H4), so a
/// score over cached h rows equals the fused ScoreDot bit for bit.
inline double H(const float* l, const float* s, const float* c,
                double short_w, size_t i) {
  return 0.5 * (std::fma(short_w, static_cast<double>(s[i]),
                         static_cast<double>(l[i])) +
                static_cast<double>(c[i]));
}

/// Single tail element of ScoreDot; shared so both backends agree exactly.
inline double ScoreDotTail(double acc, const float* al, const float* as,
                           const float* ac, const float* bl, const float* bs,
                           const float* bc, double short_w, size_t i) {
  return std::fma(H(al, as, ac, short_w, i), H(bl, bs, bc, short_w, i), acc);
}

/// γ(u, v, r) = Σ_i hu_i · hv_i with hu = ½(h^L + w·h^S + c^r) (Eq. 14–15),
/// fused so scoring never materializes the two final embeddings. Double
/// accumulation over 4 fixed lanes combined as (l0+l2) + (l1+l3).
inline double ScoreDot(const float* al, const float* as, const float* ac,
                       const float* bl, const float* bs, const float* bc,
                       double short_w, size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const size_t n4 = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < n4; i += 4) {
    for (int j = 0; j < 4; ++j) {
      lane[j] = ScoreDotTail(lane[j], al, as, ac, bl, bs, bc, short_w, i + j);
    }
  }
  double acc = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; i < n; ++i) {
    acc = ScoreDotTail(acc, al, as, ac, bl, bs, bc, short_w, i);
  }
  return acc;
}

/// An upper bound, as a float, on the norm of a final embedding row x and
/// on the norm of its float rounding, from q = Σ x_i² as FloatH sums it:
/// float(fma(√q, (1 + (n+3)·2^-52)·(1 + 2^-22),
///           2n·2^-150·(1 + 2^-22) + 2^-149)).
/// A non-finite q gives a non-finite bound. DESIGN.md §12.3 proves it.
inline float NormBound(double q, size_t n) {
  const double nd = static_cast<double>(n);
  const double scale = (1.0 + (nd + 3.0) * 0x1p-52) * (1.0 + 0x1p-22);
  const double lift = 2.0 * nd * 0x1p-150 * (1.0 + 0x1p-22) + 0x1p-149;
  return static_cast<float>(std::fma(std::sqrt(q), scale, lift));
}

/// FloatH from element i on, given the lanes' sum q so far: the
/// sequential tail and the norm bound, shared so both backends agree.
inline float FloatHTail(double q, const float* l, const float* s,
                        const float* c, double short_w, float* h, size_t i,
                        size_t n) {
  for (; i < n; ++i) {
    const double x = H(l, s, c, short_w, i);
    h[i] = static_cast<float>(x);
    q = std::fma(x, x, q);
  }
  return NormBound(q, n);
}

/// h[i] = float(H(l, s, c, short_w, i)) for i < n: one final embedding
/// rounded to float (the row CombineHalf writes), the serving engine's
/// cached row. Returns NormBound(q, n) for q = Σ H_i², the squares of the
/// double values accumulated by fma in Dot's 8 lanes and combination
/// tree, then a sequential fma tail.
inline float FloatH(const float* l, const float* s, const float* c,
                    double short_w, float* h, size_t n) {
  double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (int j = 0; j < 8; ++j) {
      const double x = H(l, s, c, short_w, i + j);
      h[i + j] = static_cast<float>(x);
      lane[j] = std::fma(x, x, lane[j]);
    }
  }
  return FloatHTail(CombineEight(lane), l, s, c, short_w, h, i, n);
}

/// Σ a_i·b_i in float: 8 fma lanes (lane j takes i ≡ j mod 8) combined as
/// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then a sequential fma tail. The
/// serving engine's estimate of ScoreDot from two FloatH rows.
inline float FloatDot(const float* a, const float* b, size_t n) {
  float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (int j = 0; j < 8; ++j) {
      lane[j] = std::fma(a[i + j], b[i + j], lane[j]);
    }
  }
  float acc = CombineEight(lane);
  for (; i < n; ++i) acc = std::fma(a[i], b[i], acc);
  return acc;
}

/// out[r] = FloatDot(a, rows + r·n, n) for r < count: the estimates of
/// `count` consecutive cached rows, a block of the serving engine's pass.
inline void FloatDots(const float* a, const float* rows, size_t count,
                      size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) out[r] = FloatDot(a, rows + r * n, n);
}

/// One AdamW row update with decoupled weight decay, in float with every
/// operation rounded on its own (no fma): one sqrt and one divide per
/// element, the bias corrections already folded into c.alpha and c.eps.
inline void AdamRow(const AdamCoeffs& c, const float* g, float* params,
                    float* m, float* v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float gi = g[i];
    const float mi = c.beta1 * m[i] + c.one_minus_beta1 * gi;
    const float vi = c.beta2 * v[i] + (c.one_minus_beta2 * gi) * gi;
    m[i] = mi;
    v[i] = vi;
    const float u = mi / (std::sqrt(vi) + c.eps);
    params[i] = params[i] - (c.alpha * u + c.lr_wd * params[i]);
  }
}

}  // namespace portable

// ---------------------------------------------------------------------------
// AVX2 + FMA path. Compiled with per-function target attributes so the
// translation unit itself needs no -mavx2; only executed after HasAvx2().
// ---------------------------------------------------------------------------

#if SUPA_SIMD_X86

#define SUPA_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace avx2 {

SUPA_TARGET_AVX2 inline double Dot(const float* a, const float* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();  // lanes 0..3
  __m256d acc_hi = _mm256_setzero_pd();  // lanes 4..7
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 af = _mm256_loadu_ps(a + i);
    const __m256 bf = _mm256_loadu_ps(b + i);
    acc_lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(af)),
                             _mm256_cvtps_pd(_mm256_castps256_ps128(bf)),
                             acc_lo);
    acc_hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(af, 1)),
                             _mm256_cvtps_pd(_mm256_extractf128_ps(bf, 1)),
                             acc_hi);
  }
  // r[j] = lane_j + lane_{j+4}; then (r0+r2) + (r1+r3).
  const __m256d r = _mm256_add_pd(acc_lo, acc_hi);
  const __m128d lo = _mm256_castpd256_pd128(r);        // r0, r1
  const __m128d hi = _mm256_extractf128_pd(r, 1);      // r2, r3
  const __m128d s = _mm_add_pd(lo, hi);                // r0+r2, r1+r3
  double acc = _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

SUPA_TARGET_AVX2 inline void Axpy(double alpha, const float* x, float* y,
                                  size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 xf = _mm256_loadu_ps(x + i);
    // Round alpha*x to double, then to float (matching the scalar
    // double-rounding), then add in float.
    const __m128 lo = _mm256_cvtpd_ps(
        _mm256_mul_pd(va, _mm256_cvtps_pd(_mm256_castps256_ps128(xf))));
    const __m128 hi = _mm256_cvtpd_ps(
        _mm256_mul_pd(va, _mm256_cvtps_pd(_mm256_extractf128_ps(xf, 1))));
    const __m256 prod = _mm256_set_m128(hi, lo);
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) {
    y[i] += static_cast<float>(alpha * static_cast<double>(x[i]));
  }
}

SUPA_TARGET_AVX2 inline void Scale(double alpha, float* x, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 xf = _mm256_loadu_ps(x + i);
    const __m128 lo = _mm256_cvtpd_ps(
        _mm256_mul_pd(va, _mm256_cvtps_pd(_mm256_castps256_ps128(xf))));
    const __m128 hi = _mm256_cvtpd_ps(
        _mm256_mul_pd(va, _mm256_cvtps_pd(_mm256_extractf128_ps(xf, 1))));
    _mm256_storeu_ps(x + i, _mm256_set_m128(hi, lo));
  }
  for (; i < n; ++i) {
    x[i] = static_cast<float>(alpha * static_cast<double>(x[i]));
  }
}

SUPA_TARGET_AVX2 inline void Add(const float* a, const float* b, float* out,
                                 size_t n) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

SUPA_TARGET_AVX2 inline void AddInto(const float* x, float* y, size_t n) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

SUPA_TARGET_AVX2 inline void HalfSum(const float* a, const float* b,
                                     float* out, size_t n) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_mul_ps(half, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i))));
  }
  for (; i < n; ++i) out[i] = 0.5f * (a[i] + b[i]);
}

SUPA_TARGET_AVX2 inline void CombineHalf(const float* hl, const float* hs,
                                         const float* c, double short_w,
                                         float* out, size_t n) {
  const __m256d vw = _mm256_set1_pd(short_w);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const size_t n4 = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < n4; i += 4) {
    const __m256d dl = _mm256_cvtps_pd(_mm_loadu_ps(hl + i));
    const __m256d ds = _mm256_cvtps_pd(_mm_loadu_ps(hs + i));
    const __m256d dc = _mm256_cvtps_pd(_mm_loadu_ps(c + i));
    const __m256d t =
        _mm256_add_pd(_mm256_fmadd_pd(vw, ds, dl), dc);  // fma(w,hs,hl)+c
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(vhalf, t)));
  }
  for (; i < n; ++i) {
    const double t = std::fma(short_w, static_cast<double>(hs[i]),
                              static_cast<double>(hl[i])) +
                     static_cast<double>(c[i]);
    out[i] = static_cast<float>(0.5 * t);
  }
}

/// portable::H on the 4 elements i..i+3, vw = short_w in every lane.
SUPA_TARGET_AVX2 inline __m256d H4(const float* l, const float* s,
                                   const float* c, __m256d vw, size_t i) {
  return _mm256_mul_pd(
      _mm256_set1_pd(0.5),
      _mm256_add_pd(_mm256_fmadd_pd(vw, _mm256_cvtps_pd(_mm_loadu_ps(s + i)),
                                    _mm256_cvtps_pd(_mm_loadu_ps(l + i))),
                    _mm256_cvtps_pd(_mm_loadu_ps(c + i))));
}

/// The 4-lane accumulator folded as (l0+l2) + (l1+l3).
SUPA_TARGET_AVX2 inline double CombineLanes(__m256d acc) {
  const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                               _mm256_extractf128_pd(acc, 1));
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

SUPA_TARGET_AVX2 inline double ScoreDot(const float* al, const float* as,
                                        const float* ac, const float* bl,
                                        const float* bs, const float* bc,
                                        double short_w, size_t n) {
  const __m256d vw = _mm256_set1_pd(short_w);
  __m256d acc = _mm256_setzero_pd();
  const size_t n4 = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < n4; i += 4) {
    acc = _mm256_fmadd_pd(H4(al, as, ac, vw, i), H4(bl, bs, bc, vw, i), acc);
  }
  double out = CombineLanes(acc);
  for (; i < n; ++i) {
    out = portable::ScoreDotTail(out, al, as, ac, bl, bs, bc, short_w, i);
  }
  return out;
}

SUPA_TARGET_AVX2 inline float FloatH(const float* l, const float* s,
                                     const float* c, double short_w, float* h,
                                     size_t n) {
  const __m256d vw = _mm256_set1_pd(short_w);
  __m256d acc_lo = _mm256_setzero_pd();  // lanes 0..3
  __m256d acc_hi = _mm256_setzero_pd();  // lanes 4..7
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256d lo = H4(l, s, c, vw, i);
    const __m256d hi = H4(l, s, c, vw, i + 4);
    _mm_storeu_ps(h + i, _mm256_cvtpd_ps(lo));
    _mm_storeu_ps(h + i + 4, _mm256_cvtpd_ps(hi));
    acc_lo = _mm256_fmadd_pd(lo, lo, acc_lo);
    acc_hi = _mm256_fmadd_pd(hi, hi, acc_hi);
  }
  // r[j] = lane_j + lane_{j+4}; then (r0+r2) + (r1+r3).
  return portable::FloatHTail(CombineLanes(_mm256_add_pd(acc_lo, acc_hi)), l,
                              s, c, short_w, h, i, n);
}

/// The 8 float lanes folded as portable::CombineEight, given
/// r[j] = l_j + l_{j+4}: (r0+r2) + (r1+r3).
SUPA_TARGET_AVX2 inline float CombineFloatLanes(__m128 r) {
  const __m128 t = _mm_add_ps(r, _mm_movehl_ps(r, r));  // r0+r2, r1+r3
  return _mm_cvtss_f32(_mm_add_ss(t, _mm_shuffle_ps(t, t, 1)));
}

/// r[j] = l_j + l_{j+4} of an 8-lane float accumulator.
SUPA_TARGET_AVX2 inline __m128 FoldFloatLanes(__m256 acc) {
  return _mm_add_ps(_mm256_castps256_ps128(acc),
                    _mm256_extractf128_ps(acc, 1));
}

SUPA_TARGET_AVX2 inline float FloatDot(const float* a, const float* b,
                                       size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                          acc);
  }
  float out = CombineFloatLanes(FoldFloatLanes(acc));
  for (; i < n; ++i) out = std::fma(a[i], b[i], out);
  return out;
}

/// Four rows at a time, so four independent fma chains share each load
/// of `a`; the four folded accumulators are transposed and combined as
/// (r0+r2) + (r1+r3) in one vector, the same tree as CombineFloatLanes.
SUPA_TARGET_AVX2 inline void FloatDots(const float* a, const float* rows,
                                       size_t count, size_t n, float* out) {
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* b = rows + r * n;
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    for (size_t i = 0; i < n8; i += 8) {
      const __m256 va = _mm256_loadu_ps(a + i);
      acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b + i), acc0);
      acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b + n + i), acc1);
      acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b + 2 * n + i), acc2);
      acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b + 3 * n + i), acc3);
    }
    __m128 r0 = FoldFloatLanes(acc0), r1 = FoldFloatLanes(acc1);
    __m128 r2 = FoldFloatLanes(acc2), r3 = FoldFloatLanes(acc3);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);  // r_j now holds lane j of each row
    _mm_storeu_ps(out + r,
                  _mm_add_ps(_mm_add_ps(r0, r2), _mm_add_ps(r1, r3)));
    for (size_t i = n8; i < n; ++i) {
      for (size_t q = 0; q < 4; ++q) {
        out[r + q] = std::fma(a[i], b[q * n + i], out[r + q]);
      }
    }
  }
  for (; r < count; ++r) out[r] = FloatDot(a, rows + r * n, n);
}

// target("avx2") without fma: see the no-fusion rule at the top of the file.
__attribute__((target("avx2"))) inline void AdamRow(const AdamCoeffs& c,
                                                    const float* g,
                                                    float* params, float* m,
                                                    float* v, size_t n) {
  const __m256 b1 = _mm256_set1_ps(c.beta1);
  const __m256 one_minus_b1 = _mm256_set1_ps(c.one_minus_beta1);
  const __m256 b2 = _mm256_set1_ps(c.beta2);
  const __m256 one_minus_b2 = _mm256_set1_ps(c.one_minus_beta2);
  const __m256 alpha = _mm256_set1_ps(c.alpha);
  const __m256 eps = _mm256_set1_ps(c.eps);
  const __m256 lr_wd = _mm256_set1_ps(c.lr_wd);
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 gi = _mm256_loadu_ps(g + i);
    const __m256 mi =
        _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                      _mm256_mul_ps(one_minus_b1, gi));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_b2, gi), gi));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 u =
        _mm256_div_ps(mi, _mm256_add_ps(_mm256_sqrt_ps(vi), eps));
    const __m256 p = _mm256_loadu_ps(params + i);
    _mm256_storeu_ps(
        params + i,
        _mm256_sub_ps(p, _mm256_add_ps(_mm256_mul_ps(alpha, u),
                                       _mm256_mul_ps(lr_wd, p))));
  }
  portable::AdamRow(c, g + i, params + i, m + i, v + i, n - i);
}

}  // namespace avx2

#undef SUPA_TARGET_AVX2

#endif  // SUPA_SIMD_X86

// ---------------------------------------------------------------------------
// Runtime-dispatched entry points — what the library calls.
// ---------------------------------------------------------------------------

inline double Dot(const float* a, const float* b, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::Dot(a, b, n);
#endif
  return portable::Dot(a, b, n);
}

inline void Axpy(double alpha, const float* x, float* y, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::Axpy(alpha, x, y, n);
#endif
  portable::Axpy(alpha, x, y, n);
}

inline void Scale(double alpha, float* x, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::Scale(alpha, x, n);
#endif
  portable::Scale(alpha, x, n);
}

inline void Add(const float* a, const float* b, float* out, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::Add(a, b, out, n);
#endif
  portable::Add(a, b, out, n);
}

inline void AddInto(const float* x, float* y, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::AddInto(x, y, n);
#endif
  portable::AddInto(x, y, n);
}

inline void HalfSum(const float* a, const float* b, float* out, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::HalfSum(a, b, out, n);
#endif
  portable::HalfSum(a, b, out, n);
}

inline void CombineHalf(const float* hl, const float* hs, const float* c,
                        double short_w, float* out, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::CombineHalf(hl, hs, c, short_w, out, n);
#endif
  portable::CombineHalf(hl, hs, c, short_w, out, n);
}

inline double ScoreDot(const float* al, const float* as, const float* ac,
                       const float* bl, const float* bs, const float* bc,
                       double short_w, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2())
    return avx2::ScoreDot(al, as, ac, bl, bs, bc, short_w, n);
#endif
  return portable::ScoreDot(al, as, ac, bl, bs, bc, short_w, n);
}

inline float FloatH(const float* l, const float* s, const float* c,
                    double short_w, float* h, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::FloatH(l, s, c, short_w, h, n);
#endif
  return portable::FloatH(l, s, c, short_w, h, n);
}

inline void FloatDots(const float* a, const float* rows, size_t count,
                      size_t n, float* out) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::FloatDots(a, rows, count, n, out);
#endif
  portable::FloatDots(a, rows, count, n, out);
}

inline void AdamRow(const AdamCoeffs& c, const float* g, float* params,
                    float* m, float* v, size_t n) {
#if SUPA_SIMD_X86
  if (HasAvx2()) return avx2::AdamRow(c, g, params, m, v, n);
#endif
  portable::AdamRow(c, g, params, m, v, n);
}

}  // namespace supa::simd

#endif  // SUPA_UTIL_SIMD_H_
