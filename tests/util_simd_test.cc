#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/math_utils.h"
#include "util/rng.h"

namespace supa {
namespace {

// The dispatched kernels promise bit-identical results to the portable
// reference on every length and alignment — that is the determinism
// contract that makes AVX2 an implementation detail. These tests sweep odd
// lengths (tail handling) and deliberately misaligned pointers (the
// embedding store hands out unaligned rows all the time). On machines
// without AVX2 the dispatch degenerates to portable-vs-portable, which is
// vacuous but harmless; run with SUPA_SIMD=portable to force that.

std::vector<float> RandomVec(size_t n, Rng& rng, double scale = 2.0) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Uniform(-scale, scale));
  }
  return v;
}

// Lengths around the 4- and 8-wide vector boundaries plus typical dims.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                           31, 33, 63, 64, 65, 67, 128};
// Byte misalignment via element offsets into an oversized buffer.
const size_t kOffsets[] = {0, 1, 2, 3, 5};

TEST(SimdTest, DotMatchesPortableOnAllLengthsAndAlignments) {
  Rng rng(11);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto a = RandomVec(n + off, rng);
      const auto b = RandomVec(n + off, rng);
      const double got = simd::Dot(a.data() + off, b.data() + off, n);
      const double want = simd::portable::Dot(a.data() + off, b.data() + off, n);
      EXPECT_EQ(got, want) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, AxpyMatchesPortable) {
  Rng rng(12);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto x = RandomVec(n + off, rng);
      auto y1 = RandomVec(n + off, rng);
      auto y2 = y1;
      const double alpha = rng.Uniform(-2.0, 2.0);
      simd::Axpy(alpha, x.data() + off, y1.data() + off, n);
      simd::portable::Axpy(alpha, x.data() + off, y2.data() + off, n);
      EXPECT_EQ(y1, y2) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, ScaleMatchesPortable) {
  Rng rng(13);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      auto x1 = RandomVec(n + off, rng);
      auto x2 = x1;
      const double alpha = rng.Uniform(-1.0, 1.0);
      simd::Scale(alpha, x1.data() + off, n);
      simd::portable::Scale(alpha, x2.data() + off, n);
      EXPECT_EQ(x1, x2) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, ElementwiseKernelsMatchPortable) {
  Rng rng(14);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto a = RandomVec(n + off, rng);
      const auto b = RandomVec(n + off, rng);
      std::vector<float> o1(n + off, 0.0f), o2(n + off, 0.0f);

      simd::Add(a.data() + off, b.data() + off, o1.data() + off, n);
      simd::portable::Add(a.data() + off, b.data() + off, o2.data() + off, n);
      EXPECT_EQ(o1, o2);

      auto y1 = a, y2 = a;
      simd::AddInto(b.data() + off, y1.data() + off, n);
      simd::portable::AddInto(b.data() + off, y2.data() + off, n);
      EXPECT_EQ(y1, y2);

      simd::HalfSum(a.data() + off, b.data() + off, o1.data() + off, n);
      simd::portable::HalfSum(a.data() + off, b.data() + off,
                              o2.data() + off, n);
      EXPECT_EQ(o1, o2);
    }
  }
}

TEST(SimdTest, CombineHalfMatchesPortable) {
  Rng rng(15);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto hl = RandomVec(n + off, rng);
      const auto hs = RandomVec(n + off, rng);
      const auto c = RandomVec(n + off, rng);
      for (double w : {0.0, 1.0, 0.37}) {
        std::vector<float> o1(n + off, 0.0f), o2(n + off, 0.0f);
        simd::CombineHalf(hl.data() + off, hs.data() + off, c.data() + off, w,
                          o1.data() + off, n);
        simd::portable::CombineHalf(hl.data() + off, hs.data() + off,
                                    c.data() + off, w, o2.data() + off, n);
        EXPECT_EQ(o1, o2) << "n=" << n << " off=" << off << " w=" << w;
      }
    }
  }
}

TEST(SimdTest, ScoreDotMatchesPortable) {
  Rng rng(16);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto al = RandomVec(n + off, rng), as = RandomVec(n + off, rng),
                 ac = RandomVec(n + off, rng), bl = RandomVec(n + off, rng),
                 bs = RandomVec(n + off, rng), bc = RandomVec(n + off, rng);
      for (double w : {0.0, 1.0}) {
        const double got =
            simd::ScoreDot(al.data() + off, as.data() + off, ac.data() + off,
                           bl.data() + off, bs.data() + off, bc.data() + off,
                           w, n);
        const double want = simd::portable::ScoreDot(
            al.data() + off, as.data() + off, ac.data() + off,
            bl.data() + off, bs.data() + off, bc.data() + off, w, n);
        EXPECT_EQ(got, want) << "n=" << n << " off=" << off << " w=" << w;
      }
    }
  }
}

struct AdamRowInput {
  std::vector<float> g, params, m, v;
};

// Mixes, element by element, the cases AdamRow must agree on: random
// values with negative params, zero, denormal and ±1e30 gradients, fresh
// moments (m = v = 0), and two cancellations. Where β1·m + (1−β1)·g or
// p − (α·u + λ·p) nearly cancels, only the roundings of the products are
// left in the result, so a kernel that fuses a multiply into its add
// changes bytes there.
AdamRowInput MakeAdamRowInput(size_t n, const simd::AdamCoeffs& c, Rng& rng) {
  AdamRowInput in;
  for (size_t i = 0; i < n; ++i) {
    float g = static_cast<float>(rng.Uniform(-2.0, 2.0));
    float p = static_cast<float>(rng.Uniform(-2.0, 2.0));
    float m = static_cast<float>(rng.Uniform(-0.5, 0.5));
    float v = static_cast<float>(rng.Uniform(0.0, 0.5));
    switch (rng.Index(7)) {
      case 0:
        break;
      case 1:
        g = 0.0f;
        break;
      case 2:
        g = std::copysign(1e-40f, g);
        break;
      case 3:
        g = std::copysign(1e30f, g);
        break;
      case 4:
        m = v = 0.0f;
        break;
      case 5:
        g = -m * c.beta1 / c.one_minus_beta1;
        break;
      case 6: {
        // At p = 0 the kernel writes −α·u; pick p = α·u / (1 − λ) so that
        // p − (α·u + λ·p) is close to zero.
        float m0 = m, v0 = v, p0 = 0.0f;
        simd::portable::AdamRow(c, &g, &p0, &m0, &v0, 1);
        p = -p0 / (1.0f - c.lr_wd);
        break;
      }
    }
    in.g.push_back(g);
    in.params.push_back(p);
    in.m.push_back(m);
    in.v.push_back(v);
  }
  return in;
}

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SimdTest, AdamRowMatchesPortable) {
  Rng rng(19);
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(128);
  for (const uint64_t step : {uint64_t{1}, uint64_t{1000000}}) {
    const simd::AdamCoeffs c =
        simd::FoldAdam(0.9, 0.999, 1e-8, 3e-3, 1e-4, step);
    for (size_t n : lengths) {
      for (size_t off : kOffsets) {
        const AdamRowInput in = MakeAdamRowInput(n + off, c, rng);
        AdamRowInput got = in, want = in;
        simd::AdamRow(c, in.g.data() + off, got.params.data() + off,
                      got.m.data() + off, got.v.data() + off, n);
        simd::portable::AdamRow(c, in.g.data() + off, want.params.data() + off,
                                want.m.data() + off, want.v.data() + off, n);
        EXPECT_TRUE(SameBytes(got.params, want.params))
            << "params: step=" << step << " n=" << n << " off=" << off;
        EXPECT_TRUE(SameBytes(got.m, want.m))
            << "m: step=" << step << " n=" << n << " off=" << off;
        EXPECT_TRUE(SameBytes(got.v, want.v))
            << "v: step=" << step << " n=" << n << " off=" << off;
      }
    }
  }
}

// Rows as the store hands them out, mixed element by element with the
// values a kernel's tail or lane handling could treat differently: zero,
// float denormals, ±1e30 and negatives.
std::vector<float> MixedRow(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    switch (rng.Index(5)) {
      case 1:
        x = 0.0f;
        break;
      case 2:
        x = std::copysign(1e-40f, x);
        break;
      case 3:
        x = std::copysign(1e30f, x);
        break;
      case 4:
        x = -std::fabs(x);
        break;
      default:
        break;
    }
  }
  return v;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct FloatKernels {
  const char* name;
  float (*float_h)(const float*, const float*, const float*, double, float*,
                   size_t);
  void (*float_dots)(const float*, const float*, size_t, size_t, float*);
};

// True when ScoreDot's value s lies in [ŝ − B, ŝ + B] evaluated in double,
// as the serving engine evaluates it, or when the estimate or its bound is
// not finite (the engine then scores the item exactly).
bool EstimateBrackets(float estimate, const simd::EstimateBound& bound,
                      float item_norm, double s) {
  const double error = bound.slope * item_norm + bound.offset;
  if (!std::isfinite(estimate) || !std::isfinite(error)) return true;
  return estimate - error <= s && s <= estimate + error;
}

// The serving engine caches h rows in float: FloatH rounds one and
// bounds its norm, and FloatDots estimates the scores of a block of
// cached rows, each row's estimate being portable::FloatDot's. Both must
// give the portable reference's bits in both backends, on one row and on
// a block, the row must be CombineHalf's rounding of h, and the estimate
// must lie within FloatDotBound of ScoreDot's value, or the engine's
// top-K would drift from SupaModel::ScoreOn.
TEST(SimdTest, CachedScoreKernelsMatchScoreDotBitForBit) {
  const FloatKernels backends[] = {
      {"portable", simd::portable::FloatH, simd::portable::FloatDots},
      {"dispatched", simd::FloatH, simd::FloatDots}};
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(128);
  Rng rng(20);
  for (size_t n : lengths) {
    for (size_t off : {size_t{0}, size_t{1}, size_t{3}}) {
      const auto al = MixedRow(n + off, rng), as = MixedRow(n + off, rng),
                 ac = MixedRow(n + off, rng), bl = MixedRow(n + off, rng),
                 bs = MixedRow(n + off, rng), bc = MixedRow(n + off, rng);
      for (double w : {0.0, 1.0}) {
        const double want = simd::portable::ScoreDot(
            al.data() + off, as.data() + off, ac.data() + off,
            bl.data() + off, bs.data() + off, bc.data() + off, w, n);
        ASSERT_TRUE(SameBits(
            simd::ScoreDot(al.data() + off, as.data() + off, ac.data() + off,
                           bl.data() + off, bs.data() + off, bc.data() + off,
                           w, n),
            want))
            << "n=" << n << " off=" << off << " w=" << w;
        std::vector<float> ref_hu(n + off), ref_hv(n + off);
        const float ref_nu = simd::portable::FloatH(
            al.data() + off, as.data() + off, ac.data() + off, w,
            ref_hu.data() + off, n);
        const float ref_nv = simd::portable::FloatH(
            bl.data() + off, bs.data() + off, bc.data() + off, w,
            ref_hv.data() + off, n);
        const float ref_estimate = simd::portable::FloatDot(
            ref_hu.data() + off, ref_hv.data() + off, n);
        std::vector<float> combined(n + off);
        simd::portable::CombineHalf(bl.data() + off, bs.data() + off,
                                    bc.data() + off, w, combined.data() + off,
                                    n);
        EXPECT_TRUE(SameBytes(ref_hv, combined))
            << "FloatH row n=" << n << " off=" << off << " w=" << w;
        EXPECT_TRUE(EstimateBrackets(ref_estimate,
                                     simd::FloatDotBound(ref_nu, n), ref_nv,
                                     want))
            << "bound n=" << n << " off=" << off << " w=" << w;
        for (const FloatKernels& k : backends) {
          std::vector<float> hu(n + off), hv(n + off);
          const float nu = k.float_h(al.data() + off, as.data() + off,
                                     ac.data() + off, w, hu.data() + off, n);
          const float nv = k.float_h(bl.data() + off, bs.data() + off,
                                     bc.data() + off, w, hv.data() + off, n);
          EXPECT_TRUE(SameBytes(hu, ref_hu) && SameBytes(hv, ref_hv))
              << k.name << " FloatH n=" << n << " off=" << off
              << " w=" << w;
          EXPECT_EQ(std::memcmp(&nu, &ref_nu, sizeof(float)), 0)
              << k.name << " FloatH norm n=" << n << " off=" << off;
          EXPECT_EQ(std::memcmp(&nv, &ref_nv, sizeof(float)), 0)
              << k.name << " FloatH norm n=" << n << " off=" << off;
          float estimate = -7.0f;
          k.float_dots(hu.data() + off, hv.data() + off, 1, n, &estimate);
          EXPECT_EQ(std::memcmp(&estimate, &ref_estimate, sizeof(float)), 0)
              << k.name << " FloatDots one row n=" << n << " off=" << off
              << " w=" << w;
          // A block of four rows and one more (the AVX2 twin's grouped
          // path and its remainder), alternating the item's and the
          // user's row.
          constexpr size_t kRows = 5;
          std::vector<float> block(kRows * n + off);
          for (size_t r = 0; r < kRows; ++r) {
            std::copy_n((r % 2 == 0 ? ref_hv : ref_hu).data() + off, n,
                        block.data() + off + r * n);
          }
          const float ref_self = simd::portable::FloatDot(
              ref_hu.data() + off, ref_hu.data() + off, n);
          std::vector<float> estimates(kRows, -7.0f);
          k.float_dots(hu.data() + off, block.data() + off, kRows, n,
                       estimates.data());
          for (size_t r = 0; r < kRows; ++r) {
            const float want_r = r % 2 == 0 ? ref_estimate : ref_self;
            EXPECT_EQ(std::memcmp(&estimates[r], &want_r, sizeof(float)), 0)
                << k.name << " FloatDots row " << r << " n=" << n
                << " off=" << off << " w=" << w;
          }
        }
      }
    }
  }
}

// FloatDotBound against ScoreDot on rows at every scale the proof covers:
// float denormals, where only the absolute terms hold the estimate; 1e18,
// where products near float's range still fit; and rows whose float
// accumulation loses a term that the double one keeps (2^30 + 1 − 2^30).
TEST(SimdTest, FloatDotBoundCoversScoreDotAcrossScales) {
  Rng rng(21);
  const float scales[] = {1e-40f, 1e-30f, 1.0f, 1e18f};
  size_t bounded = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t n = 1 + rng.Index(130);
    const float su = scales[rng.Index(4)], sv = scales[rng.Index(4)];
    std::vector<float> ul(n), us(n), uc(n), vl(n), vs(n), vc(n);
    for (size_t i = 0; i < n; ++i) {
      ul[i] = su * static_cast<float>(rng.Uniform(-2.0, 2.0));
      us[i] = su * static_cast<float>(rng.Uniform(-2.0, 2.0));
      uc[i] = su * static_cast<float>(rng.Uniform(-2.0, 2.0));
      vl[i] = sv * static_cast<float>(rng.Uniform(-2.0, 2.0));
      vs[i] = sv * static_cast<float>(rng.Uniform(-2.0, 2.0));
      vc[i] = sv * static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    if (n > 16 && trial % 4 == 0) {
      // h_v = (2^30, 1, −2^30) on one float lane, h_u = 1 there.
      for (size_t i : {size_t{0}, size_t{8}, size_t{16}}) {
        ul[i] = 2.0f;
        us[i] = uc[i] = vs[i] = vc[i] = 0.0f;
      }
      vl[0] = 0x1p31f;
      vl[8] = 2.0f;
      vl[16] = -0x1p31f;
    }
    for (double w : {0.0, 1.0}) {
      std::vector<float> hu(n), hv(n);
      const float nu =
          simd::FloatH(ul.data(), us.data(), uc.data(), w, hu.data(), n);
      const float nv =
          simd::FloatH(vl.data(), vs.data(), vc.data(), w, hv.data(), n);
      float estimate = 0.0f;
      simd::FloatDots(hu.data(), hv.data(), 1, n, &estimate);
      const double s = simd::ScoreDot(ul.data(), us.data(), uc.data(),
                                      vl.data(), vs.data(), vc.data(), w, n);
      EXPECT_TRUE(
          EstimateBrackets(estimate, simd::FloatDotBound(nu, n), nv, s))
          << "trial " << trial << " n=" << n << " w=" << w << " s=" << s
          << " estimate=" << estimate;
      if (std::isfinite(estimate)) ++bounded;
    }
  }
  // Only the 1e18 × 1e18 pairs overflow float.
  EXPECT_GT(bounded, 6000u);
}

// ScoreDot is a fused form of "materialize both final embeddings with
// CombineHalf, then Dot them". Fusion changes the rounding sequence, so
// only near-equality is promised — but it must be tight.
TEST(SimdTest, ScoreDotAgreesWithMaterializedEmbeddings) {
  Rng rng(17);
  const size_t n = 64;
  const auto al = RandomVec(n, rng), as = RandomVec(n, rng),
             ac = RandomVec(n, rng), bl = RandomVec(n, rng),
             bs = RandomVec(n, rng), bc = RandomVec(n, rng);
  std::vector<float> hu(n), hv(n);
  for (double w : {0.0, 1.0}) {
    simd::CombineHalf(al.data(), as.data(), ac.data(), w, hu.data(), n);
    simd::CombineHalf(bl.data(), bs.data(), bc.data(), w, hv.data(), n);
    const double materialized = simd::Dot(hu.data(), hv.data(), n);
    const double fused =
        simd::ScoreDot(al.data(), as.data(), ac.data(), bl.data(), bs.data(),
                       bc.data(), w, n);
    EXPECT_NEAR(fused, materialized, 1e-5);
  }
}

// math_utils routes its Dot/Axpy/Scale through the dispatched kernels; the
// aliases must stay in sync.
TEST(SimdTest, MathUtilsRoutesThroughSimd) {
  Rng rng(18);
  const size_t n = 67;
  const auto a = RandomVec(n, rng);
  const auto b = RandomVec(n, rng);
  EXPECT_EQ(Dot(a.data(), b.data(), n), simd::Dot(a.data(), b.data(), n));
  auto y1 = b, y2 = b;
  Axpy(0.75, a.data(), y1.data(), n);
  simd::Axpy(0.75, a.data(), y2.data(), n);
  EXPECT_EQ(y1, y2);
  auto x1 = a, x2 = a;
  Scale(-0.3, x1.data(), n);
  simd::Scale(-0.3, x2.data(), n);
  EXPECT_EQ(x1, x2);
}

TEST(SimdTest, BackendNameIsConsistentWithHasAvx2) {
  if (simd::HasAvx2()) {
    EXPECT_STREQ(simd::BackendName(), "avx2");
  } else {
    EXPECT_STREQ(simd::BackendName(), "portable");
  }
}

}  // namespace
}  // namespace supa
