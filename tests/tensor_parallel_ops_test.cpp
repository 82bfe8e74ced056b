// Tests for the intra-op parallel compute backend: the packed GEMM kernels
// against a naive reference at tile-unfriendly shapes, bitwise determinism
// across intra-op thread counts, the parallel_for facility itself, and
// kernels running inside a dist gang (rank threads + intra-op helpers must
// compose without deadlock).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "ptdp/dist/world.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp {
namespace {

using tensor::Tensor;

/// Restore the requested intra-op width when a test exits.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(runtime::intra_op_threads()) {}
  ~ThreadGuard() { runtime::set_intra_op_threads(saved_); }

 private:
  std::size_t saved_;
};

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  auto pa = a.data();
  auto pb = b.data();
  auto pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      for (std::int64_t j = 0; j < n; ++j) {
        pc[static_cast<std::size_t>(i * n + j)] +=
            pa[static_cast<std::size_t>(i * k + p)] *
            pb[static_cast<std::size_t>(p * n + j)];
      }
    }
  }
  return c;
}

// ---- parallel_for facility ----------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  runtime::parallel_for(0, kN, 64, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  int calls = 0;
  runtime::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Range at or below grain runs as a single inline call on the caller.
  std::atomic<int> chunked{0};
  runtime::parallel_for(0, 8, 16, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 8);
    chunked++;
  });
  EXPECT_EQ(chunked.load(), 1);
}

TEST(ParallelFor, NestedCallsRunSerialInline) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  EXPECT_FALSE(runtime::in_parallel_region());
  std::atomic<bool> saw_nested_region{false};
  runtime::parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
    if (runtime::in_parallel_region()) saw_nested_region = true;
    // A nested parallel_for must degrade to one inline call.
    std::atomic<int> inner_calls{0};
    runtime::parallel_for(0, 1000, 1, [&](std::int64_t b, std::int64_t e) {
      EXPECT_EQ(b, 0);
      EXPECT_EQ(e, 1000);
      inner_calls++;
    });
    EXPECT_EQ(inner_calls.load(), 1);
  });
  EXPECT_TRUE(saw_nested_region.load());
  EXPECT_FALSE(runtime::in_parallel_region());
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  EXPECT_THROW(
      runtime::parallel_for(0, 256, 1,
                            [&](std::int64_t b, std::int64_t) {
                              if (b == 128) throw std::runtime_error("chunk boom");
                            }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<std::int64_t> total{0};
  runtime::parallel_for(0, 256, 1, [&](std::int64_t b, std::int64_t e) {
    total += e - b;
  });
  EXPECT_EQ(total.load(), 256);
}

TEST(ParallelFor, EnvVariableParsing) {
  ASSERT_EQ(setenv("PTDP_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 3u);
  ASSERT_EQ(setenv("PTDP_NUM_THREADS", "garbage", 1), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 0u);
  ASSERT_EQ(setenv("PTDP_NUM_THREADS", "0", 1), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 0u);
  ASSERT_EQ(unsetenv("PTDP_NUM_THREADS"), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 0u);
}

TEST(ParallelFor, SetThreadsRoundTrips) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(2);
  EXPECT_EQ(runtime::intra_op_threads(), 2u);
  runtime::set_intra_op_threads(1);
  EXPECT_EQ(runtime::intra_op_threads(), 1u);
}

// ---- GEMM correctness at tile-unfriendly shapes -------------------------------

TEST(ParallelGemm, MatchesNaiveAtOddShapes) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  Rng rng(11);
  const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> shapes = {
      {1, 1, 1},    {1, 17, 1},   {3, 5, 7},     {8, 16, 256},
      {17, 31, 13}, {65, 129, 257},  // just past the MR/NR/KC tile edges
      {100, 3, 300}, {129, 1023, 5}, {256, 16, 1},
  };
  for (const auto& [m, n, k] : shapes) {
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor ref = naive_matmul(a, b);
    EXPECT_TRUE(allclose(tensor::matmul(a, b), ref, 1e-4f, 1e-5f))
        << "nn " << m << "x" << n << "x" << k;
    EXPECT_TRUE(allclose(tensor::matmul_nt(a, b.transpose(0, 1)), ref, 1e-4f, 1e-5f))
        << "nt " << m << "x" << n << "x" << k;
    EXPECT_TRUE(allclose(tensor::matmul_tn(a.transpose(0, 1), b), ref, 1e-4f, 1e-5f))
        << "tn " << m << "x" << n << "x" << k;
  }
}

// The old TN kernel skipped zero A entries (a data-dependent branch); the
// packed kernel must handle fully-zero and sparse operands identically.
TEST(ParallelGemm, SparseOperandsNoSpecialCasing) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  Rng rng(12);
  Tensor a = Tensor::randn({37, 41}, rng);
  auto da = a.data();
  for (std::size_t i = 0; i < da.size(); i += 2) da[i] = 0.0f;  // 50% zeros
  Tensor b = Tensor::randn({37, 29}, rng);
  Tensor ref = naive_matmul(a.transpose(0, 1), b);
  EXPECT_TRUE(allclose(tensor::matmul_tn(a, b), ref, 1e-4f, 1e-5f));
  Tensor zeros({37, 41});
  EXPECT_EQ(tensor::max_all(tensor::matmul_tn(zeros, b)), 0.0f);
}

// ---- bitwise determinism across intra-op thread counts ------------------------

template <typename KernelFn>
void expect_bitwise_stable(KernelFn kernel) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(1);
  Tensor base = kernel();
  for (std::size_t threads : {2u, 8u}) {
    runtime::set_intra_op_threads(threads);
    Tensor again = kernel();
    EXPECT_EQ(tensor::max_abs_diff(base, again), 0.0f)
        << "kernel result changed at " << threads << " intra-op threads";
  }
}

TEST(ParallelDeterminism, GemmBitwiseStable) {
  Rng rng(21);
  Tensor a = Tensor::randn({513, 511}, rng);
  Tensor b = Tensor::randn({511, 259}, rng);
  expect_bitwise_stable([&] { return tensor::matmul(a, b); });
  expect_bitwise_stable([&] { return tensor::matmul_nt(a, b.transpose(0, 1)); });
  expect_bitwise_stable([&] { return tensor::matmul_tn(a.transpose(0, 1), b); });
}

TEST(ParallelDeterminism, BmmBitwiseStable) {
  Rng rng(22);
  Tensor a = Tensor::randn({6, 33, 65}, rng);
  Tensor b = Tensor::randn({6, 65, 17}, rng);
  expect_bitwise_stable([&] { return tensor::bmm(a, b); });
}

TEST(ParallelDeterminism, ElementwiseAndFusedBitwiseStable) {
  Rng rng(23);
  Tensor x = Tensor::randn({301, 257}, rng);
  Tensor bias = Tensor::randn({257}, rng);
  Tensor gamma = Tensor::uniform({257}, rng, 0.5f, 1.5f);
  Tensor beta = Tensor::randn({257}, rng);
  Tensor dy = Tensor::randn({301, 257}, rng);

  expect_bitwise_stable([&] { return tensor::gelu(x); });
  expect_bitwise_stable([&] { return tensor::add_bias(x, bias); });
  expect_bitwise_stable([&] { return tensor::bias_grad(dy); });
  expect_bitwise_stable([&] { return tensor::fused_bias_gelu(x, bias); });
  expect_bitwise_stable([&] { return tensor::softmax_lastdim(x); });
  expect_bitwise_stable([&] { return tensor::layernorm(x, gamma, beta).y; });

  auto ln = tensor::layernorm(x, gamma, beta);
  expect_bitwise_stable([&] {
    auto grads = tensor::layernorm_backward(dy, x, gamma, ln.mean, ln.rstd);
    // Fold all three grads into one tensor so one comparison covers them.
    Tensor packed({301 * 257 + 2 * 257});
    auto dst = packed.data();
    auto dx = grads.dx.data();
    std::copy(dx.begin(), dx.end(), dst.begin());
    auto dg = grads.dgamma.data();
    std::copy(dg.begin(), dg.end(), dst.begin() + dx.size());
    auto db = grads.dbeta.data();
    std::copy(db.begin(), db.end(), dst.begin() + dx.size() + dg.size());
    return packed;
  });

  expect_bitwise_stable([&] {
    Tensor dbias({257});
    Tensor dx = tensor::fused_bias_gelu_backward(dy, x, bias, dbias);
    Tensor packed({301 * 257 + 257});
    auto dst = packed.data();
    auto dxs = dx.data();
    std::copy(dxs.begin(), dxs.end(), dst.begin());
    auto dbs = dbias.data();
    std::copy(dbs.begin(), dbs.end(), dst.begin() + dxs.size());
    return packed;
  });
}

TEST(ParallelDeterminism, FusedSoftmaxBitwiseStable) {
  Rng rng(24);
  Tensor scores = Tensor::randn({10, 37, 37}, rng);
  expect_bitwise_stable(
      [&] { return tensor::fused_scale_causal_softmax(scores, 0.125f); });
  Tensor mask({37, 37});  // nothing masked
  expect_bitwise_stable(
      [&] { return tensor::fused_scale_mask_softmax(scores, mask, 0.125f); });
}

// ---- dropout: counter-indexed draws vs the sequential stream --------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  const auto da = a.data();
  const auto db = b.data();
  return a.same_shape(b) &&
         std::memcmp(da.data(), db.data(), da.size() * sizeof(float)) == 0;
}

// One next_bernoulli per element in order: the loop the counter-indexed
// kernels must reproduce.
Tensor sequential_mask(Rng rng, const tensor::Shape& shape, float p) {
  Tensor mask = Tensor::empty(shape);
  for (float& m : mask.data()) m = rng.next_bernoulli(p) ? 0.0f : 1.0f / (1.0f - p);
  return mask;
}

TEST(ParallelDeterminism, DropoutMatchesSequentialStream) {
  ThreadGuard guard;
  Rng init(25);
  // More than one parallel_for grain, and a row length off the vector width.
  const Tensor x = Tensor::randn({300, 257}, init);
  const Tensor bias = Tensor::randn({257}, init);
  const Tensor residual = Tensor::randn({300, 257}, init);
  for (const float p : {0.1f, 0.5f}) {
    Rng start(26, 1);
    start.discard(5);  // draws continue from the stream's current counter
    const Tensor ref_mask = sequential_mask(start, x.shape(), p);
    const Tensor biased = tensor::add_bias(x, bias);
    const Tensor ref_y = tensor::mul(x, ref_mask);
    const Tensor ref_fused = tensor::add(tensor::mul(biased, ref_mask), residual);
    for (const std::size_t threads : {1u, 3u}) {
      runtime::set_intra_op_threads(threads);
      SCOPED_TRACE("p=" + std::to_string(p) + " threads=" + std::to_string(threads));
      Rng rng = start;
      Tensor mask;
      const Tensor y = tensor::dropout(x, p, rng, mask);
      EXPECT_TRUE(same_bits(mask, ref_mask));
      EXPECT_TRUE(same_bits(y, ref_y));
      EXPECT_EQ(rng.counter(), start.counter() + static_cast<std::uint64_t>(x.numel()));
      Rng frng = start;
      Tensor fmask;
      const Tensor fy = tensor::fused_bias_dropout_add(x, bias, residual, p, frng, fmask);
      EXPECT_TRUE(same_bits(fmask, ref_mask));
      EXPECT_TRUE(same_bits(fy, ref_fused));
      EXPECT_EQ(frng.counter(), rng.counter());
    }
  }
}

// Attention dropout folded into the fused softmax kernels, against the
// sequential reference: softmax -> one next_bernoulli loop per [sq, sk] slab
// (the unfused plan's mask) -> mul forward, and mul -> softmax_backward ->
// scale backward. Causal and padding-mask variants, square and sk > sq.
TEST(FusedSoftmaxDropout, MatchesSequentialReference) {
  ThreadGuard guard;
  constexpr std::int64_t kSlabs = 4;
  const float scl = 0.3f;
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
      {1, 1}, {6, 6}, {37, 37}, {129, 129}, {6, 37}, {37, 129}};
  for (const auto& [sq, sk] : shapes) {
    Rng init(27, static_cast<std::uint64_t>(sq * 1000 + sk));
    const Tensor scores = Tensor::randn({kSlabs, sq, sk}, init);
    const Tensor dp = Tensor::randn({kSlabs, sq, sk}, init);
    // Padding mask with key 0 always visible, so no row is fully masked.
    Tensor pad({sq, sk});
    for (std::int64_t i = 0; i < sq; ++i) {
      for (std::int64_t j = 1; j < sk; ++j) {
        pad.at({i, j}) = (i + 2 * j) % 5 == 3 ? 1.0f : 0.0f;
      }
    }
    std::vector<Rng> slabs;
    for (std::int64_t r = 0; r < kSlabs; ++r) {
      slabs.emplace_back(28, substream(static_cast<std::uint64_t>(r), 2));
    }
    for (const bool causal : {true, false}) {
      const Tensor probs = causal ? tensor::fused_scale_causal_softmax(scores, scl)
                                  : tensor::fused_scale_mask_softmax(scores, pad, scl);
      for (const float p : {0.01f, 0.1f, 0.5f, 0.9f}) {
        Tensor mask = Tensor::empty({kSlabs, sq, sk});
        for (std::int64_t r = 0; r < kSlabs; ++r) {
          const Tensor slab = sequential_mask(slabs[static_cast<std::size_t>(r)],
                                              {sq, sk}, p);
          std::copy(slab.data().begin(), slab.data().end(),
                    mask.data().begin() + r * sq * sk);
        }
        const Tensor ref_dropped = tensor::mul(probs, mask);
        const Tensor ref_ds = tensor::scale(
            tensor::softmax_backward(probs, tensor::mul(dp, mask)), scl);
        const tensor::ProbDropout drop{p, slabs};
        for (const std::size_t threads : {1u, 3u}) {
          runtime::set_intra_op_threads(threads);
          SCOPED_TRACE("sq=" + std::to_string(sq) + " sk=" + std::to_string(sk) +
                       " causal=" + std::to_string(causal) +
                       " p=" + std::to_string(p) +
                       " threads=" + std::to_string(threads));
          Tensor dropped;
          const Tensor y =
              causal ? tensor::fused_scale_causal_softmax(scores, scl, drop, dropped)
                     : tensor::fused_scale_mask_softmax(scores, pad, scl, drop, dropped);
          EXPECT_TRUE(same_bits(y, probs));
          EXPECT_TRUE(same_bits(dropped, ref_dropped));
          const Tensor ds =
              tensor::fused_scale_softmax_backward(probs, dp, scl, dropped, p);
          // Bitwise wherever the probability is nonzero; where it is exactly
          // 0 the keep bit is unreadable and only the sign of 0 may differ.
          const auto dsv = ds.data();
          const auto refv = ref_ds.data();
          const auto pv = probs.data();
          for (std::size_t e = 0; e < dsv.size(); ++e) {
            if (pv[e] != 0.0f) {
              ASSERT_EQ(std::memcmp(&dsv[e], &refv[e], sizeof(float)), 0) << e;
            } else {
              ASSERT_EQ(dsv[e], 0.0f) << e;
              ASSERT_EQ(refv[e], 0.0f) << e;
            }
          }
        }
      }
    }
  }
}

// ---- intra-op parallelism inside a dist gang ----------------------------------

// Every rank of a 4-rank gang runs parallel GEMMs while also hitting
// collective rendezvous points. The intra-op pool is shared process-wide, so
// this exercises exactly the oversubscription/deadlock scenario the separate
// pool exists to prevent.
TEST(ParallelGang, RanksDoParallelMatmulsWithoutDeadlock) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  Rng rng(31);
  Tensor a = Tensor::randn({130, 140}, rng);
  Tensor b = Tensor::randn({140, 150}, rng);
  Tensor expected = tensor::matmul(a, b);

  constexpr int kRanks = 4;
  dist::World world(kRanks);
  std::vector<float> checks(kRanks, 0.0f);
  world.run([&](dist::Comm& comm) {
    for (int iter = 0; iter < 3; ++iter) {
      Tensor c = comm.rank() % 2 == 0 ? tensor::matmul(a, b)
                                      : tensor::matmul_nt(a, b.transpose(0, 1));
      EXPECT_EQ(tensor::max_abs_diff(c, expected), 0.0f);
      comm.barrier();
      // Mix a collective between compute bursts: the rank thread blocks in
      // rendezvous while other ranks may be fanning out intra-op work.
      const float sum = comm.all_reduce_scalar(tensor::sum_all(c));
      EXPECT_FLOAT_EQ(sum, static_cast<float>(kRanks) * tensor::sum_all(expected));
    }
    checks[static_cast<std::size_t>(comm.rank())] = 1.0f;
  });
  for (float v : checks) EXPECT_EQ(v, 1.0f);
  EXPECT_EQ(world.pending_messages(), 0u);
}

}  // namespace
}  // namespace ptdp
