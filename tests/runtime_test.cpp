// Unit tests for the runtime substrate: deterministic RNG, barrier,
// thread pool, and check macros.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "ptdp/runtime/barrier.hpp"
#include "ptdp/runtime/check.hpp"
#include "ptdp/runtime/rng.hpp"
#include "ptdp/runtime/stopwatch.hpp"
#include "ptdp/runtime/thread_pool.hpp"

namespace ptdp {
namespace {

TEST(Rng, DeterministicForSameKey) {
  Rng a(42, 7);
  Rng b(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(42, 1);
  Rng b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1, 0);
  Rng b(2, 0);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(123);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.next_uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.next_uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(99);
  const int n = 20000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.next_gaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(Rng, DiscardSkipsDraws) {
  Rng a(11), b(11);
  for (int i = 0; i < 5; ++i) a.next_u64();
  b.discard(5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, AtEqualsSequentialDraw) {
  Rng seq(77, 5);
  const Rng pure(77, 5);
  for (std::uint64_t c = 0; c < 1000; ++c) {
    ASSERT_EQ(pure.at(c), seq.next_u64()) << "counter " << c;
  }
  // at() indexes absolutely and reads no counter state.
  Rng advanced(77, 5);
  advanced.discard(123);
  EXPECT_EQ(advanced.at(7), pure.at(7));
  EXPECT_EQ(advanced.at(123), advanced.next_u64());
}

TEST(Rng, IntegerKeepTestEqualsNextBernoulli) {
  // The kernels pass float probabilities; cover both spellings.
  std::vector<double> ps = {1e-6, 0.01, 0.1, 0.5, 0.9, 0.999};
  for (const float pf : {1e-6f, 0.01f, 0.1f, 0.5f, 0.9f, 0.999f}) ps.push_back(pf);
  for (const double p : ps) {
    const std::uint64_t threshold = Rng::bernoulli_threshold(p);
    Rng seq(3, 9);
    const Rng pure(3, 9);
    for (std::uint64_t c = 0; c < (1u << 16); ++c) {
      ASSERT_EQ(pure.bernoulli_at(c, threshold), seq.next_bernoulli(p))
          << "p " << p << " counter " << c;
    }
    // At the boundary: next_uniform() is exactly (u >> 11)·2^-53.
    for (const std::uint64_t x : {threshold - 1, threshold, threshold + 1}) {
      const double uniform = static_cast<double>(x) * 0x1.0p-53;
      EXPECT_EQ(x < threshold, uniform < p) << "p " << p << " x " << x;
    }
  }
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(-0.5), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::bernoulli_threshold(0.5), std::uint64_t{1} << 52);
}

TEST(Rng, SubstreamIsOrderSensitive) {
  EXPECT_NE(substream(1, 2), substream(2, 1));
  EXPECT_NE(substream(0, 0, 1), substream(0, 1, 0));
}

TEST(Barrier, SingleParticipantNeverBlocks) {
  Barrier b(1);
  EXPECT_EQ(b.arrive_and_wait(), 0u);
  EXPECT_EQ(b.arrive_and_wait(), 1u);
}

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 8;
  constexpr int kPhases = 50;
  Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> violated{false};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int ph = 0; ph < kPhases; ++ph) {
        phase_counter.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, all kThreads increments of this phase landed.
        if (phase_counter.load() < (ph + 1) * kThreads) violated = true;
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(phase_counter.load(), kThreads * kPhases);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, InterdependentGangCompletes) {
  // Tasks that rendezvous on a barrier require pool size >= gang size.
  constexpr int kGang = 4;
  ThreadPool pool(kGang);
  Barrier barrier(kGang);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < kGang; ++i) {
    futs.push_back(pool.submit([&] { barrier.arrive_and_wait(); }));
  }
  for (auto& f : futs) f.get();
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(PTDP_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsWithContext) {
  try {
    PTDP_CHECK(false) << "custom context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context 42"), std::string::npos);
  }
}

TEST(Check, ComparisonsIncludeOperands) {
  try {
    PTDP_CHECK_EQ(3, 4);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("lhs=3"), std::string::npos);
    EXPECT_NE(msg.find("rhs=4"), std::string::npos);
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.elapsed_ms(), 5.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_ms(), 5.0);
}

}  // namespace
}  // namespace ptdp
