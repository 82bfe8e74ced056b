// Layout-equivalence test for the benchmark's training workloads: each
// workload's (p, t, d, v) layout must produce, step for step, the same loss
// bits as a serial p = t = d = 1 run of the same model on the same data.
// Loss after step k depends on the weights every earlier step produced, so
// matching losses over several steps show the layouts train identically.
//
//   ctest --test-dir .bench_build -R perfbench_layout_test

#include <cstdio>
#include <cstring>

#include "harness.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/runtime/parallel_for.hpp"

using namespace ptdp;

namespace {

constexpr int kSteps = 3;
constexpr std::uint64_t kSeed = 11;

std::vector<float> losses(const perfbench::TrainConfig& cfg, std::size_t threads) {
  runtime::set_intra_op_threads(threads);
  core::EngineOptions options;
  options.model = cfg.model;
  options.parallel = cfg.parallel;
  options.global_batch = cfg.global_batch;
  options.optimizer = core::EngineOptions::Opt::kAdam;
  options.adam.lr = 3e-3f;
  data::SyntheticCorpus corpus(cfg.model.vocab, kSeed);
  const data::TokenDataset dataset(
      corpus.generate(std::max<std::int64_t>(cfg.model.seq * 512, 8192)), cfg.model.seq);
  std::vector<float> out(kSteps);
  dist::World world(static_cast<int>(cfg.parallel.n()));
  world.run([&](dist::Comm& comm) {
    core::PtdpEngine engine(comm, options);
    const data::ShardedLoader loader(dataset, cfg.global_batch, cfg.parallel.b,
                                     cfg.parallel.d, engine.groups().coord().data, kSeed);
    for (int s = 0; s < kSteps; ++s) {
      const float loss = engine.train_step(loader.next_batch(s));
      if (comm.rank() == 0) out[static_cast<std::size_t>(s)] = loss;
    }
  });
  return out;
}

}  // namespace

int main() {
  int failures = 0;
  for (const auto& [name, cfg] : {std::pair{"train_ptd", perfbench::train_ptd()},
                                  std::pair{"train_dp", perfbench::train_dp()}}) {
    perfbench::TrainConfig serial = cfg;
    serial.parallel = core::ParallelConfig{.p = 1, .t = 1, .d = 1, .b = cfg.parallel.b};
    const auto parallel_losses = losses(cfg, 1);
    const auto serial_losses = losses(serial, 4);
    for (int s = 0; s < kSteps; ++s) {
      const float a = parallel_losses[static_cast<std::size_t>(s)];
      const float b = serial_losses[static_cast<std::size_t>(s)];
      const bool same = std::memcmp(&a, &b, sizeof a) == 0;
      std::printf("%s %s step %d: layout loss %.9g, serial loss %.9g\n",
                  same ? "ok  " : "FAIL", name, s, a, b);
      failures += same ? 0 : 1;
    }
  }
  return failures == 0 ? 0 : 1;
}
