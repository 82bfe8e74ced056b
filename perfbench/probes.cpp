// Direct layer probes: the benchmark's own timing around single calls into
// layer public functions, at the shapes the workloads run. Each probe
// reports the median over its repeats and the repeat count.

#include <algorithm>

#include "harness.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/quant/quant.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/serve/kv_cache.hpp"
#include "ptdp/tensor/ops.hpp"

namespace perfbench {

using namespace ptdp;
using tensor::Tensor;

namespace {

template <typename F>
double median_seconds(int warmup, int repeats, F&& call) {
  for (int i = 0; i < warmup; ++i) call();
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = now_s();
    call();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

}  // namespace

Metrics run_probes(const ServeConfig& decode_cfg) {
  Metrics m;
  Rng rng(97);

  // tensor::matmul at train_ptd's QKV shard: [s·b, h] x [h, 3h/t], 1 thread.
  {
    constexpr int kRepeats = 31;
    runtime::set_intra_op_threads(kTrainIntraOpThreads);
    const Tensor a = Tensor::randn({512, 256}, rng);
    const Tensor w = Tensor::randn({256, 384}, rng);
    const double s = median_seconds(3, kRepeats, [&] { (void)tensor::matmul(a, w); });
    m["tensor.matmul_gflops_1t"] = Metric{2.0 * 512 * 256 * 384 / s / 1e9, "GFLOP/s"};
    m["tensor.matmul_repeats"] = Metric{kRepeats, "count"};
  }

  // int8 weight-only GEMM at the decode MLP shape [64, h] x [h, 4h], 2 threads.
  {
    constexpr int kRepeats = 51;
    runtime::set_intra_op_threads(decode_cfg.intra_op_threads);
    const Tensor a = Tensor::randn({64, 256}, rng);
    const auto q8 = quant::quantize(Tensor::randn({256, 1024}, rng),
                                    tensor::QuantKind::kInt8, decode_cfg.quant.group_size);
    const double s = median_seconds(3, kRepeats, [&] { (void)quant::matmul(a, q8); });
    m["tensor.gemm_q8_gflops_2t"] = Metric{2.0 * 64 * 256 * 1024 / s / 1e9, "GFLOP/s"};
    m["tensor.gemm_q8_repeats"] = Metric{kRepeats, "count"};
  }

  // Comm::all_reduce in World(4) at the engine's gradient-bucket size. A
  // repeat's time is the slowest rank's; bandwidth is bus bandwidth,
  // 2(n-1)/n · bytes / time.
  {
    constexpr int kRanks = 4, kRepeats = 41;
    const std::int64_t elems = core::EngineOptions{}.dp_bucket_elems;
    runtime::set_intra_op_threads(kTrainIntraOpThreads);
    std::vector<std::vector<double>> per_rank(kRanks);
    dist::World world(kRanks);
    world.run([&](dist::Comm& comm) {
      std::vector<float> buf(static_cast<std::size_t>(elems), 1.0f);
      auto& mine = per_rank[static_cast<std::size_t>(comm.rank())];
      for (int i = 0; i < kRepeats + 3; ++i) {
        comm.barrier();
        const double t0 = now_s();
        comm.all_reduce(buf);
        if (i >= 3) mine.push_back(now_s() - t0);
      }
    });
    std::vector<double> slowest(kRepeats, 0.0);
    for (const auto& r : per_rank) {
      for (int i = 0; i < kRepeats; ++i) slowest[i] = std::max(slowest[i], r[i]);
    }
    const double bytes = static_cast<double>(elems) * sizeof(float);
    m["dist.all_reduce_gbps"] =
        Metric{2.0 * (kRanks - 1) / kRanks * bytes / median(slowest) / 1e9, "GB/s"};
    m["dist.all_reduce_repeats"] = Metric{kRepeats, "count"};
  }

  // GptStage::decode of 64 single-token rows through a PagedKvCache, on the
  // decode-probe stage (int8 weights, its intra-op threads), each sequence
  // holding a 32-token context.
  {
    constexpr int kSeqs = 64, kContext = 32, kRepeats = 15;
    runtime::set_intra_op_threads(decode_cfg.intra_op_threads);
    const dist::Comm solo = dist::Comm::solo();
    model::GptStage stage(decode_cfg.model, solo,
                          model::StageSpec{true, true, 0, decode_cfg.model.num_layers, false});
    stage.quantize_for_serving(decode_cfg.quant);
    serve::KvCacheOptions ko;
    ko.num_layers = decode_cfg.model.num_layers;
    ko.hidden_local = stage.kv_heads_local() * stage.kv_head_dim();
    ko.block_tokens = 8;
    ko.capacity_blocks = kSeqs * ((kContext + kRepeats + 2 + 7) / 8);
    ko.record_metrics = false;
    serve::PagedKvCache kv(ko);
    const auto vocab = static_cast<std::uint64_t>(decode_cfg.model.vocab);
    for (int s = 0; s < kSeqs; ++s) {
      PTDP_CHECK(kv.try_reserve(static_cast<std::uint64_t>(s), kContext + kRepeats + 2));
      std::vector<std::int32_t> prompt(kContext);
      for (auto& t : prompt) t = static_cast<std::int32_t>(rng.next_below(vocab));
      const model::DecodeSeq seq{static_cast<std::uint64_t>(s), 0, kContext};
      (void)stage.decode(std::span<const model::DecodeSeq>(&seq, 1), prompt, kv);
    }
    std::int64_t pos = kContext;
    std::vector<model::DecodeSeq> seqs(kSeqs);
    std::vector<std::int32_t> tokens(kSeqs);
    const double s = median_seconds(2, kRepeats, [&] {
      for (int i = 0; i < kSeqs; ++i) {
        seqs[static_cast<std::size_t>(i)] = {static_cast<std::uint64_t>(i), pos, 1};
        tokens[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(rng.next_below(vocab));
      }
      (void)stage.decode(seqs, tokens, kv);
      ++pos;
    });
    m["model.decode_ms_b64"] = Metric{s * 1e3, "ms"};
    m["model.decode_repeats"] = Metric{kRepeats, "count"};
  }
  return m;
}

}  // namespace perfbench
