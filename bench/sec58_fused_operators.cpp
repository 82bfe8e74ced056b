// §5.8: operator fusion impact. The paper reports +19% end-to-end for
// GPT-3 175B (113 -> 135 TFLOP/s per GPU) and +11% for the 530B model
// (133 -> 148). We run the same end-to-end configurations with the fused
// kernels toggled in the cost model, measure the *real* CPU fused kernels
// against their unfused compositions, and run a whole transformer block
// unfused (planned graph, fusion pass off) and planner-fused (the layer's
// own plan, fusion pass on), writing median and quartiles of each arm, and
// the host they ran on, to BENCH_graph_fusion.json.

#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/graph/builder.hpp"
#include "ptdp/graph/executor.hpp"
#include "ptdp/model/attention.hpp"
#include "ptdp/model/transformer_layer.hpp"
#include "ptdp/runtime/stopwatch.hpp"
#include "ptdp/tensor/ops.hpp"

using namespace ptdp;

namespace {

void end_to_end(const sim::ClusterSpec& hw, const char* name,
                const model::GptConfig& m, int t, int p, std::int64_t n,
                std::int64_t B, double paper_unfused, double paper_fused) {
  core::ParallelConfig cfg;
  cfg.t = t;
  cfg.p = p;
  cfg.d = static_cast<int>(n / (static_cast<std::int64_t>(t) * p));
  cfg.b = 1;
  const auto unfused = sim::simulate_iteration(hw, m, cfg, B, {false, false});
  const auto fused = sim::simulate_iteration(hw, m, cfg, B, {true, false});
  std::printf("%-12s: %4.0f -> %4.0f TF/GPU (%+.0f%%)   paper: %3.0f -> %3.0f "
              "(%+.0f%%)\n",
              name, unfused.per_gpu_flops / 1e12, fused.per_gpu_flops / 1e12,
              100.0 * (fused.per_gpu_flops / unfused.per_gpu_flops - 1.0),
              paper_unfused, paper_fused,
              100.0 * (paper_fused / paper_unfused - 1.0));
}

// Median and quartiles of `samples` timings of fn (after one warm-up call),
// so a speedup can be read against the spread of each arm.
struct Spread {
  double median, q1, q3;
};

template <typename F>
Spread sample_ms(F&& fn, int samples) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < samples; ++i) {
    Stopwatch sw;
    fn();
    ms.push_back(sw.elapsed_ms());
  }
  std::sort(ms.begin(), ms.end());
  auto at = [&](double q) {
    return ms[static_cast<std::size_t>(q * static_cast<double>(ms.size() - 1) + 0.5)];
  };
  return {at(0.5), at(0.25), at(0.75)};
}

struct Row {
  const char* name;
  Spread unfused, fused;
};

void print_row(const Row& r) {
  std::printf("  %-24s: %7.3f [%7.3f, %7.3f] ms -> %7.3f [%7.3f, %7.3f] ms (%.2fx)\n",
              r.name, r.unfused.median, r.unfused.q1, r.unfused.q3, r.fused.median,
              r.fused.q1, r.fused.q3, r.unfused.median / r.fused.median);
}

void json_spread(std::FILE* f, const Spread& s) {
  std::fprintf(f, "{\"median\": %.4f, \"q1\": %.4f, \"q3\": %.4f}", s.median, s.q1,
               s.q3);
}

void json_row(std::FILE* f, const Row& r, bool last) {
  std::fprintf(f, "    \"%s\": {\"unfused\": ", r.name);
  json_spread(f, r.unfused);
  std::fputs(", \"fused\": ", f);
  json_spread(f, r.fused);
  std::fprintf(f, ", \"speedup\": %.4f}%s\n", r.unfused.median / r.fused.median,
               last ? "" : ",");
}

}  // namespace

int main() {
  bench::header("Section 5.8", "Fused operators");
  const auto hw = sim::ClusterSpec::selene();

  std::printf("End-to-end (cost model):\n");
  end_to_end(hw, "GPT-3 175B", bench::gpt(96, 12288, 96), 8, 12, 384, 1536, 113,
             135);
  end_to_end(hw, "GPT 530B", bench::gpt(105, 20480, 128), 8, 35, 2240, 2240, 133,
             148);

  // The block the kernel rows and the block rows share: its attention
  // module draws the dropout streams of the attention-dropout rows.
  model::GptConfig bc;
  bc.num_layers = 1;
  bc.hidden = 512;
  bc.heads = 8;
  bc.vocab = 1024;
  bc.seq = 256;
  bc.dropout = 0.1f;
  bc.seed = 11;
  const std::int64_t bb = 4;
  dist::Comm solo = dist::Comm::solo();
  model::TransformerLayer layer(bc, 0, solo);
  const model::ParallelAttention& attn = *layer.binding().attn;
  const int samples = 15;

  std::printf("\nReal CPU kernels, median [q1, q3] of %d samples "
              "(unfused composition -> this library's fused kernel):\n",
              samples);
  Rng rng(7);
  const std::int64_t rows = 512, cols = 1024;
  tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng);
  tensor::Tensor bias = tensor::Tensor::randn({cols}, rng);
  tensor::Tensor resid = tensor::Tensor::randn({rows, cols}, rng);
  std::vector<Row> kernels;

  kernels.push_back(
      {"bias_gelu",
       sample_ms([&] { auto y = tensor::gelu(tensor::add_bias(x, bias)); }, samples),
       sample_ms([&] { auto y = tensor::fused_bias_gelu(x, bias); }, samples)});

  kernels.push_back({"bias_dropout_add", sample_ms([&] {
                       tensor::Tensor mask;
                       Rng r2(9);
                       auto y = tensor::dropout(tensor::add_bias(x, bias), 0.1f, r2, mask);
                       tensor::add_(y, resid);
                     }, samples),
                     sample_ms([&] {
                       tensor::Tensor mask;
                       Rng r2(9);
                       auto y = tensor::fused_bias_dropout_add(x, bias, resid, 0.1f, r2,
                                                               mask);
                     }, samples)});

  tensor::Tensor scores = tensor::Tensor::randn({16, 128, 128}, rng);
  // The unfused arm is scale then a plain softmax (no mask build); the fused
  // kernel also applies causal masking.
  kernels.push_back(
      {"scale_softmax", sample_ms([&] {
         auto y = tensor::softmax_lastdim(tensor::scale(scores, 0.125f));
       }, samples),
       sample_ms([&] { auto y = tensor::fused_scale_causal_softmax(scores, 0.125f); },
                 samples)});

  // Attention softmax + dropout at the block's shape [b·a, s, s]: the unfused
  // plan's causal softmax -> kAttnProbMask -> mul, forward and backward,
  // against the softmax kernels with dropout folded in.
  const float smax_scale = 1.0f / std::sqrt(static_cast<float>(bc.head_dim()));
  const tensor::Tensor ascores =
      tensor::Tensor::randn({bb * bc.heads, bc.seq, bc.seq}, rng);
  const tensor::Tensor adp = tensor::Tensor::randn({bb * bc.heads, bc.seq, bc.seq}, rng);
  const tensor::Tensor aprobs = tensor::fused_scale_causal_softmax(ascores, smax_scale);
  const tensor::Tensor amask = attn.make_prob_dropout_mask(bb, 1);
  const std::vector<Rng> slabs = attn.prob_dropout_rngs(bb, 1);
  const tensor::ProbDropout adrop{bc.dropout, slabs};
  tensor::Tensor adropped;
  (void)tensor::fused_scale_causal_softmax(ascores, smax_scale, adrop, adropped);
  kernels.push_back(
      {"attn_softmax_dropout", sample_ms([&] {
         auto probs = tensor::fused_scale_causal_softmax(ascores, smax_scale);
         auto y = tensor::mul(probs, attn.make_prob_dropout_mask(bb, 1));
       }, samples),
       sample_ms([&] {
         tensor::Tensor dropped;
         auto probs = tensor::fused_scale_causal_softmax(
             ascores, smax_scale, adrop, dropped);
       }, samples)});
  kernels.push_back(
      {"attn_softmax_dropout_bwd", sample_ms([&] {
         auto ds = tensor::fused_scale_softmax_backward(
             aprobs, tensor::mul(adp, amask), smax_scale);
       }, samples),
       sample_ms([&] {
         auto ds = tensor::fused_scale_softmax_backward(aprobs, adp, smax_scale,
                                                        adropped, bc.dropout);
       }, samples)});
  for (const Row& r : kernels) print_row(r);

  // ---- block benchmark: unfused plan vs planner-fused ----
  Rng brng(bc.seed, substream(1, 2));
  const tensor::Tensor bx = tensor::Tensor::randn({bc.seq, bb, bc.hidden}, brng);
  const tensor::Tensor bdy = tensor::Tensor::randn({bc.seq, bb, bc.hidden}, brng);

  graph::PlannerOptions unfused_opts;
  unfused_opts.fuse = false;
  const graph::LayerPlan unfused_plan =
      graph::build_layer_plan(bc, /*with_dropout=*/true, unfused_opts);
  const graph::ExecContext ctx{bc.seq, bb, /*mb_tag=*/1, bc.dropout};

  const Row block{"block_fwd_bwd",
                  sample_ms(
                      [&] {
                        graph::Frame frame;
                        frame.begin(unfused_plan, bx);
                        (void)graph::SequentialExecutor::run_forward(
                            unfused_plan, frame, layer.binding(), ctx);
                        (void)graph::SequentialExecutor::run_backward(
                            unfused_plan, frame, layer.binding(), ctx, bdy);
                      },
                      samples),
                  sample_ms(
                      [&] {
                        model::LayerCache cache;
                        (void)layer.forward(bx, cache, 1);
                        (void)layer.backward(bdy, cache);
                      },
                      samples)};

  std::printf("\nTransformer block fwd+bwd (s=%lld b=%lld h=%lld, dropout on), "
              "unfused plan -> planner-fused:\n",
              static_cast<long long>(bc.seq), static_cast<long long>(bb),
              static_cast<long long>(bc.hidden));
  print_row(block);

  std::FILE* f = std::fopen("BENCH_graph_fusion.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_graph_fusion.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sec58_fused_operators\",\n");
  std::fprintf(f, "  \"host\": %s,\n", bench::host_json().c_str());
  std::fprintf(f,
               "  \"config\": {\"hidden\": %lld, \"heads\": %lld, \"seq\": %lld, "
               "\"b\": %lld, \"dropout\": 0.1, \"samples\": %d},\n",
               static_cast<long long>(bc.hidden), static_cast<long long>(bc.heads),
               static_cast<long long>(bc.seq), static_cast<long long>(bb), samples);
  std::fputs("  \"block_ms\": {\n", f);
  json_row(f, block, /*last=*/true);
  std::fputs("  },\n  \"kernel_ms\": {\n", f);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    json_row(f, kernels[i], i + 1 == kernels.size());
  }
  std::fputs("  }\n}\n", f);
  std::fclose(f);
  std::printf("wrote BENCH_graph_fusion.json\n");
  return 0;
}
