// The benchmark's workloads: the training layouts and serving loads each
// workload runs, shared by the perfbench program and its layout test.

#include "harness.hpp"

namespace perfbench {

using namespace ptdp;

TrainConfig train_ptd() {
  TrainConfig c;
  c.model = model::GptConfig{.num_layers = 4, .hidden = 256, .heads = 8, .vocab = 1024,
                             .seq = 512, .dropout = 0.1f};
  c.parallel = core::ParallelConfig{.p = 2, .t = 2, .d = 1, .b = 1, .v = 2,
                                    .schedule = pipeline::ScheduleType::kInterleaved,
                                    .scatter_gather = true, .recompute = true};
  c.global_batch = 8;
  c.warmup_steps = 1;
  c.loss_steps = 8;
  c.loss_mean_over = 6;
  c.min_window_steps = 3;
  return c;
}

TrainConfig train_dp() {
  TrainConfig c;
  c.model = model::GptConfig{.num_layers = 4, .hidden = 256, .heads = 4, .vocab = 8192,
                             .seq = 32, .dropout = 0.0f};
  c.parallel = core::ParallelConfig{.p = 2, .t = 1, .d = 2, .b = 1, .v = 1,
                                    .schedule = pipeline::ScheduleType::kOneFOneB,
                                    .scatter_gather = false, .recompute = true};
  c.global_batch = 8;
  c.warmup_steps = 3;
  c.loss_steps = 32;
  c.loss_mean_over = 16;
  c.min_window_steps = 8;
  return c;
}

/// Shape of the decode probes: the train_ptd model at seq 128, int8, with
/// 2 intra-op threads (the measured best for serving on 4 cores), under a
/// closed loop of 64 users whose KV demand exceeds its 240-block budget, so
/// the KV-pressure probe evicts and recomputes. It is not a workload of its
/// own: timed end to end, its spread exceeded the bounds (see CHANGES.md).
ServeConfig decode_probe_config() {
  ServeConfig c;
  c.model = model::GptConfig{.num_layers = 4, .hidden = 256, .heads = 8, .vocab = 1024,
                             .seq = 128, .dropout = 0.0f};
  c.quant.kind = tensor::QuantKind::kInt8;
  c.quant.group_size = 64;
  c.intra_op_threads = 2;
  c.engine = serve::EngineOptions{.block_tokens = 8, .capacity_blocks = 240,
                                  .max_batch_tokens = 64, .prefill_chunk = 16,
                                  .max_running = 64};
  c.load = serve::LoadGenOptions{.users = 64, .requests_per_user = 1 << 20,
                                 .prompt_min = 4, .prompt_max = 48, .max_new_min = 16,
                                 .max_new_max = 64, .think_steps_max = 2,
                                 .window = c.model.seq, .vocab = c.model.vocab,
                                 .sampled_fraction = 0.5};
  return c;
}

/// Serving half of every workload: the train_ptd model shape at seq 64,
/// int8. An engine step costs ~12 ms on one thread, so a host hiccup of a
/// millisecond moves the tail latencies little (a 2-layer h=128 model,
/// with ~2 ms steps, let the p99 TBT spread 0.27 over ten seeds). The KV
/// budget is above peak demand (eviction is measured by the
/// KV-pressure probe on decode_probe_config instead) and the batch budget
/// admits every arrival in the next step, so TTFT stays one step and its
/// p95 does not sit between a one-step and a two-step mode.
ServeConfig serve_companion() {
  ServeConfig c;
  c.model = model::GptConfig{.num_layers = 4, .hidden = 256, .heads = 8, .vocab = 1024,
                             .seq = 64, .dropout = 0.0f};
  c.quant.kind = tensor::QuantKind::kInt8;
  c.quant.group_size = 64;
  c.intra_op_threads = 1;
  c.engine = serve::EngineOptions{.block_tokens = 8, .capacity_blocks = 512,
                                  .max_batch_tokens = 128, .prefill_chunk = 16,
                                  .max_running = 32};
  c.load = serve::LoadGenOptions{.users = 32, .requests_per_user = 1 << 20,
                                 .prompt_min = 4, .prompt_max = 16, .max_new_min = 8,
                                 .max_new_max = 32, .think_steps_max = 2,
                                 .window = c.model.seq, .vocab = c.model.vocab,
                                 .sampled_fraction = 0.5};
  c.warmup_steps = 32;
  return c;
}

}  // namespace perfbench
