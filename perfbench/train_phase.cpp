// Training half: one World of p·t·d rank threads running core::PtdpEngine.
//
// The ranks meet at a std::barrier after set-up and after every step. Its
// completion step (run by one thread while the others wait) timestamps the
// step — so a step's wall time spans the slowest rank — and moves the run
// through its phases: warmup, timed window, traced window, untimed tail.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>

#include "harness.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/timeline.hpp"
#include "ptdp/runtime/parallel_for.hpp"

namespace perfbench {

using namespace ptdp;

namespace {

enum class Phase { kSetup, kWarmup, kWindow, kTraced, kTail, kDone };

/// Bounds one traced window, so its events fit kTraceCapacity per rank.
constexpr int kMaxTracedSteps = 64;

struct StepRecord {
  Phase phase = Phase::kWarmup;
  float loss = 0.0f;
  core::StepStats stats;
  pipeline::CommStats comm;  ///< cumulative executor p2p counters after the step
};

/// Shared by the rank threads; written only by the barrier completion step
/// (or by the main thread before/after World::run).
struct Control {
  const TrainConfig* cfg = nullptr;
  double window_s = 0.0;
  bool traced = false;
  bool keep_training = false;  ///< false: a set-up-only repeat

  Phase phase = Phase::kSetup;
  int steps_done = 0;
  double start_ts = 0.0;  ///< World construction (main thread)
  double setup_s = 0.0;
  double last_ts = 0.0;
  double window_start = 0.0;
  std::vector<double> window_step_s, traced_step_s;

  void on_barrier() noexcept {
    const double t = now_s();
    if (phase == Phase::kSetup) {
      setup_s = t - start_ts;
      last_ts = t;
      phase = !keep_training ? Phase::kDone
              : cfg->warmup_steps > 0 ? Phase::kWarmup
                                      : begin(Phase::kWindow, t);
      return;
    }
    const double dt = t - last_ts;
    last_ts = t;
    ++steps_done;
    const double elapsed = t - window_start;
    switch (phase) {
      case Phase::kWarmup:
        if (steps_done >= cfg->warmup_steps) phase = begin(Phase::kWindow, t);
        break;
      case Phase::kWindow:
        window_step_s.push_back(dt);
        if (elapsed >= window_s &&
            static_cast<int>(window_step_s.size()) >= cfg->min_window_steps) {
          phase = traced ? begin(Phase::kTraced, t) : Phase::kTail;
        }
        break;
      case Phase::kTraced:
        traced_step_s.push_back(dt);
        if ((elapsed >= window_s &&
             static_cast<int>(traced_step_s.size()) >= cfg->min_window_steps) ||
            static_cast<int>(traced_step_s.size()) >= kMaxTracedSteps) {
          obs::Tracer::instance().set_mode(obs::TraceMode::kOff);
          phase = Phase::kTail;
        }
        break;
      case Phase::kSetup:
      case Phase::kTail:
      case Phase::kDone:
        break;
    }
    if (phase == Phase::kTail && steps_done >= cfg->loss_steps) phase = Phase::kDone;
  }

  Phase begin(Phase next, double t) noexcept {
    window_start = t;
    if (next == Phase::kTraced) obs::Tracer::instance().set_mode(obs::TraceMode::kFull);
    return next;
  }
};

struct BarrierStep {
  Control* ctl;
  void operator()() noexcept { ctl->on_barrier(); }
};

double sum_over(const std::vector<std::vector<StepRecord>>& ranks, Phase phase,
                const std::function<double(const StepRecord&)>& f) {
  double total = 0.0;
  for (const auto& steps : ranks) {
    for (const auto& r : steps) {
      if (r.phase == phase) total += f(r);
    }
  }
  return total;
}

}  // namespace

TrainResult run_training(const TrainConfig& cfg, std::uint64_t data_seed,
                         double window_s, bool traced, int setup_repeats,
                         Outcome& outcome) {
  runtime::set_intra_op_threads(kTrainIntraOpThreads);
  core::EngineOptions options;
  options.model = cfg.model;
  options.parallel = cfg.parallel;
  options.global_batch = cfg.global_batch;
  options.optimizer = core::EngineOptions::Opt::kAdam;
  options.adam.lr = 3e-3f;
  const int world_size = static_cast<int>(cfg.parallel.n());

  data::SyntheticCorpus corpus(cfg.model.vocab, data_seed);
  const data::TokenDataset dataset(
      corpus.generate(std::max<std::int64_t>(cfg.model.seq * 512, 8192)),
      cfg.model.seq);

  auto& tracer = obs::Tracer::instance();
  tracer.set_mode(obs::TraceMode::kOff);
  tracer.set_thread_capacity(kTraceCapacity);
  tracer.reset();
  obs::MetricsRegistry::instance().reset();

  TrainResult result;
  Control ctl;
  std::vector<std::vector<StepRecord>> records(static_cast<std::size_t>(world_size));
  for (int rep = 0; rep < setup_repeats; ++rep) {
    ctl = Control{};
    ctl.cfg = &cfg;
    ctl.window_s = window_s;
    ctl.traced = traced;
    ctl.keep_training = rep + 1 == setup_repeats;
    std::barrier sync(world_size, BarrierStep{&ctl});
    ctl.start_ts = now_s();
    dist::World world(world_size);
    world.run([&](dist::Comm& comm) {
      auto& mine = records[static_cast<std::size_t>(comm.rank())];
      try {
        core::PtdpEngine engine(comm, options);
        const data::ShardedLoader loader(dataset, cfg.global_batch, cfg.parallel.b,
                                         cfg.parallel.d, engine.groups().coord().data,
                                         data_seed);
        sync.arrive_and_wait();
        std::int64_t step = 0;
        while (ctl.phase != Phase::kDone) {
          StepRecord rec;
          rec.phase = ctl.phase;
          rec.loss = engine.train_step(loader.next_batch(step++));
          rec.stats = engine.last_stats();
          rec.comm = engine.executor().comm_stats();
          mine.push_back(rec);
          sync.arrive_and_wait();
        }
      } catch (...) {
        sync.arrive_and_drop();  // peers must not wait on a dead rank
        throw;
      }
    });
    result.setup_s.push_back(ctl.setup_s);
  }

  // Output check: every step's loss is finite and bitwise identical on all
  // ranks (train_step returns the global mean loss).
  const std::size_t steps = records[0].size();
  for (std::size_t s = 0; s < steps; ++s) {
    const float l0 = records[0][s].loss;
    bool ok = std::isfinite(l0);
    for (const auto& r : records) {
      ok = ok && r.size() == steps && std::memcmp(&r[s].loss, &l0, sizeof l0) == 0;
    }
    outcome.check(ok, "training step " + std::to_string(s) +
                          ": loss not finite or differs across ranks");
  }

  // Every step trains the same token count and Eq. 3 FLOPs, so a window's
  // rate is steps × per-step amount over the window's wall time.
  const core::StepStats& first = records[0].front().stats;
  const double timed = static_cast<double>(ctl.window_step_s.size());
  const double wall_s =
      std::accumulate(ctl.window_step_s.begin(), ctl.window_step_s.end(), 0.0);
  result.timed_steps = static_cast<std::int64_t>(ctl.window_step_s.size());
  result.tokens_per_s = timed * static_cast<double>(first.tokens) / wall_s;
  result.gflops_per_rank = timed * first.model_flops / wall_s / world_size / 1e9;
  double loss_sum = 0.0;
  for (int s = cfg.loss_steps - cfg.loss_mean_over; s < cfg.loss_steps; ++s) {
    loss_sum += records[0][static_cast<std::size_t>(s)].loss;
  }
  result.loss_final = loss_sum / cfg.loss_mean_over;
  std::int64_t peak = 0;
  for (const auto& r : records) {
    for (const auto& rec : r) peak = std::max(peak, rec.stats.peak_memory_bytes);
  }
  result.peak_mem_mb = static_cast<double>(peak) / 1e6;
  if (!traced) return result;

  // ---- per-layer metrics of the traced window --------------------------------
  result.events_dropped = tracer.events_dropped();
  const double n_steps = static_cast<double>(ctl.traced_step_s.size());
  result.traced_tokens_per_s =
      n_steps * static_cast<double>(first.tokens) /
      std::accumulate(ctl.traced_step_s.begin(), ctl.traced_step_s.end(), 0.0);
  const auto events = tracer.snapshot();
  const SpanTotals spans = span_totals(events);
  const obs::TimelineReport timeline = obs::analyze_events(events);
  Metrics& m = result.layers;
  auto per_step = [&](const char* name, double total, const char* unit) {
    m[name] = Metric{total / n_steps, unit};
  };

  per_step("graph.linear_s",
           spans.self_of({"graph.linear_fwd", "graph.linear_bwd", "graph.linear_fwd_quant"}),
           "s");
  per_step("graph.attention_s",
           spans.self_of({"graph.bmm", "graph.bmm_nt", "graph.bmm_tn", "graph.softmax",
                          "graph.softmax_bwd", "graph.scale_causal_softmax",
                          "graph.scale_mask_softmax", "graph.scale_softmax_bwd",
                          "graph.mask_fill", "graph.scale"}),
           "s");
  per_step("graph.dropout_s",
           spans.self_of({"graph.attn_prob_mask", "graph.mul", "graph.dropout",
                          "graph.dropout_bwd", "graph.fused_bias_dropout_add"}),
           "s");
  per_step("graph.rowwise_s",
           spans.self_of({"graph.layernorm", "graph.layernorm_bwd", "graph.gelu",
                          "graph.gelu_bwd", "graph.add_bias", "graph.fused_bias_gelu",
                          "graph.fused_bias_gelu_bwd", "graph.bias_grad_accum",
                          "graph.add"}),
           "s");
  per_step("graph.copy_s",
           spans.self_of({"graph.attn_split_heads", "graph.attn_merge_heads",
                          "graph.attn_split_grad_heads", "graph.attn_merge_qkv_grad"}),
           "s");
  per_step("graph.ops_executed",
           static_cast<double>(
               obs::MetricsRegistry::instance().counter("graph.ops_executed").value()),
           "count");

  const auto& par = cfg.parallel;
  const double mbs = static_cast<double>(par.microbatches(cfg.global_batch));
  m["pipeline.bubble_measured"] = Metric{timeline.bubble_fraction, "ratio"};
  m["pipeline.bubble_analytic"] = Metric{(par.p - 1) / (par.v * mbs), "ratio"};
  double recv_wait_ns = 0.0;
  for (const auto& r : timeline.ranks) recv_wait_ns += r.recv_wait_ns;
  per_step("pipeline.recv_wait_s", recv_wait_ns * 1e-9, "s");
  double p2p_bytes = 0.0, p2p_messages = 0.0;
  for (const auto& r : records) {
    const auto first_traced = std::find_if(r.begin(), r.end(), [](const StepRecord& x) {
      return x.phase == Phase::kTraced;
    });
    const auto last_traced =
        std::find_if(first_traced, r.end(),
                     [](const StepRecord& x) { return x.phase != Phase::kTraced; }) -
        1;
    const pipeline::CommStats before =
        first_traced == r.begin() ? pipeline::CommStats{} : (first_traced - 1)->comm;
    p2p_bytes += static_cast<double>(last_traced->comm.p2p_bytes_sent - before.p2p_bytes_sent);
    p2p_messages += static_cast<double>(last_traced->comm.p2p_messages - before.p2p_messages);
  }
  per_step("pipeline.p2p_bytes", p2p_bytes, "bytes");
  per_step("pipeline.p2p_messages", p2p_messages, "count");

  per_step("dist.all_reduce_s", spans.self_of({"all_reduce"}), "s");
  per_step("dist.all_reduce_calls",
           static_cast<double>(spans.count.count("all_reduce") ? spans.count.at("all_reduce") : 0),
           "count");
  per_step("dist.all_reduce_bytes",
           static_cast<double>(spans.bytes.count("all_reduce") ? spans.bytes.at("all_reduce") : 0),
           "bytes");
  per_step("dist.all_gather_s", spans.self_of({"all_gather"}), "s");
  per_step("dist.comm_wait_s",
           sum_over(records, Phase::kTraced,
                    [](const StepRecord& r) { return r.stats.comm_wait_seconds; }),
           "s");

  per_step("comm.grad_reduce_s", spans.self_of({"grad_reduce", "grad_reduce_finish"}), "s");
  m["comm.grad_reduce_overlap"] =
      Metric{sum_over(records, Phase::kTraced,
                      [](const StepRecord& r) { return r.stats.grad_reduce_overlap; }) /
                 (n_steps * world_size),
             "ratio"};
  per_step("comm.embedding_sync_s", spans.self_of({"embedding_sync"}), "s");
  per_step("optim.step_s", spans.self_of({"optimizer_step"}), "s");

  std::vector<double> step_ms;
  for (std::size_t s = 0; s < steps; ++s) {
    if (records[0][s].phase != Phase::kTraced) continue;
    double slowest = 0.0;
    for (const auto& r : records) slowest = std::max(slowest, r[s].stats.step_seconds);
    step_ms.push_back(slowest * 1e3);
  }
  m["core.step_ms_p50"] = Metric{median(step_ms), "ms"};
  m["core.step_ms_max"] = Metric{*std::max_element(step_ms.begin(), step_ms.end()), "ms"};
  double busy_max = 0.0, busy_min = 1e300;
  for (const auto& r : records) {
    double busy = 0.0;
    for (const auto& rec : r) {
      if (rec.phase == Phase::kTraced) busy += rec.stats.busy_seconds;
    }
    busy_max = std::max(busy_max, busy);
    busy_min = std::min(busy_min, busy);
  }
  m["core.busy_imbalance"] = Metric{busy_min > 0 ? busy_max / busy_min : 0.0, "ratio"};

  const double acquires = sum_over(records, Phase::kTraced, [](const StepRecord& r) {
    return static_cast<double>(r.stats.mem_acquires);
  });
  const double hits = sum_over(records, Phase::kTraced, [](const StepRecord& r) {
    return r.stats.mem_pool_hit_rate * static_cast<double>(r.stats.mem_acquires);
  });
  m["mem.pool_hit_rate"] = Metric{acquires > 0 ? hits / acquires : 0.0, "ratio"};
  per_step("mem.heap_allocs_per_step",
           sum_over(records, Phase::kTraced,
                    [](const StepRecord& r) {
                      return static_cast<double>(r.stats.mem_heap_allocs);
                    }),
           "count");
  return result;
}

}  // namespace perfbench
