// Serving half: one whole-model GptStage on a solo communicator, quantized
// for serving, driven by a closed-loop serve::LoadGen through
// serve::ServeEngine::submit/step.

#include <algorithm>
#include <memory>

#include "harness.hpp"
#include "ptdp/dist/comm.hpp"
#include "ptdp/mem/pool.hpp"
#include "ptdp/model/generate.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/runtime/parallel_for.hpp"

namespace perfbench {

using namespace ptdp;

namespace {

/// A window keeps the loop open until this many requests were sent, so the
/// p95 TTFT keeps >= 10 samples above it.
constexpr std::int64_t kMinRequests = 220;
/// Samples the percentiles need: >= 10 above p95 TTFT and above p99 TBT.
constexpr std::size_t kMinTtftSamples = 200;
constexpr std::size_t kMinTbtSamples = 1000;
/// Finished requests of the timed window also replayed through
/// model::generate itself, cross-checking the teacher-forced oracle.
constexpr std::size_t kLiteralOracleRequests = 8;
/// Open steps of the KV-pressure probe.
constexpr std::int64_t kPressureSteps = 240;

struct Window {
  /// Tokens generated while the loop was open over the open wall time (the
  /// drain that follows is not a steady state).
  double tokens_per_s = 0.0;
  std::vector<double> step_ms;  ///< engine steps that ran a batch
  serve::EngineStats stats;
  std::int64_t submitted = 0;
  std::vector<serve::FinishedRequest> finished;
  std::vector<serve::Request> requests;  ///< as submitted, finished order
  std::int64_t prompt_tokens = 0;        ///< over finished requests
  mem::PoolStats mem_before, mem_after;
};

/// Closed loop: users submit while `open(step, lg)` holds, then the
/// engine drains what is in flight.
template <typename Open>
Window serve_window(serve::ServeEngine& engine, const serve::LoadGenOptions& load,
                    Open&& open) {
  serve::LoadGen lg(load);
  Window w;
  w.mem_before = mem::thread_stats();
  const double start = now_s();
  bool closed = false;
  for (std::int64_t step = 0;; ++step) {
    if (!closed && !open(step, lg)) {
      closed = true;
      w.tokens_per_s =
          static_cast<double>(engine.stats().generated_tokens) / (now_s() - start);
    }
    if (!closed) {
      lg.tick(step, engine);
    } else if (engine.idle()) {
      break;
    }
    const std::int64_t before = engine.stats().steps;
    const double t0 = now_s();
    const auto done = engine.step();
    const double t1 = now_s();
    if (engine.stats().steps != before) w.step_ms.push_back((t1 - t0) * 1e3);
    lg.on_finished(done, step);
  }
  w.mem_after = mem::thread_stats();
  w.stats = engine.stats();
  w.submitted = lg.submitted();
  w.finished = lg.finished();
  for (const auto& f : w.finished) {
    w.requests.push_back(lg.request(f.id));
    w.prompt_tokens += static_cast<std::int64_t>(w.requests.back().prompt.size());
  }
  return w;
}

/// Open for `window_s` of wall time and until kMinRequests were sent.
auto timed(double window_s) {
  return [deadline = now_s() + window_s](std::int64_t, const serve::LoadGen& lg) {
    return now_s() < deadline || lg.submitted() < kMinRequests;
  };
}

/// Every finished request's TTFT and every gap between its tokens.
struct Latencies {
  std::vector<double> ttft, tbt;
};

Latencies latencies(const Window& w) {
  Latencies lat;
  for (const auto& f : w.finished) {
    lat.ttft.push_back(f.first_token_ms - f.submit_ms);
    for (std::size_t k = 1; k < f.token_ms.size(); ++k) {
      lat.tbt.push_back(f.token_ms[k] - f.token_ms[k - 1]);
    }
  }
  return lat;
}

/// Full-forward oracle, teacher-forced: one forward over prompt + response
/// gives every position's logits, and each response token must be the
/// token model::generate picks from that row with the request's sampling
/// stream. Rows of the causal full forward depend only on their prefix,
/// which is why this equals model::generate(use_kv_cache = false) — the
/// literal replay in check_window confirms it on a subset.
bool teacher_forced_match(model::GptStage& stage, const serve::Request& req,
                          const serve::FinishedRequest& fin) {
  const auto n = static_cast<std::int64_t>(fin.tokens.size());
  if (n != req.options.max_new_tokens || n == 0) return false;
  std::vector<std::int32_t> seq(req.prompt);
  seq.insert(seq.end(), fin.tokens.begin(), fin.tokens.end() - 1);
  const auto len = static_cast<std::int64_t>(seq.size());
  const tensor::Tensor logits = model::forward_logits(stage, seq, len, 1);
  const std::int64_t vocab = logits.dim(-1);
  // The sampling stream ServeEngine and model::generate derive from a seed.
  Rng rng(req.options.seed, substream(0x9E4EA7E));
  const auto plen = static_cast<std::int64_t>(req.prompt.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto row = logits.data().subspan(
        static_cast<std::size_t>((plen - 1 + i) * vocab), static_cast<std::size_t>(vocab));
    if (model::sample_token(row, req.options, rng) != fin.tokens[static_cast<std::size_t>(i)]) {
      return false;
    }
  }
  return true;
}

void check_window(model::GptStage& stage, const Window& w, std::size_t literal,
                  Outcome& outcome) {
  for (std::size_t i = 0; i < w.finished.size(); ++i) {
    const auto& fin = w.finished[i];
    const auto& req = w.requests[i];
    bool ok = teacher_forced_match(stage, req, fin);
    if (ok && i < literal) {
      model::GenerateOptions opts = req.options;
      opts.use_kv_cache = false;
      const auto oracle = model::generate(stage, req.prompt, opts);
      ok = std::equal(fin.tokens.begin(), fin.tokens.end(),
                      oracle.begin() + static_cast<std::ptrdiff_t>(req.prompt.size()),
                      oracle.end());
    }
    outcome.check(ok, "request " + std::to_string(fin.id) + ": response differs from the "
                      "full-forward oracle");
  }
  for (std::int64_t i = static_cast<std::int64_t>(w.finished.size()); i < w.submitted; ++i) {
    outcome.check(false, "a submitted request did not finish");
  }
}

}  // namespace

ServeResult run_serving(const ServeConfig& cfg, std::uint64_t load_seed, double window_s,
                        bool traced, int setup_repeats, Outcome& outcome) {
  runtime::set_intra_op_threads(cfg.intra_op_threads);
  auto& tracer = obs::Tracer::instance();
  auto& registry = obs::MetricsRegistry::instance();
  tracer.set_mode(obs::TraceMode::kOff);
  tracer.set_thread_capacity(kTraceCapacity);
  tracer.reset();
  registry.reset();

  const dist::Comm solo = dist::Comm::solo();
  const model::StageSpec whole{true, true, 0, cfg.model.num_layers, false};
  ServeResult result;
  std::unique_ptr<model::GptStage> stage;
  std::unique_ptr<serve::ServeEngine> engine;
  model::QuantizeReport quant;
  for (int rep = 0; rep < setup_repeats; ++rep) {
    engine.reset();
    stage.reset();
    const double t0 = now_s();
    stage = std::make_unique<model::GptStage>(cfg.model, solo, whole);
    quant = stage->quantize_for_serving(cfg.quant);
    engine = std::make_unique<serve::ServeEngine>(*stage, cfg.engine);
    result.setup_s.push_back(now_s() - t0);
  }

  serve::LoadGenOptions load = cfg.load;
  {  // warm the pools and caches on a throwaway engine and request stream
    serve::ServeEngine warm(*stage, cfg.engine);
    serve::LoadGenOptions wl = load;
    wl.seed = ~load_seed;
    serve::LoadGen lg(wl);
    for (std::int64_t step = 0; step < cfg.warmup_steps; ++step) {
      lg.tick(step, warm);
      lg.on_finished(warm.step(), step);
    }
  }

  load.seed = load_seed;
  const Window w = serve_window(*engine, load, timed(window_s));
  check_window(*stage, w, kLiteralOracleRequests, outcome);
  result.finished = static_cast<std::int64_t>(w.finished.size());
  result.tokens_per_s = w.tokens_per_s;
  const Latencies lat = latencies(w);
  result.ttft_ms_p50 = percentile(lat.ttft, 0.50);
  result.ttft_ms_p95 = percentile(lat.ttft, 0.95);
  result.tbt_ms_p50 = percentile(lat.tbt, 0.50);
  result.tbt_ms_p99 = percentile(lat.tbt, 0.99);
  outcome.check(lat.ttft.size() >= kMinTtftSamples && lat.tbt.size() >= kMinTbtSamples,
                "too few samples for the latency percentiles");
  result.peak_mem_mb =
      static_cast<double>(engine->kv().allocator().peak_bytes() + quant.weight_bytes) / 1e6;
  if (!traced) return result;

  // ---- traced window on a fresh engine, same request stream -----------------
  engine.reset();
  engine = std::make_unique<serve::ServeEngine>(*stage, cfg.engine);
  tracer.set_mode(obs::TraceMode::kFull);
  const Window tw = serve_window(*engine, load, timed(window_s));
  tracer.set_mode(obs::TraceMode::kOff);
  check_window(*stage, tw, 0, outcome);
  result.events_dropped = tracer.events_dropped();

  Metrics& m = result.layers;
  const auto& st = tw.stats;
  const double rows = static_cast<double>(st.decode_tokens + st.prefill_tokens);
  m["serve.step_ms_p50"] = Metric{percentile(tw.step_ms, 0.50), "ms"};
  m["serve.step_ms_p99"] = Metric{percentile(tw.step_ms, 0.99), "ms"};
  m["serve.steps"] = Metric{static_cast<double>(st.steps), "count"};
  m["serve.batch_rows_mean"] = Metric{rows / static_cast<double>(st.steps), "rows"};
  m["serve.kv_block_reuses"] = Metric{
      static_cast<double>(registry.counter("serve.kv.block_reuses").value()), "count"};
  m["quant.weight_mb"] = Metric{static_cast<double>(quant.weight_bytes) / 1e6, "MB"};
  const double acquires =
      static_cast<double>(tw.mem_after.acquires - tw.mem_before.acquires);
  const double hits =
      static_cast<double>(tw.mem_after.pool_hits - tw.mem_before.pool_hits);
  m["mem.pool_hit_rate"] = Metric{acquires > 0 ? hits / acquires : 0.0, "ratio"};
  m["mem.heap_allocs_per_step"] =
      Metric{static_cast<double>(tw.mem_after.heap_allocs - tw.mem_before.heap_allocs) /
                 static_cast<double>(st.steps),
             "count"};
  return result;
}

Metrics run_kv_pressure_probe(const ServeConfig& cfg, std::uint64_t load_seed,
                              Outcome& outcome) {
  runtime::set_intra_op_threads(cfg.intra_op_threads);
  const dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(cfg.model, solo,
                        model::StageSpec{true, true, 0, cfg.model.num_layers, false});
  stage.quantize_for_serving(cfg.quant);
  serve::ServeEngine engine(stage, cfg.engine);
  serve::LoadGenOptions load = cfg.load;
  load.seed = load_seed;
  const Window w = serve_window(
      engine, load, [](std::int64_t step, const serve::LoadGen&) { return step < kPressureSteps; });
  check_window(stage, w, 0, outcome);
  outcome.check(w.stats.preemptions > 0, "the KV-pressure probe evicted nothing");
  Metrics m;
  m["serve.preemptions"] = Metric{static_cast<double>(w.stats.preemptions), "count"};
  // Prefill rows beyond each prompt's first prefill rebuild evicted KV.
  const auto& st = w.stats;
  m["serve.recompute_ratio"] =
      Metric{static_cast<double>(st.prefill_tokens - w.prompt_tokens) /
                 static_cast<double>(st.decode_tokens + st.prefill_tokens),
             "ratio"};
  return m;
}

}  // namespace perfbench
