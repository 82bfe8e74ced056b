#pragma once

// perfbench: the repository's end-to-end benchmark (BENCHMARK.json).
//
// A run drives one workload through the public APIs — core::PtdpEngine for
// training, serve::ServeEngine for serving — and reports either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// Every workload is a training layout with a small fixed serving half,
// because every run reports every end-to-end metric.
//
// Output checks run outside the timed windows and are counted as
// operations attempted / failed (Outcome), never skipped silently.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ptdp/core/engine.hpp"
#include "ptdp/graph/passes.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/serve/loadgen.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Output-check accounting: one attempted operation per check.
class Outcome {
 public:
  /// Counts one operation; a false `ok` counts it failed and logs `what`.
  void check(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

double now_s();
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// Self time per span name: the span's duration minus the part its child
/// spans (same rank thread, nested interval) cover. Also counts spans and
/// sums their "bytes" args.
struct SpanTotals {
  std::map<std::string, double> self_s;
  std::map<std::string, std::int64_t> count;
  std::map<std::string, std::int64_t> bytes;

  double self_of(std::initializer_list<const char*> names) const;
};
SpanTotals span_totals(const std::vector<ptdp::obs::TraceEvent>& events);

/// Trace ring size per recording thread: large enough that no traced
/// window of this benchmark wraps (checked: events_dropped must be 0).
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 17;

// ---- training half ----------------------------------------------------------

/// Intra-op threads of every training layout: one per rank thread. The
/// default (nproc helpers shared by all ranks) measured ~10% slower here.
inline constexpr std::size_t kTrainIntraOpThreads = 1;

struct TrainConfig {
  ptdp::model::GptConfig model;
  ptdp::core::ParallelConfig parallel;
  std::int64_t global_batch = 8;
  int warmup_steps = 1;    ///< untimed steps before the window
  int loss_steps = 8;      ///< fixed step count for the loss metric
  int loss_mean_over = 3;  ///< loss = mean of the last N of those
  int min_window_steps = 3;
};

struct TrainResult {
  std::vector<double> setup_s;   ///< one sample per set-up repeat
  double tokens_per_s = 0.0;     ///< global tokens of the window / its wall time
  double gflops_per_rank = 0.0;  ///< Eq. 3 FLOPs of the window / its wall / ranks
  double loss_final = 0.0;
  double peak_mem_mb = 0.0;      ///< max over ranks of StepStats peak bytes
  std::int64_t timed_steps = 0;
  Metrics layers;                ///< per-layer metrics (traced runs only)
  double traced_tokens_per_s = 0.0;
  std::uint64_t events_dropped = 0;
};

/// Sets up `setup_repeats` times (the last set-up is the one trained), then
/// trains: warmup, a timed window of `window_s`, and — when `traced` — a
/// second window of `window_s` with full tracing for the per-layer metrics.
/// Steps continue untimed until `loss_steps` when the windows end earlier.
TrainResult run_training(const TrainConfig& cfg, std::uint64_t data_seed,
                         double window_s, bool traced, int setup_repeats,
                         Outcome& outcome);

// ---- serving half -----------------------------------------------------------

struct ServeConfig {
  ptdp::model::GptConfig model;
  ptdp::graph::QuantPolicy quant;
  std::size_t intra_op_threads = 1;
  ptdp::serve::EngineOptions engine;
  ptdp::serve::LoadGenOptions load;  ///< seed is set per run
  int warmup_steps = 32;             ///< engine steps on a throwaway engine
};

struct ServeResult {
  std::vector<double> setup_s;
  double tokens_per_s = 0.0;  ///< tokens generated while open / open wall time
  double ttft_ms_p50 = 0.0, ttft_ms_p95 = 0.0;
  double tbt_ms_p50 = 0.0, tbt_ms_p99 = 0.0;
  double peak_mem_mb = 0.0;  ///< KV peak bytes + quantized weight bytes
  std::int64_t finished = 0;
  Metrics layers;
  std::uint64_t events_dropped = 0;
};

ServeResult run_serving(const ServeConfig& cfg, std::uint64_t load_seed,
                        double window_s, bool traced, int setup_repeats,
                        Outcome& outcome);

/// KV-pressure probe: `cfg`'s load for a fixed number of engine steps on an
/// engine whose KV budget is below peak demand, untimed. Reports
/// serve.preemptions and serve.recompute_ratio; every response is checked
/// against the full-forward oracle, so resumed requests are checked too.
Metrics run_kv_pressure_probe(const ServeConfig& cfg, std::uint64_t load_seed,
                              Outcome& outcome);

// ---- workloads (workloads.cpp) ---------------------------------------------

TrainConfig train_ptd();             ///< the paper's PTD-P layout, compute-bound
TrainConfig train_dp();              ///< data-parallel reduction and pipeline waits
ServeConfig serve_companion();       ///< small serving half of every workload
ServeConfig decode_probe_config();   ///< int8 decode under KV pressure (probes)

// ---- direct layer probes ----------------------------------------------------

/// tensor / dist / model probes: direct calls into layer public functions,
/// timed by the benchmark outside any measured window; median of repeats.
Metrics run_probes(const ServeConfig& decode_cfg);

}  // namespace perfbench
