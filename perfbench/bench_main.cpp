// perfbench — one end-to-end benchmark for PTD-P training and serving.
//
//   perfbench --workload train_ptd|train_dp --seed N --seconds S --trace 0|1
//
// Normally launched through perfbench/run.py, which builds it first. The
// seed drives only the generated inputs (the synthetic corpus and the data
// loader's sample order, and the LoadGen request streams); model weights
// and everything else are fixed.
//
// Each workload trains its layout for 75% of S and runs a small fixed
// serving half for the remaining 25%, so every run reports every
// end-to-end metric. With --trace 1 each half runs an untraced and a traced
// window of equal length (the training windows' throughput ratio is the
// tracing overhead), then the direct layer probes and the KV-pressure
// probe run.
//
// Output: a host-fingerprint line ("# fingerprint {...}"), then as the last
// line {"correct", "attempted", "failed", "metrics"}. Exit status 0 only
// when a result was produced.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"

using namespace perfbench;
using namespace ptdp;

namespace {

constexpr double kTrainShare = 0.75;
constexpr int kSetupRepeats = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else return std::nullopt;
  }
  if (argc % 2 != 1 || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) return std::nullopt;
  if (a.workload != "train_ptd" && a.workload != "train_dp") return std::nullopt;
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpuinfo_field(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  return (" " + flags + " ").find(" " + flag + " ") != std::string::npos;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string phase_json(const TrainConfig& c) {
  return "{\"half\":\"training\",\"ranks\":" + std::to_string(c.parallel.n()) +
         ",\"layout\":\"" + json_escape(c.parallel.str()) + "\",\"intra_op_threads\":" + std::to_string(kTrainIntraOpThreads) + "}";
}

std::string phase_json(const ServeConfig& c) {
  return "{\"half\":\"serving\",\"ranks\":1,\"layout\":\"tp=1 int8\",\"intra_op_threads\":" +
         std::to_string(c.intra_op_threads) + "}";
}

/// Host fingerprint: results from different hosts must never be compared.
std::string fingerprint(const Args& a, const std::string& phases) {
  std::ifstream in("/proc/cpuinfo");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string info = ss.str();
  const std::string flags = cpuinfo_field(info, "flags");
  auto yes = [&](const char* f) { return has_flag(flags, f) ? "true" : "false"; };
  std::ostringstream o;
  o << "{\"cpu_model\":\"" << json_escape(cpuinfo_field(info, "model name"))
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"avx512f\":" << yes("avx512f") << ",\"amx_tile\":" << yes("amx_tile")
    << ",\"amx_bf16\":" << yes("amx_bf16") << ",\"amx_int8\":" << yes("amx_int8")
    << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"commit\":\""
    << json_escape(env_or("PERFBENCH_COMMIT", "unknown")) << "\",\"source_sha256\":\""
    << json_escape(env_or("PERFBENCH_SOURCE_SHA256", "unknown")) << "\",\"workload\":\""
    << a.workload << "\",\"seed\":" << a.seed << ",\"seconds\":" << a.seconds
    << ",\"trace\":" << a.trace << ",\"phases\":[" << phases << "]}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload train_ptd|train_dp --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const bool traced = args->trace == 1;
  const TrainConfig train_cfg = args->workload == "train_ptd" ? train_ptd() : train_dp();
  const ServeConfig serve_cfg = serve_companion();
  // Untraced and traced windows share each half's time in a traced run.
  const double train_s = args->seconds * kTrainShare / (traced ? 2.0 : 1.0);
  const double serve_s = args->seconds * (1.0 - kTrainShare) / (traced ? 2.0 : 1.0);

  Outcome outcome;
  TrainResult train;
  ServeResult serve;
  Metrics probes;
  try {
    train = run_training(train_cfg, args->seed, train_s, traced, kSetupRepeats, outcome);
    serve = run_serving(serve_cfg, args->seed, serve_s, traced, 1, outcome);
    if (traced) {
      probes = run_probes(decode_probe_config());
      probes.merge(run_kv_pressure_probe(decode_probe_config(), args->seed, outcome));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::string phases = phase_json(train_cfg) + "," + phase_json(serve_cfg);
  std::printf("# fingerprint %s\n", fingerprint(*args, phases).c_str());

  Metrics metrics;
  if (!traced) {
    metrics["setup_s"] = Metric{median(train.setup_s), "s"};
    metrics["train_tokens_per_s"] = Metric{train.tokens_per_s, "tok/s"};
    metrics["train_gflops_per_rank"] = Metric{train.gflops_per_rank, "GFLOP/s"};
    metrics["train_loss_final"] = Metric{train.loss_final, "nats"};
    metrics["peak_mem_mb"] = Metric{train.peak_mem_mb, "MB"};
    metrics["serve_tokens_per_s"] = Metric{serve.tokens_per_s, "tok/s"};
    metrics["serve_ttft_ms_p50"] = Metric{serve.ttft_ms_p50, "ms"};
    metrics["serve_ttft_ms_p95"] = Metric{serve.ttft_ms_p95, "ms"};
    metrics["serve_tbt_ms_p50"] = Metric{serve.tbt_ms_p50, "ms"};
    metrics["serve_tbt_ms_p99"] = Metric{serve.tbt_ms_p99, "ms"};
    std::printf("# samples: %lld timed training steps, %lld finished requests\n",
                static_cast<long long>(train.timed_steps),
                static_cast<long long>(serve.finished));
  } else {
    // Each half's layers come from its own phase; mem.* from training.
    metrics = serve.layers;
    for (const auto& [k, v] : train.layers) metrics[k] = v;
    for (const auto& [k, v] : probes) metrics[k] = v;
    metrics["obs.trace_overhead_pct"] =
        Metric{(train.tokens_per_s / train.traced_tokens_per_s - 1.0) * 100.0, "%"};
    const auto dropped = train.events_dropped + serve.events_dropped;
    metrics["obs.events_dropped"] = Metric{static_cast<double>(dropped), "count"};
    outcome.check(dropped == 0, "the traced run dropped trace events");
  }

  std::ostringstream body;
  body.precision(17);  // every digit of each measured value
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      outcome.check(false, "metric " + name + " is not finite");
      v = 0.0;
    }
    body << sep << '"' << name << "\":{\"value\":" << v << ",\"unit\":\"" << m.unit << "\"}";
    sep = ",";
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              outcome.failed() == 0 ? "true" : "false",
              static_cast<long long>(outcome.attempted()),
              static_cast<long long>(outcome.failed()), body.str().c_str());
  return 0;
}
