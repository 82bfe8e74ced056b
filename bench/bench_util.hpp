#pragma once

// Shared helpers for the experiment-reproduction binaries. Every bench
// prints the series the corresponding paper table/figure reports, plus the
// paper's value where the paper states one, so EXPERIMENTS.md can record
// paper-vs-measured side by side.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/sim/simulator.hpp"

namespace ptdp::bench {

inline void header(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

/// Host fingerprint for a BENCH_*.json: CPU model, logical CPUs, intra-op
/// threads and the commit of the working tree (run from the repo root), so
/// numbers from different hosts are never compared.
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string commit = "unknown";
  if (std::FILE* git = popen("git describe --always --dirty --abbrev=7 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, git) != nullptr) {
      commit = buf;
      while (!commit.empty() && (commit.back() == '\n' || commit.back() == '\r')) {
        commit.pop_back();
      }
    }
    pclose(git);
  }
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << cpu << "\", \"nproc\": "
    << std::thread::hardware_concurrency()
    << ", \"intra_op_threads\": " << runtime::intra_op_threads()
    << ", \"commit\": \"" << commit << "\"}";
  return o.str();
}

inline model::GptConfig gpt(std::int64_t layers, std::int64_t hidden,
                            std::int64_t heads) {
  model::GptConfig c;
  c.num_layers = layers;
  c.hidden = hidden;
  c.heads = heads;
  c.vocab = 51200;
  c.seq = 2048;
  return c;
}

/// Sweep microbatch size and interleave factor for a fixed (p, t, d) the
/// way the paper tunes each configuration (§3.4 / §5.1), returning the
/// fastest non-OOM configuration.
inline core::ParallelConfig tune(const sim::ClusterSpec& hw,
                                 const model::GptConfig& m,
                                 core::ParallelConfig base, std::int64_t B,
                                 bool allow_interleave = true) {
  double best = 1e30;
  core::ParallelConfig best_cfg = base;
  bool found = false;
  for (std::int64_t b : {1, 2, 4, 8}) {
    if (B % (b * base.d) != 0) continue;
    for (int v : {1, 2, 3, 4}) {
      core::ParallelConfig cfg = base;
      cfg.b = b;
      cfg.v = v;
      if (v > 1) {
        if (!allow_interleave || base.p < 2) continue;
        if (cfg.microbatches(B) % base.p != 0) continue;
        if (m.num_layers % (base.p * v) != 0) continue;
        cfg.schedule = pipeline::ScheduleType::kInterleaved;
        cfg.scatter_gather = cfg.t > 1;
      } else {
        if (m.num_layers % base.p != 0) continue;
        cfg.schedule = pipeline::ScheduleType::kOneFOneB;
      }
      const auto res = sim::simulate_iteration(hw, m, cfg, B);
      if (!res.oom && res.iteration_seconds < best) {
        best = res.iteration_seconds;
        best_cfg = cfg;
        found = true;
      }
    }
  }
  if (!found) best_cfg.b = 0;  // sentinel: nothing fit
  return best_cfg;
}

}  // namespace ptdp::bench
