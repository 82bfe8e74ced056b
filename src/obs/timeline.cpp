#include "ptdp/obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>

namespace ptdp::obs {

namespace {

struct OpSample {
  int rank = -1;       ///< world rank (trace tid)
  int stage = 0;       ///< pipeline rank
  bool backward = false;
  int mb = 0;
  int vs = 0;
  std::int64_t ts_ns = 0;
  double dur_ns = 0;
};

struct GroupKey {
  std::int64_t pipe;
  std::int64_t batch;
  bool operator<(const GroupKey& o) const {
    return pipe != o.pipe ? pipe < o.pipe : batch < o.batch;
  }
};

// Replays one batch's traced ops under the pipeline dependency rules and
// fills makespan / ideal / bubble / critical path.
BatchTimeline replay_batch(const GroupKey& key, std::vector<OpSample> ops) {
  BatchTimeline out;
  out.pipe = key.pipe;
  out.batch = key.batch;

  // Per-rank program order = traced start order.
  std::map<int, std::vector<std::size_t>> by_rank;  // world rank -> op idx
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OpSample& a, const OpSample& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  int max_vs = 0, max_mb = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    by_rank[ops[i].rank].push_back(i);
    max_vs = std::max(max_vs, ops[i].vs);
    max_mb = std::max(max_mb, ops[i].mb);
  }
  out.p = static_cast<int>(by_rank.size());
  out.m = max_mb + 1;
  out.num_virtual_stages = max_vs + 1;

  // Worklist replay. end[kind][(mb, vs)] = completion time; `pred` tracks
  // which constraint bound each op's start for critical-path walkback.
  std::map<std::pair<int, int>, std::size_t> fwd_of, bwd_of;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (ops[i].backward ? bwd_of : fwd_of)[{ops[i].mb, ops[i].vs}] = i;
  }
  std::vector<double> start(ops.size(), -1.0), end(ops.size(), -1.0);
  std::vector<std::ptrdiff_t> pred(ops.size(), -1);
  std::map<int, std::size_t> cursor;  // rank -> next unscheduled index

  bool progressed = true;
  std::size_t scheduled = 0;
  while (scheduled < ops.size() && progressed) {
    progressed = false;
    for (auto& [rank, order] : by_rank) {
      std::size_t& cur = cursor[rank];
      while (cur < order.size()) {
        const std::size_t i = order[cur];
        const OpSample& op = ops[i];
        // Cross-stage dependency.
        std::ptrdiff_t dep = -1;
        if (!op.backward) {
          if (op.vs > 0) {
            const auto it = fwd_of.find({op.mb, op.vs - 1});
            if (it == fwd_of.end()) { dep = -1; }  // boundary not traced
            else dep = static_cast<std::ptrdiff_t>(it->second);
          }
        } else {
          if (op.vs < max_vs) {
            const auto it = bwd_of.find({op.mb, op.vs + 1});
            if (it == bwd_of.end()) dep = -1;
            else dep = static_cast<std::ptrdiff_t>(it->second);
          } else {
            const auto it = fwd_of.find({op.mb, op.vs});
            if (it != fwd_of.end()) dep = static_cast<std::ptrdiff_t>(it->second);
          }
        }
        if (dep >= 0 && end[static_cast<std::size_t>(dep)] < 0) break;  // wait

        double s = 0.0;
        std::ptrdiff_t bound_by = -1;
        if (cur > 0) {
          const std::size_t prev = order[cur - 1];
          s = end[prev];
          bound_by = static_cast<std::ptrdiff_t>(prev);
        }
        if (dep >= 0 && end[static_cast<std::size_t>(dep)] > s) {
          s = end[static_cast<std::size_t>(dep)];
          bound_by = dep;
        }
        start[i] = s;
        end[i] = s + ops[i].dur_ns;
        pred[i] = bound_by;
        ++cur;
        ++scheduled;
        progressed = true;
      }
    }
  }
  // A dependency cycle (malformed trace) leaves ops unscheduled; report
  // what was schedulable rather than hanging.

  double makespan = 0;
  std::ptrdiff_t last = -1;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (end[i] > makespan) {
      makespan = end[i];
      last = static_cast<std::ptrdiff_t>(i);
    }
  }
  out.makespan_ns = makespan;

  double busy_total = 0;
  for (const auto& [rank, order] : by_rank) {
    double busy = 0;
    for (std::size_t i : order) busy += ops[i].dur_ns;
    busy_total += busy;
  }
  out.ideal_ns = out.p > 0 ? busy_total / out.p : 0.0;
  out.bubble_fraction =
      out.ideal_ns > 0 ? (out.makespan_ns - out.ideal_ns) / out.ideal_ns : 0.0;

  // Critical path: walk the binding constraints back from the last op.
  for (std::ptrdiff_t i = last; i >= 0; i = pred[static_cast<std::size_t>(i)]) {
    const OpSample& op = ops[static_cast<std::size_t>(i)];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "stage%d:%s(mb=%d,vs=%d)", op.stage,
                  op.backward ? "bwd" : "fwd", op.mb, op.vs);
    out.critical_path.push_back(buf);
    out.critical_path_ns += op.dur_ns;
  }
  std::reverse(out.critical_path.begin(), out.critical_path.end());
  return out;
}

// The same ops with every (virtual stage, fwd/bwd) op at its median cost in
// the batch: per-op noise drops out, stage imbalance (embedding on the first
// stage, LM head on the last) stays in. Replaying it gives the analytic
// bubble at the measured stage costs.
std::vector<OpSample> at_stage_medians(std::vector<OpSample> ops) {
  std::map<std::pair<int, bool>, std::vector<double>> costs;
  for (const OpSample& op : ops) costs[{op.vs, op.backward}].push_back(op.dur_ns);
  std::map<std::pair<int, bool>, double> median;
  for (auto& [k, v] : costs) {
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    median[k] = *mid;
  }
  for (OpSample& op : ops) op.dur_ns = median.at({op.vs, op.backward});
  return ops;
}

}  // namespace

TimelineReport analyze_events(const std::vector<TraceEvent>& events,
                              const TimelineOptions& options) {
  TimelineReport report;
  std::map<GroupKey, std::vector<OpSample>> groups;
  std::map<int, RankTimeline> ranks;
  std::int64_t wall_min = 0, wall_max = 0;
  bool have_window = false;

  for (const TraceEvent& ev : events) {
    if (ev.name == nullptr || ev.wall_ns < 0) continue;
    const bool is_fwd = std::strcmp(ev.name, "fwd") == 0;
    const bool is_bwd = std::strcmp(ev.name, "bwd") == 0;
    if (is_fwd || is_bwd) {
      RankTimeline& rt = ranks[ev.rank];
      rt.rank = ev.rank;
      rt.ops += 1;
      rt.wall_busy_ns += static_cast<double>(ev.wall_ns);
      const double dur = options.use_cpu_durations && ev.cpu_ns >= 0
                             ? static_cast<double>(ev.cpu_ns)
                             : static_cast<double>(ev.wall_ns);
      rt.busy_ns += dur;
      if (!have_window || ev.ts_ns < wall_min) wall_min = ev.ts_ns;
      if (!have_window || ev.ts_ns + ev.wall_ns > wall_max) {
        wall_max = ev.ts_ns + ev.wall_ns;
      }
      have_window = true;

      OpSample op;
      op.rank = ev.rank;
      op.stage = static_cast<int>(ev.arg("stage", ev.rank));
      op.backward = is_bwd;
      op.mb = static_cast<int>(ev.arg("mb", 0));
      op.vs = static_cast<int>(ev.arg("vs", op.stage));
      op.ts_ns = ev.ts_ns;
      op.dur_ns = dur;
      groups[{ev.arg("pipe", 0), ev.arg("batch", 0)}].push_back(op);
    } else if (std::strcmp(ev.name, "recv_wait") == 0) {
      RankTimeline& rt = ranks[ev.rank];
      rt.rank = ev.rank;
      rt.recv_wait_ns += static_cast<double>(ev.wall_ns);
    } else if (std::strcmp(ev.name, "p2p_send") == 0) {
      RankTimeline& rt = ranks[ev.rank];
      rt.rank = ev.rank;
      rt.p2p_messages += 1;
      rt.p2p_bytes_sent += static_cast<std::uint64_t>(ev.arg("bytes", 0));
    }
  }

  for (auto& [key, ops] : groups) {
    BatchTimeline b = replay_batch(key, ops);
    b.reference_bubble_fraction =
        replay_batch(key, at_stage_medians(std::move(ops))).bubble_fraction;
    report.batches.push_back(std::move(b));
  }
  for (auto& [rank, rt] : ranks) report.ranks.push_back(rt);

  if (!report.batches.empty()) {
    std::vector<double> bubbles, references;
    for (const BatchTimeline& b : report.batches) {
      bubbles.push_back(b.bubble_fraction);
      references.push_back(b.reference_bubble_fraction);
    }
    std::sort(bubbles.begin(), bubbles.end());
    std::sort(references.begin(), references.end());
    report.bubble_fraction = bubbles[bubbles.size() / 2];
    report.reference_bubble_fraction = references[references.size() / 2];

    // Analytic (p−1)/(v·m) from the largest observed batch: v = virtual
    // stages / pipeline ranks.
    const BatchTimeline& b0 = report.batches.front();
    if (b0.p > 0 && b0.m > 0) {
      const int v = std::max(1, b0.num_virtual_stages / b0.p);
      report.analytic_bubble_fraction =
          static_cast<double>(b0.p - 1) / (static_cast<double>(v) * b0.m);
    }
  }

  if (have_window && !report.ranks.empty()) {
    report.wall_window_ns = static_cast<double>(wall_max - wall_min);
    double busy_sum = 0;
    for (const RankTimeline& rt : report.ranks) busy_sum += rt.wall_busy_ns;
    const double mean_busy = busy_sum / static_cast<double>(report.ranks.size());
    report.wall_bubble_fraction =
        mean_busy > 0 ? (report.wall_window_ns - mean_busy) / mean_busy : 0.0;
  }

  // Stragglers: busy time beyond straggler_factor × median.
  if (report.ranks.size() >= 2) {
    std::vector<double> busy;
    for (const RankTimeline& rt : report.ranks) busy.push_back(rt.busy_ns);
    std::sort(busy.begin(), busy.end());
    const double median = busy[busy.size() / 2];
    for (const RankTimeline& rt : report.ranks) {
      if (median > 0 && rt.busy_ns > options.straggler_factor * median) {
        report.stragglers.push_back(rt.rank);
      }
    }
  }
  return report;
}

TimelineReport analyze(const Tracer& tracer, const TimelineOptions& options) {
  return analyze_events(tracer.snapshot(), options);
}

std::string format_report(const TimelineReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "pipeline timeline: %zu batch(es), measured bubble %.4f "
                "(analytic (p-1)/(v*m) = %.4f, at measured stage costs %.4f), "
                "wall-clock bubble %.4f\n",
                report.batches.size(), report.bubble_fraction,
                report.analytic_bubble_fraction,
                report.reference_bubble_fraction, report.wall_bubble_fraction);
  out += line;
  for (const BatchTimeline& b : report.batches) {
    std::snprintf(line, sizeof(line),
                  "  batch %lld (pipe %lld): p=%d m=%d vs=%d makespan %.3f ms "
                  "ideal %.3f ms bubble %.4f critical-path %.3f ms (%zu ops)\n",
                  static_cast<long long>(b.batch),
                  static_cast<long long>(b.pipe), b.p, b.m,
                  b.num_virtual_stages, b.makespan_ns / 1e6, b.ideal_ns / 1e6,
                  b.bubble_fraction, b.critical_path_ns / 1e6,
                  b.critical_path.size());
    out += line;
  }
  for (const RankTimeline& rt : report.ranks) {
    std::snprintf(line, sizeof(line),
                  "  rank %2d: %4d ops busy %.3f ms (wall %.3f ms) recv-wait "
                  "%.3f ms p2p %llu msg / %llu bytes\n",
                  rt.rank, rt.ops, rt.busy_ns / 1e6, rt.wall_busy_ns / 1e6,
                  rt.recv_wait_ns / 1e6,
                  static_cast<unsigned long long>(rt.p2p_messages),
                  static_cast<unsigned long long>(rt.p2p_bytes_sent));
    out += line;
  }
  if (!report.stragglers.empty()) {
    out += "  stragglers:";
    for (int r : report.stragglers) {
      std::snprintf(line, sizeof(line), " %d", r);
      out += line;
    }
    out += "\n";
  }
  return out;
}

}  // namespace ptdp::obs
