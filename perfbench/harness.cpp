#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double SpanTotals::self_of(std::initializer_list<const char*> names) const {
  double total = 0.0;
  for (const char* n : names) {
    const auto it = self_s.find(n);
    if (it != self_s.end()) total += it->second;
  }
  return total;
}

SpanTotals span_totals(const std::vector<ptdp::obs::TraceEvent>& events) {
  // Spans of one rank come from its one thread, so they nest properly:
  // walk them in start order with a stack of open ancestors, and charge
  // each span's duration to its direct parent's child time.
  std::map<int, std::vector<const ptdp::obs::TraceEvent*>> by_rank;
  for (const auto& e : events) {
    if (e.wall_ns >= 0 && e.name != nullptr) by_rank[e.rank].push_back(&e);
  }
  SpanTotals out;
  for (auto& [rank, spans] : by_rank) {
    std::stable_sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->wall_ns > b->wall_ns;
    });
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto* s = spans[i];
      while (!open.empty() && spans[open.back()]->ts_ns + spans[open.back()]->wall_ns <=
                                  s->ts_ns) {
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += s->wall_ns;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i]->name;
      out.self_s[name] +=
          static_cast<double>(std::max<std::int64_t>(spans[i]->wall_ns - child_ns[i], 0)) *
          1e-9;
      ++out.count[name];
      out.bytes[name] += std::max<std::int64_t>(spans[i]->arg("bytes", 0), 0);
    }
  }
  return out;
}

}  // namespace perfbench
