// trace_stats: per-phase duration rollups for a Chrome trace-event JSON
// file (the --trace_out output of jecb_cli, runtime_replay and the bench
// binaries), including the merged multi-process cluster traces the
// distributed replay writes.
//
//   ./trace_stats trace.json [--cat runtime] [--top N] [--txns N]
//
// Prints one AsciiTable of span groups — (category, name) pairs — sorted by
// total time, plus instant-event (fault annotation) counts. For a
// multi-process trace it additionally prints a per-process breakdown (tracks
// labeled by the "M" process_name metadata) and a cross-process transaction
// summary: every span carrying a "txn" arg is folded into that txn's
// critical path, so the txns that spent the longest wall time — and how many
// processes they touched — surface without opening Perfetto. The obs tests
// also run this path to validate the exporter output end to end.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/ascii_table.h"
#include "common/string_util.h"
#include "obs/trace_export.h"

using namespace jecb;

namespace {

struct TxnPath {
  uint64_t first_ts = UINT64_MAX;  ///< earliest span start across processes
  uint64_t last_ts = 0;            ///< latest span end across processes
  uint64_t span_us = 0;            ///< summed span durations
  uint64_t spans = 0;
  std::vector<int64_t> pids;  ///< distinct processes touched (sorted)

  uint64_t makespan_us() const {
    return last_ts > first_ts ? last_ts - first_ts : 0;
  }
};

void PrintRollups(const std::vector<ChromeTraceEvent>& events, size_t top,
                  const char* heading) {
  std::vector<SpanRollup> rollups = RollupSpans(events);
  if (rollups.empty()) return;
  if (top > 0 && rollups.size() > top) rollups.resize(top);
  AsciiTable table({"category", "span", "count", "total_ms", "mean_us", "max_us"});
  for (const SpanRollup& r : rollups) {
    table.AddRow({r.cat, r.name, std::to_string(r.count),
                  FormatDouble(static_cast<double>(r.total_us) / 1000.0, 2),
                  FormatDouble(r.mean_us(), 1),
                  std::to_string(r.max_us)});
  }
  if (heading != nullptr) std::printf("%s\n", heading);
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string cat_filter;
  size_t top = 0;       // 0 = all
  size_t txn_top = 10;  // rows of the cross-process txn table
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--cat" && i + 1 < argc) {
      cat_filter = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      top = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--txns" && i + 1 < argc) {
      txn_top = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: %s <trace.json> [--cat CATEGORY] [--top N] [--txns N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <trace.json> [--cat CATEGORY] [--top N] [--txns N]\n",
                 argv[0]);
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();

  std::vector<ChromeTraceEvent> events;
  std::string error;
  if (!ParseChromeTrace(json, &events, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  // Track labels come from metadata, which a --cat filter must not drop.
  std::map<int64_t, std::string> process_names;
  for (const ChromeTraceEvent& e : events) {
    if (e.ph != "M" || e.name != "process_name") continue;
    for (const auto& [key, value] : e.sargs) {
      if (key == "name") process_names[e.pid] = value;
    }
  }

  if (!cat_filter.empty()) {
    std::vector<ChromeTraceEvent> kept;
    for (ChromeTraceEvent& e : events) {
      if (e.cat == cat_filter) kept.push_back(std::move(e));
    }
    events = std::move(kept);
  }

  size_t spans = 0;
  size_t instants = 0;
  size_t counters = 0;
  std::map<std::pair<std::string, std::string>, uint64_t> instant_counts;
  std::map<int64_t, std::vector<ChromeTraceEvent>> by_pid;
  std::map<int64_t, TxnPath> txns;
  // Open-loop sojourn split ("openloop" category, runtime/load_gen.cc):
  // queue_wait (scheduled arrival -> executor start) vs service
  // (start -> completion) per sampled txn.
  struct Side {
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t max_us = 0;
  };
  Side queue_wait, service;
  uint64_t shed_instants = 0;
  for (const ChromeTraceEvent& e : events) {
    if (e.cat == "openloop") {
      if (e.ph == "X") {
        Side* side = e.name == "queue_wait" ? &queue_wait
                     : e.name == "service"  ? &service
                                            : nullptr;
        if (side != nullptr) {
          ++side->count;
          side->total_us += e.dur_us;
          side->max_us = std::max(side->max_us, e.dur_us);
        }
      } else if (e.name == "shed") {
        ++shed_instants;
      }
    }
    if (e.ph == "X") {
      ++spans;
      by_pid[e.pid].push_back(e);
      for (const auto& [key, value] : e.args) {
        if (key != "txn") continue;
        TxnPath& t = txns[static_cast<int64_t>(value)];
        t.first_ts = std::min(t.first_ts, e.ts_us);
        t.last_ts = std::max(t.last_ts, e.ts_us + e.dur_us);
        t.span_us += e.dur_us;
        ++t.spans;
        if (!std::binary_search(t.pids.begin(), t.pids.end(), e.pid)) {
          t.pids.insert(std::lower_bound(t.pids.begin(), t.pids.end(), e.pid),
                        e.pid);
        }
      }
    } else if (e.ph == "i" || e.ph == "I") {
      ++instants;
      ++instant_counts[{e.cat, e.name}];
    } else if (e.ph == "C") {
      ++counters;
    }
  }
  std::printf("%s: %zu events (%zu spans, %zu instants, %zu counters, "
              "%zu processes)\n\n",
              path.c_str(), events.size(), spans, instants, counters,
              by_pid.size());

  PrintRollups(events, top, nullptr);

  // Per-process tables only when the trace actually has multiple tracks —
  // a single-process trace keeps the old one-table output.
  if (by_pid.size() > 1) {
    for (const auto& [pid, pid_events] : by_pid) {
      auto it = process_names.find(pid);
      std::string label = it != process_names.end()
                              ? it->second
                              : "pid " + std::to_string(pid);
      std::string heading = "process " + std::to_string(pid) + " (" + label + ")";
      PrintRollups(pid_events, top, heading.c_str());
    }
  }

  // Cross-process critical paths: makespan is first span start to last span
  // end across every track, so coordinator wait and shard hold both count.
  if (!txns.empty() && txn_top > 0) {
    std::vector<std::pair<int64_t, TxnPath>> ranked(txns.begin(), txns.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.makespan_us() != b.second.makespan_us()) {
        return a.second.makespan_us() > b.second.makespan_us();
      }
      return a.first < b.first;
    });
    if (ranked.size() > txn_top) ranked.resize(txn_top);
    AsciiTable ttable(
        {"txn", "spans", "processes", "makespan_us", "span_total_us"});
    for (const auto& [id, t] : ranked) {
      ttable.AddRow({std::to_string(id), std::to_string(t.spans),
                     std::to_string(t.pids.size()),
                     std::to_string(t.makespan_us()),
                     std::to_string(t.span_us)});
    }
    std::printf("slowest transactions (%zu of %zu traced)\n%s\n", ranked.size(),
                txns.size(), ttable.ToString().c_str());
  }

  // Where does open-loop sojourn time go: waiting for admission, or being
  // served? A queue_wait share that grows with offered load is the
  // saturation signature; a flat one means the bottleneck is service time.
  if (queue_wait.count + service.count > 0) {
    auto mean = [](const Side& s) {
      return s.count == 0
                 ? 0.0
                 : static_cast<double>(s.total_us) / static_cast<double>(s.count);
    };
    const double total =
        static_cast<double>(queue_wait.total_us + service.total_us);
    AsciiTable otable({"phase", "count", "total_ms", "mean_us", "max_us",
                       "share"});
    auto add_side = [&](const char* name, const Side& side) {
      otable.AddRow(
          {name, std::to_string(side.count),
           FormatDouble(static_cast<double>(side.total_us) / 1000.0, 2),
           FormatDouble(mean(side), 1), std::to_string(side.max_us),
           total > 0.0 ? FormatDouble(
                             static_cast<double>(side.total_us) / total * 100.0,
                             1) + "%"
                       : "-"});
    };
    add_side("queue_wait", queue_wait);
    add_side("service", service);
    std::printf("open-loop sojourn split (%llu sampled shed events)\n%s\n",
                static_cast<unsigned long long>(shed_instants),
                otable.ToString().c_str());
  }

  if (!instant_counts.empty()) {
    AsciiTable itable({"category", "instant", "count"});
    for (const auto& [key, count] : instant_counts) {
      itable.AddRow({key.first, key.second, std::to_string(count)});
    }
    std::printf("%s\n", itable.ToString().c_str());
  }
  return 0;
}
