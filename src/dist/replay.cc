#include "dist/replay.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/ascii_table.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "common/topology.h"
#include "obs/metrics_registry.h"
#include "obs/trace_export.h"
#include "obs/trace_recorder.h"
#include "partition/evaluator.h"
#include "runtime/load_gen.h"

namespace jecb {

std::vector<ClassifiedTxn> ClassifyTrace(const Database& db,
                                         const DatabaseSolution& solution,
                                         const Trace& trace) {
  JECB_SPAN1("runtime", "replay.classify", "txns",
             static_cast<int64_t>(trace.size()));
  const int32_t k = std::max(solution.num_partitions(), 1);
  std::vector<ClassifiedTxn> out;
  out.reserve(trace.size());
  std::vector<int32_t> parts;
  size_t index = 0;
  for (const Transaction& txn : trace.transactions()) {
    ClassifiedTxn ct;
    ct.txn = &txn;
    ct.txn_id = index;  // stable fault-decision coordinate
    bool writes_replicated = false;
    parts.clear();
    for (const Access& a : txn.accesses) {
      int32_t p = solution.PartitionOf(db, a.tuple);
      if (p == kReplicated) {
        if (a.write) writes_replicated = true;
        continue;
      }
      if (p < 0 || p >= k) {
        // Same deterministic fallback ShardedDatabase uses for unresolvable
        // placements, so residency checks still line up.
        p = static_cast<int32_t>(TupleIdHash{}(a.tuple) % static_cast<size_t>(k));
      }
      parts.push_back(p);
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
    if (writes_replicated) {
      // A replicated write must apply on every shard.
      ct.participants.resize(k);
      for (int32_t p = 0; p < k; ++p) ct.participants[p] = p;
    } else if (parts.empty()) {
      // Replicated reads only: executable anywhere; spread round-robin.
      ct.participants = {static_cast<int32_t>(index % static_cast<size_t>(k))};
    } else {
      ct.participants = parts;
    }
    ct.home = ct.participants.front();
    ct.distributed = IsDistributed(db, solution, txn);
    out.push_back(std::move(ct));
    ++index;
  }
  return out;
}

namespace {

LatencyReport SnapshotLatency(const HistogramData& h) {
  LatencyReport r;
  r.count = h.count;
  r.mean_us = h.mean_us();
  r.p50_us = h.Quantile(0.50);
  r.p95_us = h.Quantile(0.95);
  r.p99_us = h.Quantile(0.99);
  r.max_us = static_cast<double>(h.max_us);
  return r;
}

void AppendLatencyJson(std::string* out, const char* key, const LatencyReport& l) {
  *out += "\"";
  *out += key;
  *out += "\":{\"count\":" + std::to_string(l.count) +
          ",\"mean_us\":" + FormatDouble(l.mean_us, 1) +
          ",\"p50_us\":" + FormatDouble(l.p50_us, 1) +
          ",\"p95_us\":" + FormatDouble(l.p95_us, 1) +
          ",\"p99_us\":" + FormatDouble(l.p99_us, 1) +
          ",\"max_us\":" + FormatDouble(l.max_us, 1) + "}";
}

}  // namespace

uint64_t ReplayReport::OutcomeSignature() const {
  uint64_t h = HashInt64(total_txns);
  auto mix = [&h](uint64_t v) { h = HashCombine(h, HashInt64(v)); };
  mix(committed);
  mix(distributed_committed);
  mix(residency_faults);
  mix(failed);
  mix(aborts);
  mix(retries);
  mix(prepare_rejects);
  mix(coordinator_timeouts);
  mix(shard_down_aborts);
  mix(stalls_injected);
  for (const ShardReport& s : shards) {
    mix(s.local_txns);
    mix(s.dist_participations);
    mix(s.participation_attempts);
    mix(s.stalls);
    mix(s.prepare_rejects);
    mix(s.down_events);
  }
  return h;
}

std::string ReplayReport::ToJson() const {
  std::string out = "{";
  out += "\"label\":\"" + JsonEscape(label) + "\"";
  out += ",\"partitions\":" + std::to_string(num_partitions);
  out += ",\"total_txns\":" + std::to_string(total_txns);
  out += ",\"committed\":" + std::to_string(committed);
  out += ",\"distributed_txns\":" + std::to_string(distributed_committed);
  out += ",\"distributed_fraction\":" + FormatDouble(distributed_fraction(), 4);
  out += ",\"residency_faults\":" + std::to_string(residency_faults);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"aborts\":" + std::to_string(aborts);
  out += ",\"retries\":" + std::to_string(retries);
  out += ",\"prepare_rejects\":" + std::to_string(prepare_rejects);
  out += ",\"coordinator_timeouts\":" + std::to_string(coordinator_timeouts);
  out += ",\"shard_down_aborts\":" + std::to_string(shard_down_aborts);
  out += ",\"stalls_injected\":" + std::to_string(stalls_injected);
  out += ",\"wall_seconds\":" + FormatDouble(wall_seconds, 3);
  out += ",\"throughput_tps\":" + FormatDouble(throughput_tps, 0);
  out += ",\"goodput_tps\":" + FormatDouble(goodput_tps, 0);
  out += ",\"target_tps\":" + FormatDouble(target_tps, 0);
  out += ",\"offered_tps\":" + FormatDouble(offered_tps, 0);
  out += ",\"shed\":" + std::to_string(shed);
  out += ",\"replication_factor\":" + FormatDouble(replication_factor, 2);
  out += ",\"storage_skew\":" + FormatDouble(storage_skew, 3);
  out += ",\"outcome_signature\":\"" + std::to_string(OutcomeSignature()) + "\"";
  out += ",\"topology\":{";
  out += "\"cpus\":" + std::to_string(topology.cpus);
  out += ",\"physical_cores\":" + std::to_string(topology.physical_cores);
  out += ",\"numa_nodes\":" + std::to_string(topology.numa_nodes);
  out += ",\"smt\":" + std::string(topology.smt ? "true" : "false");
  out += ",\"source\":\"" +
         std::string(topology.from_sysfs ? "sysfs" : "fallback") + "\"";
  out += ",\"pinned\":" + std::string(topology.pinned ? "true" : "false");
  out += ",\"perf_available\":" +
         std::string(topology.perf_available ? "true" : "false");
  out += ",\"cache_misses\":" + std::to_string(topology.cache_misses);
  out += ",\"instructions\":" + std::to_string(topology.instructions);
  out += "},\"transport\":{";
  out += "\"kind\":\"" + std::string(TransportKindName(transport)) + "\"";
  out += ",\"messages_sent\":" + std::to_string(transport_counters.messages_sent);
  out +=
      ",\"messages_received\":" + std::to_string(transport_counters.messages_received);
  out += ",\"bytes_sent\":" + std::to_string(transport_counters.bytes_sent);
  out += ",\"bytes_received\":" + std::to_string(transport_counters.bytes_received);
  out += ",\"reconnects\":" + std::to_string(transport_counters.reconnects);
  out += ",\"wire_drops\":" + std::to_string(transport_counters.wire_drops);
  out += ",\"wire_delays\":" + std::to_string(transport_counters.wire_delays);
  out += ",\"wire_duplicates\":" + std::to_string(transport_counters.wire_duplicates);
  out += ",\"dedup_drops\":" + std::to_string(transport_counters.dedup_drops);
  out += ",\"shard_frames\":" + std::to_string(transport_counters.shard_frames);
  out += ",\"shard_bytes\":" + std::to_string(transport_counters.shard_bytes);
  out += ",\"exchange_batches\":" +
         std::to_string(transport_counters.exchange_batches);
  out += ",\"exchange_tuples\":" +
         std::to_string(transport_counters.exchange_tuples);
  out += ",\"exchange_bytes\":" +
         std::to_string(transport_counters.exchange_bytes);
  out += ",";
  AppendLatencyJson(&out, "rtt_us", transport_rtt);
  out += "},\"exchange\":{";
  out += "\"txns\":" + std::to_string(exchange_txns);
  out += ",\"tuples\":" + std::to_string(exchange_tuples);
  out += ",\"bytes\":" + std::to_string(exchange_bytes);
  out += ",\"remote_tuples\":" + std::to_string(exchange_remote_tuples);
  out += ",\"remote_bytes\":" + std::to_string(exchange_remote_bytes);
  out += ",\"batches\":" + std::to_string(exchange_batches);
  out += ",\"digest\":\"" + std::to_string(exchange_digest) + "\"";
  out += ",\"fanout_p50\":" + FormatDouble(exchange_fanout_hist.Quantile(0.50), 1);
  out += ",\"fanout_p99\":" + FormatDouble(exchange_fanout_hist.Quantile(0.99), 1);
  out += ",\"fanout_max\":" + std::to_string(exchange_fanout_hist.max_us);
  out += "},\"shard_exits\":[";
  for (size_t i = 0; i < shard_exits.size(); ++i) {
    const ShardExitStatus& e = shard_exits[i];
    if (i > 0) out += ",";
    out += "{\"shard\":" + std::to_string(e.shard) +
           ",\"exited\":" + (e.exited ? "true" : "false") +
           ",\"exit_code\":" + std::to_string(e.exit_code) +
           ",\"term_signal\":" + std::to_string(e.term_signal) +
           ",\"forced_term\":" + (e.forced_term ? "true" : "false") +
           ",\"forced_kill\":" + (e.forced_kill ? "true" : "false") +
           ",\"postmortem\":\"" + JsonEscape(e.postmortem_path) + "\"" +
           ",\"clean\":" + (e.clean() ? "true" : "false") + "}";
  }
  out += "],\"abnormal_shard_exits\":" + std::to_string(abnormal_shard_exits());
  out += ",\"latency_us\":{";
  AppendLatencyJson(&out, "local", local);
  out += ",";
  AppendLatencyJson(&out, "distributed", distributed);
  out += ",";
  AppendLatencyJson(&out, "retry", retry);
  out += ",";
  AppendLatencyJson(&out, "sojourn", sojourn);
  out += ",";
  AppendLatencyJson(&out, "queue_wait", queue_wait);
  out += ",";
  AppendLatencyJson(&out, "service", service);
  out += "},\"shards\":[";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardReport& s = shards[i];
    if (i > 0) out += ",";
    out += "{\"shard\":" + std::to_string(s.shard) +
           ",\"stored_tuples\":" + std::to_string(s.stored_tuples) +
           ",\"local_txns\":" + std::to_string(s.local_txns) +
           ",\"dist_participations\":" + std::to_string(s.dist_participations) +
           ",\"busy_us\":" + std::to_string(s.busy_us) +
           ",\"participation_attempts\":" + std::to_string(s.participation_attempts) +
           ",\"stalls\":" + std::to_string(s.stalls) +
           ",\"prepare_rejects\":" + std::to_string(s.prepare_rejects) +
           ",\"down_events\":" + std::to_string(s.down_events) +
           ",\"availability\":" + FormatDouble(s.availability(), 4) +
           ",\"p50_us\":" + FormatDouble(s.p50_us, 1) +
           ",\"p95_us\":" + FormatDouble(s.p95_us, 1) +
           ",\"p99_us\":" + FormatDouble(s.p99_us, 1) +
           ",\"rtt_count\":" + std::to_string(s.rtt_count) +
           ",\"rtt_p50_us\":" + FormatDouble(s.rtt_p50_us, 1) +
           ",\"rtt_p99_us\":" + FormatDouble(s.rtt_p99_us, 1) +
           ",\"exchange_tuples_out\":" + std::to_string(s.exchange_tuples_out) +
           ",\"exchange_bytes_out\":" + std::to_string(s.exchange_bytes_out) +
           ",\"pinned_cpu\":" + std::to_string(s.pinned_cpu) +
           ",\"ctx_voluntary\":" + std::to_string(s.ctx_voluntary) +
           ",\"ctx_involuntary\":" + std::to_string(s.ctx_involuntary) +
           "}";
  }
  out += "]}";
  return out;
}

void ReplayReport::PublishTo(MetricsRegistry& registry) const {
  // Prometheus label values share JSON's escaping rules for '\', '"' and
  // '\n', so reuse the JSON escaper for arbitrary labels.
  const std::string lb = "{label=\"" + JsonEscape(label) + "\"}";
  auto counter = [&](std::string_view name, uint64_t value,
                     std::string_view help) {
    registry.Counter(std::string(name) + lb, help)
        .store(value, std::memory_order_relaxed);
  };
  auto gauge = [&](std::string_view name, double value, std::string_view help) {
    registry.Gauge(std::string(name) + lb, help)
        .store(value, std::memory_order_relaxed);
  };
  counter("jecb_replay_txns_total", total_txns, "Transactions submitted");
  counter("jecb_replay_committed_total", committed, "Transactions committed");
  counter("jecb_replay_distributed_committed_total", distributed_committed,
          "Committed txns classified distributed (Definition 5/6)");
  counter("jecb_replay_failed_total", failed,
          "Transactions that exhausted the retry budget");
  counter("jecb_replay_aborts_total", aborts, "2PC attempts that aborted");
  counter("jecb_replay_retries_total", retries, "Aborted attempts retried");
  counter("jecb_replay_residency_faults_total", residency_faults,
          "Accesses served by a shard not holding the tuple");
  counter("jecb_replay_prepare_rejects_total", prepare_rejects,
          "Injected prepare 'no' votes");
  counter("jecb_replay_coordinator_timeouts_total", coordinator_timeouts,
          "Injected coordinator vote timeouts");
  counter("jecb_replay_shard_down_aborts_total", shard_down_aborts,
          "Aborts from unreachable participants");
  counter("jecb_replay_stalls_injected_total", stalls_injected,
          "Injected participant stalls");
  counter("jecb_transport_messages_sent_total", transport_counters.messages_sent,
          "Wire messages sent by coordinators");
  counter("jecb_transport_messages_received_total",
          transport_counters.messages_received,
          "Wire messages received by coordinators");
  counter("jecb_transport_bytes_sent_total", transport_counters.bytes_sent,
          "Wire bytes sent by coordinators");
  counter("jecb_transport_bytes_received_total", transport_counters.bytes_received,
          "Wire bytes received by coordinators");
  counter("jecb_transport_reconnects_total", transport_counters.reconnects,
          "Channel reconnects (injected peer disconnects)");
  counter("jecb_transport_wire_drops_total", transport_counters.wire_drops,
          "Injected dropped messages (all retransmitted)");
  counter("jecb_transport_wire_delays_total", transport_counters.wire_delays,
          "Injected message send delays");
  counter("jecb_transport_wire_duplicates_total",
          transport_counters.wire_duplicates,
          "Injected duplicate sends (suppressed by receivers)");
  counter("jecb_transport_dedup_drops_total", transport_counters.dedup_drops,
          "Duplicate frames the shard servers suppressed");
  counter("jecb_transport_shard_frames_total", transport_counters.shard_frames,
          "Frames the shard server processes received");
  counter("jecb_transport_exchange_batches_total",
          transport_counters.exchange_batches,
          "Tuple batches shard servers shipped with their yes votes");
  counter("jecb_transport_exchange_tuples_total",
          transport_counters.exchange_tuples,
          "Read rows shard servers shipped with their yes votes");
  counter("jecb_transport_exchange_bytes_total",
          transport_counters.exchange_bytes,
          "Encoded row bytes shard servers shipped with their yes votes");
  counter("jecb_exchange_txns_total", exchange_txns,
          "Committed txns whose read set was assembled via exchange");
  counter("jecb_exchange_tuples_total", exchange_tuples,
          "Rows in assembled read sets");
  counter("jecb_exchange_bytes_total", exchange_bytes,
          "Encoded bytes of assembled read sets");
  counter("jecb_exchange_remote_tuples_total", exchange_remote_tuples,
          "Assembled rows owned by a non-home shard");
  counter("jecb_exchange_remote_bytes_total", exchange_remote_bytes,
          "Encoded bytes shipped shard-to-shard");
  counter("jecb_exchange_batches_total", exchange_batches,
          "Bounded tuple batches (greedy span rule)");
  counter("jecb_replay_abnormal_shard_exits_total", abnormal_shard_exits(),
          "Shard child processes that did not exit cleanly");
  counter("jecb_replay_shed_total", shed,
          "Open-loop arrivals dropped at admission");
  gauge("jecb_replay_wall_seconds", wall_seconds, "Replay wall-clock time");
  if (open_loop()) {
    gauge("jecb_replay_target_tps", target_tps,
          "Requested open-loop offered load");
    gauge("jecb_replay_offered_tps", offered_tps,
          "Open-loop schedule's arrival rate");
  }
  gauge("jecb_topology_cpus", topology.cpus, "Logical cpus on this machine");
  gauge("jecb_topology_physical_cores", topology.physical_cores,
        "Physical cores on this machine");
  gauge("jecb_topology_numa_nodes", topology.numa_nodes,
        "NUMA nodes on this machine");
  if (topology.perf_available) {
    counter("jecb_perf_cache_misses_total", topology.cache_misses,
            "Hardware cache misses over the execution window");
    counter("jecb_perf_instructions_total", topology.instructions,
            "Instructions retired over the execution window");
  }
  gauge("jecb_replay_throughput_tps", throughput_tps,
        "Processed rate: (committed + failed) / wall");
  gauge("jecb_replay_goodput_tps", goodput_tps, "Useful-work rate: committed / wall");
  gauge("jecb_replay_distributed_fraction", distributed_fraction(),
        "Committed distributed fraction (equals the static evaluator's)");
  gauge("jecb_replay_replication_factor", replication_factor,
        "Stored tuples / distinct tuples");
  gauge("jecb_replay_storage_skew", storage_skew,
        "Max shard tuples / mean shard tuples");
  registry
      .Histogram("jecb_replay_local_latency_us" + lb,
                 "Client-observed latency of single-partition txns")
      .Merge(local_hist);
  registry
      .Histogram("jecb_replay_distributed_latency_us" + lb,
                 "Client-observed latency of 2PC txns")
      .Merge(distributed_hist);
  registry
      .Histogram("jecb_replay_retry_latency_us" + lb,
                 "Latency of committed txns that needed >= 1 retry")
      .Merge(retry_hist);
  if (sojourn_hist.count > 0) {
    registry
        .Histogram("jecb_replay_sojourn_latency_us" + lb,
                   "Open-loop sojourn: completion - scheduled arrival")
        .Merge(sojourn_hist);
    registry
        .Histogram("jecb_replay_queue_wait_latency_us" + lb,
                   "Open-loop queue wait: executor start - scheduled arrival")
        .Merge(queue_wait_hist);
    registry
        .Histogram("jecb_replay_service_latency_us" + lb,
                   "Open-loop service: completion - executor start")
        .Merge(service_hist);
  }
  if (transport_rtt_hist.count > 0) {
    registry
        .Histogram("jecb_transport_rtt_us" + lb,
                   "Wire request->response latency, all shards merged")
        .Merge(transport_rtt_hist);
  }
  if (exchange_fanout_hist.count > 0) {
    registry
        .Histogram("jecb_exchange_fanout" + lb,
                   "Distinct remote source shards per assembled read set")
        .Merge(exchange_fanout_hist);
  }
  for (const ShardReport& s : shards) {
    const std::string slb = "{label=\"" + JsonEscape(label) + "\",shard=\"" +
                            std::to_string(s.shard) + "\"}";
    registry.Counter("jecb_shard_local_txns_total" + slb, "Local txns per shard")
        .store(s.local_txns, std::memory_order_relaxed);
    registry
        .Counter("jecb_shard_dist_participations_total" + slb,
                 "2PC participations per shard")
        .store(s.dist_participations, std::memory_order_relaxed);
    registry.Counter("jecb_shard_busy_us_total" + slb, "Simulated busy time")
        .store(s.busy_us, std::memory_order_relaxed);
    registry.Gauge("jecb_shard_availability" + slb, "1 - down / attempts")
        .store(s.availability(), std::memory_order_relaxed);
    if (s.rtt_count > 0) {
      registry
          .Counter("jecb_shard_transport_rtt_count" + slb,
                   "Wire round trips against this shard")
          .store(s.rtt_count, std::memory_order_relaxed);
      registry
          .Gauge("jecb_shard_transport_rtt_p99_us" + slb,
                 "p99 wire request->response latency")
          .store(s.rtt_p99_us, std::memory_order_relaxed);
    }
    if (s.exchange_tuples_out > 0) {
      registry
          .Counter("jecb_shard_exchange_tuples_out_total" + slb,
                   "Exchange rows this shard owned and shipped")
          .store(s.exchange_tuples_out, std::memory_order_relaxed);
      registry
          .Counter("jecb_shard_exchange_bytes_out_total" + slb,
                   "Encoded bytes of exchange rows this shard shipped")
          .store(s.exchange_bytes_out, std::memory_order_relaxed);
    }
    if (s.pinned_cpu >= 0) {
      registry
          .Gauge("jecb_shard_pinned_cpu" + slb,
                 "Logical cpu the shard server was pinned to")
          .store(static_cast<double>(s.pinned_cpu),
                 std::memory_order_relaxed);
    }
    if (s.ctx_voluntary + s.ctx_involuntary > 0) {
      registry
          .Counter("jecb_shard_ctx_voluntary_total" + slb,
                   "Voluntary context switches of the shard server")
          .store(s.ctx_voluntary, std::memory_order_relaxed);
      registry
          .Counter("jecb_shard_ctx_involuntary_total" + slb,
                   "Involuntary context switches of the shard server")
          .store(s.ctx_involuntary, std::memory_order_relaxed);
    }
  }
}

std::string ReplayReport::ToPrometheus() const {
  MetricsRegistry registry;
  PublishTo(registry);
  return registry.RenderPrometheus();
}

std::string ReplayReport::ToAscii() const {
  AsciiTable summary({"metric", "value"});
  summary.AddRow({"label", label});
  summary.AddRow({"transport", std::string(TransportKindName(transport))});
  summary.AddRow({"partitions", std::to_string(num_partitions)});
  summary.AddRow({"total_txns", std::to_string(total_txns)});
  summary.AddRow({"committed", std::to_string(committed)});
  summary.AddRow({"failed", std::to_string(failed)});
  summary.AddRow({"distributed_fraction", FormatDouble(distributed_fraction(), 4)});
  summary.AddRow({"throughput_tps", FormatDouble(throughput_tps, 0)});
  summary.AddRow({"goodput_tps", FormatDouble(goodput_tps, 0)});
  summary.AddRow({"wall_seconds", FormatDouble(wall_seconds, 3)});
  summary.AddRow({"local_p50/p95/p99_us",
                  FormatDouble(local.p50_us, 1) + " / " +
                      FormatDouble(local.p95_us, 1) + " / " +
                      FormatDouble(local.p99_us, 1)});
  summary.AddRow({"dist_p50/p95/p99_us",
                  FormatDouble(distributed.p50_us, 1) + " / " +
                      FormatDouble(distributed.p95_us, 1) + " / " +
                      FormatDouble(distributed.p99_us, 1)});
  if (open_loop()) {
    summary.AddRow({"target/offered_tps", FormatDouble(target_tps, 0) + " / " +
                                              FormatDouble(offered_tps, 0)});
    summary.AddRow({"shed", std::to_string(shed)});
    summary.AddRow({"sojourn_p50/p95/p99_us",
                    FormatDouble(sojourn.p50_us, 1) + " / " +
                        FormatDouble(sojourn.p95_us, 1) + " / " +
                        FormatDouble(sojourn.p99_us, 1)});
    summary.AddRow({"queue_wait/service_p99_us",
                    FormatDouble(queue_wait.p99_us, 1) + " / " +
                        FormatDouble(service.p99_us, 1)});
  }
  {
    std::string topo = std::to_string(topology.cpus) + " cpus / " +
                       std::to_string(topology.physical_cores) + " cores / " +
                       std::to_string(topology.numa_nodes) + " numa (" +
                       (topology.from_sysfs ? "sysfs" : "fallback") +
                       (topology.pinned ? ", pinned" : "") + ")";
    summary.AddRow({"topology", topo});
    if (topology.perf_available) {
      summary.AddRow({"cache_misses/instructions",
                      std::to_string(topology.cache_misses) + " / " +
                          std::to_string(topology.instructions)});
    }
  }
  if (exchange_txns > 0) {
    summary.AddRow({"exchange_tuples",
                    std::to_string(exchange_tuples) + " (" +
                        std::to_string(exchange_remote_tuples) + " remote)"});
    summary.AddRow({"exchange_bytes",
                    std::to_string(exchange_bytes) + " (" +
                        std::to_string(exchange_remote_bytes) + " remote)"});
    summary.AddRow({"exchange_batches", std::to_string(exchange_batches)});
    summary.AddRow({"exchange_digest", std::to_string(exchange_digest)});
  }
  if (!shard_exits.empty()) {
    summary.AddRow({"abnormal_shard_exits",
                    std::to_string(abnormal_shard_exits())});
  }
  if (transport != TransportKind::kInProcess) {
    summary.AddRow({"wire_messages",
                    std::to_string(transport_counters.messages_sent) + " out / " +
                        std::to_string(transport_counters.messages_received) +
                        " in"});
    summary.AddRow({"wire_bytes",
                    std::to_string(transport_counters.bytes_sent) + " out / " +
                        std::to_string(transport_counters.bytes_received) + " in"});
    summary.AddRow(
        {"wire_faults", std::to_string(transport_counters.wire_drops) +
                            " drop / " +
                            std::to_string(transport_counters.wire_delays) +
                            " delay / " +
                            std::to_string(transport_counters.wire_duplicates) +
                            " dup / " +
                            std::to_string(transport_counters.reconnects) +
                            " reconnect"});
    summary.AddRow({"rtt_p50/p95/p99_us",
                    FormatDouble(transport_rtt.p50_us, 1) + " / " +
                        FormatDouble(transport_rtt.p95_us, 1) + " / " +
                        FormatDouble(transport_rtt.p99_us, 1)});
  }
  AsciiTable per_shard({"shard", "tuples", "local", "dist", "busy_us", "avail",
                        "p50_us", "p95_us", "p99_us", "rtt_p99_us", "exch_out",
                        "cpu", "ctxsw"});
  for (const ShardReport& s : shards) {
    per_shard.AddRow({std::to_string(s.shard), std::to_string(s.stored_tuples),
                      std::to_string(s.local_txns),
                      std::to_string(s.dist_participations),
                      std::to_string(s.busy_us), FormatDouble(s.availability(), 3),
                      FormatDouble(s.p50_us, 1), FormatDouble(s.p95_us, 1),
                      FormatDouble(s.p99_us, 1), FormatDouble(s.rtt_p99_us, 1),
                      std::to_string(s.exchange_tuples_out),
                      s.pinned_cpu >= 0 ? std::to_string(s.pinned_cpu) : "-",
                      std::to_string(s.ctx_voluntary + s.ctx_involuntary)});
  }
  return summary.ToString() + "\n" + per_shard.ToString();
}

ReplayReport Replay(const Database& db, const DatabaseSolution& solution,
                    const Trace& trace, const RuntimeOptions& options,
                    std::string label) {
  TraceRecorder& rec = TraceRecorder::Default();
  // Phase A (single-threaded): resolve placements and materialize the shard
  // layout with its encoded-row store, here, before the transport forks, so
  // shard-server children inherit both copy-on-write.
  std::vector<ClassifiedTxn> classified = ClassifyTrace(db, solution, trace);
  const uint64_t layout_ts = rec.enabled() ? rec.NowUs() : 0;
  ShardedDatabase sharded(db, solution);
  if (rec.enabled()) {
    rec.Span("runtime", "replay.shard_layout", layout_ts,
             rec.NowUs() - layout_ts, "shards",
             static_cast<int64_t>(sharded.num_shards()));
  }

  RuntimeMetrics metrics(sharded.num_shards());
  std::unique_ptr<Transport> transport = MakeTransport(sharded, options, &metrics);
  // Start() must precede client threads: the socket backends fork their
  // shard-server processes here, and the children must never inherit a
  // multi-threaded address space.
  Status started = transport->Start();
  if (!started.ok()) {
    // A degraded replay would silently report wrong numbers; die loudly.
    std::fprintf(stderr, "jecb: replay backend failed to start (%s): %s\n",
                 std::string(TransportKindName(options.transport)).c_str(),
                 started.ToString().c_str());
    std::abort();
  }

  // Hardware counters bracket the execution window only. Started after the
  // fork (shard children are excluded; inherit covers the client threads
  // spawned below) and stopped before Drain(). Zero readings when the
  // kernel refuses perf_event_open.
  PerfCounters perf;

  // Phase B: run the classified trace. Closed loop (the default): clients
  // race through the trace, each blocking on its own completions. Open loop
  // (target_tps > 0): a deterministic arrival schedule offers load
  // independent of completions, shedding arrivals past the admission
  // bound — see runtime/load_gen.h.
  //
  // Both shapes stop the wall clock at the LAST TRANSACTION COMPLETION, not
  // at thread join: client join and backend teardown cost must never
  // deflate throughput.
  const int num_clients = std::max(options.num_clients, 1);
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t wall_us = 0;
  uint64_t arrival_window_us = 0;
  if (options.target_tps > 0.0) {
    // One session per executor thread, created up front (sessions are not
    // thread-safe; executor ids are stable per thread), destroyed before
    // Drain() so their wire counters fold into the transport first.
    std::vector<std::unique_ptr<TransportSession>> sessions;
    sessions.reserve(static_cast<size_t>(num_clients));
    for (int c = 0; c < num_clients; ++c) {
      sessions.push_back(transport->NewSession(c));
    }
    JECB_SPAN2("runtime", "replay.open_loop", "clients", num_clients, "txns",
               static_cast<int64_t>(classified.size()));
    perf.Start();
    OpenLoopResult ol = RunOpenLoop(
        options, classified.size(), t0,
        [&](int executor_id, size_t i) {
          const ClassifiedTxn& ct = classified[i];
          if (ct.RequiresTwoPhaseCommit()) {
            sessions[static_cast<size_t>(executor_id)]->ExecuteDistributed(ct);
          } else {
            sessions[static_cast<size_t>(executor_id)]->ExecuteLocal(ct);
          }
        },
        &metrics);
    perf.Stop();
    sessions.clear();
    wall_us = ol.last_completion_us;
    arrival_window_us = ol.arrival_window_us;
  } else {
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> last_done_us{0};
    auto run_client = [&](int client_id) {
      std::unique_ptr<TransportSession> session =
          transport->NewSession(client_id);
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= classified.size()) break;
        const ClassifiedTxn& ct = classified[i];
        if (ct.RequiresTwoPhaseCommit()) {
          session->ExecuteDistributed(ct);
        } else {
          session->ExecuteLocal(ct);
        }
      }
      // This client's last completion is now; publish it so the wall clock
      // can stop at the run-wide last commit instead of at join.
      uint64_t done = ElapsedUs(t0);
      uint64_t prev = last_done_us.load(std::memory_order_relaxed);
      while (prev < done && !last_done_us.compare_exchange_weak(
                                prev, done, std::memory_order_relaxed)) {
      }
      // The session dies with this scope, folding its wire counters into the
      // transport before Drain() snapshots them.
    };
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(num_clients));
    {
      JECB_SPAN2("runtime", "replay.run", "clients", num_clients, "txns",
                 static_cast<int64_t>(classified.size()));
      perf.Start();
      for (int c = 0; c < num_clients; ++c) clients.emplace_back(run_client, c);
      for (std::thread& c : clients) c.join();
      perf.Stop();
    }
    wall_us = last_done_us.load(std::memory_order_relaxed);
  }
  double wall = static_cast<double>(wall_us) / 1e6;

  // Graceful shutdown, strictly ordered: clients joined above -> Drain()
  // quiesces the backend (shard processes serve their final frames, ship
  // their stats and get reaped over sockets; nothing is in flight
  // in-process) -> only THEN the metrics snapshot. A snapshot taken any
  // earlier could miss completions still in flight inside the backend.
  {
    JECB_SPAN("runtime", "replay.drain");
    transport->Drain();
  }

  // Phase C: one quiesced snapshot feeds every field of the report, so no
  // renderer can observe a counter from a different moment.
  JECB_SPAN("runtime", "replay.snapshot");
  MetricsSnapshot snap = metrics.Snapshot();
  TransportReport treport = transport->Report();
  ReplayReport report;
  report.label = std::move(label);
  report.num_partitions = sharded.num_shards();
  report.total_txns = trace.size();
  report.committed = snap.committed;
  report.distributed_committed = snap.distributed_committed;
  report.residency_faults = snap.residency_faults;
  report.failed = snap.failed;
  report.aborts = snap.aborts;
  report.retries = snap.retries;
  report.prepare_rejects = snap.prepare_rejects;
  report.coordinator_timeouts = snap.coordinator_timeouts;
  report.shard_down_aborts = snap.shard_down_aborts;
  report.stalls_injected = snap.stalls_injected;
  report.wall_seconds = wall;
  report.goodput_tps =
      wall > 0.0 ? static_cast<double>(report.committed) / wall : 0.0;
  report.throughput_tps =
      wall > 0.0
          ? static_cast<double>(report.committed + report.failed) / wall
          : 0.0;
  report.replication_factor = sharded.ReplicationFactor();
  report.storage_skew = sharded.StorageSkew();
  report.local_hist = snap.local_latency;
  report.distributed_hist = snap.distributed_latency;
  report.retry_hist = snap.retry_latency;
  report.local = SnapshotLatency(report.local_hist);
  report.distributed = SnapshotLatency(report.distributed_hist);
  report.retry = SnapshotLatency(report.retry_hist);
  report.target_tps = options.target_tps;
  report.shed = snap.shed;
  if (report.open_loop() && arrival_window_us > 0) {
    report.offered_tps = static_cast<double>(report.total_txns) /
                         (static_cast<double>(arrival_window_us) / 1e6);
  }
  report.sojourn_hist = snap.sojourn_latency;
  report.queue_wait_hist = snap.queue_wait_latency;
  report.service_hist = snap.service_latency;
  report.sojourn = SnapshotLatency(report.sojourn_hist);
  report.queue_wait = SnapshotLatency(report.queue_wait_hist);
  report.service = SnapshotLatency(report.service_hist);
  {
    const CpuTopology topo = DetectCpuTopology();
    report.topology.cpus = topo.logical_cpus();
    report.topology.physical_cores = topo.physical_cores;
    report.topology.numa_nodes = topo.numa_nodes;
    report.topology.smt = topo.smt;
    report.topology.from_sysfs = topo.from_sysfs;
    report.topology.pinned = options.pin_threads;
    report.topology.perf_available = perf.available();
    report.topology.cache_misses = perf.cache_misses();
    report.topology.instructions = perf.instructions();
  }
  report.transport = treport.kind;
  report.transport_counters = treport.counters;
  report.transport_rtt_hist = treport.rtt;
  report.transport_rtt = SnapshotLatency(report.transport_rtt_hist);
  report.exchange_txns = snap.exchange_txns;
  report.exchange_tuples = snap.exchange_tuples;
  report.exchange_bytes = snap.exchange_bytes;
  report.exchange_remote_tuples = snap.exchange_remote_tuples;
  report.exchange_remote_bytes = snap.exchange_remote_bytes;
  report.exchange_batches = snap.exchange_batches;
  report.exchange_digest = snap.exchange_digest;
  report.exchange_fanout_hist = snap.exchange_fanout;
  report.shard_exits = treport.shard_exits;
  report.shards.reserve(sharded.num_shards());
  for (int32_t s = 0; s < sharded.num_shards(); ++s) {
    const ShardMetricsSnapshot& sm = snap.shards[s];
    ShardReport sr;
    sr.shard = s;
    sr.stored_tuples = sharded.shard_tuples(s);
    sr.local_txns = sm.local_txns;
    sr.dist_participations = sm.dist_participations;
    sr.busy_us = sm.busy_us;
    sr.participation_attempts = sm.participation_attempts;
    sr.stalls = sm.stalls;
    sr.prepare_rejects = sm.prepare_rejects;
    sr.down_events = sm.down_events;
    sr.p50_us = sm.latency.Quantile(0.50);
    sr.p95_us = sm.latency.Quantile(0.95);
    sr.p99_us = sm.latency.Quantile(0.99);
    sr.exchange_tuples_out = sm.exchange_tuples_out;
    sr.exchange_bytes_out = sm.exchange_bytes_out;
    sr.pinned_cpu = sm.pinned_cpu;
    sr.ctx_voluntary = sm.ctx_voluntary;
    sr.ctx_involuntary = sm.ctx_involuntary;
    if (static_cast<size_t>(s) < treport.shard_rtt.size()) {
      const HistogramData& rtt = treport.shard_rtt[static_cast<size_t>(s)];
      sr.rtt_count = rtt.count;
      sr.rtt_p50_us = rtt.Quantile(0.50);
      sr.rtt_p99_us = rtt.Quantile(0.99);
    }
    report.shards.push_back(sr);
  }
  return report;
}

}  // namespace jecb
