#include "jecb/jecb.h"

#include <algorithm>
#include <memory>

#include "common/ascii_table.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "sql/analyzer.h"

namespace jecb {

Jecb::Jecb(JecbOptions options) : options_(std::move(options)) {
  options_.class_partitioner.num_partitions = options_.num_partitions;
  options_.class_partitioner.delta_self_check = options_.delta_self_check;
  options_.combiner.num_partitions = options_.num_partitions;
  options_.combiner.delta_self_check = options_.delta_self_check;
}

Result<JecbResult> Jecb::Partition(Database* db,
                                   const std::vector<sql::Procedure>& procedures,
                                   const Trace& training_trace) const {
  auto start = std::chrono::steady_clock::now();
  TraceRecorder& rec = TraceRecorder::Default();
  JECB_SPAN2("jecb", "partition", "txns", static_cast<int64_t>(training_trace.size()),
             "partitions", options_.num_partitions);

  // ---- Phase 1: pre-processing -------------------------------------------
  const uint64_t p1_ts = rec.enabled() ? rec.NowUs() : 0;
  std::vector<AccessClass> table_classes =
      ClassifyTables(db->schema(), training_trace, options_.classify);
  ApplyClassification(&db->mutable_schema(), table_classes);

  AttributeLattice lattice(&db->schema());
  if (rec.enabled()) {
    rec.Span("jecb", "phase1.preprocess", p1_ts, rec.NowUs() - p1_ts, "tables",
             static_cast<int64_t>(db->schema().num_tables()));
  }

  // Analyze every procedure that has transactions in the trace.
  sql::AnalyzerOptions analyzer_options;
  analyzer_options.use_select_clause_attrs = options_.join_graph.use_select_clause_attrs;

  // ---- Phase 2: per-class partitioning -----------------------------------
  // Resolve every class's stored procedure up front so a missing procedure
  // fails identically at any thread count, before any parallel work starts.
  const size_t num_classes = training_trace.num_classes();
  std::vector<const sql::Procedure*> class_procs(num_classes, nullptr);
  for (uint32_t cls = 0; cls < num_classes; ++cls) {
    const std::string& name = training_trace.class_name(cls);
    for (const auto& p : procedures) {
      if (EqualsIgnoreCase(p.name, name)) {
        class_procs[cls] = &p;
        break;
      }
    }
    if (class_procs[cls] == nullptr) {
      return Status::NotFound("no stored procedure for transaction class " + name);
    }
  }

  // Each class's analyze -> join graph -> partition is independent: it reads
  // only the (now classification-stamped) schema, the lattice, and its slice
  // of the trace. Results land in per-class slots, so the output never
  // depends on completion order.
  std::unique_ptr<ThreadPool> pool;
  if (ThreadPool::ResolveThreads(options_.num_threads) > 1) {
    pool = std::make_unique<ThreadPool>(options_.num_threads);
  }

  // The trace is flattened once up front; Phase 2 then hands each class a
  // zero-copy view plus its own join-path resolver, and Phase 3 reuses the
  // same FlatTrace for resolve-once scoring.
  const uint64_t flat_ts = rec.enabled() ? rec.NowUs() : 0;
  const FlatTrace flat = FlatTrace::FromTrace(training_trace);
  if (rec.enabled()) {
    rec.Span("jecb", "trace.flatten", flat_ts, rec.NowUs() - flat_ts, "tuples",
             static_cast<int64_t>(flat.num_tuples()));
  }

  ClassPartitioner class_partitioner(db, &lattice, options_.class_partitioner);
  std::vector<ClassPartitioningResult> classes(num_classes);
  std::vector<Status> class_status(num_classes, Status::OK());
  const uint64_t p2_ts = rec.enabled() ? rec.NowUs() : 0;
  ParallelFor(
      pool.get(), num_classes,
      [&](size_t cls) {
        const std::string& name =
            training_trace.class_name(static_cast<uint32_t>(cls));
        // Span named after the transaction class (interned: the name must
        // outlive the recorder); candidate counts attach before it closes.
        ScopedSpan span("jecb", rec.enabled() ? rec.Intern(name) : "class", rec);
        Result<sql::ProcedureInfo> info = sql::AnalyzeProcedure(
            db->schema(), *class_procs[cls], analyzer_options);
        if (!info.ok()) {
          class_status[cls] = info.status();
          return;
        }
        JoinGraph graph =
            BuildJoinGraph(db->schema(), info.value(), options_.join_graph);
        TraceView class_view =
            TraceView(&flat).FilterClass(static_cast<uint32_t>(cls));
        double mix = training_trace.size() == 0
                         ? 0.0
                         : static_cast<double>(class_view.size()) /
                               static_cast<double>(training_trace.size());
        // One resolver per class, shared across every tree/metric of this
        // class; it is not thread-safe, so classes never share one.
        JoinPathResolver resolver(db);
        classes[cls] =
            class_partitioner.Partition(graph, class_view, &resolver, name,
                                        static_cast<uint32_t>(cls), mix);
        span.Arg("total_solutions",
                 static_cast<int64_t>(classes[cls].total_solutions.size()));
        span.Arg("partial_solutions",
                 static_cast<int64_t>(classes[cls].partial_solutions.size()));
      },
      "class.partition");
  if (rec.enabled()) {
    rec.Span("jecb", "phase2.classes", p2_ts, rec.NowUs() - p2_ts, "classes",
             static_cast<int64_t>(num_classes));
  }
  // Report the lowest-class-id failure, matching the serial loop's behavior.
  for (const Status& s : class_status) {
    if (!s.ok()) return s;
  }

  // ---- Phase 3: combining -------------------------------------------------
  const uint64_t p3_ts = rec.enabled() ? rec.NowUs() : 0;
  Combiner combiner(db, &lattice, options_.combiner);
  CombinerReport report;
  JECB_ASSIGN_OR_RETURN(DatabaseSolution solution,
                        combiner.Combine(classes, training_trace, &report, pool.get(),
                                         &flat));
  if (rec.enabled()) {
    rec.Span("jecb", "phase3.combine", p3_ts, rec.NowUs() - p3_ts, "combinations",
             static_cast<int64_t>(report.evaluated_combinations), "candidates",
             static_cast<int64_t>(report.candidate_attrs.size()));
  }

  JecbResult result{std::move(solution), std::move(table_classes), std::move(classes),
                    std::move(report), 0.0};
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.SetGauge("jecb_partition_seconds", result.elapsed_seconds);
  registry.SetGauge("jecb_partition_classes", static_cast<double>(num_classes));
  registry.SetGauge("jecb_partition_best_train_cost",
                    result.combiner_report.best_train_cost);
  registry.AddCounter("jecb_combiner_evaluated_combinations_total",
                      result.combiner_report.evaluated_combinations);
  return result;
}

namespace {

std::string SolutionRoots(const Schema& schema, const std::vector<ClassSolution>& sols) {
  if (sols.empty()) return "No";
  std::vector<std::string> roots;
  for (const ClassSolution& s : sols) {
    std::string name = schema.table(s.tree.root.table)
                           .columns[s.tree.root.column]
                           .name;
    if (s.tier != SolutionTier::kMappingIndependent) {
      name += " (" + std::string(SolutionTierToString(s.tier)) + ")";
    }
    if (std::find(roots.begin(), roots.end(), name) == roots.end()) {
      roots.push_back(name);
    }
  }
  return Join(roots, " or ");
}

}  // namespace

std::string FormatClassSolutions(const Schema& schema,
                                 const std::vector<ClassPartitioningResult>& classes) {
  AsciiTable table({"Transaction class", "Mix", "Total solutions", "Partial solutions"});
  for (const auto& cls : classes) {
    std::string mix = FormatDouble(cls.mix_fraction * 100.0, 1) + "%";
    if (cls.read_only) {
      table.AddRow({cls.class_name, mix, "Read-only", "Read-only"});
    } else {
      table.AddRow({cls.class_name, mix, SolutionRoots(schema, cls.total_solutions),
                    SolutionRoots(schema, cls.partial_solutions)});
    }
  }
  return table.ToString();
}

std::string FormatTableSolutions(const Schema& schema,
                                 const DatabaseSolution& solution) {
  AsciiTable table({"Table", "Solution"});
  for (size_t t = 0; t < schema.num_tables(); ++t) {
    const Table& meta = schema.table(static_cast<TableId>(t));
    const TablePartitioner* p = solution.Get(static_cast<TableId>(t));
    std::string desc;
    if (meta.access_class == AccessClass::kReadOnly) {
      desc = "replicated (read-only)";
    } else if (meta.access_class == AccessClass::kReadMostly) {
      desc = "replicated (read-mostly)";
    } else if (p == nullptr) {
      desc = "replicated";
    } else {
      desc = p->Describe(schema);
    }
    table.AddRow({meta.name, desc});
  }
  return table.ToString();
}

}  // namespace jecb
