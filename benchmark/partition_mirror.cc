#include "partition_mirror.h"

#include "common/string_util.h"
#include "jecb/attr_lattice.h"
#include "jecb/class_partitioner.h"
#include "jecb/combiner.h"
#include "jecb/join_graph.h"
#include "partition/join_path_resolver.h"
#include "sql/analyzer.h"
#include "trace/flat_trace.h"

namespace jecb::benchmark {

Result<MirrorResult> MirrorPartition(Database* db,
                                     const std::vector<sql::Procedure>& procedures,
                                     const Trace& train, int32_t num_partitions,
                                     SpanLog* spans) {
  const int32_t root = spans->Begin("jecb.partition");

  int32_t span = spans->Begin("jecb.phase1", root);
  ApplyClassification(&db->mutable_schema(), ClassifyTables(db->schema(), train));
  AttributeLattice lattice(&db->schema());
  spans->End(span);

  span = spans->Begin("trace.flatten", root);
  const FlatTrace flat = FlatTrace::FromTrace(train);
  spans->End(span);

  MirrorResult out{DatabaseSolution(num_partitions, db->schema().num_tables())};
  const int32_t phase2 = spans->Begin("jecb.phase2", root);
  ClassPartitionerOptions class_options;
  class_options.num_partitions = num_partitions;
  ClassPartitioner class_partitioner(db, &lattice, class_options);
  std::vector<ClassPartitioningResult> classes(train.num_classes());
  for (uint32_t cls = 0; cls < train.num_classes(); ++cls) {
    const std::string& name = train.class_name(cls);
    const sql::Procedure* proc = nullptr;
    for (const sql::Procedure& p : procedures) {
      if (EqualsIgnoreCase(p.name, name)) {
        proc = &p;
        break;
      }
    }
    if (proc == nullptr) return Status::NotFound("no stored procedure for " + name);
    const int32_t class_span = spans->Begin("jecb.class", phase2);
    span = spans->Begin("sql.analyze", class_span);
    Result<sql::ProcedureInfo> info = sql::AnalyzeProcedure(db->schema(), *proc);
    if (!info.ok()) return info.status();
    const JoinGraph graph = BuildJoinGraph(db->schema(), info.value());
    spans->End(span);

    span = spans->Begin("jecb.class_partition", class_span);
    const TraceView view = TraceView(&flat).FilterClass(cls);
    const double mix = train.empty() ? 0.0
                                     : static_cast<double>(view.size()) /
                                           static_cast<double>(train.size());
    JoinPathResolver resolver(db);
    classes[cls] = class_partitioner.Partition(graph, view, &resolver, name, cls, mix);
    spans->End(span);
    spans->End(class_span);
    out.class_solutions +=
        classes[cls].total_solutions.size() + classes[cls].partial_solutions.size();
  }
  spans->End(phase2);

  span = spans->Begin("jecb.phase3", root);
  CombinerOptions combiner_options;
  combiner_options.num_partitions = num_partitions;
  CombinerReport report;
  Result<DatabaseSolution> solution =
      Combiner(db, &lattice, combiner_options)
          .Combine(classes, train, &report, nullptr, &flat);
  spans->End(span);
  spans->End(root);
  if (!solution.ok()) return solution.status();
  out.solution = std::move(solution).value();
  out.combinations = report.evaluated_combinations;
  return out;
}

}  // namespace jecb::benchmark
