// bench_compare: diff the BENCH_*.json files a bench run just produced
// against the committed baselines under bench/baselines/, and turn the
// result into a CI gate plus a human-readable markdown delta table.
//
//   ./bench_compare --baseline_dir bench/baselines --current_dir bench-out \
//       [--tolerance 0.25] [--summary_out "$GITHUB_STEP_SUMMARY"] [--update]
//
// Every baseline file must have a counterpart in --current_dir (a missing
// bench is a failure: it means CI silently stopped running it). Keys are
// compared by flattened path (e.g. `rows[2].identical`) under three rules:
//
//   identity  — keys named `identical` or containing `digest`, `signature`
//               or `cost`. These are deterministic contracts (bit-identical
//               solutions, replay outcome signatures, train cost); ANY
//               divergence fails regardless of tolerance. This is the gate
//               that catches a correctness regression dressed up as a perf
//               win.
//   scale     — `bench`, `workload`, `mode`, `trace_txns`, `threads`,
//               `txns`, `shards`. A mismatch means the current run measured
//               a different experiment than the baseline; comparing the
//               numbers would be meaningless, so it is a hard failure.
//   gated     — top-level (not inside an array) numeric keys containing
//               `speedup`, `throughput` or `per_sec`. Higher is better;
//               the run fails if current < baseline * (1 - tolerance).
//               Per-row timings stay informational: on shared CI runners a
//               single row can swing ±30%, which is exactly why the benches
//               export best-of-rows aggregates for gating instead.
//
// Everything else (raw seconds, hardware_concurrency, the machine block,
// ...) is reported in the table but never fails the run.
//
// --update copies the current files over the baselines (for refreshing them
// deliberately after an intentional perf change) and exits 0.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---- Flattening JSON parser ------------------------------------------------
// The BENCH files are machine-written (see bench/bench_util.h): objects,
// arrays, numbers, strings, bools. We flatten them to dotted paths so the
// diff is a plain map comparison and new keys/rows show up naturally.

struct JsonValue {
  enum class Kind { kNumber, kString, kBool, kNull } kind = Kind::kNull;
  double number = 0.0;
  std::string text;  // original token for exact (identity) comparisons

  bool operator==(const JsonValue& o) const {
    return kind == o.kind && text == o.text;
  }
};

class FlattenParser {
 public:
  FlattenParser(std::string_view in, std::map<std::string, JsonValue>* out)
      : in_(in), out_(out) {}

  bool Run() {
    SkipWs();
    return ParseValue("") && (SkipWs(), pos_ == in_.size());
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& msg) {
    if (error_.empty()) {
      error_ = msg + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= in_.size() || in_[pos_] != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < in_.size() && in_[pos_] != '"') {
      char c = in_[pos_++];
      if (c == '\\' && pos_ < in_.size()) {
        char esc = in_[pos_++];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'u':
            // The bench writers never emit \u escapes; keep them verbatim so
            // exact comparison still works if one ever appears.
            out->push_back('\\');
            out->push_back('u');
            break;
          default: out->push_back(esc); break;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= in_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(const std::string& path) {
    SkipWs();
    if (pos_ >= in_.size()) return Fail("unexpected end of input");
    char c = in_[pos_];
    if (c == '{') return ParseObject(path);
    if (c == '[') return ParseArray(path);
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      if (!ParseString(&v.text)) return false;
      (*out_)[path] = std::move(v);
      return true;
    }
    if (std::strncmp(in_.data() + pos_, "true", 4) == 0) {
      pos_ += 4;
      (*out_)[path] = JsonValue{JsonValue::Kind::kBool, 1.0, "true"};
      return true;
    }
    if (std::strncmp(in_.data() + pos_, "false", 5) == 0) {
      pos_ += 5;
      (*out_)[path] = JsonValue{JsonValue::Kind::kBool, 0.0, "false"};
      return true;
    }
    if (std::strncmp(in_.data() + pos_, "null", 4) == 0) {
      pos_ += 4;
      (*out_)[path] = JsonValue{};
      return true;
    }
    // Number.
    size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '-' ||
            in_[pos_] == '+' || in_[pos_] == '.' || in_[pos_] == 'e' ||
            in_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = std::string(in_.substr(start, pos_ - start));
    v.number = std::strtod(v.text.c_str(), nullptr);
    (*out_)[path] = std::move(v);
    return true;
  }

  bool ParseObject(const std::string& path) {
    if (!Consume('{')) return Fail("expected '{'");
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return Fail("expected ':'");
      if (!ParseValue(path.empty() ? key : path + "." + key)) return false;
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' in object");
    }
  }

  bool ParseArray(const std::string& path) {
    if (!Consume('[')) return Fail("expected '['");
    if (Consume(']')) return true;
    for (size_t i = 0;; ++i) {
      if (!ParseValue(path + "[" + std::to_string(i) + "]")) return false;
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' in array");
    }
  }

  std::string_view in_;
  std::map<std::string, JsonValue>* out_;
  size_t pos_ = 0;
  std::string error_;
};

bool LoadFlattened(const fs::path& path, std::map<std::string, JsonValue>* out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path.string();
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();
  FlattenParser parser(json, out);
  if (!parser.Run()) {
    *error = path.string() + ": " + parser.error();
    return false;
  }
  return true;
}

// ---- Comparison rules ------------------------------------------------------

std::string LastSegment(const std::string& path) {
  size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool IsIdentityKey(const std::string& path) {
  const std::string key = LastSegment(path);
  return key == "identical" || Contains(key, "digest") ||
         Contains(key, "signature") || Contains(key, "cost");
}

bool IsScaleKey(const std::string& path) {
  const std::string key = LastSegment(path);
  return key == "bench" || key == "workload" || key == "mode" ||
         key == "trace_txns" || key == "threads" || key == "txns" ||
         key == "shards";
}

bool IsGatedMetric(const std::string& path, const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) return false;
  if (Contains(path, "[")) return false;  // per-row numbers are informational
  const std::string key = LastSegment(path);
  return Contains(key, "speedup") || Contains(key, "throughput") ||
         Contains(key, "per_sec");
}

struct DiffRow {
  std::string metric;
  std::string baseline;
  std::string current;
  std::string delta;
  std::string status;  // "ok", "FAIL", "info"
};

std::string FormatDelta(double base, double cur) {
  if (base == 0.0) return cur == 0.0 ? "0%" : "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", (cur - base) / base * 100.0);
  return buf;
}

// Compares one bench file pair; appends rows and returns the number of
// failures found.
int CompareFile(const std::string& name,
                const std::map<std::string, JsonValue>& base,
                const std::map<std::string, JsonValue>& cur, double tolerance,
                std::vector<DiffRow>* rows) {
  int failures = 0;
  for (const auto& [path, bval] : base) {
    auto it = cur.find(path);
    DiffRow row;
    row.metric = path;
    row.baseline = bval.text;
    if (it == cur.end()) {
      // A key that vanished is only fatal if it was load-bearing: losing an
      // identity or gated metric means the gate would silently stop gating.
      row.current = "(missing)";
      row.delta = "-";
      const bool fatal = IsIdentityKey(path) || IsScaleKey(path) ||
                         IsGatedMetric(path, bval);
      row.status = fatal ? "FAIL" : "info";
      failures += fatal ? 1 : 0;
      rows->push_back(std::move(row));
      continue;
    }
    const JsonValue& cval = it->second;
    row.current = cval.text;

    if (IsIdentityKey(path)) {
      const bool same = bval == cval;
      row.delta = same ? "=" : "DIVERGED";
      row.status = same ? "ok" : "FAIL";
      failures += same ? 0 : 1;
    } else if (IsScaleKey(path)) {
      const bool same = bval == cval;
      row.delta = same ? "=" : "scale mismatch";
      row.status = same ? "ok" : "FAIL";
      failures += same ? 0 : 1;
    } else if (IsGatedMetric(path, bval) && cval.kind == JsonValue::Kind::kNumber) {
      row.delta = FormatDelta(bval.number, cval.number);
      const bool regressed = cval.number < bval.number * (1.0 - tolerance);
      row.status = regressed ? "FAIL" : "ok";
      failures += regressed ? 1 : 0;
    } else if (bval.kind == JsonValue::Kind::kNumber &&
               cval.kind == JsonValue::Kind::kNumber) {
      row.delta = FormatDelta(bval.number, cval.number);
      row.status = "info";
    } else {
      row.delta = bval == cval ? "=" : "changed";
      row.status = "info";
    }
    rows->push_back(std::move(row));
  }
  // New keys in the current run (new metrics) are informational.
  for (const auto& [path, cval] : cur) {
    if (base.count(path) != 0) continue;
    rows->push_back({path, "(new)", cval.text, "-", "info"});
  }
  (void)name;
  return failures;
}

std::string MarkdownTable(const std::string& name, const std::vector<DiffRow>& rows,
                          bool verbose) {
  std::string out;
  out += "### " + name + "\n\n";
  out += "| metric | baseline | current | delta | status |\n";
  out += "|---|---|---|---|---|\n";
  for (const DiffRow& r : rows) {
    // Keep the table readable: always show failures and gated/identity rows;
    // drop per-row informational noise unless --verbose.
    if (!verbose && r.status == "info" && Contains(r.metric, "[")) continue;
    const std::string status = r.status == "FAIL" ? "**FAIL**" : r.status;
    out += "| " + r.metric + " | " + r.baseline + " | " + r.current + " | " +
           r.delta + " | " + status + " |\n";
  }
  out += "\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_dir = "bench/baselines";
  std::string current_dir;
  std::string summary_out;
  double tolerance = 0.25;
  bool update = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--baseline_dir" && i + 1 < argc) {
      baseline_dir = argv[++i];
    } else if (arg == "--current_dir" && i + 1 < argc) {
      current_dir = argv[++i];
    } else if (arg == "--summary_out" && i + 1 < argc) {
      summary_out = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --current_dir DIR [--baseline_dir DIR] "
                   "[--tolerance F] [--summary_out FILE] [--update] [--verbose]\n",
                   argv[0]);
      return 2;
    }
  }
  if (current_dir.empty()) {
    std::fprintf(stderr, "error: --current_dir is required\n");
    return 2;
  }

  if (update) {
    fs::create_directories(baseline_dir);
    size_t copied = 0;
    for (const auto& entry : fs::directory_iterator(current_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
        continue;
      }
      fs::copy_file(entry.path(), fs::path(baseline_dir) / name,
                    fs::copy_options::overwrite_existing);
      std::printf("updated %s/%s\n", baseline_dir.c_str(), name.c_str());
      ++copied;
    }
    if (copied == 0) {
      std::fprintf(stderr, "error: no BENCH_*.json files in %s\n",
                   current_dir.c_str());
      return 1;
    }
    return 0;
  }

  if (!fs::is_directory(baseline_dir)) {
    std::fprintf(stderr, "error: baseline dir %s does not exist\n",
                 baseline_dir.c_str());
    return 1;
  }

  std::vector<std::string> baseline_files;
  for (const auto& entry : fs::directory_iterator(baseline_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      baseline_files.push_back(name);
    }
  }
  std::sort(baseline_files.begin(), baseline_files.end());
  if (baseline_files.empty()) {
    std::fprintf(stderr, "error: no BENCH_*.json baselines in %s\n",
                 baseline_dir.c_str());
    return 1;
  }

  int total_failures = 0;
  std::string report;
  char tol_buf[64];
  std::snprintf(tol_buf, sizeof(tol_buf),
                "## Bench comparison (tolerance %.0f%%)\n\n", tolerance * 100.0);
  report += tol_buf;

  for (const std::string& name : baseline_files) {
    std::map<std::string, JsonValue> base, cur;
    std::string error;
    if (!LoadFlattened(fs::path(baseline_dir) / name, &base, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    const fs::path cur_path = fs::path(current_dir) / name;
    if (!fs::exists(cur_path)) {
      report += "### " + name + "\n\n**FAIL**: baseline exists but the current "
                "run produced no " + name + " — the bench did not run.\n\n";
      ++total_failures;
      continue;
    }
    if (!LoadFlattened(cur_path, &cur, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::vector<DiffRow> rows;
    const int failures = CompareFile(name, base, cur, tolerance, &rows);
    total_failures += failures;
    report += MarkdownTable(name, rows, verbose);
  }

  report += total_failures == 0
                ? "All benches within tolerance; identity contracts hold.\n"
                : std::to_string(total_failures) + " comparison failure(s).\n";

  std::fputs(report.c_str(), stdout);
  if (!summary_out.empty()) {
    std::ofstream out(summary_out, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", summary_out.c_str());
      return 1;
    }
    out << report;
  }
  return total_failures == 0 ? 0 : 1;
}
