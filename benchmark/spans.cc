#include "spans.h"

#include <cstdio>

namespace jecb::benchmark {

std::vector<double> SpanLog::Seconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (double s : Seconds(name)) total += s;
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"txn\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.txn));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace jecb::benchmark
