#include "common/topology.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace jecb {

namespace {

namespace fs = std::filesystem;

/// Reads a small sysfs file; empty string on any error (missing file,
/// permission) so callers can treat "unreadable" and "absent" the same way.
std::string ReadSmallFile(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool ParseInt(std::string_view text, int32_t* out) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  if (text.empty()) return false;
  int32_t value = 0;
  bool any = false;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    value = value * 10 + (c - '0');
    any = true;
  }
  *out = value;
  return any;
}

/// Every logical cpu is its own core on node 0 — what we report when sysfs
/// is hidden (containers, non-Linux). hardware_concurrency() can itself
/// return 0 on exotic platforms; one cpu is the conservative floor.
CpuTopology FallbackTopology() {
  CpuTopology topo;
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  for (unsigned i = 0; i < n; ++i) {
    CpuInfo info;
    info.cpu = static_cast<int32_t>(i);
    info.core = static_cast<int32_t>(i);
    topo.cpus.push_back(info);
  }
  topo.physical_cores = static_cast<int32_t>(n);
  topo.packages = 1;
  topo.numa_nodes = 1;
  topo.smt = false;
  topo.from_sysfs = false;
  return topo;
}

}  // namespace

std::vector<int32_t> ParseCpuList(std::string_view text) {
  std::vector<int32_t> cpus;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    std::string_view tok = text.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos : comma - pos);
    pos = comma == std::string_view::npos ? text.size() : comma + 1;
    size_t dash = tok.find('-');
    int32_t lo = 0;
    int32_t hi = 0;
    if (dash == std::string_view::npos) {
      if (!ParseInt(tok, &lo)) return {};
      hi = lo;
    } else {
      if (!ParseInt(tok.substr(0, dash), &lo) ||
          !ParseInt(tok.substr(dash + 1), &hi) || hi < lo) {
        return {};
      }
    }
    // A hostile/corrupt range must not OOM the parser.
    if (hi - lo > 4096) return {};
    for (int32_t c = lo; c <= hi; ++c) cpus.push_back(c);
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

CpuTopology DetectCpuTopologyFrom(const std::string& cpu_root,
                                  const std::string& node_root) {
  std::error_code ec;
  if (!fs::is_directory(cpu_root, ec)) return FallbackTopology();

  // Which logical cpus exist: prefer the `present` cpulist, fall back to
  // scanning cpuN directories (fake test trees may provide either).
  std::vector<int32_t> ids = ParseCpuList(ReadSmallFile(fs::path(cpu_root) / "present"));
  if (ids.empty()) {
    for (const auto& entry : fs::directory_iterator(cpu_root, ec)) {
      const std::string name = entry.path().filename().string();
      int32_t id = 0;
      if (name.rfind("cpu", 0) == 0 && ParseInt(name.substr(3), &id)) {
        ids.push_back(id);
      }
    }
    std::sort(ids.begin(), ids.end());
  }
  if (ids.empty()) return FallbackTopology();

  CpuTopology topo;
  for (int32_t id : ids) {
    fs::path dir = fs::path(cpu_root) / ("cpu" + std::to_string(id)) / "topology";
    CpuInfo info;
    info.cpu = id;
    if (!ParseInt(ReadSmallFile(dir / "core_id"), &info.core) ||
        !ParseInt(ReadSmallFile(dir / "physical_package_id"), &info.package)) {
      // A tree without per-cpu topology (some containers expose the cpu
      // dirs but hide topology/) is as good as no tree at all.
      return FallbackTopology();
    }
    topo.cpus.push_back(info);
  }

  // SMT siblings: the first logical cpu (lowest id) of each (package, core)
  // pair is the core's primary thread; the rest are siblings.
  std::map<std::pair<int32_t, int32_t>, int32_t> first_of_core;
  for (CpuInfo& info : topo.cpus) {
    auto [it, inserted] =
        first_of_core.emplace(std::make_pair(info.package, info.core), info.cpu);
    info.smt_sibling = !inserted;
    if (!inserted) topo.smt = true;
    (void)it;
  }
  topo.physical_cores = static_cast<int32_t>(first_of_core.size());
  std::vector<int32_t> packages;
  for (const CpuInfo& info : topo.cpus) packages.push_back(info.package);
  std::sort(packages.begin(), packages.end());
  packages.erase(std::unique(packages.begin(), packages.end()), packages.end());
  topo.packages = std::max<int32_t>(1, static_cast<int32_t>(packages.size()));

  // NUMA: node dirs carry a cpulist each; cpus outside every list stay on
  // node 0 (matches the kernel's memoryless-node folding).
  int32_t nodes_seen = 0;
  if (fs::is_directory(node_root, ec)) {
    for (const auto& entry : fs::directory_iterator(node_root, ec)) {
      const std::string name = entry.path().filename().string();
      int32_t node_id = 0;
      if (name.rfind("node", 0) != 0 || !ParseInt(name.substr(4), &node_id)) {
        continue;
      }
      ++nodes_seen;
      for (int32_t cpu : ParseCpuList(ReadSmallFile(entry.path() / "cpulist"))) {
        for (CpuInfo& info : topo.cpus) {
          if (info.cpu == cpu) info.node = node_id;
        }
      }
    }
  }
  topo.numa_nodes = std::max(1, nodes_seen);
  topo.from_sysfs = true;
  return topo;
}

CpuTopology DetectCpuTopology() {
#if defined(__linux__)
  return DetectCpuTopologyFrom("/sys/devices/system/cpu",
                               "/sys/devices/system/node");
#else
  return FallbackTopology();
#endif
}

std::vector<int32_t> BuildPinPlan(const CpuTopology& topo, int32_t num_workers) {
  if (num_workers <= 0 || topo.cpus.empty()) return {};

  // Preference order: all physical-core primaries (interleaved across
  // packages so sockets fill evenly), then SMT siblings the same way.
  auto interleave = [&](bool siblings) {
    std::map<int32_t, std::vector<int32_t>> per_package;  // package -> cpus
    for (const CpuInfo& info : topo.cpus) {
      if (info.smt_sibling == siblings) per_package[info.package].push_back(info.cpu);
    }
    std::vector<int32_t> out;
    for (size_t round = 0;; ++round) {
      bool any = false;
      for (auto& [pkg, cpus] : per_package) {
        (void)pkg;
        if (round < cpus.size()) {
          out.push_back(cpus[round]);
          any = true;
        }
      }
      if (!any) break;
    }
    return out;
  };
  std::vector<int32_t> order = interleave(/*siblings=*/false);
  std::vector<int32_t> second = interleave(/*siblings=*/true);
  order.insert(order.end(), second.begin(), second.end());

  std::vector<int32_t> plan(static_cast<size_t>(num_workers));
  for (int32_t i = 0; i < num_workers; ++i) {
    plan[i] = order[static_cast<size_t>(i) % order.size()];
  }
  return plan;
}

bool PinCurrentProcessToCpu(int32_t cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // sched_setaffinity(0, ...) pins the calling thread only; called while
  // the process is still single-threaded (right after fork), every thread
  // it starts later inherits the mask, which is how one call covers the
  // whole child.
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

ContextSwitchCounts ProcessContextSwitches() {
  ContextSwitchCounts out;
#if defined(__linux__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    out.voluntary = static_cast<uint64_t>(usage.ru_nvcsw);
    out.involuntary = static_cast<uint64_t>(usage.ru_nivcsw);
  }
#endif
  return out;
}

std::string TopologyFingerprintJson() {
  CpuTopology topo = DetectCpuTopology();
  std::ostringstream out;
  out << "{\"cpus\":" << topo.logical_cpus()
      << ",\"physical_cores\":" << topo.physical_cores
      << ",\"smt\":" << (topo.smt ? "true" : "false")
      << ",\"numa_nodes\":" << topo.numa_nodes << ",\"source\":\""
      << (topo.from_sysfs ? "sysfs" : "fallback") << "\"}";
  return out.str();
}

// ---- PerfCounters ----------------------------------------------------------

#if defined(__linux__)
namespace {
int OpenHardwareCounter(uint64_t config) {
  struct perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 1;
  attr.inherit = 1;  // fold worker threads (joined before Stop) into the read
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
              /*group_fd=*/-1, /*flags=*/0));
}
}  // namespace

PerfCounters::PerfCounters() {
  cache_fd_ = OpenHardwareCounter(PERF_COUNT_HW_CACHE_MISSES);
  instr_fd_ = OpenHardwareCounter(PERF_COUNT_HW_INSTRUCTIONS);
  if (cache_fd_ < 0 || instr_fd_ < 0) {
    // All-or-nothing: a half-available pair would make the report's
    // miss-per-instruction ratio meaningless.
    if (cache_fd_ >= 0) close(cache_fd_);
    if (instr_fd_ >= 0) close(instr_fd_);
    cache_fd_ = instr_fd_ = -1;
  }
}

PerfCounters::~PerfCounters() {
  if (cache_fd_ >= 0) close(cache_fd_);
  if (instr_fd_ >= 0) close(instr_fd_);
}

void PerfCounters::Start() {
  if (!available()) return;
  ioctl(cache_fd_, PERF_EVENT_IOC_RESET, 0);
  ioctl(instr_fd_, PERF_EVENT_IOC_RESET, 0);
  ioctl(cache_fd_, PERF_EVENT_IOC_ENABLE, 0);
  ioctl(instr_fd_, PERF_EVENT_IOC_ENABLE, 0);
}

void PerfCounters::Stop() {
  if (!available()) return;
  ioctl(cache_fd_, PERF_EVENT_IOC_DISABLE, 0);
  ioctl(instr_fd_, PERF_EVENT_IOC_DISABLE, 0);
  uint64_t value = 0;
  if (read(cache_fd_, &value, sizeof(value)) == sizeof(value)) {
    cache_misses_ = value;
  }
  if (read(instr_fd_, &value, sizeof(value)) == sizeof(value)) {
    instructions_ = value;
  }
}
#else
PerfCounters::PerfCounters() = default;
PerfCounters::~PerfCounters() = default;
void PerfCounters::Start() {}
void PerfCounters::Stop() {}
#endif

}  // namespace jecb
