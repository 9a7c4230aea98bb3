// CPU topology map + process pinning + hardware counters: the substrate the
// topology-aware runtime (RuntimeOptions::pin_threads) stands on.
//
// Detection reads the Linux sysfs tree (/sys/devices/system/cpu,
// /sys/devices/system/node) into a logical-cpu -> {core, package, NUMA node,
// SMT sibling} map. Containers and CI runners frequently hide sysfs; every
// entry point degrades gracefully to a flat fallback topology derived from
// hardware_concurrency(), flagged via CpuTopology::from_sysfs so reports can
// say which one they measured on. Parsing is exposed with injectable roots
// so tests can golden-test against a fake sysfs tree without root.
//
// Pinning and counters are performance-only by contract: nothing here may
// influence transaction outcomes, so ReplayReport::OutcomeSignature() is
// identical with pinning on or off (tests/load_gen_test.cc asserts this).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jecb {

/// One logical CPU and where it lives in the machine.
struct CpuInfo {
  int32_t cpu = -1;      ///< logical cpu index (the sched_setaffinity id)
  int32_t core = -1;     ///< physical core id within its package
  int32_t package = 0;   ///< socket id
  int32_t node = 0;      ///< NUMA node
  /// True when another logical cpu with a lower id shares this physical
  /// core — i.e. this is an SMT sibling, not the core's primary thread.
  bool smt_sibling = false;
};

/// The machine's core/SMT/NUMA map, or the flat fallback when sysfs is
/// unavailable (from_sysfs == false: every logical cpu is its own core on
/// node 0).
struct CpuTopology {
  std::vector<CpuInfo> cpus;  ///< sorted by logical cpu id
  int32_t physical_cores = 0;
  int32_t packages = 1;
  int32_t numa_nodes = 1;
  bool smt = false;        ///< any core exposes more than one logical cpu
  bool from_sysfs = false; ///< false = hardware_concurrency() fallback

  int32_t logical_cpus() const { return static_cast<int32_t>(cpus.size()); }
};

/// Reads the live machine topology (sysfs, with fallback). Cheap enough to
/// call per replay; does not cache.
CpuTopology DetectCpuTopology();

/// Detection with injectable sysfs roots (normally
/// "/sys/devices/system/cpu" and "/sys/devices/system/node") so tests can
/// point at a fabricated tree. Missing/garbled roots yield the fallback.
CpuTopology DetectCpuTopologyFrom(const std::string& cpu_root,
                                  const std::string& node_root);

/// Parses the kernel's cpulist format ("0-3,8,10-11") into a sorted list of
/// logical cpu ids. Malformed input yields an empty list.
std::vector<int32_t> ParseCpuList(std::string_view text);

/// Deterministic worker -> logical-cpu assignment: spread across distinct
/// physical cores first (alternating packages so sockets fill evenly), and
/// only start reusing SMT siblings once every physical core has one worker.
/// More workers than logical cpus wraps around. Never empty as long as
/// num_workers > 0 (the fallback topology still has >= 1 cpu).
std::vector<int32_t> BuildPinPlan(const CpuTopology& topo, int32_t num_workers);

/// Pins the calling process to one logical cpu. Call it while the process
/// is still single-threaded: every thread it starts afterwards inherits the
/// mask. Returns false when the platform lacks sched_setaffinity or the
/// kernel refuses (restricted cpuset) — the caller keeps running unpinned;
/// pinning is best-effort by design.
bool PinCurrentProcessToCpu(int32_t cpu);

/// getrusage-based context-switch counts of the whole process (Linux);
/// elsewhere both are zero.
struct ContextSwitchCounts {
  uint64_t voluntary = 0;
  uint64_t involuntary = 0;
};
ContextSwitchCounts ProcessContextSwitches();

/// One-line machine fingerprint for bench output, e.g.
/// {"cpus":8,"physical_cores":4,"smt":true,"numa_nodes":1,"source":"sysfs"}.
/// bench_util.h stamps this into every BENCH_*.json so cross-machine
/// baseline drift is explainable.
std::string TopologyFingerprintJson();

/// Whole-process cache-miss / instruction counters via perf_event_open.
/// Runtime-detected: unprivileged containers and non-Linux builds simply
/// report available() == false and zero readings, so CI output stays
/// deterministic regardless of perf permissions.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  bool available() const { return cache_fd_ >= 0 && instr_fd_ >= 0; }

  /// Resets and enables the counters (no-op when unavailable).
  void Start();
  /// Disables the counters and latches the readings (zeros when unavailable).
  void Stop();

  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t instructions() const { return instructions_; }

 private:
  int cache_fd_ = -1;
  int instr_fd_ = -1;
  uint64_t cache_misses_ = 0;
  uint64_t instructions_ = 0;
};

}  // namespace jecb
