// Readings the benchmark takes from outside the database: the wall clock,
// process and per-thread CPU time, resident memory, the host description
// written into every result, and the in-memory span store of traced runs.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
int64_t NowNs();

/// User + system CPU of the whole process, in nanoseconds.
int64_t ProcessCpuNs();

/// CPU nanoseconds of the calling thread.
int64_t ThisThreadCpuNs();

/// CPU nanoseconds of every thread of the process, keyed by thread id.
std::map<int, int64_t> ThreadCpuNs();

/// Largest per-thread CPU share over an interval: the busiest thread's CPU
/// time between the two snapshots divided by `wall_ns`, the wall time from
/// before the first snapshot to after the second.
double BusiestThreadFrac(const std::map<int, int64_t>& before,
                         const std::map<int, int64_t>& after, int64_t wall_ns);

/// Steal time of each CPU from /proc/stat, in clock ticks: time the
/// hypervisor gave this virtual CPU's physical CPU to someone else while the
/// virtual CPU had work. Empty where the host does not report it.
std::vector<int64_t> StealTicksPerCpu();

/// Largest per-CPU share of `wall_ns` stolen between two readings.
double MaxStealFrac(const std::vector<int64_t>& before, const std::vector<int64_t>& after,
                    int64_t wall_ns);

/// VmHWM / VmRSS / Threads from /proc/self/status (MiB, MiB, count).
double PeakRssMb();
double RssMb();
int ThreadCount();

/// Host description as JSON members (no braces): nproc, CPU model, L3
/// size, kernel.
std::string HostJson();

/// One traced interval. `parent` is 0 for a root span; spans of one
/// transaction share `txn`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t txn = 0;
};

/// Spans held in memory until the run ends. Thread-safe appends; the
/// transaction spans are appended in batches by their recorders.
class SpanStore {
 public:
  void Add(const Span& s);
  void AddAll(const std::vector<Span>& spans);
  std::vector<Span> Take();
  uint64_t NextId();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Writes `spans` as a Chrome trace-event JSON file. Returns false on I/O
/// failure.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans, int64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
