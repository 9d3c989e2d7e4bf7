#include "probe.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 + static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

int64_t ThisThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::map<int, int64_t> ThreadCpuNs() {
  std::map<int, int64_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const int tid = std::stoi(entry.path().filename().string());
    // The per-thread CPU clock of another thread of this process (the
    // encoding pthread_getcpuclockid uses): exact, unlike the tick-sampled
    // /proc counters.
    const clockid_t clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0) {
      out[tid] = static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
    }
  }
  return out;
}

double BusiestThreadFrac(const std::map<int, int64_t>& before,
                         const std::map<int, int64_t>& after, int64_t wall_ns) {
  if (wall_ns <= 0) return 0.0;
  int64_t busiest = 0;
  for (const auto& [tid, ns] : after) {
    auto it = before.find(tid);
    const int64_t delta = ns - (it == before.end() ? 0 : it->second);
    if (delta > busiest) busiest = delta;
  }
  return static_cast<double>(busiest) / static_cast<double>(wall_ns);
}

std::vector<int64_t> StealTicksPerCpu() {
  // Lines "cpuN user nice system idle iowait irq softirq steal ...".
  std::vector<int64_t> out;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 3, "cpu") != 0) break;
    if (line.size() < 4 || line[3] < '0' || line[3] > '9') continue;  // the all-CPU line
    std::istringstream fields(line);
    std::string name;
    int64_t v = 0, steal = 0;
    fields >> name;
    for (int i = 0; i < 8 && fields >> v; ++i) steal = v;
    out.push_back(steal);
  }
  return out;
}

double MaxStealFrac(const std::vector<int64_t>& before, const std::vector<int64_t>& after,
                    int64_t wall_ns) {
  if (wall_ns <= 0 || before.size() != after.size()) return 0.0;
  int64_t most = 0;
  for (size_t i = 0; i < after.size(); ++i) most = std::max(most, after[i] - before[i]);
  const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(most) * tick_s / (static_cast<double>(wall_ns) / 1e9);
}

namespace {

/// Value of a "Key:   123 kB" line of /proc/self/status.
double StatusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

double PeakRssMb() { return StatusField("VmHWM") / 1024.0; }
double RssMb() { return StatusField("VmRSS") / 1024.0; }
int ThreadCount() { return static_cast<int>(StatusField("Threads")); }

std::string HostJson() {
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const size_t colon = line.find(':');
        if (colon != std::string::npos) model = line.substr(colon + 2);
        break;
      }
    }
  }
  std::string l3 = "unknown";
  {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string v;
    if (in >> v) l3 = v;
  }
  utsname u{};
  std::string kernel = uname(&u) == 0 ? u.release : "unknown";
  std::ostringstream os;
  os << "\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu_model\": \""
     << JsonEscape(model) << "\", \"l3\": \"" << JsonEscape(l3) << "\", \"kernel\": \""
     << JsonEscape(kernel) << "\"";
  return os.str();
}

void SpanStore::Add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

void SpanStore::AddAll(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span> SpanStore::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

uint64_t SpanStore::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans, int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.txn),
                 static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
