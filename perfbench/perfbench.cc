// perfbench: one run of one benchmark workload against partdb's public
// Database / Session / DbServer / RemoteDatabase API.
//
//   perfbench --workload <kv-closed|kv-durable|tpcc-mvcc|kv-net-open>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work_dir <dir>] [--out_dir <dir>]
//
// Every layer is measured from outside: by timing calls into its public
// functions and by reading the stats those functions return. The run checks
// the database's outputs, prints a host-and-config record line, and ends with
// one JSON line {"correct", "attempted", "failed", "metrics"} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). It
// exits non-zero when any output check fails. NOTES.md gives each
// workload's purpose and which metric each layer should move.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/affinity.h"
#include "db/database.h"
#include "kv/kv_procedures.h"
#include "load.h"
#include "net/db_server.h"
#include "net/remote_db.h"
#include "probe.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace partdb;

// --- Workloads ---------------------------------------------------------------

struct Spec {
  std::string name;
  std::string scheme = "speculation";
  bool tpcc = false;
  bool durable = false;
  bool net = false;  // served by a DbServer, driven open loop only
  int clients = 40;
  /// kv-net-open's open-loop rates (txn/s): the low-load point, and the
  /// high-load point where the rate ladder for max_rate_tps also starts.
  double low_tps = 0;
  double high_tps = 0;
  /// Latency limit on the open-loop p99, timed from each arrival's due time.
  double limit_us = 1000;
};

bool LookupSpec(const std::string& name, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "kv-closed") {
  } else if (name == "kv-durable") {
    s.durable = true;
  } else if (name == "tpcc-mvcc") {
    s.scheme = "mvcc";
    s.tpcc = true;
    s.clients = 32;
  } else if (name == "kv-net-open") {
    s.net = true;
    s.low_tps = 15000;
    s.high_tps = 35000;
  } else {
    return false;
  }
  *out = s;
  return true;
}

constexpr int kPartitions = 2;
constexpr int kKeysPerTxn = 12;
constexpr int kTpccWarehouses = 2;
constexpr uint32_t kGroupCommitWindowUs = 200;
/// kv-durable's flush policy. Completions do not wait for the fsync: under
/// group commit the run's figures followed the host disk's fsync latency.
constexpr DurabilityMode kDurableMode = DurabilityMode::kAsync;
/// Fixed thread placement, so runs do not differ in which threads the
/// scheduler happens to stack on one CPU. The runtime's workers take CPUs
/// 0..3, so every other thread shares a worker's CPU. The net tier's loops
/// go with the partitions. The generator goes with the coordinator, the
/// lightest worker on kv-net-open (about 10% of a CPU, against 18% for each
/// partition and 36% for the session worker).
constexpr int kServerLoopCpu = 0;
constexpr int kClientLoopCpu = 1;
constexpr int kGeneratorCpu = 2;
int CpuFor(int cpu) { return cpu % std::max(1, OnlineCpuCount()); }
constexpr int kConnections = 2;  // kv-net-open: TCP connections the sessions share
constexpr int kMainSamples = 16;  // closed loop, or kv-net-open's high-load point
constexpr int kExtraSetups = 25;  // set-up-only opens (KV workloads)
constexpr int kInstances = 4;     // database instances the main samples are spread over
constexpr int kLowSamples = 6;    // kv-net-open's low-load point
/// A main sample during which the hypervisor took more than this share of
/// any one CPU is replaced by another, up to kMaxRetakes times per run.
/// Outside bursts steal stays near 1% per CPU on a shared 4-vCPU VM; during
/// them it reached 10-30% of the whole VM for minutes, and a run's
/// throughput fell 3x while its p50 latency did not move.
constexpr double kMaxStealFrac = 0.05;
constexpr int kMaxRetakes = 12;
constexpr int64_t kRssPollNs = 50'000'000;
constexpr uint64_t kRecoveryTxns = 60000;  // fixed-size log of the recovery phase

KvWorkloadOptions KvConfig(const Spec& spec) {
  KvWorkloadOptions kv;
  kv.num_partitions = kPartitions;
  kv.num_clients = spec.clients;
  kv.keys_per_txn = kKeysPerTxn;
  kv.mp_fraction = 0.10;
  kv.read_only_fraction = 0.50;
  return kv;
}

tpcc::TpccWorkloadConfig TpccConfig() {
  tpcc::TpccWorkloadConfig wl;
  wl.scale.num_warehouses = kTpccWarehouses;
  wl.scale.num_partitions = kPartitions;
  wl.scale.items = 100000;
  wl.scale.customers_per_district = 3000;
  wl.scale.initial_orders_per_district = 3000;
  return wl;
}

class KvMix : public Mix {
 public:
  KvMix(KvWorkloadOptions config, ProcId proc) : config_(config), proc_(proc) {}
  int num_clients() const override { return config_.num_clients; }
  Request Draw(int client, Rng& rng) const override {
    Request q;
    q.proc = proc_;
    q.client = client;
    q.args = DrawKvTxn(config_, client, rng);
    int parts = 0;
    for (const auto& keys : PayloadCast<KvArgs>(*q.args).keys) parts += keys.empty() ? 0 : 1;
    q.mp = parts > 1;
    return q;
  }
  size_t ledger_size() const override {
    return static_cast<size_t>(config_.num_clients * config_.num_partitions * kKeysPerTxn);
  }
  void Acknowledge(const Request& q, uint32_t* ledger) const override {
    const auto& a = PayloadCast<KvArgs>(*q.args);
    if (a.read_only) return;
    for (size_t p = 0; p < a.keys.size(); ++p) {
      for (size_t i = 0; i < a.keys[p].size(); ++i) ++ledger[LedgerIndex(q.client, static_cast<int>(p), static_cast<int>(i))];
    }
  }
  bool aborts_are_failures() const override { return true; }
  size_t LedgerIndex(int client, int p, int slot) const {
    return static_cast<size_t>((client * config_.num_partitions + p) * kKeysPerTxn + slot);
  }
  const KvWorkloadOptions& config() const { return config_; }
  ProcId proc() const { return proc_; }

 private:
  KvWorkloadOptions config_;
  ProcId proc_;
};

class TpccMix : public Mix {
 public:
  TpccMix(tpcc::TpccWorkloadConfig config, int clients, DbHandle& db)
      : config_(config), clients_(clients) {
    for (int k = 0; k < 5; ++k) {
      procs_[k] = db.proc(tpcc::TpccProcName(static_cast<tpcc::TpccArgs::Kind>(k)));
    }
  }
  int num_clients() const override { return clients_; }
  Request Draw(int client, Rng& rng) const override {
    tpcc::TpccDraw d = tpcc::DrawTpccTxn(config_, client, rng);
    Request q;
    q.proc = procs_[static_cast<int>(d.kind)];
    q.client = client;
    q.mp = tpcc::RouteTpcc(config_.scale, *d.args).participants.size() > 1;
    q.args = std::move(d.args);
    return q;
  }

 private:
  tpcc::TpccWorkloadConfig config_;
  int clients_;
  ProcId procs_[5] = {};
};

// --- Results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end, per_layer, detail;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Us(double ns) { return ns / 1e3; }
double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

void SleepUntil(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + ms[i].name + "\": {\"value\": " +
           Num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

// --- The database under test -------------------------------------------------

/// Database plus, on kv-net-open, its server and the remote handle. Sessions
/// (the slots) must be destroyed before Close.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<DbServer> server;
  std::unique_ptr<RemoteDatabase> remote;
  DbHandle& handle() { return remote ? static_cast<DbHandle&>(*remote) : *db; }
  void Close() {
    remote.reset();
    if (server) server->Stop();
    server.reset();
    if (db) db->Close();
  }
};

/// One short measurement: the load is started, warmed up, measured, then
/// stopped and drained. A run is a series of samples, and each reported
/// figure is the median over them, so a stall in one sample (a noisy
/// neighbour, a page-fault burst) moves one value, not the result.
struct Sample {
  int64_t wall_ns = 0;
  uint64_t completions = 0;
  int64_t cpu_ns = 0;  // the process's, less the open-loop generator's
  uint64_t backlog = 0;  // open loop: transactions outstanding when arrivals stop
  double steal_frac = 0;  // largest per-CPU share of the window stolen by the hypervisor
  bool traced = false;
  PhaseStats ps;
  Metrics m;
  Database::DbStats s0, s1;
  DbServerStats srv0, srv1;
  EventLoopStats cli0, cli1;
  double busiest_thread_frac = 0;  // of the database's threads
  double rss0 = 0, rss1 = 0;
  double peak_rss = 0;  // highest VmRSS polled during the window
  std::vector<ProcMetricsSnapshot> procs;

  double tps() const { return static_cast<double>(completions) / Seconds(wall_ns); }
  double cpu_us_per_txn() const {
    return Ratio(Us(static_cast<double>(cpu_ns)), static_cast<double>(completions));
  }
};

template <typename F>
double MedianOf(const std::vector<Sample>& samples, F f) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(f(s));
  return Median(v);
}

double P(const Histogram& h, double pct) { return Us(h.Percentile(pct)); }

class Runner {
 public:
  Runner(Spec spec, uint64_t seed, double seconds, bool trace, std::string work_dir)
      : spec_(std::move(spec)),
        seed_(seed),
        run_ns_(static_cast<int64_t>(seconds * 1e9)),
        trace_(trace),
        work_dir_(std::move(work_dir)) {}

  Result Run();
  std::vector<Span> TakeSpans() { return spans_.Take(); }
  int64_t origin() const { return origin_; }
  std::string ConfigJson() const;

 private:
  DbOptions MakeOptions(const std::string& log_dir, DurabilityMode mode) const;
  void OpenInstance(const std::string& log_dir);
  /// Opens a fresh instance for the main samples, with its sessions, and
  /// notes which threads are the database's.
  void StartInstance();
  void CreateSlots();
  void CloseInstance();
  /// Runs the output checks on the current instance and closes it.
  void FinishInstance();
  std::map<int, int64_t> DbThreadCpuNs() const;
  /// Closed loop when `rate` is 0, else open loop at `rate` txn/s.
  Sample Measure(double rate, int64_t warm_ns, int64_t measure_ns, int salt);
  double Ladder(double start_rate, int steps, int samples, int64_t warm_ns, int64_t measure_ns);
  void CheckKvValues(Session& session, const std::vector<uint32_t>& expected, const char* when);
  std::vector<uint32_t> SumLedgers() const;
  void VerifyDurableRestart(std::vector<uint32_t> ledger);
  void RecoveryPhase();
  void CheckpointStallPhase();
  void AddSpan(const char* name, int64_t start, int64_t end) {
    if (trace_) spans_.Add(Span{name, start, end, spans_.NextId(), 0, 0});
  }
  /// Adds a phase's requests to the result. A request that never completed
  /// ends the run: its session can be neither drained nor destroyed.
  void Count(const PhaseStats& ps) {
    result_.attempted += ps.submitted;
    result_.failed += ps.refused + ps.errors + ps.never_completed;
    if (ps.errors != 0) {
      std::fprintf(stderr, "perfbench: %llu requests aborted\n",
                   static_cast<unsigned long long>(ps.errors));
    }
    if (ps.never_completed != 0) {
      result_.Fail(std::to_string(ps.never_completed) + " requests never completed");
      Abandon();
    }
  }
  [[noreturn]] void Abandon() const;

  Spec spec_;
  uint64_t seed_;
  int64_t run_ns_;
  bool trace_;
  std::string work_dir_;
  int64_t origin_ = NowNs();

  Result result_;
  SpanStore spans_;
  LoadContext ctx_;
  std::unique_ptr<Mix> mix_;
  Instance inst_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::set<int> db_threads_;
  std::string main_log_dir_;
  int instances_ = 0;
  int64_t connect_ns_ = 0;
  int64_t sessions_ns_ = 0;
  int64_t last_checkpoint_end_ = 0;
  std::vector<double> setup_s_, open_s_;
  std::vector<double> recovery_s_, replay_rate_, open_overhead_s_;
  double checkpoint_s_ = 0;
  double checkpoint_stall_p99_us_ = 0;
  int process_threads_ = 0;
  int retakes_ = 0;
};

DbOptions Runner::MakeOptions(const std::string& log_dir, DurabilityMode mode) const {
  DbOptions opts;
  if (spec_.tpcc) {
    opts = tpcc::TpccDbOptions(TpccConfig().scale, spec_.scheme, RunMode::kParallel,
                               spec_.clients, seed_);
  } else {
    opts = KvDbOptions(KvConfig(spec_), spec_.scheme, RunMode::kParallel, seed_);
  }
  opts.session_workers = 1;
  opts.worker_affinity.pin = true;  // worker i on CPU i: p0, p1, coordinator, sessions
  opts.max_sessions = spec_.clients + 1;
  opts.durability = mode;
  opts.log_dir = log_dir;
  opts.group_commit_window_us = kGroupCommitWindowUs;
  return opts;
}

void Runner::OpenInstance(const std::string& log_dir) {
  const int64_t t0 = NowNs();
  inst_.db = Database::Open(MakeOptions(log_dir, spec_.durable ? kDurableMode : DurabilityMode::kOff));
  const int64_t t1 = NowNs();
  AddSpan("db.open", t0, t1);
  int64_t t2 = t1;
  if (spec_.net) {
    DbServerOptions sopts;
    sopts.num_loops = 1;
    sopts.loop_affinity.cpus = {CpuFor(kServerLoopCpu)};
    inst_.server = std::make_unique<DbServer>(inst_.db.get(), sopts);
    const int64_t c0 = NowNs();
    ConnectOptions copts;
    copts.procedures.push_back(KvReadUpdateProcedure(KvConfig(spec_)));
    copts.seed = seed_;
    copts.loop_cpu = CpuFor(kClientLoopCpu);
    copts.sessions_per_conn = static_cast<uint32_t>((spec_.clients + kConnections - 1) / kConnections);
    inst_.remote = RemoteDatabase::Connect("127.0.0.1", inst_.server->port(), copts);
    t2 = NowNs();
    connect_ns_ = t2 - c0;
    AddSpan("net.connect", c0, t2);
  }
  open_s_.push_back(Seconds(t1 - t0));
  setup_s_.push_back(Seconds(t2 - t0));
}

void Runner::CreateSlots() {
  const int64_t t0 = NowNs();
  for (int i = 0; i < spec_.clients; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->session = inst_.handle().CreateSession();
    slot->done.ledger.assign(mix_->ledger_size(), 0);
    slots_.push_back(std::move(slot));
  }
  sessions_ns_ = NowNs() - t0;
}

void Runner::StartInstance() {
  if (spec_.durable) {
    main_log_dir_ = work_dir_ + "/log-" + std::to_string(instances_++);
    fs::remove_all(main_log_dir_);
  }
  OpenInstance(main_log_dir_);
  if (!mix_) {
    if (spec_.tpcc) {
      mix_ = std::make_unique<TpccMix>(TpccConfig(), spec_.clients, inst_.handle());
    } else {
      mix_ = std::make_unique<KvMix>(KvConfig(spec_), inst_.handle().proc(kKvReadUpdateProc));
    }
    ctx_.mix = mix_.get();
  }
  db_threads_.clear();
  for (const auto& [tid, ns] : ThreadCpuNs()) db_threads_.insert(tid);
  db_threads_.erase(static_cast<int>(gettid()));
  CreateSlots();
}

std::map<int, int64_t> Runner::DbThreadCpuNs() const {
  std::map<int, int64_t> out;
  for (const auto& [tid, ns] : ThreadCpuNs()) {
    if (db_threads_.count(tid) != 0) out[tid] = ns;
  }
  return out;
}

void Runner::FinishInstance() {
  if (spec_.tpcc) {
    CloseInstance();
    std::vector<const tpcc::TpccDb*> dbs;
    for (PartitionId p = 0; p < kPartitions; ++p) {
      dbs.push_back(&static_cast<tpcc::TpccEngine&>(inst_.db->cluster().engine(p)).db());
    }
    const auto violations = tpcc::CheckConsistency(dbs);
    if (!violations.empty()) {
      result_.failed += violations.size();
      result_.Fail("TPC-C consistency: " + violations.front());
    }
    inst_.db.reset();
  } else if (spec_.durable) {
    VerifyDurableRestart(SumLedgers());
  } else {
    CheckKvValues(*slots_.front()->session, SumLedgers(), "after the run");
    CloseInstance();
    inst_.db.reset();
  }
}

void Runner::CloseInstance() {
  slots_.clear();
  const int64_t t0 = NowNs();
  inst_.Close();
  AddSpan("db.close", t0, NowNs());
}

Sample Runner::Measure(double rate, int64_t warm_ns, int64_t measure_ns, int salt) {
  Sample s;
  s.traced = ctx_.tracing.load();
  const uint64_t seed = ClientStreamSeed(seed_, salt);
  std::unique_ptr<ClosedLoop> closed;
  std::unique_ptr<OpenLoop> open;
  const int64_t t0 = NowNs();
  if (rate <= 0) {
    closed = std::make_unique<ClosedLoop>(&slots_, &ctx_, seed);
    closed->Start();
  } else {
    open = std::make_unique<OpenLoop>(&slots_, &ctx_, CpuFor(kGeneratorCpu));
    open->Begin(rate, t0 + warm_ns, t0 + warm_ns + measure_ns, seed);
  }
  SleepUntil(t0 + warm_ns);

  Database& db = *inst_.db;
  db.BeginMeasurement();
  s.s0 = db.Stats();
  if (inst_.server) {
    s.srv0 = inst_.server->Stats();
    s.cli0 = inst_.remote->IoStats();
  }
  const int64_t threads_t0 = NowNs();
  const std::map<int, int64_t> threads0 = DbThreadCpuNs();
  s.rss0 = RssMb();
  process_threads_ = std::max(process_threads_, ThreadCount());
  const uint64_t done0 = Completed(slots_);
  const std::vector<int64_t> steal0 = StealTicksPerCpu();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t w0 = NowNs();
  ctx_.measuring.store(true);
  s.peak_rss = s.rss0;
  for (const int64_t end = t0 + warm_ns + measure_ns; NowNs() < end;) {
    SleepUntil(std::min(end, NowNs() + kRssPollNs));
    s.peak_rss = std::max(s.peak_rss, RssMb());
  }
  ctx_.measuring.store(false);
  s.wall_ns = NowNs() - w0;
  s.cpu_ns = ProcessCpuNs() - cpu0;
  s.steal_frac = MaxStealFrac(steal0, StealTicksPerCpu(), s.wall_ns);
  s.completions = Completed(slots_) - done0;
  s.m = db.EndMeasurement();
  s.s1 = db.Stats();
  if (inst_.server) {
    s.srv1 = inst_.server->Stats();
    s.cli1 = inst_.remote->IoStats();
  }
  const std::map<int, int64_t> threads1 = DbThreadCpuNs();
  s.busiest_thread_frac = BusiestThreadFrac(threads0, threads1, NowNs() - threads_t0);
  s.rss1 = RssMb();
  s.procs = db.ProcMetrics();

  if (closed) {
    closed->Stop();
    s.ps = closed->Take();
  } else {
    s.ps = open->Finish(&s.backlog);
  }
  Count(s.ps);
  s.cpu_ns -= s.ps.generator_cpu_ns;
  return s;
}

double Runner::Ladder(double start_rate, int steps, int samples, int64_t warm_ns,
                      int64_t measure_ns) {
  // Multiply the rate by 1.25 until a step misses the limit, then bisect
  // between the best passing and the lowest failing rate. A step passes
  // when the median over its samples of p99 and of the backlog left when
  // arrivals stop are both within the limit, and nothing was refused.
  double rate = start_rate, pass = 0, fail = 0;
  for (int i = 0; i < steps; ++i) {
    std::vector<Sample> step;
    for (int k = 0; k < samples; ++k) step.push_back(Measure(rate, warm_ns, measure_ns, 100 + i * samples + k));
    const double p99_us = MedianOf(step, [](const Sample& s) { return P(s.ps.all, 99); });
    const double backlog = MedianOf(step, [](const Sample& s) { return static_cast<double>(s.backlog); });
    const double refused = MedianOf(step, [](const Sample& s) { return static_cast<double>(s.ps.refused); });
    const bool ok = p99_us > 0 && refused == 0 && p99_us <= spec_.limit_us &&
                    backlog <= std::max(8.0, rate * spec_.limit_us * 1e-6);
    std::printf("ladder step %d: %.0f txn/s offered, p99 %.1f us, backlog %.0f -> %s\n", i, rate,
                p99_us, backlog, ok ? "pass" : "miss");
    if (ok) {
      pass = rate;
    } else {
      fail = rate;
    }
    if (fail == 0) {
      rate *= 1.25;
    } else if (pass == 0) {
      rate /= 1.5;
    } else {
      rate = (pass + fail) / 2;
    }
  }
  return pass;
}

std::vector<uint32_t> Runner::SumLedgers() const {
  std::vector<uint32_t> sum(mix_->ledger_size(), 0);
  for (const auto& s : slots_) {
    for (size_t i = 0; i < sum.size(); ++i) sum[i] += s->done.ledger[i];
  }
  return sum;
}

void Runner::CheckKvValues(Session& session, const std::vector<uint32_t>& expected,
                           const char* when) {
  const auto& kv = static_cast<const KvMix&>(*mix_);
  uint64_t wrong = 0;
  for (int c = 0; c < kv.config().num_clients; ++c) {
    for (PartitionId p = 0; p < kPartitions; ++p) {
      auto args = std::make_shared<KvArgs>();
      args->keys.resize(kPartitions);
      for (int i = 0; i < kKeysPerTxn; ++i) args->keys[p].push_back(MicrobenchKey(c, p, i));
      args->read_only = true;
      ++result_.attempted;
      const TxnResult r = session.Execute(kv.proc(), args);
      if (!r.committed || r.payload == nullptr) {
        ++wrong;
        continue;
      }
      const auto& values = PayloadCast<KvResult>(*r.payload).values;
      for (int i = 0; i < kKeysPerTxn; ++i) {
        const uint64_t want = expected[kv.LedgerIndex(c, p, i)];
        if (static_cast<size_t>(i) >= values.size() || values[i] != want) ++wrong;
      }
    }
  }
  if (wrong != 0) {
    result_.failed += wrong;
    result_.Fail(std::to_string(wrong) + " keys differ from the acknowledged updates " + when);
  }
}

void Runner::VerifyDurableRestart(std::vector<uint32_t> ledger) {
  // Live state before close, against the state Open recovers from the log.
  std::vector<TxnId> acked;
  for (const auto& s : slots_) {
    for (const auto& [t, id] : s->done.acked) {
      if (t > last_checkpoint_end_) acked.push_back(id);
    }
  }
  CloseInstance();
  std::vector<uint64_t> live;
  for (PartitionId p = 0; p < kPartitions; ++p) live.push_back(inst_.db->cluster().engine(p).StateHash());
  inst_.db.reset();

  const int64_t t0 = NowNs();
  inst_.db = Database::Open(MakeOptions(main_log_dir_, kDurableMode));
  AddSpan("db.recover", t0, NowNs());
  const RecoveryReport& rep = inst_.db->recovery_report();
  if (!rep.ok || rep.replay_aborts != 0) {
    result_.Fail("restart recovery failed: " + rep.error);
  }
  for (PartitionId p = 0; p < kPartitions; ++p) {
    if (inst_.db->cluster().engine(p).StateHash() != live[static_cast<size_t>(p)]) {
      result_.Fail("partition " + std::to_string(p) + " state hash after recovery differs");
    }
  }
  std::unordered_set<TxnId> recovered(rep.recovered_txns.begin(), rep.recovered_txns.end());
  uint64_t missing = 0;
  for (TxnId id : acked) missing += recovered.count(id) == 0 ? 1 : 0;
  if (acked.empty()) result_.Fail("no acknowledged transactions were tracked");
  if (missing != 0) {
    result_.failed += missing;
    result_.Fail(std::to_string(missing) + " of " + std::to_string(acked.size()) +
                 " acknowledged transactions were not replayed");
  }
  auto session = inst_.db->CreateSession();
  CheckKvValues(*session, ledger, "after recovery");
  session.reset();
  const int64_t c0 = NowNs();
  inst_.db->Close();
  AddSpan("db.close", c0, NowNs());
  inst_.db.reset();
}

void Runner::RecoveryPhase() {
  // Build a fixed-size log outside any timed window: kRecoveryTxns
  // transactions of the same mix with one checkpoint halfway, logged in async
  // mode so the build runs at memory speed.
  const std::string src = work_dir_ + "/recovery-src";
  fs::remove_all(src);
  std::vector<uint64_t> hashes;
  {
    Instance build;
    build.db = Database::Open(MakeOptions(src, DurabilityMode::kAsync));
    std::vector<std::unique_ptr<Slot>> slots;
    for (int i = 0; i < spec_.clients; ++i) {
      auto slot = std::make_unique<Slot>();
      slot->session = build.db->CreateSession();
      slot->done.ledger.assign(mix_->ledger_size(), 0);
      slots.push_back(std::move(slot));
    }
    LoadContext ctx;
    ctx.mix = mix_.get();
    const uint64_t half = kRecoveryTxns / 2 / static_cast<uint64_t>(spec_.clients);
    for (int part = 0; part < 2; ++part) {
      ClosedLoop loop(&slots, &ctx, ClientStreamSeed(seed_, 2000 + part));
      loop.Start(half);
      PhaseStats ps;
      ps.never_completed = DrainSlots(slots);
      Count(ps);
      loop.Stop();
      if (part == 0) {
        const int64_t c0 = NowNs();
        if (!build.db->Checkpoint()) result_.Fail("checkpoint of the recovery log failed");
        const int64_t c1 = NowNs();
        checkpoint_s_ = Seconds(c1 - c0);
        AddSpan("db.checkpoint", c0, c1);
      }
    }
    slots.clear();
    build.Close();
    for (PartitionId p = 0; p < kPartitions; ++p) hashes.push_back(build.db->cluster().engine(p).StateHash());
  }
  const std::string run = work_dir_ + "/recovery-run";
  for (int rep = 0; rep < 5; ++rep) {
    fs::remove_all(run);
    fs::copy(src, run, fs::copy_options::recursive);
    const int64_t t0 = NowNs();
    auto db = Database::Open(MakeOptions(run, kDurableMode));
    const int64_t t1 = NowNs();
    AddSpan("db.recover", t0, t1);
    const RecoveryReport& r = db->recovery_report();
    if (!r.ok || r.replay_aborts != 0 || r.replayed == 0 || r.checkpoints_loaded == 0) {
      result_.Fail("fixed-log recovery failed: " + r.error);
    }
    for (PartitionId p = 0; p < kPartitions; ++p) {
      if (db->cluster().engine(p).StateHash() != hashes[static_cast<size_t>(p)]) {
        result_.Fail("fixed-log recovery restored a different state");
      }
    }
    recovery_s_.push_back(Seconds(t1 - t0));
    replay_rate_.push_back(Ratio(static_cast<double>(r.replayed), r.seconds));
    open_overhead_s_.push_back(Seconds(t1 - t0) - r.seconds);
    db->Close();
  }
  fs::remove_all(run);
  fs::remove_all(src);
}

void Runner::CheckpointStallPhase() {
  // Traced kv-durable runs only: every transaction overlapping a checkpoint
  // gets a span, and the stall is the p99 of those spans.
  ClosedLoop loop(&slots_, &ctx_, ClientStreamSeed(seed_, 3000));
  loop.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ctx_.trace_all.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int64_t c0 = NowNs();
  if (!inst_.db->Checkpoint()) result_.Fail("checkpoint during traffic failed");
  const int64_t c1 = NowNs();
  last_checkpoint_end_ = c1;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctx_.trace_all.store(false);
  loop.Stop();
  PhaseStats ps = loop.Take();
  Count(ps);
  AddSpan("db.checkpoint", c0, c1);
  Histogram stall;
  for (const Span& s : spans_.Take()) {
    if (std::string(s.name) == "txn" && s.start_ns < c1 && s.end_ns > c0) {
      stall.Add(s.end_ns - s.start_ns);
    }
    spans_.Add(s);
  }
  checkpoint_stall_p99_us_ = Us(stall.Percentile(99));
}

Result Runner::Run() {
  // Set-up, many times: setup_s is the median over these opens and the
  // instance opens below. TPC-C's loads are slow and steady enough that its
  // four instance opens suffice.
  const std::string setup_dir = spec_.durable ? work_dir_ + "/setup" : "";
  for (int rep = 0; rep < (spec_.tpcc ? 0 : kExtraSetups); ++rep) {
    fs::remove_all(setup_dir);
    OpenInstance(setup_dir);
    CloseInstance();
    inst_.db.reset();
  }
  fs::remove_all(setup_dir);
  ctx_.spans = trace_ ? &spans_ : nullptr;
  ctx_.track_acks = spec_.durable;
  StartInstance();
  const double peak_after_setup = PeakRssMb();

  // Main samples: the closed loop, or the high-load open-loop point, spread
  // over kInstances fresh database instances. Samples of one instance tend
  // to share a speed, and instances differed by up to 40%; with a single
  // instance per run that became a run-to-run difference. Traced runs
  // alternate untraced and traced samples; the untraced ones are the
  // baseline for trace.overhead_frac.
  const int64_t R = run_ns_;
  std::vector<Sample> main, low;
  // A sample hit by steal is replaced by one more at the end of the series,
  // when the burst may have passed. peak_rss_mb reads the first instance's
  // samples, replaced or not (see below).
  std::vector<double> first_rss;
  for (int k = 0; k < kMainSamples + retakes_; ++k) {
    if (k > 0 && k < kMainSamples && k % (kMainSamples / kInstances) == 0) {
      FinishInstance();
      StartInstance();
    }
    ctx_.tracing.store(trace_ && k % 2 == 1);
    Sample s = Measure(spec_.net ? spec_.high_tps : 0, R / 150, R / 30, 10 + k);
    if (k < kMainSamples / kInstances) first_rss.push_back(s.peak_rss);
    if (s.steal_frac > kMaxStealFrac && retakes_ < kMaxRetakes) {
      std::fprintf(stderr, "perfbench: sample %d lost %.0f%% of a CPU to steal; replacing it\n", k,
                   100 * s.steal_frac);
      ++retakes_;
      continue;
    }
    main.push_back(s);
  }
  ctx_.tracing.store(trace_);
  if (spec_.durable && trace_) CheckpointStallPhase();
  double max_rate = 0;
  if (spec_.net) {
    for (int k = 0; k < kLowSamples; ++k) low.push_back(Measure(spec_.low_tps, R / 300, R / 60, 40 + k));
    max_rate = Ladder(spec_.high_tps, 6, 2, R / 300, R / 75);
  }

  // Output checks.
  uint64_t main_completions = 0;
  for (const Sample& s : main) main_completions += s.ps.completions();
  if (main_completions == 0) result_.Fail("no transaction completed in the main samples");
  FinishInstance();
  if (spec_.durable) RecoveryPhase();

  // --- End-to-end metrics: medians over the samples.
  auto med = [&](const std::vector<Sample>& v, auto f) { return MedianOf(v, f); };
  const double sp_p50 = med(main, [](const Sample& s) { return P(s.ps.sp, 50); });
  const double mp_p50 = med(main, [](const Sample& s) { return P(s.ps.mp, 50); });
  auto& e = result_.end_to_end;
  e.push_back({"setup_s", Median(setup_s_), "s"});
  e.push_back({"throughput_tps", med(main, [](const Sample& s) { return s.tps(); }), "1/s"});
  e.push_back({"sp_p50_us", sp_p50, "us"});
  e.push_back({"mp_p50_us", mp_p50, "us"});
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  for (const Sample& s : main) (s.traced ? traced : untraced).push_back(s);
  const double cpu_untraced = med(untraced, [](const Sample& s) { return s.cpu_us_per_txn(); });
  e.push_back({"cpu_us_per_txn", cpu_untraced, "us"});
  // The first instance's samples only: closing an instance runs the output
  // checks, and on kv-durable a reopen that replays the whole log, whose
  // freed memory the allocator keeps. A median, not VmHWM: the async log's
  // queue can hold several MiB more while a burst of steal stops its writer.
  e.push_back({"peak_rss_mb", Median(first_rss), "MiB"});
  e.push_back({"ok_frac", 1.0 - Ratio(static_cast<double>(result_.failed),
                                      static_cast<double>(result_.attempted)),
               "frac"});

  // --- Per-layer metrics: counts summed over the main samples, times as
  // medians.
  Metrics m;
  double n = 0, pushes = 0, wakes = 0, parks = 0, cas = 0, hits = 0, misses = 0;
  double records = 0, batches = 0, fsyncs = 0, logged = 0;
  double frames = 0, flushes = 0, wakeups = 0, bytes = 0, pool_hits = 0, pool_misses = 0;
  double attempts = 0, measured = 0, rss_growth = 0, wall_s = 0, gen_cpu_s = 0;
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  for (const Sample& s : main) {
    m.Merge(s.m);
    n += static_cast<double>(s.completions);
    const auto &r0 = s.s0.runtime, &r1 = s.s1.runtime;
    pushes += d(r0.mailbox_pushed, r1.mailbox_pushed);
    wakes += d(r0.mailbox_wakes, r1.mailbox_wakes);
    parks += d(r0.mailbox_parks, r1.mailbox_parks);
    cas += d(r0.mailbox_cas_retries, r1.mailbox_cas_retries);
    hits += d(r0.node_cache_hits, r1.node_cache_hits);
    misses += d(r0.node_cache_misses, r1.node_cache_misses);
    const auto &d0 = s.s0.durability, &d1 = s.s1.durability;
    records += d(d0.records, d1.records);
    batches += d(d0.batches, d1.batches);
    fsyncs += d(d0.fsyncs, d1.fsyncs);
    logged += d(d0.bytes_logged, d1.bytes_logged);
    frames += d(s.srv0.io.frames_out, s.srv1.io.frames_out) + d(s.cli0.frames_out, s.cli1.frames_out);
    flushes += d(s.srv0.io.flush_batches, s.srv1.io.flush_batches) +
               d(s.cli0.flush_batches, s.cli1.flush_batches);
    wakeups += d(s.srv0.io.wakeups, s.srv1.io.wakeups) + d(s.cli0.wakeups, s.cli1.wakeups);
    bytes += d(s.srv0.io.bytes_in, s.srv1.io.bytes_in) + d(s.srv0.io.bytes_out, s.srv1.io.bytes_out);
    pool_hits += d(s.srv0.payload_pool_hits, s.srv1.payload_pool_hits);
    pool_misses += d(s.srv0.payload_pool_misses, s.srv1.payload_pool_misses);
    attempts += static_cast<double>(s.ps.attempts);
    measured += static_cast<double>(s.ps.completions());
    rss_growth += s.rss1 - s.rss0;
    wall_s += Seconds(s.wall_ns);
    gen_cpu_s += Seconds(s.ps.generator_cpu_ns);
  }
  const double done = static_cast<double>(m.completions());
  auto& l = result_.per_layer;
  // User-visible figures that swing past the largest allowed bound between
  // runs on a shared VM (tails, open-loop points, restart time): reported
  // here, without a bound. The open-loop points run on kv-net-open only and
  // read 0 elsewhere.
  l.push_back({"sp_p99_us", med(main, [](const Sample& s) { return P(s.ps.sp, 99); }), "us"});
  l.push_back({"mp_p99_us", med(main, [](const Sample& s) { return P(s.ps.mp, 99); }), "us"});
  l.push_back({"recovery_s", spec_.durable ? Median(recovery_s_) : Median(open_s_), "s"});
  l.push_back({"max_rate_tps", max_rate, "1/s"});
  l.push_back({"low_load.p99_us", med(low, [](const Sample& s) { return P(s.ps.all, 99); }), "us"});
  l.push_back({"runtime.pushes_per_txn", Ratio(pushes, n), "count"});
  l.push_back({"runtime.wakes_per_push", Ratio(wakes, pushes), "count"});
  l.push_back({"runtime.parks_per_txn", Ratio(parks, n), "count"});
  l.push_back({"runtime.cas_retries_per_txn", Ratio(cas, n), "count"});
  l.push_back({"runtime.node_cache_hit_frac", Ratio(hits, hits + misses), "frac"});
  l.push_back({"runtime.busiest_thread_cpu_frac", med(main, [](const Sample& s) { return s.busiest_thread_frac; }), "frac"});
  l.push_back({"client.submit_call_p50_ns", 1e3 * med(main, [](const Sample& s) { return P(s.ps.submit_call, 50); }), "ns"});
  l.push_back({"client.submit_call_p99_ns", 1e3 * med(main, [](const Sample& s) { return P(s.ps.submit_call, 99); }), "ns"});
  l.push_back({"client.attempts_per_txn", Ratio(attempts, measured), "count"});
  l.push_back({"cc.speculative_execs_per_mp", Ratio(static_cast<double>(m.speculative_execs), static_cast<double>(m.mp_committed)), "count"});
  l.push_back({"cc.cascading_reexecs_per_txn", Ratio(static_cast<double>(m.cascading_reexecs), done), "count"});
  l.push_back({"cc.mvcc_snapshot_reads_per_txn", Ratio(static_cast<double>(m.mvcc_snapshot_reads), done), "count"});
  l.push_back({"cc.mvcc_conflict_waits_per_txn", Ratio(static_cast<double>(m.mvcc_conflict_waits), done), "count"});
  l.push_back({"cc.retries_per_txn", Ratio(static_cast<double>(m.txn_retries), done), "count"});
  l.push_back({"cc.useful_frac", Ratio(static_cast<double>(m.committed), done + static_cast<double>(m.cascading_reexecs + m.txn_retries)), "frac"});
  l.push_back({"coord.mp_premium_p50_us", mp_p50 - sp_p50, "us"});
  l.push_back({"durability.records_per_batch", Ratio(records, batches), "count"});
  l.push_back({"durability.fsyncs_per_txn", Ratio(fsyncs, n), "count"});
  l.push_back({"durability.bytes_per_record", Ratio(logged, records), "B"});
  l.push_back({"durability.replay_records_per_s", Median(replay_rate_), "1/s"});
  l.push_back({"durability.recovery_open_overhead_s", spec_.durable ? Median(open_overhead_s_) : Median(open_s_), "s"});
  l.push_back({"net.connect_s", Seconds(connect_ns_ + sessions_ns_), "s"});
  l.push_back({"net.frames_per_flush", Ratio(frames, flushes), "count"});
  l.push_back({"net.wakeups_per_frame", Ratio(wakeups, frames), "count"});
  l.push_back({"net.bytes_per_txn", Ratio(bytes, n), "B"});
  l.push_back({"net.payload_pool_hit_frac", Ratio(pool_hits, pool_hits + pool_misses), "frac"});
  l.push_back({"net.generator_lag_p99_us", spec_.net ? med(main, [](const Sample& s) { return P(s.ps.lag, 99); }) : 0.0, "us"});
  l.push_back({"tpcc.user_abort_frac", Ratio(static_cast<double>(m.user_aborts), done), "frac"});
  l.push_back({"tpcc.rss_growth_mb_per_s", Ratio(rss_growth, wall_s), "MiB/s"});

  // Spans: the in-database time is the txn span minus its children.
  std::vector<Span> spans = spans_.Take();
  std::map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  Histogram self;
  for (const Span& s : spans) {
    if (std::string(s.name) == "txn") self.Add(s.end_ns - s.start_ns - child_ns[s.id]);
  }
  spans_.AddAll(spans);
  const double cpu_traced = med(traced, [](const Sample& s) { return s.cpu_us_per_txn(); });
  l.push_back({"trace.overhead_frac", trace_ ? Ratio(cpu_traced, cpu_untraced) - 1.0 : 0.0, "frac"});
  l.push_back({"trace.txn_self_p50_us", P(self, 50), "us"});

  // --- Workload-only metrics, in the record line.
  auto& dt = result_.detail;
  std::map<std::string, std::vector<double>> p50, p99;
  for (const Sample& s : main) {
    for (const ProcMetricsSnapshot& p : s.procs) {
      if (p.committed + p.user_aborts == 0) continue;
      p50[p.name].push_back(P(p.latency, 50));
      p99[p.name].push_back(P(p.latency, 99));
    }
  }
  const char* prefix = spec_.tpcc ? "tpcc." : "proc.";
  for (const auto& [name, v] : p50) dt.push_back({prefix + name + ".p50_us", Median(v), "us"});
  if (p99.count("new_order")) dt.push_back({"tpcc.new_order.p99_us", Median(p99["new_order"]), "us"});
  if (spec_.durable) {
    dt.push_back({"durability.checkpoint_s", checkpoint_s_, "s"});
    if (trace_) dt.push_back({"durability.checkpoint_stall_p99_us", checkpoint_stall_p99_us_, "us"});
  }
  if (spec_.net) {
    dt.push_back({"low_load.p50_us", med(low, [](const Sample& s) { return P(s.ps.all, 50); }), "us"});
    // The generator's CPU, left out of cpu_us_per_txn, as a share of one CPU.
    dt.push_back({"gen.cpu_frac", Ratio(gen_cpu_s, wall_s), "frac"});
  }
  dt.push_back({"main.completions", n, "count"});
  dt.push_back({"host.steal_frac", med(main, [](const Sample& s) { return s.steal_frac; }), "frac"});
  dt.push_back({"host.retaken_samples", static_cast<double>(retakes_), "count"});
  dt.push_back({"main.sp_per_sample", med(main, [](const Sample& s) { return static_cast<double>(s.ps.sp.count()); }), "count"});
  dt.push_back({"main.mp_per_sample", med(main, [](const Sample& s) { return static_cast<double>(s.ps.mp.count()); }), "count"});
  dt.push_back({"peak_rss_after_setup_mb", peak_after_setup, "MiB"});

  // Self-check: every reported share lies in [0, 1].
  for (const auto* list : {&e, &l}) {
    for (const Metric& mt : *list) {
      const bool is_frac = mt.unit == "frac" && mt.name != "trace.overhead_frac";
      if (is_frac && !(mt.value >= 0.0 && mt.value <= 1.0)) {
        result_.Fail(mt.name + " = " + Num(mt.value) + " lies outside [0, 1]");
      }
    }
  }
  return result_;
}

void Runner::Abandon() const {
  // The stuck sessions would block in Drain on the way out: leave without
  // running destructors.
  std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
              static_cast<unsigned long long>(result_.attempted),
              static_cast<unsigned long long>(result_.failed));
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(1);
}

std::string Runner::ConfigJson() const {
  std::string s = "\"workload\": \"" + spec_.name + "\", \"seed\": " + std::to_string(seed_) +
                  ", \"seconds\": " + Num(Seconds(run_ns_)) + ", \"trace\": " + (trace_ ? "1" : "0") +
                  ", \"scheme\": \"" + spec_.scheme + "\", \"partitions\": " +
                  std::to_string(kPartitions) + ", \"session_workers\": 1, \"clients\": " +
                  std::to_string(spec_.clients) + ", \"loop\": \"" +
                  (spec_.net ? "open" : "closed") + "\", \"pinned\": \"workers on CPUs 0-3 (p0, p1, coordinator, sessions)" +
                  (spec_.net ? ", server loop 0, client loop 1, generator 2" : "") + "\", \"flush_policy\": \"" +
                  (spec_.durable ? "async: completions do not wait; the log writer batches records (200 us window) and fsyncs each batch"
                                 : "off") +
                  "\"";
  if (spec_.tpcc) s += ", \"warehouses\": " + std::to_string(kTpccWarehouses) + ", \"items\": 100000, \"customers_per_district\": 3000";
  if (spec_.durable) s += ", \"recovery_log_txns\": " + std::to_string(kRecoveryTxns);
  if (spec_.net) {
    s += ", \"generator_threads\": 1, \"connections\": " + std::to_string(kConnections) +
         ", \"low_tps\": " + Num(spec_.low_tps) + ", \"high_tps\": " + Num(spec_.high_tps) +
         ", \"latency_limit_us\": " + Num(spec_.limit_us);
  }
  return s + ", \"process_threads\": " + std::to_string(process_threads_);
}

int Main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/work", out_dir = ".bench_build/results";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::stoull(v);
    } else if (k == "--seconds") {
      seconds = std::stod(v);
    } else if (k == "--trace") {
      trace = std::stoi(v);
    } else if (k == "--work_dir") {
      work_dir = v;
    } else if (k == "--out_dir") {
      out_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  Spec spec;
  if (!LookupSpec(workload, &spec) || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <kv-closed|kv-durable|tpcc-mvcc|kv-net-open> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::string run_dir = work_dir + "/" + workload + "-" + std::to_string(getpid());
  fs::create_directories(run_dir);
  fs::create_directories(out_dir);

  Runner runner(spec, seed, seconds, trace != 0, run_dir);
  Result res = runner.Run();
  fs::remove_all(run_dir);

  const std::string tag = out_dir + "/" + workload + "-seed" + std::to_string(seed);
  if (trace != 0) {
    const std::string path = tag + ".trace.json";
    if (!WriteTrace(path, runner.TakeSpans(), runner.origin())) res.Fail("cannot write " + path);
  }
  std::string errors = "[";
  for (size_t i = 0; i < res.errors.size(); ++i) errors += (i ? ", \"" : "\"") + res.errors[i] + "\"";
  errors += "]";
  const std::string record = "{\"record\": {" + runner.ConfigJson() + ", " + HostJson() +
                             ", \"errors\": " + errors +
                             ", \"end_to_end\": " + MetricsJson(res.end_to_end) +
                             ", \"per_layer\": " + MetricsJson(res.per_layer) +
                             ", \"workload_only\": " + MetricsJson(res.detail) + "}}";
  std::printf("%s\n", record.c_str());
  if (std::FILE* f = std::fopen((tag + (trace ? "-trace" : "") + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", record.c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              MetricsJson(trace ? res.per_layer : res.end_to_end).c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
