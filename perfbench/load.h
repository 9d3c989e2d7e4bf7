// Load generation over the public Session API: a closed loop whose clients
// are session callbacks, and an open-loop Poisson generator that times every
// request from its due time. Both record into per-session completion stats
// that are written by one thread at a time and merged only after a drain.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "db/session.h"
#include "probe.h"

namespace perfbench {

using partdb::Histogram;

/// One generated transaction. `client` is the logical client whose keys or
/// warehouse the request uses.
struct Request {
  partdb::ProcId proc = partdb::kInvalidProc;
  partdb::PayloadPtr args;
  bool mp = false;
  int client = 0;
};

/// A workload's transaction mix.
class Mix {
 public:
  virtual ~Mix() = default;
  virtual int num_clients() const = 0;
  virtual Request Draw(int client, partdb::Rng& rng) const = 0;
  /// Size of the per-session ledger of acknowledged updates (0 = none).
  virtual size_t ledger_size() const { return 0; }
  /// Records a committed request's updates into `ledger`.
  virtual void Acknowledge(const Request& /*req*/, uint32_t* /*ledger*/) const {}
  /// True when the mix's procedures never abort by themselves, so every
  /// abort the benchmark sees is a failed request.
  virtual bool aborts_are_failures() const { return false; }
};

/// Submitter-side records of one thread.
struct SubmitSide {
  Histogram submit_call;  // ns inside Session::Submit
  Histogram lag;          // open loop: ns from due time to the Submit call
  uint64_t submitted = 0;
  uint64_t refused = 0;
  int64_t generator_cpu_ns = 0;  // open loop: the generator's own CPU while measuring
  std::vector<Span> spans;
};

/// Completion-side records of one session. Every phase drains before the
/// main thread reads or resets it.
struct CompleteSide {
  Histogram sp, mp, all;  // ns, measured requests only
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  uint64_t attempts = 0;
  uint64_t errors = 0;  // aborts of a mix whose aborts are failures, measured or not
  std::atomic<uint64_t> completed{0};  // every completion, read live
  uint64_t committed_total = 0;        // every commit since the session opened
  std::vector<uint32_t> ledger;
  /// (completion time, txn id) of acknowledged commits, when tracked.
  std::vector<std::pair<int64_t, partdb::TxnId>> acked;
  std::vector<Span> spans;
};

/// A session plus its completion records.
struct Slot {
  std::unique_ptr<partdb::Session> session;
  CompleteSide done;
};

/// Merged records of one phase.
struct PhaseStats {
  Histogram sp, mp, all, submit_call, lag;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  uint64_t attempts = 0;
  uint64_t submitted = 0;
  uint64_t refused = 0;
  uint64_t errors = 0;
  uint64_t never_completed = 0;  // still in flight when the drain timed out
  int64_t generator_cpu_ns = 0;
  uint64_t completions() const { return committed + user_aborts; }
};

/// Settings shared by both loops.
struct LoadContext {
  const Mix* mix = nullptr;
  SpanStore* spans = nullptr;  // null: untraced
  bool track_acks = false;
  /// While set, one request in 64 per submitter gets a txn span.
  std::atomic<bool> tracing{false};
  std::atomic<bool> trace_all{false};  // sample every request (checkpoint stall)
  std::atomic<bool> measuring{false};
};

/// Sum of live completion counters.
uint64_t Completed(const std::vector<std::unique_ptr<Slot>>& slots);

/// How long a drain waits for the transactions in flight to complete.
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;

/// Waits until no slot has a transaction in flight, for at most
/// kDrainTimeoutNs. Returns how many were still in flight then (0: drained).
/// The sessions must not be drained or destroyed after a non-zero return.
uint64_t DrainSlots(const std::vector<std::unique_ptr<Slot>>& slots);

/// Moves the measured completion records of every slot into `out` and
/// resets them (call only while no transaction is in flight).
void TakeCompletions(std::vector<std::unique_ptr<Slot>>& slots, PhaseStats* out,
                     SpanStore* spans);
void TakeSubmits(SubmitSide* side, PhaseStats* out, SpanStore* spans);

/// Closed loop: client i keeps one request in flight on slot i; its
/// completion callback submits the next one.
class ClosedLoop {
 public:
  ClosedLoop(std::vector<std::unique_ptr<Slot>>* slots, LoadContext* ctx, uint64_t seed);
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Kicks every client. `budget` > 0 stops each client after that many
  /// requests.
  void Start(uint64_t budget = 0);
  /// Stops resubmitting and drains every session (see DrainSlots).
  void Stop();
  /// Merges and resets the measured records of the last window.
  PhaseStats Take();

 private:
  struct Client {
    ClosedLoop* loop = nullptr;
    Slot* slot = nullptr;
    int index = 0;
    partdb::Rng rng;
    uint64_t budget = 0;
    uint64_t issued = 0;
    Request cur;
    int64_t start_ns = 0;
    bool measured = false;
    uint64_t span_id = 0;
    uint64_t sample_count = 0;
    std::atomic<partdb::TxnId> pending{partdb::kInvalidTxn};
    SubmitSide submit;
  };
  static void Issue(Client* c, bool from_callback);
  static void OnDone(Client* c, const partdb::TxnResult& r);

  std::vector<std::unique_ptr<Slot>>* slots_;
  LoadContext* ctx_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<bool> running_{false};
  uint64_t never_completed_ = 0;
};

/// Open loop: one generator thread submits Poisson arrivals at a fixed
/// rate, round-robin over the slots; each request is timed from its due
/// time, and how late the generator ran is recorded too.
class OpenLoop {
 public:
  /// The generator thread pins itself to `cpu` (advisory; -1 = unpinned).
  OpenLoop(std::vector<std::unique_ptr<Slot>>* slots, LoadContext* ctx, int cpu);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;
  ~OpenLoop();

  /// Starts the generator: arrivals from now until `end_ns`; those due at or
  /// after `measure_from_ns` are measured. Returns immediately.
  void Begin(double rate_tps, int64_t measure_from_ns, int64_t end_ns, uint64_t seed);
  /// Joins the generator, notes the backlog, drains (see DrainSlots), and
  /// merges records.
  PhaseStats Finish(uint64_t* backlog_at_end);

 private:
  void Generate(double rate_tps, int64_t measure_from_ns, int64_t end_ns, uint64_t seed);

  std::vector<std::unique_ptr<Slot>>* slots_;
  LoadContext* ctx_;
  int cpu_;
  SubmitSide side_;
  std::thread gen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
