// A PartitionExec test double: runs fragments on a real engine synchronously
// and captures every outbound message, timer, and commit-point call so scheme
// behaviour can be asserted step by step.
#ifndef PARTDB_TESTS_FAKE_PARTITION_H_
#define PARTDB_TESTS_FAKE_PARTITION_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cc/cc_scheme.h"
#include "engine/engine.h"

namespace partdb {

class FakePartition : public PartitionExec {
 public:
  FakePartition(PartitionId pid, std::unique_ptr<Engine> engine)
      : pid_(pid), engine_(std::move(engine)) {
    metrics_.recording = true;
  }

  struct Sent {
    NodeId dst;
    MessageBody body;
  };
  /// One commit-point call, in emission order. The message a call gates is
  /// released at once (no backups) and also appended to `sent`.
  struct CommitEvent {
    enum class Kind { kPrepare, kCommit, kAbort };
    Kind kind;
    CommitRecord record;
    std::optional<MessageBody> released;
  };
  std::vector<Sent> sent;
  std::vector<CommitEvent> events;
  std::vector<std::pair<Duration, TimerFire>> timers;
  Duration charged = 0;

  /// The committed records (the command log's contents), in commit order.
  std::vector<CommitRecord> Committed() const {
    std::vector<CommitRecord> out;
    for (const CommitEvent& e : events) {
      if (e.kind == CommitEvent::Kind::kCommit) out.push_back(e.record);
    }
    return out;
  }

  // Typed accessors over `sent`.
  template <typename T>
  std::vector<T> Bodies() const {
    std::vector<T> out;
    for (const auto& s : sent) {
      if (const T* m = std::get_if<T>(&s.body)) out.push_back(*m);
    }
    return out;
  }
  void ClearSent() { sent.clear(); }

  // PartitionExec:
  ExecResult RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                         WorkMeter* receipt = nullptr) override {
    WorkMeter m;
    ExecResult res =
        engine_->Execute(*frag.args, frag.round, frag.round_input.get(), undo, &m);
    charged += cost_.ExecCost(m);
    if (receipt != nullptr) *receipt = m;
    return res;
  }
  void Charge(Duration d) override { charged += d; }
  void ChargeLockWork(const WorkMeter& m) override {
    charged += cost_.LockAcquireCost(m) + cost_.LockReleaseCost(m) + cost_.LockTableCost(m);
  }
  void ChargeUndo(size_t records) override {
    charged += cost_.per_undo * static_cast<Duration>(records);
  }
  void Send(NodeId dst, MessageBody body) override { sent.push_back({dst, std::move(body)}); }
  void SetTimer(Duration d, TimerFire t) override { timers.emplace_back(d, t); }
  void Prepare(const CommitView& rec, NodeId dst, FragmentResponse vote) override {
    charged += cost_.twopc_vote;
    Emit(CommitEvent::Kind::kPrepare, rec, dst, std::move(vote));
  }
  void Commit(const CommitView& rec, NodeId dst, ClientResponse result) override {
    Emit(CommitEvent::Kind::kCommit, rec, dst, std::move(result));
  }
  void Commit(const CommitView& rec) override { Emit(CommitEvent::Kind::kCommit, rec); }
  void Abort(const CommitView& rec) override { Emit(CommitEvent::Kind::kAbort, rec); }
  Engine& engine() override { return *engine_; }
  const CostModel& cost() const override { return cost_; }
  Metrics& metrics() override { return metrics_; }
  PartitionId partition_id() const override { return pid_; }
  Duration lock_timeout() const override { return Micros(1000); }

 private:
  void Emit(CommitEvent::Kind kind, const CommitView& rec, NodeId dst = kInvalidNode,
            std::optional<MessageBody> gated = std::nullopt) {
    if (gated.has_value()) sent.push_back({dst, *gated});
    events.push_back({kind, rec.ToRecord(), std::move(gated)});
  }

  PartitionId pid_;
  std::unique_ptr<Engine> engine_;
  CostModel cost_;
  Metrics metrics_;
};

}  // namespace partdb

#endif  // PARTDB_TESTS_FAKE_PARTITION_H_
