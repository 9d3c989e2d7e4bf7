// Re-execution of committed records: the one round loop behind backup
// apply, serial replay of a partition's commit log (final-state
// serializability checking, shared by the test suite and the self-verifying
// benches) and command-log recovery.
#ifndef PARTDB_ENGINE_REPLAY_H_
#define PARTDB_ENGINE_REPLAY_H_

#include <memory>
#include <span>
#include <vector>

#include "engine/engine.h"
#include "msg/message.h"

namespace partdb {

/// Re-executes one committed record on `engine` without undo: every round in
/// order, round r with input r (absent inputs are null; a record with no
/// inputs runs round 0 only). Calls `on_round(work)` after each round and
/// returns how many rounds user-aborted — for a committed record, a
/// violation.
template <typename OnRound>
int ReplayRecord(Engine& engine, const Payload& args, std::span<const PayloadPtr> round_inputs,
                 OnRound&& on_round) {
  const size_t rounds = round_inputs.empty() ? 1 : round_inputs.size();
  int aborted = 0;
  for (size_t r = 0; r < rounds; ++r) {
    WorkMeter m;
    const Payload* input = r < round_inputs.size() ? round_inputs[r].get() : nullptr;
    if (engine.Execute(args, static_cast<int>(r), input, nullptr, &m).aborted) ++aborted;
    on_round(m);
  }
  return aborted;
}

inline int ReplayRecord(Engine& engine, const Payload& args,
                        std::span<const PayloadPtr> round_inputs) {
  return ReplayRecord(engine, args, round_inputs, [](const WorkMeter&) {});
}

/// Replays a partition's committed transactions serially, in commit order,
/// on a fresh engine built by `factory`, and returns the resulting state
/// hash. If the system is serializable this must match the live partition.
/// A committed transaction user-aborting on replay is itself a violation;
/// when `aborted_replays` is non-null the count is reported there.
inline uint64_t ReplayStateHash(const EngineFactory& factory, PartitionId pid,
                                const std::vector<CommitRecord>& log,
                                size_t* aborted_replays = nullptr) {
  std::unique_ptr<Engine> engine = factory(pid);
  size_t aborted = 0;
  for (const CommitRecord& rec : log) {
    aborted += static_cast<size_t>(ReplayRecord(*engine, *rec.args, rec.round_inputs));
  }
  if (aborted_replays != nullptr) *aborted_replays = aborted;
  return engine->StateHash();
}

}  // namespace partdb

#endif  // PARTDB_ENGINE_REPLAY_H_
