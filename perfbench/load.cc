#include "load.h"

#include <sys/prctl.h>

#include <chrono>
#include <cmath>

#include "common/affinity.h"

namespace perfbench {

using partdb::kInvalidTxn;
using partdb::TxnId;
using partdb::TxnResult;

namespace {

constexpr uint64_t kTraceEvery = 64;  // one sampled txn span per this many requests

void Bump(std::atomic<uint64_t>& counter) {
  // Single writer: a plain load/store keeps the hot path free of locked ops.
  counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

bool ShouldTrace(LoadContext& ctx, uint64_t* count) {
  if (ctx.spans == nullptr || !ctx.tracing.load(std::memory_order_relaxed)) return false;
  if (ctx.trace_all.load(std::memory_order_relaxed)) return true;
  return ++*count % kTraceEvery == 0;
}

void RecordCompletion(LoadContext& ctx, CompleteSide& d, const Request& q, const TxnResult& r,
                      int64_t start_ns, bool measured, TxnId id, uint64_t span_id) {
  const int64_t now = NowNs();
  if (r.committed) {
    ++d.committed_total;
    if (!d.ledger.empty()) ctx.mix->Acknowledge(q, d.ledger.data());
    if (ctx.track_acks && id != kInvalidTxn) d.acked.emplace_back(now, id);
  } else if (ctx.mix->aborts_are_failures()) {
    ++d.errors;
  }
  if (measured) {
    const int64_t lat = now - start_ns;
    (q.mp ? d.mp : d.sp).Add(lat);
    d.all.Add(lat);
    if (r.committed) {
      ++d.committed;
    } else {
      ++d.user_aborts;
    }
    d.attempts += r.attempts;
  }
  if (span_id != 0) d.spans.push_back(Span{"txn", start_ns, now, span_id, 0, span_id});
  Bump(d.completed);
}

void AddChild(SpanStore* store, SubmitSide& side, const char* name, int64_t start,
              int64_t end, uint64_t txn) {
  side.spans.push_back(Span{name, start, end, store->NextId(), txn, txn});
}

}  // namespace

uint64_t Completed(const std::vector<std::unique_ptr<Slot>>& slots) {
  uint64_t n = 0;
  for (const auto& s : slots) n += s->done.completed.load(std::memory_order_relaxed);
  return n;
}

uint64_t DrainSlots(const std::vector<std::unique_ptr<Slot>>& slots) {
  // outstanding() drops only after a completion's callback has run, so at 0
  // every callback's records are visible here.
  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  for (;;) {
    uint64_t in_flight = 0;
    for (const auto& s : slots) in_flight += s->session->outstanding();
    if (in_flight == 0 || NowNs() >= deadline) return in_flight;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void TakeCompletions(std::vector<std::unique_ptr<Slot>>& slots, PhaseStats* out,
                     SpanStore* spans) {
  for (auto& s : slots) {
    CompleteSide& d = s->done;
    out->sp.Merge(d.sp);
    out->mp.Merge(d.mp);
    out->all.Merge(d.all);
    out->committed += d.committed;
    out->user_aborts += d.user_aborts;
    out->attempts += d.attempts;
    out->errors += d.errors;
    d.sp.Clear();
    d.mp.Clear();
    d.all.Clear();
    d.committed = d.user_aborts = d.attempts = d.errors = 0;
    if (spans != nullptr) spans->AddAll(d.spans);
    d.spans.clear();
  }
}

void TakeSubmits(SubmitSide* side, PhaseStats* out, SpanStore* spans) {
  out->submit_call.Merge(side->submit_call);
  out->lag.Merge(side->lag);
  out->submitted += side->submitted;
  out->refused += side->refused;
  out->generator_cpu_ns += side->generator_cpu_ns;
  if (spans != nullptr) spans->AddAll(side->spans);
  *side = SubmitSide{};
}

// --- Closed loop -------------------------------------------------------------

ClosedLoop::ClosedLoop(std::vector<std::unique_ptr<Slot>>* slots, LoadContext* ctx,
                       uint64_t seed)
    : slots_(slots), ctx_(ctx) {
  const int n = ctx->mix->num_clients();
  for (int i = 0; i < n; ++i) {
    auto c = std::make_unique<Client>();
    c->loop = this;
    c->slot = (*slots)[static_cast<size_t>(i) % slots->size()].get();
    c->index = i;
    c->rng.Seed(partdb::ClientStreamSeed(seed, i));
    clients_.push_back(std::move(c));
  }
}

void ClosedLoop::Start(uint64_t budget) {
  running_.store(true, std::memory_order_release);
  for (auto& c : clients_) {
    c->budget = budget;
    c->issued = 0;
  }
  for (auto& c : clients_) Issue(c.get(), /*from_callback=*/false);
}

void ClosedLoop::Stop() {
  running_.store(false, std::memory_order_release);
  never_completed_ = DrainSlots(*slots_);
}

PhaseStats ClosedLoop::Take() {
  PhaseStats out;
  out.never_completed = never_completed_;
  TakeCompletions(*slots_, &out, ctx_->spans);
  for (auto& c : clients_) TakeSubmits(&c->submit, &out, ctx_->spans);
  return out;
}

void ClosedLoop::Issue(Client* c, bool from_callback) {
  ClosedLoop* loop = c->loop;
  LoadContext& ctx = *loop->ctx_;
  if (!loop->running_.load(std::memory_order_acquire)) return;
  if (c->budget != 0 && c->issued >= c->budget) return;
  ++c->issued;
  c->cur = ctx.mix->Draw(c->index, c->rng);
  c->measured = ctx.measuring.load(std::memory_order_relaxed);
  c->span_id = ShouldTrace(ctx, &c->sample_count) ? ctx.spans->NextId() : 0;
  ++c->submit.submitted;
  const int64_t t0 = NowNs();
  c->start_ns = t0;
  const partdb::SubmitResult sr = c->slot->session->Submit(
      c->cur.proc, c->cur.args, [c](const TxnResult& r) { OnDone(c, r); });
  if (!sr.accepted) {  // no callback will run: `c` is still ours
    ++c->submit.refused;
    return;
  }
  // The first submission comes from the main thread, and its completion may
  // already be running on the session's worker: leave `c` alone. Later
  // submissions run inside this session's own callback, which the next
  // completion cannot overtake.
  if (!from_callback) return;
  const int64_t t1 = NowNs();
  c->pending.store(sr.txn_id, std::memory_order_relaxed);
  if (c->measured) c->submit.submit_call.Add(t1 - t0);
  if (c->span_id != 0) AddChild(ctx.spans, c->submit, "client.submit", t0, t1, c->span_id);
}

void ClosedLoop::OnDone(Client* c, const TxnResult& r) {
  RecordCompletion(*c->loop->ctx_, c->slot->done, c->cur, r, c->start_ns, c->measured,
                   c->pending.exchange(kInvalidTxn, std::memory_order_relaxed), c->span_id);
  Issue(c, /*from_callback=*/true);
}

// --- Open loop ---------------------------------------------------------------

OpenLoop::OpenLoop(std::vector<std::unique_ptr<Slot>>* slots, LoadContext* ctx, int cpu)
    : slots_(slots), ctx_(ctx), cpu_(cpu) {}

OpenLoop::~OpenLoop() {
  if (gen_.joinable()) gen_.join();
}

void OpenLoop::Begin(double rate_tps, int64_t measure_from_ns, int64_t end_ns, uint64_t seed) {
  side_ = SubmitSide{};
  gen_ = std::thread([this, rate_tps, measure_from_ns, end_ns, seed] {
    Generate(rate_tps, measure_from_ns, end_ns, seed);
  });
}

PhaseStats OpenLoop::Finish(uint64_t* backlog_at_end) {
  gen_.join();
  uint64_t backlog = 0;
  for (auto& s : *slots_) backlog += s->session->outstanding();
  if (backlog_at_end != nullptr) *backlog_at_end = backlog;
  PhaseStats out;
  out.never_completed = DrainSlots(*slots_);
  if (out.never_completed != 0) return out;
  TakeCompletions(*slots_, &out, ctx_->spans);
  TakeSubmits(&side_, &out, ctx_->spans);
  return out;
}

void OpenLoop::Generate(double rate_tps, int64_t measure_from_ns, int64_t end_ns, uint64_t seed) {
  // Sleeps end within a few microseconds of the due time instead of the
  // default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (cpu_ >= 0) partdb::PinCurrentThreadToCpu(cpu_);
  partdb::Rng rng(seed);
  const double mean_gap_ns = 1e9 / rate_tps;
  auto gap = [&] { return static_cast<int64_t>(-std::log(1.0 - rng.NextDouble()) * mean_gap_ns); };
  const Mix& mix = *ctx_->mix;
  uint64_t sample_count = 0;
  size_t next = 0;
  int64_t cpu_from = -1;  // this thread's CPU clock at the first measured arrival
  for (int64_t due = NowNs() + gap(); due < end_ns; due += gap()) {
    // Sleep to just short of the due time, then spin the last microseconds.
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 15000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 8000));
      } else {
        __builtin_ia32_pause();
      }
    }
    const int client = static_cast<int>(rng.Uniform(static_cast<uint64_t>(mix.num_clients())));
    Request q = mix.Draw(client, rng);
    Slot* slot = (*slots_)[next++ % slots_->size()].get();
    const bool measured = due >= measure_from_ns;
    if (measured && cpu_from < 0) cpu_from = ThisThreadCpuNs();
    const uint64_t span = ShouldTrace(*ctx_, &sample_count) ? ctx_->spans->NextId() : 0;
    LoadContext* ctx = ctx_;
    ++side_.submitted;
    const int64_t t0 = NowNs();
    const partdb::SubmitResult sr = slot->session->Submit(
        q.proc, q.args, [ctx, slot, q, due, measured, span](const TxnResult& r) {
          RecordCompletion(*ctx, slot->done, q, r, due, measured, kInvalidTxn, span);
        });
    const int64_t t1 = NowNs();
    if (!sr.accepted) ++side_.refused;
    if (measured) {
      side_.lag.Add(t0 - due);
      side_.submit_call.Add(t1 - t0);
    }
    if (span != 0) {
      AddChild(ctx_->spans, side_, "gen.lag", due, t0, span);
      AddChild(ctx_->spans, side_, "client.submit", t0, t1, span);
    }
  }
  if (cpu_from >= 0) side_.generator_cpu_ns = ThisThreadCpuNs() - cpu_from;
}

}  // namespace perfbench
