#include "src/serving/shard/shard.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "src/obs/trace.h"

namespace alt {
namespace serving {
namespace shard {

namespace {

std::vector<double> BatchSizeBounds(int64_t max_batch_size) {
  // Powers of two up to (at least) the configured maximum batch size.
  std::vector<double> bounds;
  for (double b = 1.0; b < static_cast<double>(max_batch_size); b *= 2.0) {
    bounds.push_back(b);
  }
  bounds.push_back(static_cast<double>(max_batch_size));
  return bounds;
}

/// The one-row requests `rows` stacked into one engine batch, in order.
/// Every row has already passed the model's input contract.
data::Batch MergeRows(const std::vector<const data::Batch*>& rows) {
  const int64_t n = static_cast<int64_t>(rows.size());
  const int64_t width = rows[0]->profiles.size(1);
  data::Batch merged;
  merged.batch_size = n;
  merged.seq_len = rows[0]->seq_len;
  merged.profiles = Tensor({n, width});
  merged.labels = Tensor({n, 1});
  merged.behaviors.reserve(rows[0]->behaviors.size() * rows.size());
  for (int64_t r = 0; r < n; ++r) {
    const data::Batch& row = *rows[static_cast<size_t>(r)];
    std::copy(row.profiles.data(), row.profiles.data() + width,
              merged.profiles.data() + r * width);
    merged.behaviors.insert(merged.behaviors.end(), row.behaviors.begin(),
                            row.behaviors.end());
  }
  return merged;
}

}  // namespace

WorkerShard::WorkerShard(std::string id, obs::MetricsRegistry* registry,
                         BatchingOptions batching)
    : id_(std::move(id)),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()),
      batching_(batching),
      engine_(registry_),
      queue_depth_gauge_(
          registry_->gauge("serving/shard/queue_depth/" + id_)),
      pressure_gauge_(registry_->gauge("serving/shard/pressure/" + id_)),
      requests_total_(registry_->counter("serving/shard/requests/" + id_)),
      batches_dispatched_(
          registry_->counter("serving/batch_predictor/batches_dispatched")),
      batch_size_(
          registry_->histogram("serving/batch_predictor/batch_size",
                               BatchSizeBounds(batching_.max_batch_size))),
      queue_high_watermark_(registry_->histogram(
          "serving/batch_predictor/queue_high_watermark",
          BatchSizeBounds(4 * batching_.max_batch_size))),
      dispatcher_([this] { DispatchLoop(); }) {
  ALT_CHECK_GE(batching_.max_batch_size, 1);
  ALT_CHECK(batching_.max_delay_ms >= 0.0);
}

WorkerShard::~WorkerShard() { Stop(); }

void WorkerShard::Stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;  // The dispatcher exits once its queue is empty.
  }
  Kill();  // Orphans everything admitted, so the queue drains at once.
  if (dispatcher_.joinable()) dispatcher_.join();
}

Status WorkerShard::Deploy(const std::string& scenario,
                           ModelServer::Snapshot model, uint64_t version,
                           const DeployOptions& options) {
  if (dead()) return Status::Unavailable("shard " + id_ + " is dead");
  return engine_.Publish(scenario, std::move(model), version, options);
}

bool WorkerShard::UpdateShedState(int64_t depth) {
  const int64_t high = shed_high_watermark_.load(std::memory_order_relaxed);
  const int64_t low = shed_low_watermark_.load(std::memory_order_relaxed);
  if (high <= 0) {
    pressure_gauge_->Set(0.0);
    return false;
  }
  pressure_gauge_->Set(static_cast<double>(depth) /
                       static_cast<double>(high));
  bool shedding = shedding_.load(std::memory_order_relaxed);
  if (!shedding && depth >= high) {
    shedding = true;
    shedding_.store(true, std::memory_order_relaxed);
  } else if (shedding && depth <= low) {
    shedding = false;
    shedding_.store(false, std::memory_order_relaxed);
  }
  return shedding;
}

Status WorkerShard::Admit(Admission admission) {
  if (dead()) return Status::Unavailable("shard " + id_ + " is dead");
  const int64_t depth = queue_depth_.load(std::memory_order_relaxed);
  const int64_t max_depth = max_queue_depth_.load(std::memory_order_relaxed);
  if (max_depth > 0 && depth >= max_depth) {
    return Status::ResourceExhausted("shard " + id_ + " full at depth " +
                                     std::to_string(depth));
  }
  // Soft shed: evaluate the hysteresis state machine on every submit so
  // recovery is observed, but only kNormal traffic is actually rejected.
  if (UpdateShedState(depth) && admission != Admission::kCritical) {
    return Status::ResourceExhausted("shard " + id_ +
                                     " shedding load at depth " +
                                     std::to_string(depth));
  }
  return Status::OK();
}

Result<std::vector<float>> WorkerShard::CallEngine(
    const std::string& scenario, const data::Batch& batch,
    const obs::RequestContext& ctx) {
  obs::TraceSpan span("serving/shard/dispatch", ctx);
  requests_total_->Add(1);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  return engine_.Predict(scenario, batch);
}

Result<std::vector<float>> WorkerShard::Predict(
    const std::string& scenario, const data::Batch& batch,
    Admission admission, const obs::RequestContext& ctx) {
  // Read before the dead check, which Kill sets before it advances the
  // epoch: a Kill racing admission shows as a moved epoch.
  const uint64_t epoch = kill_epoch_.load();
  ALT_RETURN_IF_ERROR(Admit(admission));
  queue_depth_gauge_->Set(static_cast<double>(queue_depth_.fetch_add(1) + 1));
  if (paused_.load()) {
    MutexLock lock(mu_);
    // Explicit loop instead of predicate lambdas: see src/util/mutex.h.
    while (paused_.load() && !Orphaned(epoch)) cv_.Wait(mu_);
  }
  const double start_us = ctx.sampled() ? obs::MonotonicMicros() : 0.0;
  Result<std::vector<float>> scores = std::vector<float>();
  if (!Orphaned(epoch)) scores = CallEngine(scenario, batch, ctx);
  if (Orphaned(epoch)) {
    // Killed before or during the call: a Revive may have emptied the
    // engine under it, so no answer stands and the caller fails over.
    scores = Status::Unavailable("shard " + id_ + " is dead");
  } else if (scores.ok() && ctx.sampled()) {
    ctx.trace->AddSegment(obs::segment::kCompute,
                          (obs::MonotonicMicros() - start_us) / 1e3);
  }
  Release(1);
  return scores;
}

Status WorkerShard::Enqueue(const std::string& scenario,
                           const data::Batch* batch, Admission admission,
                           const obs::RequestContext& ctx, Done done) {
  ALT_RETURN_IF_ERROR(Admit(admission));
  Task task{scenario, batch, std::move(done),
            ctx.sampled() ? ctx : obs::RequestContext(),
            obs::MonotonicMicros()};
  int64_t new_depth = 0;
  {
    MutexLock lock(mu_);
    // Re-checked under mu_: a Kill racing the check above must not leave a
    // task of the new epoch on a dead shard.
    if (dead()) return Status::Unavailable("shard " + id_ + " is dead");
    task.epoch = kill_epoch_.load();
    queue_.push_back(std::move(task));
    high_watermark_ =
        std::max(high_watermark_, static_cast<int64_t>(queue_.size()));
    new_depth = queue_depth_.fetch_add(1) + 1;
  }
  queue_depth_gauge_->Set(static_cast<double>(new_depth));
  cv_.NotifyOne();
  return Status::OK();
}

void WorkerShard::Kill() {
  {
    MutexLock lock(mu_);
    dead_.store(true, std::memory_order_release);
    kill_epoch_.fetch_add(1);  // Everything admitted so far is orphaned.
  }
  cv_.NotifyAll();
}

Status WorkerShard::Revive() {
  if (!dead()) {
    return Status::FailedPrecondition("shard " + id_ + " is not dead");
  }
  // Drop all stale serving state: the coordinator re-publishes every
  // assigned scenario's current snapshot, and anything the engine held from
  // before the failure could conflict with scenarios re-created at
  // restarted versions while this shard was out.
  kill_epoch_.fetch_add(1);  // No call that sees the emptied engine stands.
  for (const std::string& scenario : engine_.Scenarios()) {
    ALT_RETURN_IF_ERROR(engine_.Undeploy(scenario));
  }
  shedding_.store(false, std::memory_order_relaxed);
  dead_.store(false, std::memory_order_release);
  return Status::OK();
}

void WorkerShard::PauseDispatchForTesting(bool paused) {
  {
    MutexLock lock(mu_);
    paused_.store(paused);
  }
  cv_.NotifyAll();
}

void WorkerShard::Release(int64_t n) {
  const int64_t depth = queue_depth_.fetch_sub(n) - n;
  queue_depth_gauge_->Set(static_cast<double>(depth));
  UpdateShedState(depth);
}

size_t WorkerShard::RunLengthLocked() const {
  const Task& front = queue_.front();
  const size_t cap = static_cast<size_t>(batching_.max_batch_size);
  size_t n = 0;
  while (n < queue_.size() && n < cap && queue_[n].epoch == front.epoch &&
         queue_[n].scenario == front.scenario) {
    ++n;
  }
  return n;
}

void WorkerShard::DispatchLoop() {
  const double max_delay_us = batching_.max_delay_ms * 1e3;
  for (;;) {
    std::vector<Task> run;
    {
      MutexLock lock(mu_);
      // Explicit loop instead of predicate lambdas: see src/util/mutex.h.
      for (;;) {
        if (queue_.empty()) {
          if (stopping_) return;
          cv_.Wait(mu_);
          continue;
        }
        if (Orphaned(queue_.front().epoch)) break;  // Even while paused.
        if (paused_.load()) {
          cv_.Wait(mu_);
          continue;
        }
        // A run waits for more rows only while it is all that is queued,
        // and at most max_delay_ms after its first row arrived.
        const size_t n = RunLengthLocked();
        if (static_cast<int64_t>(n) >= batching_.max_batch_size ||
            n < queue_.size()) {
          break;
        }
        const double wait_us =
            queue_.front().enqueue_us + max_delay_us - obs::MonotonicMicros();
        if (wait_us <= 0.0) break;
        cv_.WaitFor(mu_, std::chrono::duration<double, std::micro>(wait_us));
      }
      const size_t take = RunLengthLocked();
      queue_high_watermark_->Observe(static_cast<double>(high_watermark_));
      high_watermark_ = static_cast<int64_t>(queue_.size() - take);
      const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(take);
      run.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(end));
      queue_.erase(queue_.begin(), end);
    }
    Dispatch(&run);
  }
}

void WorkerShard::Dispatch(std::vector<Task>* run) {
  std::vector<Task>& tasks = *run;
  const uint64_t epoch = tasks[0].epoch;
  // Each row of a run is checked against the deployed model's input
  // contract before merging, so a malformed request fails alone instead of
  // failing every request it would have ridden with.
  std::vector<Status> checks(tasks.size());
  std::vector<const data::Batch*> rows;
  bool sampled = false;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const data::Batch* batch = tasks[i].batch;
    if (tasks.size() > 1) {
      checks[i] = engine_.CheckRequest(tasks[i].scenario, *batch);
    }
    // A redeploy between two checks may change the contract; MergeRows
    // needs every row shaped like the first.
    if (checks[i].ok() && !rows.empty() &&
        (batch->profiles.shape() != rows[0]->profiles.shape() ||
         batch->behaviors.size() != rows[0]->behaviors.size())) {
      checks[i] = Status::InvalidArgument("inconsistent request shape");
    }
    if (checks[i].ok()) rows.push_back(batch);
    sampled = sampled || tasks[i].ctx.sampled();
  }
  const double start_us = sampled ? obs::MonotonicMicros() : 0.0;
  Result<std::vector<float>> scores = std::vector<float>();  // No rows: unread.
  if (!rows.empty() && !Orphaned(epoch)) {
    data::Batch merged;
    if (rows.size() > 1) merged = MergeRows(rows);
    scores = CallEngine(tasks[0].scenario,
                        rows.size() > 1 ? merged : *rows[0], tasks[0].ctx);
  }
  const double end_us = sampled ? obs::MonotonicMicros() : 0.0;
  batches_dispatched_->Add(1);
  batch_size_->Observe(static_cast<double>(tasks.size()));
  if (Orphaned(epoch)) {
    // Killed before or during the call, as on the inline path: neither the
    // answer nor the checks of a possibly emptied engine stand.
    checks.assign(tasks.size(), Status::OK());
    scores = Status::Unavailable("shard " + id_ + " is dead");
  }
  size_t row = 0;
  bool shared = false;  // The engine call's outcome was handed out already.
  for (size_t i = 0; i < tasks.size(); ++i) {
    Task& task = tasks[i];
    if (!checks[i].ok()) {
      task.done(checks[i], /*shared=*/false);
      continue;
    }
    if (!scores.ok()) {
      task.done(scores.status(), shared);
      shared = true;
      continue;
    }
    // Segments are booked on success only: a failed attempt's wall time is
    // the coordinator's failover/shed segment. Every passenger books its
    // own wait and the shared engine call.
    if (task.ctx.sampled()) {
      task.ctx.trace->AddSegment(obs::segment::kBatchWait,
                                 (start_us - task.enqueue_us) / 1e3);
      task.ctx.trace->AddSegment(obs::segment::kCompute,
                                 (end_us - start_us) / 1e3);
    }
    if (tasks.size() == 1) {
      task.done(std::move(scores), shared);
    } else {
      task.done(std::vector<float>{scores.value()[row++]}, shared);
    }
    shared = true;
  }
  Release(static_cast<int64_t>(tasks.size()));
}

}  // namespace shard
}  // namespace serving
}  // namespace alt
