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
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (dispatcher_.joinable()) dispatcher_.join();
  std::deque<Task> leftover;
  {
    MutexLock lock(mu_);
    leftover.swap(queue_);
  }
  for (Task& task : leftover) {
    task.done(Status::Unavailable("shard " + id_ + " shutting down"),
              /*shared=*/false);
  }
  Release(static_cast<int64_t>(leftover.size()));
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

Status WorkerShard::Enqueue(const std::string& scenario,
                           const data::Batch* batch, Admission admission,
                           const obs::RequestContext& ctx, bool coalesce,
                           Done done) {
  if (dead()) return Status::Unavailable("shard " + id_ + " is dead");
  const int64_t depth = queue_depth_.load(std::memory_order_relaxed);
  const int64_t max_depth = max_queue_depth_.load(std::memory_order_relaxed);
  if (max_depth > 0 && depth >= max_depth) {
    return Status::ResourceExhausted(
        "shard " + id_ + " queue full (depth " + std::to_string(depth) +
        " >= cap " + std::to_string(max_depth) + ")");
  }
  // Soft shed: evaluate the hysteresis state machine on every submit so
  // recovery is observed, but only kNormal traffic is actually rejected.
  if (UpdateShedState(depth) && admission != Admission::kCritical) {
    return Status::ResourceExhausted(
        "shard " + id_ + " shedding load (depth " + std::to_string(depth) +
        " >= high watermark " +
        std::to_string(
            shed_high_watermark_.load(std::memory_order_relaxed)) +
        ")");
  }
  Task task;
  task.scenario = scenario;
  task.batch = batch;
  task.coalesce = coalesce;
  task.done = std::move(done);
  if (ctx.sampled()) task.ctx = ctx;
  if (coalesce || ctx.sampled()) task.enqueue_us = obs::MonotonicMicros();
  int64_t new_depth = 0;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::Unavailable("shard " + id_ + " shutting down");
    }
    // Re-checked under mu_: a Kill racing the check above must not leave a
    // task of the new epoch on a dead shard.
    if (dead()) return Status::Unavailable("shard " + id_ + " is dead");
    task.epoch = kill_epoch_;
    queue_.push_back(std::move(task));
    high_watermark_ =
        std::max(high_watermark_, static_cast<int64_t>(queue_.size()));
    new_depth = queue_depth_.fetch_add(1) + 1;
  }
  queue_depth_gauge_->Set(static_cast<double>(new_depth));
  cv_.NotifyOne();
  return Status::OK();
}

std::future<Result<std::vector<float>>> WorkerShard::SubmitPredict(
    const std::string& scenario, const data::Batch& batch,
    Admission admission, const obs::RequestContext& ctx) {
  auto promise = std::make_shared<std::promise<Result<std::vector<float>>>>();
  std::future<Result<std::vector<float>>> future = promise->get_future();
  const Status admitted =
      Enqueue(scenario, &batch, admission, ctx, /*coalesce=*/false,
              [promise](Result<std::vector<float>> result, bool) {
                promise->set_value(std::move(result));
              });
  if (!admitted.ok()) promise->set_value(admitted);
  return future;
}

void WorkerShard::Kill() {
  {
    MutexLock lock(mu_);
    dead_.store(true, std::memory_order_release);
    ++kill_epoch_;  // Everything queued so far is now orphaned.
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
    paused_ = paused;
  }
  cv_.NotifyAll();
}

void WorkerShard::Release(int64_t n) {
  if (n == 0) return;
  const int64_t depth = queue_depth_.fetch_sub(n) - n;
  queue_depth_gauge_->Set(static_cast<double>(depth));
  UpdateShedState(depth);
}

size_t WorkerShard::RunLengthLocked() const {
  const Task& front = queue_.front();
  const size_t cap = static_cast<size_t>(batching_.max_batch_size);
  size_t n = 0;
  while (n < queue_.size() && n < cap && queue_[n].coalesce &&
         queue_[n].epoch == front.epoch &&
         queue_[n].scenario == front.scenario) {
    ++n;
  }
  return n;
}

void WorkerShard::DispatchLoop() {
  const double max_delay_us = batching_.max_delay_ms * 1e3;
  for (;;) {
    std::vector<Task> run;
    bool orphaned = false;
    {
      MutexLock lock(mu_);
      // Explicit loop instead of predicate lambdas: see src/util/mutex.h.
      for (;;) {
        if (stopping_) return;  // Stop() completes what is left.
        if (queue_.empty()) {
          cv_.Wait(mu_);
          continue;
        }
        orphaned = queue_.front().epoch != kill_epoch_;
        if (orphaned) break;  // Drained even while paused.
        if (paused_) {
          cv_.Wait(mu_);
          continue;
        }
        if (!queue_.front().coalesce) break;
        // A coalescable run waits for more rows only while it is all that
        // is queued, and at most max_delay_ms after its first row arrived.
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
      size_t take = 1;
      if (!orphaned && queue_.front().coalesce) {
        take = RunLengthLocked();
        queue_high_watermark_->Observe(static_cast<double>(high_watermark_));
        high_watermark_ = static_cast<int64_t>(queue_.size() - take);
      }
      const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(take);
      run.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(end));
      queue_.erase(queue_.begin(), end);
    }
    if (orphaned) {
      run[0].done(Status::Unavailable("shard " + id_ + " is dead"),
                  /*shared=*/false);
      Release(1);
    } else {
      Dispatch(&run);
    }
  }
}

void WorkerShard::Dispatch(std::vector<Task>* run) {
  std::vector<Task>& tasks = *run;
  const bool coalesced = tasks[0].coalesce;
  // Each row of a coalesced run is checked against the deployed model's
  // input contract before merging, so a malformed request fails alone
  // instead of failing every request it would have ridden with.
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
  if (!rows.empty()) {
    data::Batch merged;
    if (rows.size() > 1) merged = MergeRows(rows);
    obs::TraceSpan dispatch_span("serving/shard/dispatch", tasks[0].ctx);
    scores = engine_.Predict(tasks[0].scenario,
                             rows.size() > 1 ? merged : *rows[0]);
    requests_total_->Add(1);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
  }
  const double end_us = sampled ? obs::MonotonicMicros() : 0.0;
  if (coalesced) {
    batches_dispatched_->Add(1);
    batch_size_->Observe(static_cast<double>(tasks.size()));
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
    // the coordinator's failover/shed segment. Every passenger of a
    // coalesced call books its own wait and the shared engine call.
    if (task.ctx.sampled()) {
      task.ctx.trace->AddSegment(
          coalesced ? obs::segment::kBatchWait : obs::segment::kQueueWait,
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
