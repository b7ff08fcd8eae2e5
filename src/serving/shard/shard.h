#ifndef ALT_SRC_SERVING_SHARD_SHARD_H_
#define ALT_SRC_SERVING_SHARD_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/data/dataset.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"
#include "src/serving/model_server.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace alt {
namespace serving {
namespace shard {

/// Admission class of one submitted task. The coordinator maps scenario
/// placement to priority: hot / everywhere-deployed scenarios submit as
/// kCritical and bypass the soft shed watermark (the hard queue cap still
/// applies); everything else is kNormal and sheds first under pressure.
enum class Admission { kNormal = 0, kCritical = 1 };

/// Micro-batching limits of the shard dispatcher: a coalesced engine call
/// takes up to `max_batch_size` rows and waits up to `max_delay_ms` after
/// its first row for more, but only while nothing else is queued.
struct BatchingOptions {
  int64_t max_batch_size = 16;
  double max_delay_ms = 2.0;
};

/// One worker of the sharded serving plane: a ModelServer engine owned by a
/// dedicated dispatcher thread. The coordinator talks to a shard through two
/// planes:
///   - control plane: Deploy publishes a shared model snapshot on the
///     engine, whose version gate keeps a stale broadcast (a rebalance
///     racing a newer Deploy) from overwriting a newer model;
///   - data plane: Enqueue adds a task on the shard's one queue. The
///     dispatcher scores tasks in arrival order and runs each task's
///     completion callback on its own thread. A same-scenario run of
///     coalescable (one-row) tasks at the queue front is scored in one
///     engine call; synchronous tasks are never coalesced.
///
/// Kill() marks the shard dead; its dispatcher completes the tasks queued
/// before the kill with Unavailable, and callers fail over. Revive() undoes
/// a Kill for warm re-join, with all serving state cleared.
///
/// Admission control: beyond the hard `max_queue_depth` cap, kNormal tasks
/// are rejected with ResourceExhausted once the queue reaches the high shed
/// watermark, until it drains to the low one (hysteresis). kCritical tasks
/// (hot or everywhere-deployed scenarios) are only bounded by the hard cap,
/// so cold traffic sheds first. Every task counts one, coalescable or not.
///
/// Obs (shared registry): serving/shard/{queue_depth,requests,pressure}/<id>
/// (tasks queued + in flight, engine calls, depth / high watermark), and per
/// coalesced dispatch serving/batch_predictor/batches_dispatched,
/// batch_size, and queue_high_watermark (deepest queue since the previous
/// one). These count attempts, failed engine calls included: a request that
/// fails over is counted again in the next shard's call. A task's metrics
/// are updated before the depth drops for it.
class WorkerShard {
 public:
  /// Completion callback of one task: runs exactly once, on the dispatcher
  /// thread (or the one calling Stop()), before the task leaves the depth.
  /// `shared` is true for the passengers after the first of one coalesced
  /// engine call: they repeat its outcome, so per-call bookkeeping (the
  /// shard breaker) counts the first only.
  using Done =
      std::function<void(Result<std::vector<float>> result, bool shared)>;

  /// `registry == nullptr` selects the process-global registry. All shards
  /// of one coordinator share a registry.
  explicit WorkerShard(std::string id,
                       obs::MetricsRegistry* registry = nullptr,
                       BatchingOptions batching = {});
  ~WorkerShard();

  WorkerShard(const WorkerShard&) = delete;
  WorkerShard& operator=(const WorkerShard&) = delete;

  const std::string& id() const { return id_; }

  /// ModelServer::Publish on this shard's engine; Unavailable on a dead
  /// shard.
  Status Deploy(const std::string& scenario, ModelServer::Snapshot model,
                uint64_t version, const DeployOptions& options = {});

  /// Enqueues a task; on OK, `done` runs exactly once and `batch` must live
  /// until then. A rejected submit returns its status and never calls
  /// `done`: Unavailable for a dead or stopped shard, ResourceExhausted for
  /// a shedding (kNormal only) or full queue. A `coalesce` (one-row) task
  /// may share an engine call with its same-scenario neighbours. A sampled
  /// `ctx` gets queue_wait (batch_wait when coalesced) + compute on success.
  Status Enqueue(const std::string& scenario, const data::Batch* batch,
                 Admission admission, const obs::RequestContext& ctx,
                 bool coalesce, Done done);

  /// Enqueue of a synchronous task, answered through a future.
  std::future<Result<std::vector<float>>> SubmitPredict(
      const std::string& scenario, const data::Batch& batch,
      Admission admission = Admission::kNormal,
      const obs::RequestContext& ctx = obs::RequestContext());

  /// Marks the shard dead; the dispatcher completes the tasks already
  /// queued with Unavailable, even while paused. Runs no callback on the
  /// calling thread. Idempotent.
  void Kill();
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Undoes Kill() for warm re-join: clears every deployment (the
  /// coordinator re-publishes its current snapshots) and re-opens admission.
  /// FailedPrecondition unless the shard is dead.
  Status Revive();

  /// Joins the dispatcher and completes every task still queued with
  /// Unavailable on the calling thread. Idempotent; the destructor calls it.
  void Stop();

  /// Soft shed watermarks with hysteresis: shedding starts when the queue
  /// reaches `high` and stops once it drains to `low`; `high` <= 0 disables
  /// it. Relaxed atomics: a submit racing a retune sheds under either.
  void set_shed_watermarks(int64_t high, int64_t low) {
    shed_high_watermark_.store(high, std::memory_order_relaxed);
    shed_low_watermark_.store(low, std::memory_order_relaxed);
  }

  /// True while the shard is between watermarks shedding kNormal load.
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }

  /// Test hook: while paused the dispatcher stops dequeuing, so tests can
  /// build exact queue depths. Kill() and Stop() still drain the queue.
  void PauseDispatchForTesting(bool paused);

  /// Tasks queued or in flight — the load signal the coordinator's
  /// power-of-two-choices balancer compares.
  int64_t QueueDepth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  /// Engine calls made so far (one per coalesced run).
  int64_t RequestsServed() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Backpressure limit for Enqueue; 0 (default) = unbounded. Relaxed atomic
  /// for the same control-plane-vs-submit race as the watermarks.
  void set_max_queue_depth(int64_t depth) {
    max_queue_depth_.store(depth, std::memory_order_relaxed);
  }

  /// The shard-local engine. Exposed for control-plane wiring only
  /// (ConfigureResilience, breaker states, Undeploy, deployed versions) —
  /// predictions go through Enqueue so they run on the shard's thread.
  ModelServer* engine() { return &engine_; }
  const ModelServer* engine() const { return &engine_; }

 private:
  struct Task {
    std::string scenario;
    const data::Batch* batch = nullptr;
    bool coalesce = false;
    Done done;
    obs::RequestContext ctx;  // Sampled requests only; default = inert.
    double enqueue_us = 0.0;  // When coalescable (deadline) or sampled.
    uint64_t epoch = 0;  // kill_epoch_ at enqueue; stale = orphaned by Kill.
  };

  void DispatchLoop() ALT_EXCLUDES(mu_);
  /// Scores `run` (one task, or a coalesced run) and completes its tasks.
  void Dispatch(std::vector<Task>* run);
  /// Leading coalescable same-scenario tasks, capped at max_batch_size.
  size_t RunLengthLocked() const ALT_REQUIRES(mu_);
  /// Drops `n` completed tasks from the queue depth.
  void Release(int64_t n);

  /// Advances the hysteresis state machine for a queue at `depth` (and the
  /// pressure gauge); true while kNormal admissions are shed. Lock-free.
  bool UpdateShedState(int64_t depth);

  const std::string id_;
  obs::MetricsRegistry* registry_;
  const BatchingOptions batching_;
  ModelServer engine_;

  std::atomic<bool> dead_{false};
  std::atomic<bool> shedding_{false};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> max_queue_depth_{0};
  std::atomic<int64_t> shed_high_watermark_{0};
  std::atomic<int64_t> shed_low_watermark_{0};
  obs::Gauge* queue_depth_gauge_ = nullptr;  // Owned by the registry.
  obs::Gauge* pressure_gauge_ = nullptr;     // Owned by the registry.
  obs::Counter* requests_total_ = nullptr;   // Owned by the registry.
  obs::Counter* batches_dispatched_ = nullptr;    // Owned by the registry.
  obs::Histogram* batch_size_ = nullptr;          // Owned by the registry.
  obs::Histogram* queue_high_watermark_ = nullptr;  // Owned by the registry.

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Task> queue_ ALT_GUARDED_BY(mu_);
  uint64_t kill_epoch_ ALT_GUARDED_BY(mu_) = 0;
  // Deepest queue_ since the last coalesced dispatch.
  int64_t high_watermark_ ALT_GUARDED_BY(mu_) = 0;
  bool stopping_ ALT_GUARDED_BY(mu_) = false;
  bool paused_ ALT_GUARDED_BY(mu_) = false;

  std::thread dispatcher_;  // Last member: starts after the state above.
};

}  // namespace shard
}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SHARD_SHARD_H_
