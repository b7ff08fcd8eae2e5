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

/// Admission class of one request. The coordinator maps scenario placement
/// to priority: hot / everywhere-deployed scenarios submit as kCritical and
/// bypass the soft shed watermark (the hard cap still applies); everything
/// else is kNormal and sheds first under pressure.
enum class Admission { kNormal = 0, kCritical = 1 };

/// Micro-batching limits of the shard dispatcher: a coalesced engine call
/// takes up to `max_batch_size` queued rows and waits up to `max_delay_ms`
/// after its first row for more, but only while nothing else is queued.
struct BatchingOptions {
  int64_t max_batch_size = 16;
  double max_delay_ms = 2.0;
};

/// One worker of the sharded serving plane: a ModelServer engine and the
/// policy around it. Control plane: Deploy publishes a shared model snapshot
/// on the engine, whose version gate keeps a stale broadcast (a rebalance
/// racing a newer Deploy) from overwriting a newer model. Data plane:
/// Predict scores a sync request inline, on the caller's thread; Enqueue
/// adds a one-row task on the shard's one queue, whose dispatcher thread
/// scores each same-scenario run at the front in one engine call and runs
/// the tasks' completion callbacks.
///
/// Kill() marks the shard dead and advances its kill epoch. Each request
/// records the epoch at admission; an engine call whose epoch moved before
/// or while it ran completes Unavailable, and callers fail over. Revive()
/// undoes a Kill for warm re-join, with all serving state cleared.
///
/// Admission: beyond the hard `max_queue_depth` cap on the depth (requests
/// admitted and not completed, inline or queued), kNormal requests are
/// rejected with ResourceExhausted from the high shed watermark until the
/// depth drains to the low one (hysteresis), so cold traffic sheds first.
///
/// Obs (shared registry): serving/shard/{queue_depth,requests,pressure}/<id>
/// (depth, engine calls, depth / high watermark), and per dispatch
/// serving/batch_predictor/batches_dispatched, batch_size, and
/// queue_high_watermark (deepest queue since the previous one). These count
/// attempts: a request that fails over is counted again in the next shard's
/// call. A request's metrics are updated before the depth drops for it.
class WorkerShard {
 public:
  /// Completion callback of one queued task: runs exactly once, on the
  /// dispatcher thread, before the task leaves the depth. `shared` marks the
  /// passengers after the first of one coalesced engine call, so per-call
  /// bookkeeping (the shard breaker) counts the first only.
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

  /// Scores `batch` on the calling thread. Unavailable for a dead shard or
  /// a Kill during the call, ResourceExhausted for a shedding (kNormal
  /// only) or full shard. A sampled `ctx` gets compute on success.
  Result<std::vector<float>> Predict(const std::string& scenario,
                                     const data::Batch& batch,
                                     Admission admission,
                                     const obs::RequestContext& ctx);

  /// Enqueues a one-row task that may share an engine call with its
  /// same-scenario neighbours. On OK, `done` runs exactly once and `batch`
  /// must live until then; a rejected task gets Predict's admission status
  /// and no callback. A sampled `ctx` gets batch_wait + compute on success.
  Status Enqueue(const std::string& scenario, const data::Batch* batch,
                 Admission admission, const obs::RequestContext& ctx,
                 Done done);

  /// Predict, answered through a ready future.
  std::future<Result<std::vector<float>>> SubmitPredict(
      const std::string& scenario, const data::Batch& batch,
      Admission admission = Admission::kNormal,
      const obs::RequestContext& ctx = obs::RequestContext()) {
    std::promise<Result<std::vector<float>>> answer;
    answer.set_value(Predict(scenario, batch, admission, ctx));
    return answer.get_future();
  }

  /// Marks the shard dead: requests admitted before, queued (even while
  /// paused) or inline, complete Unavailable. Runs no callback. Idempotent.
  void Kill();
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Undoes Kill() for warm re-join: clears every deployment (the
  /// coordinator re-publishes its current snapshots) and re-opens admission.
  /// FailedPrecondition unless the shard is dead.
  Status Revive();

  /// Kill(), then joins the dispatcher once it has drained the queue.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Soft shed watermarks with hysteresis: shedding starts when the depth
  /// reaches `high` and stops once it drains to `low`; `high` <= 0 disables
  /// it. Relaxed atomics: a submit racing a retune sheds under either.
  void set_shed_watermarks(int64_t high, int64_t low) {
    shed_high_watermark_.store(high, std::memory_order_relaxed);
    shed_low_watermark_.store(low, std::memory_order_relaxed);
  }

  /// True while the shard is between watermarks shedding kNormal load.
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }

  /// Test hook: while paused, the dispatcher stops dequeuing and inline
  /// calls wait after admission; Kill() and Stop() still release both.
  void PauseDispatchForTesting(bool paused);

  /// Requests admitted and not completed — the load signal the
  /// coordinator's power-of-two-choices balancer compares.
  int64_t QueueDepth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  /// Engine calls made so far (one per inline call or coalesced run).
  int64_t RequestsServed() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Backpressure limit on the depth; 0 (default) = unbounded. Relaxed
  /// atomic for the same control-plane-vs-submit race as the watermarks.
  void set_max_queue_depth(int64_t depth) {
    max_queue_depth_.store(depth, std::memory_order_relaxed);
  }

  /// The shard-local engine. Exposed for control-plane wiring only
  /// (ConfigureResilience, breaker states, Undeploy, deployed versions) —
  /// predictions go through Predict or Enqueue, which apply admission.
  ModelServer* engine() { return &engine_; }
  const ModelServer* engine() const { return &engine_; }

 private:
  struct Task {
    std::string scenario;
    const data::Batch* batch = nullptr;
    Done done;
    obs::RequestContext ctx;  // Sampled requests only; default = inert.
    double enqueue_us = 0.0;  // Start of the coalescing deadline.
    uint64_t epoch = 0;  // kill_epoch_ at enqueue; stale = orphaned by Kill.
  };

  /// The dead check, the hard cap and the shed hysteresis.
  Status Admit(Admission admission);
  /// True when a Kill (or Revive) came after admission at `epoch`.
  bool Orphaned(uint64_t epoch) const { return kill_epoch_.load() != epoch; }
  /// One engine call, counted in serving/shard/requests/<id>.
  Result<std::vector<float>> CallEngine(const std::string& scenario,
                                        const data::Batch& batch,
                                        const obs::RequestContext& ctx);

  void DispatchLoop() ALT_EXCLUDES(mu_);
  /// Scores a run of tasks and completes them.
  void Dispatch(std::vector<Task>* run);
  /// Leading same-epoch same-scenario tasks, capped at max_batch_size.
  size_t RunLengthLocked() const ALT_REQUIRES(mu_);
  /// Drops `n` completed requests from the depth.
  void Release(int64_t n);

  /// Advances the hysteresis state machine for a shard at `depth` (and the
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
  // Kill advances it under mu_ (parked calls wait on cv_); read lock-free.
  std::atomic<uint64_t> kill_epoch_{0};
  std::atomic<bool> paused_{false};
  // Deepest queue_ since the last coalesced dispatch.
  int64_t high_watermark_ ALT_GUARDED_BY(mu_) = 0;
  bool stopping_ ALT_GUARDED_BY(mu_) = false;

  std::thread dispatcher_;  // Last member: starts after the state above.
};

}  // namespace shard
}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_SHARD_SHARD_H_
