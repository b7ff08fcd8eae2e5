#ifndef ALT_SRC_TRAIN_TRAINER_H_
#define ALT_SRC_TRAIN_TRAINER_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/data/metrics.h"
#include "src/models/base_model.h"
#include "src/util/status.h"

namespace alt {
namespace train {

/// Options for supervised training runs. The defaults follow the paper's
/// implementation details (Adam, lr 0.001, cross-entropy), with batch size
/// and epochs scaled to the synthetic workloads.
struct TrainOptions {
  int64_t epochs = 3;
  int64_t batch_size = 64;
  float learning_rate = 1e-3f;
  /// Global gradient-norm clip; <= 0 disables.
  float grad_clip = 5.0f;
  uint64_t seed = 1;
  /// Stop early when the epoch training loss fails to improve by at least
  /// `min_improvement` for `patience` consecutive epochs; 0 disables.
  int64_t patience = 0;
  float min_improvement = 1e-4f;
  /// Debug: statically audit the recorded loss graph on the first batch
  /// (analysis::AuditModel) and fail with FailedPrecondition on hard
  /// violations (cycle, grad-shape mismatch, unreachable trainable
  /// parameter). The report is logged at Info level.
  bool audit_graph = false;
  /// Checkpoint/resume for long runs. A non-empty `checkpoint_path` makes
  /// the run atomically overwrite that file with weights + Adam moments +
  /// RNG streams + progress every `checkpoint_every_epochs` completed
  /// epochs. With `resume` true, a run finding a checkpoint at that path
  /// restores it and continues to `epochs` total — bitwise identical to
  /// the uninterrupted run with the same seed (no checkpoint: clean start).
  std::string checkpoint_path;
  int64_t checkpoint_every_epochs = 1;
  bool resume = false;
};

/// Summary of one training run.
struct TrainReport {
  int64_t epochs_run = 0;
  double first_epoch_loss = 0.0;
  double final_epoch_loss = 0.0;
};

/// Trains `model` with binary cross-entropy on hard labels (Adam).
Result<TrainReport> TrainModel(models::BaseModel* model,
                               const data::ScenarioData& train_data,
                               const TrainOptions& options);

/// Trains `student` with the distillation loss of Eq. 5:
///   L = CE(y', y_hard) + delta * CE(y'_soft, y_soft)
/// where y_soft is the teacher's predicted probability. The teacher is read
/// once: SoftLabelTable labels every row of `train_data` before the first
/// step, and each step looks its batch's rows up in that table, so the cost
/// of the teacher does not grow with `epochs`.
Result<TrainReport> TrainWithDistillation(models::BaseModel* student,
                                          models::BaseModel* teacher,
                                          const data::ScenarioData& train_data,
                                          float delta,
                                          const TrainOptions& options);

/// TrainWithDistillation over a table already built by SoftLabelTable:
/// `soft_labels[i]` is the teacher's probability for row i of `train_data`.
/// For a caller that labels the data once and trains more than once on it
/// (the NAS search, then its final training).
Result<TrainReport> TrainWithDistillation(models::BaseModel* student,
                                          const std::vector<float>& soft_labels,
                                          const data::ScenarioData& train_data,
                                          float delta,
                                          const TrainOptions& options);

/// The soft-label table of Eq. 5: the teacher's eval-mode probability for
/// every row of `dataset`, from one tape-free pass in batches of
/// `batch_size` (trace span "distill/teacher_labels"; adds num_samples() to
/// the train/distill/teacher_rows_total counter). PredictProbs is
/// row-independent, so each entry is bit-identical to what the teacher gives
/// that row inside any training batch.
Result<std::vector<float>> SoftLabelTable(models::BaseModel* teacher,
                                          const data::ScenarioData& dataset,
                                          int64_t batch_size);

/// The Eq. 5 loss of one batch whose row r is row `rows[r]` of the labelled
/// dataset: CE(logits, batch.labels) + delta * CE(logits, soft_labels[rows]).
/// An empty `soft_labels` gives the hard-label term alone.
ag::Variable DistillLoss(const ag::Variable& logits, const data::Batch& batch,
                         const std::vector<size_t>& rows,
                         const std::vector<float>& soft_labels, float delta);

/// Eval-mode predictions for the whole dataset, batched to bound memory.
std::vector<float> Predict(models::BaseModel* model,
                           const data::ScenarioData& dataset,
                           int64_t batch_size = 256);

/// AUC of `model` on `dataset`.
double EvaluateAuc(models::BaseModel* model, const data::ScenarioData& dataset);

/// Mean binary cross-entropy of `model` on `dataset`.
double EvaluateLogLoss(models::BaseModel* model,
                       const data::ScenarioData& dataset);

}  // namespace train
}  // namespace alt

#endif  // ALT_SRC_TRAIN_TRAINER_H_
