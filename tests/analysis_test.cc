// Tests for analysis::AuditGraph / AuditModel: structural statistics, the
// four defect detectors (cycle, dead subgraph, unreached trainable leaf,
// grad-shape mismatch), the FLOPs cross-check against the NAS budget model,
// and the Trainer integration behind TrainOptions::audit_graph.

#include "src/analysis/graph_audit.h"

#include <cmath>
#include <memory>

#include "gtest/gtest.h"
#include "src/autograd/ops.h"
#include "src/data/synthetic.h"
#include "src/nas/arch.h"
#include "src/nas/derived_encoder.h"
#include "src/train/trainer.h"
#include "src/util/rng.h"

namespace alt {
namespace analysis {
namespace {

TEST(GraphAuditTest, CountsNodesEdgesAndDepth) {
  ag::Variable w = ag::Variable::Parameter(Tensor::Zeros({2, 2}));
  ag::Variable x = ag::Variable::Constant(Tensor::Ones({2, 2}));
  ag::Variable loss = ag::SumAll(ag::Mul(w, x));

  GraphReport report = AuditGraph(loss);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.num_nodes, 4);   // w, x, mul, sum_all.
  EXPECT_EQ(report.num_edges, 3);   // mul->w, mul->x, sum_all->mul.
  EXPECT_EQ(report.max_depth, 2);   // sum_all -> mul -> leaf.
  EXPECT_EQ(report.num_leaves, 2);
  EXPECT_EQ(report.num_trainable_leaves, 1);
  EXPECT_EQ(report.num_dead_nodes, 0);
  EXPECT_FALSE(report.has_cycle);
  // mul: 4 elementwise FLOPs; sum_all: 4.
  EXPECT_EQ(report.total_flops, 8);
  ASSERT_EQ(report.per_op.count("mul"), 1u);
  EXPECT_EQ(report.per_op.at("mul").count, 1);
  EXPECT_EQ(report.per_op.at("mul").flops, 4);
  ASSERT_EQ(report.per_op.count("sum_all"), 1u);
}

TEST(GraphAuditTest, SharedSubgraphCountedOnce) {
  ag::Variable w = ag::Variable::Parameter(Tensor::Ones({3}));
  ag::Variable y = ag::Mul(w, w);              // Diamond: both parents are w.
  ag::Variable loss = ag::SumAll(ag::Add(y, y));  // And both parents are y.

  GraphReport report = AuditGraph(loss);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.num_nodes, 4);  // w, mul, add, sum_all — each once.
  EXPECT_EQ(report.num_edges, 5);
  EXPECT_EQ(report.max_depth, 3);
}

TEST(GraphAuditTest, DetectsReferenceCycle) {
  auto a = std::make_shared<ag::Node>();
  a->value = Tensor::Zeros({1});
  auto b = std::make_shared<ag::Node>();
  b->value = Tensor::Zeros({1});
  a->parents.push_back(b);
  b->parents.push_back(a);  // a -> b -> a.

  GraphReport report = AuditGraph(ag::Variable(a));
  EXPECT_TRUE(report.has_cycle);
  EXPECT_FALSE(report.clean());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("cycle"), std::string::npos);

  // Break the cycle so the shared_ptrs can free (keeps LSan quiet too).
  a->parents.clear();
  b->parents.clear();
}

TEST(GraphAuditTest, WarnsOnDeadSubgraph) {
  // A subgraph built purely from constants records forward work that can
  // never receive gradient; it should be flagged as dead but not fail.
  ag::Variable c1 = ag::Variable::Constant(Tensor::Ones({4}));
  ag::Variable c2 = ag::Variable::Constant(Tensor::Ones({4}));
  ag::Variable dead = ag::SumAll(ag::Add(c1, c2));
  ag::Variable p = ag::Variable::Parameter(Tensor::Ones({1}));
  ag::Variable loss = ag::Add(ag::SumAll(p), dead);

  GraphReport report = AuditGraph(loss);
  EXPECT_TRUE(report.clean());  // Dead subgraphs are warnings, not errors.
  EXPECT_EQ(report.num_dead_nodes, 2);  // The constant add and its sum_all.
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings.front().find("dead"), std::string::npos);
}

TEST(GraphAuditTest, DetectsUnreachedTrainableLeaf) {
  ag::Variable used = ag::Variable::Parameter(Tensor::Ones({2}));
  ag::Variable unused = ag::Variable::Parameter(Tensor::Ones({2}));
  ag::Variable loss = ag::SumAll(ag::Mul(used, used));

  GraphReport both = AuditModel(loss, {&used, &unused});
  EXPECT_FALSE(both.clean());
  EXPECT_EQ(both.num_unreached_params, 1);
  ASSERT_FALSE(both.errors.empty());
  EXPECT_NE(both.errors.front().find("unreachable"), std::string::npos);

  GraphReport reached_only = AuditModel(loss, {&used});
  EXPECT_TRUE(reached_only.clean());
  EXPECT_EQ(reached_only.num_unreached_params, 0);

  // Non-trainable and undefined watch entries are ignored.
  ag::Variable constant = ag::Variable::Constant(Tensor::Ones({2}));
  ag::Variable undefined;
  GraphReport ignored = AuditModel(loss, {&used, &constant, &undefined});
  EXPECT_TRUE(ignored.clean());
}

TEST(GraphAuditTest, DetectsGradShapeMismatch) {
  ag::Variable p = ag::Variable::Parameter(Tensor::Ones({2, 3}));
  ag::Variable y = ag::Mul(p, p);
  ag::Variable loss = ag::SumAll(y);

  // Simulate gradient corruption: an allocated grad of the wrong shape.
  y.node()->grad = Tensor::Zeros({6});
  y.node()->grad_allocated = true;

  GraphReport report = AuditGraph(loss);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.num_shape_mismatches, 1);
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("shape mismatch"), std::string::npos);
}

TEST(GraphAuditTest, FlopsMatchesNasBudgetModel) {
  // The acceptance check for Eq. 4 accounting: the summed Node::flops of a
  // derived encoder's recorded graph must match Architecture::Flops within
  // 1% for a single [1, T, dim] sample.
  nas::Architecture arch;
  arch.dim = 8;
  nas::LayerSpec l0;
  l0.input = 0;
  ASSERT_TRUE(nas::OpSpec::FromString("conv3").ok());
  l0.op = nas::OpSpec::FromString("conv3").value();
  l0.residuals = {true};
  nas::LayerSpec l1;
  l1.input = 1;
  l1.op = nas::OpSpec::FromString("maxpool3").value();
  l1.residuals = {false, true};
  nas::LayerSpec l2;
  l2.input = 2;
  l2.op = nas::OpSpec::FromString("dconv5").value();
  l2.residuals = {true, false, false};
  arch.layers = {l0, l1, l2};
  ASSERT_TRUE(arch.Validate().ok());

  const int64_t seq_len = 16;
  Rng rng(11);
  nas::DerivedNasEncoder encoder(arch, &rng);
  ag::Variable probe =
      ag::Variable::Constant(Tensor::Zeros({1, seq_len, arch.dim}));
  GraphReport report = AuditGraph(encoder.Encode(probe));

  EXPECT_TRUE(report.clean());
  const int64_t budget = arch.Flops(seq_len);
  ASSERT_GT(budget, 0);
  const double rel_err =
      std::abs(static_cast<double>(report.total_flops - budget)) /
      static_cast<double>(budget);
  EXPECT_LE(rel_err, 0.01)
      << "graph=" << report.total_flops << " budget=" << budget;
  // Conv dominates; the breakdown should reflect it.
  ASSERT_EQ(report.per_op.count("conv1d"), 1u);
  EXPECT_EQ(report.per_op.at("conv1d").count, 2);  // conv3 + dconv5.
}

TEST(GraphAuditTest, FlopsMatchesNasBudgetModelWithLstm) {
  // Same Eq. 4 check with an `lstm` layer: the fused op records one node
  // whose FLOPs follow LstmLayer::Flops, so the recorded graph still tracks
  // the budget model.
  nas::Architecture arch;
  arch.dim = 8;
  nas::LayerSpec l0;
  l0.input = 0;
  l0.op = nas::OpSpec::FromString("lstm").value();
  l0.residuals = {true};
  nas::LayerSpec l1;
  l1.input = 1;
  l1.op = nas::OpSpec::FromString("conv3").value();
  l1.residuals = {false, true};
  nas::LayerSpec l2;
  l2.input = 1;
  l2.op = nas::OpSpec::FromString("lstm").value();
  l2.residuals = {true, false, true};
  arch.layers = {l0, l1, l2};
  ASSERT_TRUE(arch.Validate().ok());

  const int64_t seq_len = 16;
  Rng rng(12);
  nas::DerivedNasEncoder encoder(arch, &rng);
  ag::Variable probe =
      ag::Variable::Constant(Tensor::Zeros({1, seq_len, arch.dim}));
  GraphReport report = AuditGraph(encoder.Encode(probe));

  EXPECT_TRUE(report.clean());
  const int64_t budget = arch.Flops(seq_len);
  const double rel_err =
      std::abs(static_cast<double>(report.total_flops - budget)) /
      static_cast<double>(budget);
  EXPECT_LE(rel_err, 0.01)
      << "graph=" << report.total_flops << " budget=" << budget;
  ASSERT_EQ(report.per_op.count("lstm"), 1u);
  EXPECT_EQ(report.per_op.at("lstm").count, 2);
  EXPECT_EQ(report.per_op.at("lstm").flops,
            2 * nas::OpSpec::FromString("lstm").value().Flops(seq_len,
                                                              arch.dim));
}

TEST(GraphAuditTest, ToStringRendersTablesAndFindings) {
  ag::Variable w = ag::Variable::Parameter(Tensor::Zeros({2, 2}));
  ag::Variable loss = ag::SumAll(ag::Mul(w, w));
  GraphReport report = AuditGraph(loss);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("GraphAudit"), std::string::npos);
  EXPECT_NE(text.find("total flops"), std::string::npos);
  EXPECT_NE(text.find("sum_all"), std::string::npos);
  EXPECT_EQ(text.find("ERROR"), std::string::npos);
}

TEST(GraphAuditTest, TrainerRunsFirstBatchAudit) {
  data::SyntheticConfig data_config;
  data_config.num_scenarios = 1;
  data_config.profile_dim = 6;
  data_config.seq_len = 8;
  data_config.vocab_size = 12;
  data_config.scenario_sizes = {64};
  data_config.seed = 21;
  data::SyntheticGenerator gen(data_config);
  data::ScenarioData train_data = gen.GenerateScenario(0);

  Rng rng(7);
  auto model = models::BuildBaseModel(
      models::ModelConfig::Heavy(models::EncoderKind::kLstm, 6, 8, 12), &rng);
  ASSERT_TRUE(model.ok());

  train::TrainOptions options;
  options.epochs = 1;
  options.audit_graph = true;
  auto report = train::TrainModel(model.value().get(), train_data, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

}  // namespace
}  // namespace analysis
}  // namespace alt
