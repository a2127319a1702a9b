// Golden snapshot of the plans the annealer chooses for three canonical
// session populations (CNN-heavy, SNN-heavy, mixed). Any change to the
// cost models, the stage declarations, the search moves or the rng shifts
// these plans — the snapshot turns that into a reviewed diff instead of a
// silent re-plan. Refresh with EVD_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/golden.hpp"
#include "cnn/cnn_pipeline.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "sched/annealer.hpp"
#include "sched/planner.hpp"
#include "snn/snn_pipeline.hpp"

namespace evd::sched {
namespace {

SessionProfile cnn_profile(Index queued_ops) {
  cnn::CnnPipelineConfig config;
  config.width = 32;
  config.height = 32;
  config.num_classes = 4;
  config.base_filters = 4;
  const cnn::CnnPipeline pipeline(config);
  return profile_for(pipeline, "cnn", queued_ops);
}

SessionProfile snn_profile(Index queued_ops) {
  snn::SnnPipelineConfig config;
  config.width = 32;
  config.height = 32;
  config.num_classes = 4;
  config.hidden = 64;
  const snn::SnnPipeline pipeline(config);
  return profile_for(pipeline, "snn", queued_ops);
}

SessionProfile gnn_profile(Index queued_ops) {
  gnn::GnnPipelineConfig config;
  config.width = 32;
  config.height = 32;
  config.num_classes = 4;
  config.model.hidden = 16;
  const gnn::GnnPipeline pipeline(config);
  return profile_for(pipeline, "gnn", queued_ops);
}

std::string render(const std::string& title,
                   const std::vector<SessionProfile>& profiles) {
  AnnealerConfig config;
  config.seed = 2024;
  config.iterations = 500;
  config.region_count = 4;
  config.burst_cap = 8;
  CostModels models;
  // Pin the modeled host: with host_workers = 0 plan_cost_us resolves the
  // live pool size and the snapshot would depend on the machine.
  models.host_workers = 4;
  const AnnealResult result = anneal_plan(profiles, models, config);
  EXPECT_TRUE(result.plan.validate()) << title;
  std::string out = "== " + title + " ==\n";
  out += "round_robin_cost_us=" + std::to_string(result.initial_cost_us) +
         "\n";
  out += result.plan.describe() + "\n";
  return out;
}

TEST(GoldenPlans, ChosenPlansMatchTheSnapshot) {
  std::string actual;
  actual += render("cnn_heavy",
                   {cnn_profile(96), cnn_profile(96), cnn_profile(64),
                    cnn_profile(64), snn_profile(16), gnn_profile(16)});
  actual += render("snn_heavy",
                   {snn_profile(96), snn_profile(96), snn_profile(64),
                    snn_profile(64), cnn_profile(16), gnn_profile(16)});
  actual += render("mixed",
                   {cnn_profile(64), snn_profile(64), gnn_profile(64),
                    cnn_profile(32), snn_profile(32), gnn_profile(32)});
  const auto diff = check::golden_compare("sched_plans", actual);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

}  // namespace
}  // namespace evd::sched
