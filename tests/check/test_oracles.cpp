// The built-in differential oracles must agree on generated inputs: each
// registered pair is run through the forall driver and must report no
// counterexample. A failure here means two redundant implementations of the
// same computation have drifted apart — the summary prints the shrunk
// minimal input and the seeds to reproduce it.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "check/oracles.hpp"
#include "route/route.hpp"

namespace evd::check {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { register_builtin_oracles(); }

  static void expect_passes(const char* name, Index cases = 60) {
    const Oracle* oracle = registry().find(name);
    ASSERT_NE(oracle, nullptr) << name << " is not registered";
    const CheckResult result = oracle->run({.cases = cases});
    EXPECT_TRUE(result.passed) << name << ": " << result.summary();
    EXPECT_EQ(result.cases_run, cases);
  }
};

TEST_F(OracleTest, RegistryHasAllBuiltinPairs) {
  register_builtin_oracles();  // second call must be a no-op
  EXPECT_GE(registry().all().size(), 17u);
  for (const char* name :
       {"conv2d.direct_vs_gemm", "snn.clocked_vs_event_driven",
        "gnn.batch_vs_incremental", "par.cnn_conv_1_vs_4_threads",
        "par.snn_forward_1_vs_4_threads", "par.gnn_build_1_vs_4_threads",
        "simd.conv_vs_scalar", "simd.snn_step_vs_scalar",
        "simd.gnn_accumulate_vs_scalar", "simd.gnn_projected_vs_scalar",
        "gnn.two_step_vs_direct", "hw.systolic_vs_naive",
        "hw.zero_skip_vs_naive", "runtime.multiplex_vs_sequential.cnn",
        "runtime.multiplex_vs_sequential.snn",
        "runtime.multiplex_vs_sequential.gnn", "runtime.obs_on_vs_off",
        "runtime.fault_isolation", "runtime.checkpoint_replay",
        "sched.plan_vs_sequential.cnn", "sched.plan_vs_sequential.snn",
        "sched.plan_vs_sequential.gnn", "route.cnn_sparse_vs_dense",
        "route.snn_clocked_vs_event",
        "shard.sharded_vs_sequential.cnn", "shard.sharded_vs_sequential.snn",
        "shard.sharded_vs_sequential.gnn", "shard.migration_replay"}) {
    const Oracle* oracle = registry().find(name);
    ASSERT_NE(oracle, nullptr) << name;
    EXPECT_FALSE(oracle->description().empty());
  }
}

TEST_F(OracleTest, DuplicateRegistrationThrows) {
  EXPECT_THROW(registry().add(make_diff_oracle<ConvCase>(
                   "conv2d.direct_vs_gemm", "duplicate", conv_case_gen(),
                   diff_conv_direct_vs_gemm)),
               std::invalid_argument);
}

TEST_F(OracleTest, ConvDirectAgreesWithGemm) {
  expect_passes("conv2d.direct_vs_gemm");
}

TEST_F(OracleTest, SnnClockedAgreesWithEventDriven) {
  expect_passes("snn.clocked_vs_event_driven", 100);
}

TEST_F(OracleTest, GnnBatchAgreesWithIncremental) {
  expect_passes("gnn.batch_vs_incremental");
}

TEST_F(OracleTest, ConvIsBitwiseDeterministicAcrossThreads) {
  expect_passes("par.cnn_conv_1_vs_4_threads", 30);
}

TEST_F(OracleTest, SnnForwardIsBitwiseDeterministicAcrossThreads) {
  expect_passes("par.snn_forward_1_vs_4_threads", 30);
}

TEST_F(OracleTest, GnnBuildIsBitwiseDeterministicAcrossThreads) {
  expect_passes("par.gnn_build_1_vs_4_threads", 30);
}

TEST_F(OracleTest, SimdConvGemmIsBitwiseVsScalar) {
  expect_passes("simd.conv_vs_scalar", 40);
}

TEST_F(OracleTest, SimdSnnStepIsBitwiseVsScalar) {
  expect_passes("simd.snn_step_vs_scalar", 40);
}

TEST_F(OracleTest, SimdGnnAccumulateMatchesScalar) {
  expect_passes("simd.gnn_accumulate_vs_scalar", 60);
}

TEST_F(OracleTest, SimdGnnProjectedIsBitwiseVsScalar) {
  expect_passes("simd.gnn_projected_vs_scalar", 80);
}

TEST_F(OracleTest, GnnTwoStepMatchesDirectRecomputation) {
  expect_passes("gnn.two_step_vs_direct", 80);
}

TEST_F(OracleTest, SystolicModelMatchesNaiveRollup) {
  expect_passes("hw.systolic_vs_naive", 200);
}

TEST_F(OracleTest, ZeroSkipModelMatchesNaiveRollup) {
  expect_passes("hw.zero_skip_vs_naive", 200);
}

TEST_F(OracleTest, CnnMultiplexedServingMatchesSequential) {
  expect_passes("runtime.multiplex_vs_sequential.cnn", 15);
}

TEST_F(OracleTest, SnnMultiplexedServingMatchesSequential) {
  expect_passes("runtime.multiplex_vs_sequential.snn", 25);
}

TEST_F(OracleTest, GnnMultiplexedServingMatchesSequential) {
  expect_passes("runtime.multiplex_vs_sequential.gnn", 25);
}

TEST_F(OracleTest, ObservabilityNeverPerturbsDecisions) {
  expect_passes("runtime.obs_on_vs_off", 25);
}

TEST_F(OracleTest, FaultedNeighborNeverPerturbsHealthySessions) {
  expect_passes("runtime.fault_isolation", 25);
}

TEST_F(OracleTest, CheckpointRestoreReplayIsBitwiseTransparent) {
  expect_passes("runtime.checkpoint_replay", 25);
}

TEST_F(OracleTest, CnnPlannedServingMatchesSequential) {
  expect_passes("sched.plan_vs_sequential.cnn", 20);
}

TEST_F(OracleTest, SnnPlannedServingMatchesSequential) {
  expect_passes("sched.plan_vs_sequential.snn", 20);
}

TEST_F(OracleTest, GnnPlannedServingMatchesSequential) {
  expect_passes("sched.plan_vs_sequential.gnn", 20);
}

TEST_F(OracleTest, CnnSparseRouteMatchesDefaultPath) {
  expect_passes("route.cnn_sparse_vs_dense", 15);
}

TEST_F(OracleTest, SnnEventDrivenRouteMatchesDefaultPath) {
  expect_passes("route.snn_clocked_vs_event", 25);
}

TEST_F(OracleTest, CnnShardedServingMatchesSequential) {
  expect_passes("shard.sharded_vs_sequential.cnn", 15);
}

TEST_F(OracleTest, SnnShardedServingMatchesSequential) {
  expect_passes("shard.sharded_vs_sequential.snn", 25);
}

TEST_F(OracleTest, GnnShardedServingMatchesSequential) {
  expect_passes("shard.sharded_vs_sequential.gnn", 25);
}

TEST_F(OracleTest, ShardMigrationReplayIsBitwiseTransparent) {
  expect_passes("shard.migration_replay", 25);
}

TEST_F(OracleTest, EveryRoutablePathHasARouteOracle) {
  // A plan may only route a paradigm onto a variant whose decision stream
  // a route.* oracle pins to the default path; adding a variant to the
  // route table without one fails here.
  const std::vector<std::pair<route::PathId, const char*>> proofs = {
      {route::PathId::CnnSparse, "route.cnn_sparse_vs_dense"},
      {route::PathId::SnnEventDriven, "route.snn_clocked_vs_event"}};
  for (const char* paradigm : {"cnn", "snn", "gnn"}) {
    for (const route::PathId path : route::routable(paradigm)) {
      if (path == route::PathId::Default) continue;
      const auto proof = std::find_if(
          proofs.begin(), proofs.end(),
          [path](const auto& p) { return p.first == path; });
      ASSERT_NE(proof, proofs.end()) << route::path_name(path);
      EXPECT_NE(registry().find(proof->second), nullptr) << proof->second;
    }
  }
}

// Forward-compatibility net: pairs added by later PRs are exercised even
// before they get a dedicated test above.
TEST_F(OracleTest, EveryRegisteredOraclePassesASmokeRun) {
  for (const auto& oracle : registry().all()) {
    const CheckResult result = oracle->run({.cases = 10});
    EXPECT_TRUE(result.passed) << oracle->name() << ": " << result.summary();
  }
}

}  // namespace
}  // namespace evd::check
