// evd::route unit suite: the path table (enumeration, byte codec,
// paradigm scoping, routable sets), the EVD_ROUTE kill-switch, the
// thread-local ScopedConvAlgo override, the SessionBase routing contract,
// and route application through SessionManager plans (set_plan /
// clear_plan / plan bytes).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "nn/conv2d.hpp"
#include "route/route.hpp"
#include "runtime/session_manager.hpp"
#include "sched/plan.hpp"

namespace evd::route {
namespace {

/// RAII guard for the kill-switch (tests must leave the process default).
struct ScopedRoute {
  bool previous = enabled();
  explicit ScopedRoute(bool on) { set_enabled(on); }
  ~ScopedRoute() { set_enabled(previous); }
};

/// Minimal routable session with a chosen paradigm label.
class ParadigmSession final : public runtime::SessionBase {
 public:
  explicit ParadigmSession(const char* paradigm)
      : SessionBase(runtime::SessionBaseConfig{0, 64, paradigm}) {}

 private:
  void on_event(const events::Event&) override {}
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    emit(d);
  }
};

/// A plan routing cnn -> sparse and snn -> event-driven.
sched::Plan routed_plan(Index sessions) {
  sched::Plan plan = sched::Plan::round_robin(sessions, 1, 2);
  sched::ParadigmPlacement cnn;
  cnn.paradigm = "cnn";
  cnn.path = PathId::CnnSparse;
  sched::ParadigmPlacement snn;
  snn.paradigm = "snn";
  snn.path = PathId::SnnEventDriven;
  plan.placements = {cnn, snn};
  plan.refresh_labels();
  return plan;
}

TEST(Route, RegistryEnumeratesEveryParadigmsVariants) {
  // One variant per side of the dichotomy that has a sparse alternative.
  EXPECT_STREQ(path_paradigm(PathId::CnnSparse), "cnn");
  EXPECT_STREQ(path_paradigm(PathId::SnnEventDriven), "snn");
  // Default is not a variant: it names "whatever the paradigm hard-codes".
  EXPECT_STREQ(path_paradigm(PathId::Default), "");
  EXPECT_EQ(routable("cnn"),
            (std::vector<PathId>{PathId::Default, PathId::CnnSparse}));
  EXPECT_EQ(routable("snn"),
            (std::vector<PathId>{PathId::Default, PathId::SnnEventDriven}));
  EXPECT_EQ(routable("gnn"), std::vector<PathId>{PathId::Default});
}

TEST(Route, PathNamesAreStable) {
  EXPECT_STREQ(path_name(PathId::Default), "default");
  EXPECT_STREQ(path_name(PathId::CnnSparse), "cnn.sparse");
  EXPECT_STREQ(path_name(PathId::SnnEventDriven), "snn.event_driven");
  EXPECT_STREQ(path_name(static_cast<PathId>(17)), "unknown");
  EXPECT_STREQ(path_name(static_cast<PathId>(200)), "unknown");
}

TEST(Route, PathByteCodecRoundTripsAndRejectsUnknownValues) {
  for (PathId id :
       {PathId::Default, PathId::CnnSparse, PathId::SnnEventDriven}) {
    const auto decoded = path_from_byte(static_cast<std::uint8_t>(id));
    ASSERT_TRUE(decoded.has_value()) << path_name(id);
    EXPECT_EQ(*decoded, id);
  }
  // Retired ids (1, 2, 8, 16, 17) decode as unknown, like any gap.
  for (std::uint8_t raw : {1, 2, 4, 5, 7, 8, 10, 16, 17, 18, 255}) {
    EXPECT_FALSE(path_from_byte(raw).has_value()) << static_cast<int>(raw);
  }
}

TEST(Route, PathValidityIsParadigmScoped) {
  // Default is installable on anything, even unlabeled legacy sessions.
  EXPECT_TRUE(path_valid_for(PathId::Default, "cnn"));
  EXPECT_TRUE(path_valid_for(PathId::Default, ""));
  EXPECT_TRUE(path_valid_for(PathId::CnnSparse, "cnn"));
  EXPECT_FALSE(path_valid_for(PathId::CnnSparse, "snn"));
  EXPECT_FALSE(path_valid_for(PathId::CnnSparse, ""));
  EXPECT_TRUE(path_valid_for(PathId::SnnEventDriven, "snn"));
  EXPECT_FALSE(path_valid_for(PathId::SnnEventDriven, "gnn"));
}

TEST(Route, RoutableIsDefaultPlusProvedOwnVariantsOnly) {
  // Every variant listed has a route.* oracle pinning it to Default.
  for (const char* paradigm : {"cnn", "snn", "gnn"}) {
    const std::vector<PathId> paths = routable(paradigm);
    ASSERT_FALSE(paths.empty());
    EXPECT_EQ(paths.front(), PathId::Default);
    for (size_t i = 1; i < paths.size(); ++i) {
      EXPECT_STREQ(path_paradigm(paths[i]), paradigm);
      EXPECT_TRUE(path_valid_for(paths[i], paradigm));
    }
  }
  // Unknown paradigms can only run their hard-coded behavior.
  EXPECT_EQ(routable("tpu"), std::vector<PathId>{PathId::Default});
  EXPECT_EQ(routable(""), std::vector<PathId>{PathId::Default});
}

TEST(Route, KillSwitchTogglesAndRestores) {
  const bool before = enabled();
  {
    ScopedRoute off(false);
    EXPECT_FALSE(enabled());
    {
      ScopedRoute on(true);
      EXPECT_TRUE(enabled());
    }
    EXPECT_FALSE(enabled());
  }
  EXPECT_EQ(enabled(), before);
}

TEST(Route, ScopedConvAlgoNestsAndRestoresThreadLocally) {
  EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Auto);
  {
    const nn::ScopedConvAlgo outer(nn::ConvAlgo::Gemm);
    EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Gemm);
    {
      const nn::ScopedConvAlgo inner(nn::ConvAlgo::Sparse);
      EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Sparse);
    }
    EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Gemm);
  }
  EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Auto);
}

TEST(Route, SessionAcceptsOwnParadigmPathsAndDeclinesOthers) {
  ParadigmSession cnn("cnn");
  EXPECT_EQ(cnn.paradigm(), "cnn");
  EXPECT_EQ(cnn.execution_path(), PathId::Default);
  EXPECT_TRUE(cnn.set_execution_path(PathId::CnnSparse));
  EXPECT_EQ(cnn.execution_path(), PathId::CnnSparse);
  // A foreign path is declined without disturbing the installed one.
  EXPECT_FALSE(cnn.set_execution_path(PathId::SnnEventDriven));
  EXPECT_EQ(cnn.execution_path(), PathId::CnnSparse);
  EXPECT_TRUE(cnn.set_execution_path(PathId::Default));
  EXPECT_EQ(cnn.execution_path(), PathId::Default);
}

TEST(Route, SetPlanRoutesSessionsByParadigmAndClearPlanResets) {
  runtime::SessionManager manager;
  std::vector<runtime::SessionId> ids;
  ids.push_back(manager.add(std::make_unique<ParadigmSession>("cnn")));
  ids.push_back(manager.add(std::make_unique<ParadigmSession>("snn")));
  ids.push_back(manager.add(std::make_unique<ParadigmSession>("cnn")));
  manager.set_plan(routed_plan(3));
  EXPECT_EQ(manager.session(ids[0]).execution_path(), PathId::CnnSparse);
  EXPECT_EQ(manager.session(ids[1]).execution_path(), PathId::SnnEventDriven);
  EXPECT_EQ(manager.session(ids[2]).execution_path(), PathId::CnnSparse);
  manager.clear_plan();
  for (const auto id : ids) {
    EXPECT_EQ(manager.session(id).execution_path(), PathId::Default);
  }
}

TEST(Route, RejectedPlanLeavesInstalledRoutesUntouched) {
  runtime::SessionManager manager;
  const auto id = manager.add(std::make_unique<ParadigmSession>("cnn"));
  manager.add(std::make_unique<ParadigmSession>("snn"));
  manager.set_plan(routed_plan(2));
  const std::vector<std::uint8_t> bytes = manager.plan_bytes();

  sched::Plan broken = routed_plan(2);
  broken.regions[0].entries[0].session = 9;  // structurally invalid
  EXPECT_THROW(manager.set_plan(broken), Error);
  // Atomicity: validation failed before any route was applied.
  EXPECT_EQ(manager.session(id).execution_path(), PathId::CnnSparse);
  EXPECT_EQ(manager.plan_bytes(), bytes);
  EXPECT_TRUE(manager.plan() == routed_plan(2));
}

TEST(Route, PlanBytesCarryRoutesIntoARestoredManager) {
  runtime::SessionManager source;
  source.add(std::make_unique<ParadigmSession>("cnn"));
  source.add(std::make_unique<ParadigmSession>("snn"));
  source.set_plan(routed_plan(2));

  runtime::SessionManager restored;
  const auto cnn_id =
      restored.add(std::make_unique<ParadigmSession>("cnn"));
  const auto snn_id =
      restored.add(std::make_unique<ParadigmSession>("snn"));
  restored.install_plan_bytes(source.plan_bytes());
  EXPECT_EQ(restored.session(cnn_id).execution_path(), PathId::CnnSparse);
  EXPECT_EQ(restored.session(snn_id).execution_path(), PathId::SnnEventDriven);
  EXPECT_EQ(restored.plan().placements[0].path, PathId::CnnSparse);
}

}  // namespace
}  // namespace evd::route
