#include <gtest/gtest.h>

#include "gnn/async_update.hpp"
#include "gnn/gnn_model.hpp"
#include "gnn/graph_builder.hpp"
#include "test_util.hpp"

namespace evd::gnn {
namespace {

EventGnnConfig tiny_config() {
  EventGnnConfig config;
  config.hidden = 8;
  config.layers = 2;
  config.num_classes = 2;
  return config;
}

/// Two synthetic graph families: tight clusters (label 0) vs long chains
/// (label 1) — separable from local geometry alone.
EventGraph make_cluster(Rng& rng) {
  EventGraph graph;
  for (Index i = 0; i < 20; ++i) {
    std::vector<Index> neighbors;
    for (Index j = std::max<Index>(0, i - 4); j < i; ++j) {
      neighbors.push_back(j);
    }
    graph.add_node({{static_cast<float>(rng.uniform(0, 2)),
                     static_cast<float>(rng.uniform(0, 2)),
                     static_cast<float>(i) * 0.05f},
                    1, i * 100},
                   std::move(neighbors));
  }
  return graph;
}

EventGraph make_chain(Rng& rng) {
  EventGraph graph;
  for (Index i = 0; i < 20; ++i) {
    std::vector<Index> neighbors;
    if (i > 0) neighbors.push_back(i - 1);
    graph.add_node({{static_cast<float>(i) * 2.0f +
                         static_cast<float>(rng.uniform(-0.2, 0.2)),
                     0.0f, static_cast<float>(i) * 0.05f},
                    1, i * 100},
                   std::move(neighbors));
  }
  return graph;
}

TEST(EventGnn, ForwardShapeAndDeterminism) {
  EventGnn model(tiny_config());
  Rng rng(1);
  const auto graph = make_cluster(rng);
  const nn::Tensor a = model.forward(graph, false);
  const nn::Tensor b = model.forward(graph, false);
  ASSERT_EQ(a.numel(), 2);
  EXPECT_FLOAT_EQ(a[0], b[0]);
}

TEST(EventGnn, EmptyGraphClassifiesFromBias) {
  EventGnn model(tiny_config());
  EventGraph empty;
  const nn::Tensor logits = model.forward(empty, false);
  EXPECT_EQ(logits.numel(), 2);
}

TEST(EventGnn, BackwardRequiresForward) {
  EventGnn model(tiny_config());
  EXPECT_THROW(model.backward(nn::Tensor({2})), std::logic_error);
}

TEST(EventGnn, ParamCountMatchesArchitecture) {
  EventGnn model(tiny_config());
  // conv1: 8*2 + 8*5 + 8; conv2: 8*8 + 8*11 + 8; head: 2*16 + 2.
  const Index expected = (8 * 2 + 8 * 5 + 8) + (8 * 8 + 8 * 11 + 8) +
                         (2 * 16 + 2);
  EXPECT_EQ(model.param_count(), expected);
}

TEST(EventGnn, FitSeparatesGraphFamilies) {
  EventGnn model(tiny_config());
  std::vector<EventGraph> graphs;
  std::vector<Index> labels;
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    if (i % 2 == 0) {
      graphs.push_back(make_cluster(rng));
      labels.push_back(0);
    } else {
      graphs.push_back(make_chain(rng));
      labels.push_back(1);
    }
  }
  GnnFitOptions options;
  options.epochs = 20;
  options.lr = 5e-3f;
  const auto report = fit_gnn(model, graphs, labels, options);
  EXPECT_GT(report.epoch_accuracy.back(), 0.9);
  EXPECT_GT(evaluate_gnn(model, graphs, labels), 0.9);
}

TEST(EventGnn, MismatchedFitInputsThrow) {
  EventGnn model(tiny_config());
  std::vector<EventGraph> graphs(2);
  std::vector<Index> labels = {0};
  EXPECT_THROW(fit_gnn(model, graphs, labels, GnnFitOptions{}),
               std::invalid_argument);
}

TEST(EventGnn, WorksOnRealEventGraphs) {
  EventGnn model(tiny_config());
  const auto stream = test::make_stream(16, 16, 500, 3);
  const EventGraph graph = build_graph(stream, GraphBuildConfig{});
  const nn::Tensor logits = model.forward(graph, false);
  EXPECT_EQ(logits.numel(), 2);
  for (Index i = 0; i < 2; ++i) EXPECT_TRUE(std::isfinite(logits[i]));
}

TEST(EventGnn, TrainedModelServesWithoutRederivingItsTransposedWeights) {
  EventGnn model(tiny_config());
  std::vector<EventGraph> graphs;
  std::vector<Index> labels;
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(i % 2 == 0 ? make_cluster(rng) : make_chain(rng));
    labels.push_back(i % 2);
  }
  GnnFitOptions options;
  options.epochs = 2;
  fit_gnn(model, graphs, labels, options);

  std::vector<std::uint64_t> before;
  for (Index l = 0; l < model.conv_count(); ++l) {
    before.push_back(model.conv(l).transposed_builds());
  }
  // Per-event serving: every insert projects and applies every layer.
  AsyncEventGnn async(model, /*bidirectional=*/false);
  const EventGraph& graph = graphs[0];
  for (Index i = 0; i < graph.node_count(); ++i) {
    std::vector<Index> neighbors(graph.neighbors(i).begin(),
                                 graph.neighbors(i).end());
    async.insert(graph.node(i), neighbors);
  }
  (void)model.param_count();  // the pipelines' cost profiles call this
  for (Index l = 0; l < model.conv_count(); ++l) {
    EXPECT_LE(model.conv(l).transposed_builds() -
                  before[static_cast<size_t>(l)],
              1u)
        << "layer " << l;
  }
}

TEST(EventGnn, WeightWrittenThroughAPublicHandleIsSeenByTheNextInsert) {
  EventGnn model(tiny_config());
  Rng rng(6);
  const EventGraph graph = make_cluster(rng);
  const auto logits_after_inserts = [&] {
    AsyncEventGnn async(model, /*bidirectional=*/false);
    for (Index i = 0; i < graph.node_count(); ++i) {
      std::vector<Index> neighbors(graph.neighbors(i).begin(),
                                   graph.neighbors(i).end());
      async.insert(graph.node(i), neighbors);
    }
    return async.logits();
  };
  const nn::Tensor original = logits_after_inserts();
  for (nn::Param* p : model.conv(0).params()) p->value.zero();
  const nn::Tensor zeroed = logits_after_inserts();
  // A zeroed first layer feeds only zeros forward: the logits come from
  // the later biases alone, so they differ from the original ones.
  EXPECT_NE(original.vec(), zeroed.vec());
}

}  // namespace
}  // namespace evd::gnn
