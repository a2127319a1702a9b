// Multi-layer spiking network trained with surrogate-gradient BPTT
// (paper §III-A [30]).
//
// Architecture: L-1 spiking LIF layers followed by a non-spiking leaky
// integrator readout; the logits are the time-averaged readout membrane
// potentials (a membrane-potential loss, [30]). Hidden spikes are binary, so
// forward synaptic work is pure *additions* gated by spikes — the property
// the paper's energy argument rests on — and is counted as such through the
// OpCounter.
//
// Backward implements truncation-free BPTT with the reset path detached
// (standard surrogate-gradient practice): for each spiking layer
//   dL/dV[t] = dL/ds[t] * sg'(V[t] - theta) + beta * dL/dV[t+1].
#pragma once

#include <span>
#include <vector>

#include "common/derived_cache.hpp"
#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "snn/encoding.hpp"
#include "snn/lif.hpp"
#include "snn/surrogate.hpp"

namespace evd::snn {

struct SpikingNetConfig {
  std::vector<Index> layer_sizes;  ///< {input, hidden..., output}.
  LifConfig lif;                   ///< Hidden-layer dynamics.
  float readout_beta = 0.95f;      ///< Output integrator leak.
  SurrogateKind surrogate = SurrogateKind::FastSigmoid;
  float surrogate_slope = 2.0f;
};

/// Persistent layer state for streaming (stateful stepping) mode.
///
/// Everything step() mutates lives here, not in the net: concurrent
/// sessions share one SpikingNet (const parameters) and each brings its own
/// SnnState, so stepping different states from different threads is safe.
struct SnnState {
  std::vector<std::vector<float>> membrane;  ///< Per layer (incl. readout).
  std::vector<float> readout_sum;            ///< Accumulated readout logits.
  Index steps_seen = 0;
  Index step_hidden_spikes = 0;  ///< Hidden spikes in the most recent step().

  // Per-step scratch, sized by make_state() so that step_into() allocates
  // nothing. Not part of the neuron state: checkpoints skip it, and its
  // contents are meaningless between steps (except `logits`, which holds
  // the latest step's running logits).
  std::vector<Index> spikes_a, spikes_b;  ///< Ping-pong layer spike lists.
  /// Clocked path, layers of two or more neuron chunks: spikes of each
  /// chunk, concatenated in chunk order.
  std::vector<std::vector<Index>> chunk_spikes;
  std::vector<float> logits;  ///< Running logits [output_size].
};

class SpikingNet {
 public:
  SpikingNet(SpikingNetConfig config, Rng& rng);

  /// Full-sequence forward; returns logits [output_size]. When `train`,
  /// caches membrane and spike trajectories for backward().
  nn::Tensor forward(const SpikeTrain& input, bool train);

  /// BPTT given dL/dlogits; accumulates parameter gradients.
  void backward(const nn::Tensor& grad_logits);

  std::vector<nn::Param*> params();
  Index param_count();

  /// Hidden spike count of the most recent forward (activity metric).
  Index last_hidden_spikes() const noexcept { return last_hidden_spikes_; }
  /// Mean hidden spikes per neuron per step in the last forward.
  double last_spike_density() const noexcept { return last_density_; }

  // ---- Streaming (stateful) mode ----
  SnnState make_state() const;

  /// Advance one timestep with the given active input indices and return
  /// the current running logits (time-averaged readout membrane), held in
  /// `state.logits`. `event_driven` selects the stepping discipline (see
  /// step_event()); both give bitwise-identical results. Every buffer lives
  /// in `state`, so a step allocates nothing once make_state() has sized it
  /// — the streaming sessions' per-timestep path.
  std::span<const float> step_into(SnnState& state,
                                   std::span<const Index> input_spikes,
                                   bool event_driven);

  /// step_into(state, input_spikes, false) as a Tensor (training, tests
  /// and oracles).
  nn::Tensor step(SnnState& state, const std::vector<Index>& input_spikes);

  /// Event-driven stepping: the same timestep arithmetic as step(), but
  /// each layer runs as ONE spike-driven kernel call on the calling thread
  /// instead of a fork-join over neuron chunks with per-chunk spike-list
  /// concatenation. Bitwise-identical to step() by construction — neurons
  /// are independent, the kernel's full-range spike emission equals the
  /// chunked emission concatenated in ascending order, and the readout is
  /// shared code — which the route.snn_clocked_vs_event oracle enforces at
  /// ULP 0. The win is scheduling, not arithmetic: no pool dispatch or
  /// barrier per layer and no per-chunk vector churn, which is what makes
  /// it the right path for sparse, latency-sensitive streams (the paper's
  /// event-driven execution style).
  /// As a Tensor, like step().
  nn::Tensor step_event(SnnState& state,
                        const std::vector<Index>& input_spikes);

  const SpikingNetConfig& config() const noexcept { return config_; }
  Index layer_count() const noexcept {
    return static_cast<Index>(weights_.size());
  }
  /// Mutable handles. weight() bumps the parameter's version, so the next
  /// step re-derives the transposed weights once (see DerivedCache).
  nn::Param& weight(Index l) {
    nn::Param& w = weights_.at(static_cast<size_t>(l));
    ++w.version;
    return w;
  }
  nn::Param& bias(Index l) { return biases_.at(static_cast<size_t>(l)); }
  /// How many times the transposed weights have been derived.
  std::uint64_t transposed_builds() const noexcept {
    return weights_t_.builds();
  }

 private:
  SpikingNetConfig config_;
  std::vector<nn::Param> weights_;
  std::vector<nn::Param> biases_;

  /// Build/refresh and return the transposed weight copies.
  const std::vector<std::vector<float>>& ensure_transposed();

  /// Shared readout tail of both stepping disciplines: leaky output-membrane
  /// update from the last hidden layer's spikes, running-average logits
  /// into state.logits.
  void readout(SnnState& state, std::span<const Index> spikes_in);

  // Per-layer transposed ([in][out]) weight copies feeding the LIF kernel's
  // contiguous-streaming path (simd::lif_step_block's w_t): the per-spike
  // synapse fetch becomes a sequential row read instead of a strided gather
  // through the row-major matrix. See DerivedCache for the versioned
  // rebuild protocol.
  DerivedCache<std::vector<std::vector<float>>> weights_t_;

  // Training caches (valid after forward(train=true)).
  Index cached_steps_ = 0;
  std::vector<std::vector<std::vector<Index>>> cached_spikes_;  ///< [layer][t]
  std::vector<nn::Tensor> cached_membrane_;  ///< [hidden layer] -> [T, n]
  SpikeTrain cached_input_copy_;

  Index last_hidden_spikes_ = 0;
  double last_density_ = 0.0;
};

struct SnnFitOptions {
  Index epochs = 10;
  float lr = 2e-3f;
  std::uint64_t shuffle_seed = 1;
  float grad_clip = 5.0f;
  bool verbose = false;
};

struct SnnFitReport {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_accuracy;
};

SnnFitReport fit_snn(SpikingNet& net, std::span<const SpikeTrain> inputs,
                     std::span<const Index> labels,
                     const SnnFitOptions& options);

double evaluate_snn(SpikingNet& net, std::span<const SpikeTrain> inputs,
                    std::span<const Index> labels);

}  // namespace evd::snn
