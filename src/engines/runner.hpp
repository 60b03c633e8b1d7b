// Engine runner: executes a model under a (device, engine-config) pair
// and returns the modeled per-stage timeline. This is the single-request
// core that the serving runtime (src/serve) builds on: serving reuses
// make_run_context/run_in_context so batch results are bit-identical to
// the serial path by construction.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec.hpp"
#include "core/sparse_tensor.hpp"
#include "gpusim/device.hpp"
#include "tune/group_tuner.hpp"

namespace ts {

/// A model is anything that consumes a sparse tensor under a context
/// (MinkUNet::forward, CenterPoint::run, ...). Models must be safe to
/// invoke concurrently with *distinct* contexts: all spnn modules are,
/// because a forward pass only reads weights and mutates the per-call
/// context and tensor cache.
using ModelFn = std::function<void(const SparseTensor&, ExecContext&)>;

struct RunOptions {
  bool numerics = false;       // compute real feature values
  bool simulate_cache = true;  // L2 replay (vs analytic approximation)
  std::unordered_map<int, GroupParams> tuned;  // per-layer (epsilon, S)
  /// Optional cross-request kernel-map cache shared by every context built
  /// from these options (null = disabled). See core/kernel_map_cache.hpp;
  /// serving deployments size it via serve::ServerConfig::map_cache_bytes.
  std::shared_ptr<KernelMapCache> map_cache;
  /// Cache-digest namespace salt (ExecContext::cache_namespace): every
  /// digest resolved under these options is remapped by salt_cache_key.
  /// 0 (the default) is the identity — the legacy single-model digest
  /// space. Multi-model serving stamps per-request namespaces itself;
  /// set this only to isolate whole deployments sharing one cache.
  uint64_t cache_namespace = 0;
  /// Serve-path copy elision: when true, runners that own their inputs
  /// privately (the streaming queue does) move each input into the run
  /// via the rvalue run_in_context overload instead of deep-copying it
  /// (numerics) or keeping its features to the end of the session
  /// (cost-only). Never affects results — only host memory.
  bool borrow_input = false;
};

/// Deep-copies input with a fresh TensorCache, so every run rebuilds its
/// own maps (engines must not share mapping work). Numerics passes in
/// run_in_context start from this copy; cost-only passes need no features
/// and start from x.shape_with_fresh_cache() instead, which shares the
/// coordinates and copies nothing. Safe to call concurrently on the same
/// tensor (reads only).
SparseTensor fresh_input(const SparseTensor& x);

/// Builds the execution context for one inference pass — the shared setup
/// between run_model and the serving paths (src/serve). The returned
/// context is single-threaded state: never share one context between
/// concurrently running requests.
ExecContext make_run_context(const DeviceSpec& dev, const EngineConfig& cfg,
                             const RunOptions& opt = {});

/// Resets `ctx` for reuse on the next request: clears the accumulated
/// timeline, the L2 replay simulator, the current layer id, and the
/// deferred cache-event pointer, while keeping the cost model, engine
/// config, numerics/cache flags, tuned parameters, and the shared
/// kernel-map cache (warm maps survive across requests by design). After
/// reset_context, running a model yields the exact timeline a freshly
/// built context would — this is the serving runtime's context-reuse hook
/// (one context per worker, reset between requests, skipping repeated
/// cost-model and cache-simulator construction).
/// Precondition: no request is currently executing in `ctx`.
void reset_context(ExecContext& ctx);

/// Runs the model on `input` under a fresh TensorCache inside `ctx` and
/// returns the context's accumulated timeline: on a private copy of it
/// with numerics on, on its feature-less shape (shared coordinates, no
/// features) on a cost-only pass. `input` itself is never modified.
/// Throws std::invalid_argument, before copying anything, when numerics
/// are on and `input` has no features.
/// Exceptions from the model propagate unchanged; `ctx` is then
/// mid-request garbage and must be reset_context'ed (or discarded) before
/// reuse.
Timeline run_in_context(const ModelFn& model, const SparseTensor& input,
                        ExecContext& ctx);

/// Borrowing overload (RunOptions::borrow_input): consumes `input` —
/// stealing its storage into a tensor with a fresh TensorCache — instead
/// of deep-copying coordinates and features. A cost-only pass keeps only
/// its shape, as above, and frees its features before the model starts.
/// Identical results; use only when the caller owns `input` privately and
/// is done with it.
Timeline run_in_context(const ModelFn& model, SparseTensor&& input,
                        ExecContext& ctx);

/// One inference pass; returns the accumulated timeline. Deterministic:
/// the same (model, input, device, config, options) always produces a
/// bit-identical timeline, with libstdc++ (whose distributions draw the
/// synthetic scans and weights).
Timeline run_model(const ModelFn& model, const SparseTensor& input,
                   const DeviceSpec& dev, const EngineConfig& cfg,
                   const RunOptions& opt = {});

/// Executes the model over each input (cost-only, fast) and returns the
/// per-input conv-layer workload records — the tuner's sample set and the
/// Fig. 12 statistics.
std::vector<std::vector<LayerRecord>> record_workloads(
    const ModelFn& model, const std::vector<SparseTensor>& inputs,
    const DeviceSpec& dev, const EngineConfig& cfg);

/// Full Alg. 5 pass: record workloads on the samples, grid-search
/// (epsilon, S) per layer against the device cost model. Expensive (runs
/// every sample through the model); at serving scale, cache the result in
/// a serve::TunedParamStore instead of calling this per request.
std::unordered_map<int, GroupParams> tune_for(
    const ModelFn& model, const std::vector<SparseTensor>& samples,
    const DeviceSpec& dev, const EngineConfig& cfg);

}  // namespace ts
