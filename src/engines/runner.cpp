#include "engines/runner.hpp"

#include <utility>

namespace ts {

SparseTensor fresh_input(const SparseTensor& x) {
  return SparseTensor(x.coords(), x.feats());
}

ExecContext make_run_context(const DeviceSpec& dev, const EngineConfig& cfg,
                             const RunOptions& opt) {
  ExecContext ctx(dev, cfg);
  ctx.compute_numerics = opt.numerics;
  ctx.simulate_cache = opt.simulate_cache;
  ctx.tuned = opt.tuned;
  ctx.map_cache = opt.map_cache;
  ctx.cache_namespace = opt.cache_namespace;
  return ctx;
}

void reset_context(ExecContext& ctx) {
  ctx.timeline = Timeline{};
  ctx.l2.reset();
  ctx.layer_id = -1;
  ctx.cache_events = nullptr;
  // ctx.map_cache and ctx.cache_namespace are intentionally kept: warm
  // kernel maps are the point of sharing the cache across requests, and
  // the digest namespace belongs to the options the context was built
  // from (multi-model workers restamp it per request).
}

Timeline run_in_context(const ModelFn& model, const SparseTensor& input,
                        ExecContext& ctx) {
  if (ctx.compute_numerics) require_features(input, "run_in_context");
  const SparseTensor in = ctx.compute_numerics
                              ? fresh_input(input)
                              : input.shape_with_fresh_cache();
  model(in, ctx);
  return ctx.timeline;
}

Timeline run_in_context(const ModelFn& model, SparseTensor&& input,
                        ExecContext& ctx) {
  if (ctx.compute_numerics) require_features(input, "run_in_context");
  // Consumed either way: a cost-only pass frees the features before the
  // model starts, since nothing will read them.
  const SparseTensor in =
      ctx.compute_numerics
          ? std::move(input).with_fresh_cache()
          : std::exchange(input, SparseTensor()).shape_with_fresh_cache();
  model(in, ctx);
  return ctx.timeline;
}

Timeline run_model(const ModelFn& model, const SparseTensor& input,
                   const DeviceSpec& dev, const EngineConfig& cfg,
                   const RunOptions& opt) {
  ExecContext ctx = make_run_context(dev, cfg, opt);
  return run_in_context(model, input, ctx);
}

std::vector<std::vector<LayerRecord>> record_workloads(
    const ModelFn& model, const std::vector<SparseTensor>& inputs,
    const DeviceSpec& dev, const EngineConfig& cfg) {
  std::vector<std::vector<LayerRecord>> all;
  all.reserve(inputs.size());
  for (const SparseTensor& in : inputs) {
    ExecContext ctx(dev, cfg);
    ctx.compute_numerics = false;
    ctx.simulate_cache = false;  // recording needs sizes, not traffic
    std::vector<LayerRecord> records;
    ctx.recorder = &records;
    model(in.shape_with_fresh_cache(), ctx);
    all.push_back(std::move(records));
  }
  return all;
}

std::unordered_map<int, GroupParams> tune_for(
    const ModelFn& model, const std::vector<SparseTensor>& samples,
    const DeviceSpec& dev, const EngineConfig& cfg) {
  const auto records = record_workloads(model, samples, dev, cfg);
  const CostModel cost(dev);
  return tune_groups(records, cost, cfg.precision).params;
}

}  // namespace ts
