#include "serve/serve_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ts::serve {

double percentile(const std::vector<double>& sorted, double q) {
  if (!std::isfinite(q) || q < 0.0 || q > 1.0)
    throw std::invalid_argument(
        "serve::percentile: q must be finite and within [0, 1], got " +
        std::to_string(q));
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  auto idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::min(std::max<std::size_t>(idx, 1), sorted.size());
  return sorted[idx - 1];
}

StreamStatsFold::StreamStatsFold(int num_models)
    : classes_(kNumPriorityClasses),
      models_(static_cast<std::size_t>(std::max(num_models, 1))) {}

void StreamStatsFold::add(const StreamResult& r) {
  for (Scope* sc : {&total_, &classes_[static_cast<std::size_t>(r.priority)],
                    &models_[static_cast<std::size_t>(r.model)]}) {
    if (r.ok()) {
      sc->waits.push_back(r.queue_wait_seconds);
      sc->e2es.push_back(r.e2e_seconds);
    } else {
      ++sc->failed;
    }
    if (r.attempts > 1) sc->retries += static_cast<std::size_t>(r.attempts - 1);
  }
  if (!r.ok()) return;
  sum_service_ += r.service_seconds;
  aggregate_ += r.timeline;
  if (r.attempts > 1) retry_waits_.push_back(r.retry_wait_seconds);
}

void StreamStatsFold::write(StreamStats& s) const {
  // StreamStats, PriorityClassStats and ModelStats share these fields by
  // name.
  const auto put = [](const Scope& sc, auto& out) {
    std::vector<double> w = sc.waits;
    std::vector<double> e = sc.e2es;
    std::sort(w.begin(), w.end());
    std::sort(e.begin(), e.end());
    out.completed = w.size();
    out.failed = sc.failed;
    out.retries = sc.retries;
    out.queue_wait_p50_seconds = percentile(w, 0.50);
    out.queue_wait_p90_seconds = percentile(w, 0.90);
    out.queue_wait_p99_seconds = percentile(w, 0.99);
    out.e2e_p50_seconds = percentile(e, 0.50);
    out.e2e_p90_seconds = percentile(e, 0.90);
    out.e2e_p99_seconds = percentile(e, 0.99);
  };
  put(total_, s);
  s.per_class.resize(classes_.size());
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    s.per_class[c].priority = static_cast<Priority>(c);
    put(classes_[c], s.per_class[c]);
  }
  s.per_model.resize(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m) {
    s.per_model[m].model = static_cast<int>(m);
    put(models_[m], s.per_model[m]);
  }
  std::vector<double> rw = retry_waits_;
  std::sort(rw.begin(), rw.end());
  s.retry_wait_p99_seconds = percentile(rw, 0.99);
  if (completed() > 0)
    s.mean_service_seconds = sum_service_ / static_cast<double>(completed());
  s.aggregate = aggregate_;
}

}  // namespace ts::serve
