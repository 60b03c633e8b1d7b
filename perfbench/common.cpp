// Helpers shared by the offline and serving workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

void put(MetricSet& m, const std::string& name, double value) {
  for (const auto* list : {&kEndToEnd, &kPerLayer})
    for (const MetricDef& d : *list)
      if (name == d.name) {
        m.set(name, value, d.unit);
        return;
      }
  throw std::logic_error("put: unknown metric " + name);
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

ts::LidarSpec scaled(ts::LidarSpec spec, double scale) {
  spec.azimuth_steps = std::max(
      32, static_cast<int>(std::lround(spec.azimuth_steps * scale)));
  return spec;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& body) {
  std::mutex mu;
  std::size_t next = 0;
  std::exception_ptr error;
  auto worker = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= n || error) return;
        i = next++;
      }
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const int count = std::max(1, std::min<int>(threads, static_cast<int>(n)));
  pool.reserve(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

double timed_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    setup();
    secs.push_back(seconds_since(t0));
  }
  return median(secs);
}

void put_timeline(MetricSet& m, const ts::Timeline& sum, double ops) {
  using ts::Stage;
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  const std::pair<const char*, Stage> stages[] = {
      {"stage.mapping_ms", Stage::kMapping},
      {"stage.gather_ms", Stage::kGather},
      {"stage.scatter_ms", Stage::kScatter},
      {"stage.matmul_ms", Stage::kMatMul},
      {"stage.dense2d_ms", Stage::kDense2D},
      {"stage.nms_ms", Stage::kNMS},
      {"stage.misc_ms", Stage::kMisc}};
  for (const auto& [name, stage] : stages)
    put(m, name, sum.stage_seconds(stage) * 1e3 * per);
  put(m, "gpusim.dram_mb", sum.dram_bytes() / 1e6 * per);
  put(m, "gpusim.kernel_launches",
      static_cast<double>(sum.kernel_launches()) * per);
  put(m, "gpusim.matmul_tflops", sum.matmul_tflops());
}

bool same_outside_mapping(const ts::Timeline& a, const ts::Timeline& b) {
  for (std::size_t s = 0; s < ts::kNumStages; ++s) {
    const auto stage = static_cast<ts::Stage>(s);
    if (stage == ts::Stage::kMapping) continue;
    if (a.stage_seconds(stage) != b.stage_seconds(stage)) return false;
  }
  return a.flops() == b.flops();
}

bool same_timeline(const ts::Timeline& a, const ts::Timeline& b) {
  return same_outside_mapping(a, b) &&
         a.stage_seconds(ts::Stage::kMapping) ==
             b.stage_seconds(ts::Stage::kMapping) &&
         a.dram_bytes() == b.dram_bytes() &&
         a.kernel_launches() == b.kernel_launches();
}

}  // namespace perfbench
