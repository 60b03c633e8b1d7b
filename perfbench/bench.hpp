// Shared helpers of the repo benchmark: the metric set and its JSON line,
// the percentile rule, SLO and error accounting, the span tracer, and the
// per-run options every workload receives.
//
// Everything here is header-only and free of library dependencies so the
// self-test binary (selftest.cpp) can cover it without building src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Run options and results
// ---------------------------------------------------------------------

/// Command-line options of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON (empty =
  /// do not write a file).
  std::string trace_path;
};

/// One named metric value with its unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list. `set` overwrites an existing name, so a workload
/// can first zero-fill the whole per-layer list and then fill in the
/// layers it exercises.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Operation accounting behind `attempted`, `failed` and error_frac. An
/// operation is one scan (offline) or one submitted request (serving);
/// it fails when it threw, resolved with a ServeError, was refused at
/// admission, or failed its output check — each operation counts once
/// however many of those happened to it.
struct OpCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Failed operations over attempted operations; 0 for an empty run.
  double error_frac() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

/// The outcome of one workload run: every metric plus the correctness
/// verdict. `correct` is false when any output check failed, and
/// `problems` says which.
struct RunResult {
  MetricSet metrics;
  OpCount ops;
  std::vector<std::string> problems;

  void fail(const std::string& why) { problems.push_back(why); }
  bool correct() const { return problems.empty() && ops.failed == 0; }
};

/// Formats a double for JSON with every significant digit (17 places
/// round-trip a binary64 exactly). Non-finite values have no JSON form and
/// are written as null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Escapes a string for a JSON string literal.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics` (each metric as {"value", "unit"}).
inline std::string result_json(const RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.ops.attempted);
  s += ", \"failed\": " + std::to_string(r.ops.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics.all()) {
    if (!first) s += ", ";
    first = false;
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

// ---------------------------------------------------------------------
// Percentiles and SLO accounting
// ---------------------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the element of
/// 1-based rank max(ceil(q * n), 1). The same definition the serving
/// layer's StreamStats use, so values computed here agree with them bit
/// for bit. Throws std::invalid_argument on an empty sample or q outside
/// [0, 1].
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("nearest_rank: q outside [0, 1]");
  const double n = static_cast<double>(sorted.size());
  const std::size_t rank =
      std::max<std::size_t>(static_cast<std::size_t>(std::ceil(q * n)), 1);
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// Median of an unsorted sample (nearest rank, so always a sample value).
inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return nearest_rank(xs, 0.5);
}

/// A reported tail percentile together with the sample it came from.
struct TailPercentile {
  double q = 0;               // e.g. 0.99
  std::size_t samples = 0;    // sample count n
  std::size_t beyond = 0;     // samples ranked strictly above it
};

/// The percentile rule: of the ladder p50 < p90 < p99 < p99.9, the
/// highest percentile that still has at least `min_beyond` samples ranked
/// beyond it (n - rank >= min_beyond). Returns nullopt when even the
/// median has fewer — the sample is too small to report any tail.
inline std::optional<TailPercentile> tail_percentile(
    std::size_t n, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.9, 0.5};
  for (double q : kLadder) {
    const std::size_t rank = std::max<std::size_t>(
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1);
    if (rank <= n && n - rank >= min_beyond)
      return TailPercentile{q, n, n - rank};
  }
  return std::nullopt;
}

/// Share of submitted requests that met a latency limit. `served_latency`
/// holds the latency of every request that was served; `failed` requests
/// (resolved with an error) and `refused` ones (rejected at admission)
/// have no latency and count as misses. The denominator is every
/// submission. Returns 0 when nothing was submitted.
inline double slo_attainment(const std::vector<double>& served_latency,
                             std::size_t failed, std::size_t refused,
                             double limit) {
  const std::size_t submitted = served_latency.size() + failed + refused;
  if (submitted == 0) return 0.0;
  std::size_t met = 0;
  for (double l : served_latency)
    if (l <= limit) ++met;
  return static_cast<double>(met) / static_cast<double>(submitted);
}

// ---------------------------------------------------------------------
// Wall clock and tracing
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One recorded span. Times are microseconds since the tracer's origin;
/// `parent` is the index of the enclosing span (-1 at top level) and `op`
/// the scan or request id the span belongs to (-1 for none).
struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  long long parent = -1;
  long long op = -1;
};

/// In-memory span recorder for the traced run. Spans are recorded only
/// from the benchmark's own thread, around calls into the library, and
/// kept in memory until the run ends. When disabled, opening a span
/// costs one branch and records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = false)
      : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  long long open(const std::string& name, long long op = -1) {
    if (!enabled_) return -1;
    const long long parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_us(), 0, parent, op});
    const long long idx = static_cast<long long>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
  }

  /// Closes the innermost open span. Closing any other span is a nesting
  /// error: it is counted (see nesting_errors) and the span stays open.
  void close(long long idx) noexcept {
    if (idx < 0) return;
    if (stack_.empty() || stack_.back() != idx) {
      ++nesting_errors_;
      return;
    }
    spans_[static_cast<std::size_t>(idx)].end_us = now_us();
    stack_.pop_back();
  }

  std::size_t nesting_errors() const { return nesting_errors_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations in milliseconds of every closed span named `name`.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_)
      if (s.name == name && s.end_us >= s.start_us)
        out.push_back((s.end_us - s.start_us) / 1e3);
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events), which Perfetto and
  /// chrome://tracing open directly.
  std::string chrome_json() const {
    std::string s = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& r = spans_[i];
      s += "{\"name\": " + json_string(r.name) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           json_number(r.start_us) +
           ", \"dur\": " + json_number(r.end_us - r.start_us) +
           ", \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(r.parent) +
           ", \"op\": " + std::to_string(r.op) + "}}";
      s += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    return s + "], \"displayTimeUnit\": \"ms\"}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<long long> stack_;
  std::size_t nesting_errors_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& t, const std::string& name, long long op = -1)
      : tracer_(t), idx_(t.open(name, op)) {}
  ~Span() { tracer_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  long long idx_;
};

// ---------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------

/// Normalises wall-clock metrics for host-speed drift. Shared hosts change
/// speed by up to 1.5x from one minute to the next (clock scaling,
/// neighbours on the shared last-level cache), which would swamp any real
/// change in the library.
/// A fixed kernel — a dense GEMM plus a random gather over a table larger
/// than L2, the two shapes of the library's host numerics — is timed
/// between the measured operations, and every end-to-end wall metric is
/// scaled to the *reference host* on which that kernel takes
/// kReferenceMs. The kernel is part of the benchmark, never of the
/// library, so no library change can move it.
class Calibrator {
 public:
  /// Kernel time on the reference host (the median on a 4-vCPU Xeon VM
  /// at 2.0 GHz).
  static constexpr double kReferenceMs = 8.0;

  Calibrator()
      : a_(kN * kN), b_(kN * kN), c_(kN * kN), table_(kTable), idx_(kGathers) {
    uint64_t s = 0x243f6a8885a308d3ull;
    auto next = [&s] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return s >> 33;
    };
    for (float& x : a_) x = static_cast<float>(next() % 1000) * 1e-3f;
    for (float& x : b_) x = static_cast<float>(next() % 1000) * 1e-3f;
    for (float& x : table_) x = static_cast<float>(next() % 1000) * 1e-3f;
    for (uint32_t& i : idx_) i = static_cast<uint32_t>(next() % kTable);
  }

  /// Times the kernel `reps` times and keeps every sample. With
  /// `threads` > 1 each sample runs one kernel per thread concurrently and
  /// records the wall time of the whole batch — the calibration for work
  /// that itself runs on that many threads, whose speed is an average over
  /// the cores it lands on.
  void sample(int reps = 1, int threads = 1) {
    for (int r = 0; r < reps; ++r) {
      const Clock::time_point t0 = Clock::now();
      if (threads <= 1) {
        kernel(c_);
      } else {
        std::vector<std::vector<float>> outs(
            static_cast<std::size_t>(threads), std::vector<float>(kN * kN));
        std::vector<std::thread> pool;
        for (auto& out : outs) pool.emplace_back([this, &out] { kernel(out); });
        for (std::thread& t : pool) t.join();
      }
      ms_.push_back(seconds_since(t0) * 1e3);
    }
  }

  /// Median kernel time over every sample (kReferenceMs when none).
  double median_ms() const { return ms_.empty() ? kReferenceMs : median(ms_); }

  /// Multiplier that turns a measured duration into reference-host time
  /// (and divides a measured rate).
  double to_reference() const { return kReferenceMs / median_ms(); }

 private:
  static constexpr std::size_t kN = 160;                 // GEMM side
  static constexpr std::size_t kTable = std::size_t(1) << 22;  // 16 MiB
  static constexpr std::size_t kGathers = std::size_t(1) << 20;

  /// The timed work: out = A * B, then a random gather over the table.
  /// Reads only shared state, so concurrent calls with distinct `out`
  /// buffers are safe.
  void kernel(std::vector<float>& out) const {
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::size_t i = 0; i < kN; ++i)
      for (std::size_t k = 0; k < kN; ++k) {
        const float av = a_[i * kN + k];
        for (std::size_t j = 0; j < kN; ++j)
          out[i * kN + j] += av * b_[k * kN + j];
      }
    float acc = 0;
    for (uint32_t i : idx_) acc += table_[i];
    out[0] += acc;  // keeps the gather observable through `out`
  }

  std::vector<float> a_, b_, c_, table_;
  std::vector<uint32_t> idx_;
  std::vector<double> ms_;
};

/// Mean of a sample; 0 for an empty one.
inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

}  // namespace perfbench
