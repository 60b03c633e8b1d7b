// Self-test of the benchmark's own helpers (bench.hpp): the percentile
// rule, SLO attainment, error_frac denominators, the JSON result line and
// the span tracer. Prints one line per failed check; exits 1 if any failed.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void percentile_rule() {
  using perfbench::tail_percentile;
  // p99 needs n - ceil(0.99 n) >= 10, i.e. n >= 1000.
  check(!tail_percentile(10).has_value(), "10 samples: no tail at all");
  const auto t20 = tail_percentile(20);
  check(t20 && t20->q == 0.5 && t20->beyond == 10 && t20->samples == 20,
        "20 samples: p50 with 10 beyond");
  const auto t100 = tail_percentile(100);
  check(t100 && t100->q == 0.9 && t100->beyond == 10,
        "100 samples: p90 with 10 beyond");
  const auto t999 = tail_percentile(999);
  check(t999 && t999->q == 0.9, "999 samples: still p90 (p99 has 9 beyond)");
  const auto t1000 = tail_percentile(1000);
  check(t1000 && t1000->q == 0.99 && t1000->beyond == 10 &&
            t1000->samples == 1000,
        "1000 samples: p99 with 10 beyond");
  const auto t10000 = tail_percentile(10000);
  check(t10000 && t10000->q == 0.999 && t10000->beyond == 10,
        "10000 samples: p99.9 with 10 beyond");
  check(tail_percentile(1000, 11)->q == 0.9, "min_beyond is honoured");

  using perfbench::nearest_rank;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  check(nearest_rank(xs, 0.5) == 5, "nearest-rank p50 of 1..10 is 5");
  check(nearest_rank(xs, 0.9) == 9, "nearest-rank p90 of 1..10 is 9");
  check(nearest_rank(xs, 0.0) == 1, "q = 0 is the minimum");
  check(nearest_rank(xs, 1.0) == 10, "q = 1 is the maximum");
  bool threw = false;
  try {
    nearest_rank({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "an empty sample throws");
  check(perfbench::median({3, 1, 2}) == 2, "median sorts its input");
}

void slo() {
  using perfbench::slo_attainment;
  check(slo_attainment({0.01, 0.02, 0.03, 0.2}, 0, 0, 0.05) == 0.75,
        "3 of 4 served within the limit");
  check(slo_attainment({0.01, 0.02}, 1, 1, 0.05) == 0.5,
        "failed and refused requests count as misses");
  check(slo_attainment({}, 2, 0, 0.05) == 0.0, "all failed: attainment 0");
  check(slo_attainment({}, 0, 0, 0.05) == 0.0, "nothing submitted: 0");
  check(slo_attainment({0.05}, 0, 0, 0.05) == 1.0, "the limit itself meets it");
}

void error_frac() {
  perfbench::OpCount ops;
  check(ops.error_frac() == 0.0, "empty run: error_frac 0");
  ops.record(true);
  ops.record(false);
  ops.record(true);
  ops.record(true);
  check(ops.attempted == 4 && ops.failed == 1, "every op counted once");
  check(ops.error_frac() == 0.25, "error_frac is failed over attempted");

  perfbench::RunResult r;
  r.ops = ops;
  check(!r.correct(), "a failed op makes the run incorrect");
  perfbench::RunResult clean;
  clean.ops.record(true);
  check(clean.correct(), "no failures, no problems: correct");
  clean.fail("digest mismatch");
  check(!clean.correct(), "a failed check makes the run incorrect");
}

void json() {
  perfbench::RunResult r;
  r.ops.record(true);
  r.metrics.set("latency_ms", 1.25, "ms");
  r.metrics.set("setup_s", 0.5, "s");
  r.metrics.set("latency_ms", 1.5, "ms");  // overwrite keeps the order
  const std::string s = perfbench::result_json(r);
  check(s == "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
        "result line has exactly the contract's keys");
  check(perfbench::json_number(0.1) == "0.10000000000000001",
        "numbers keep all their digits");
  check(perfbench::json_number(NAN) == "null", "non-finite numbers are null");
  check(perfbench::json_string("a\"b") == "\"a\\\"b\"", "strings are escaped");
}

void tracer() {
  perfbench::Tracer off(false);
  {
    perfbench::Span s(off, "x");
  }
  check(off.spans().empty(), "a disabled tracer records nothing");

  perfbench::Tracer t(true);
  {
    perfbench::Span outer(t, "outer", 7);
    perfbench::Span inner(t, "inner", 7);
  }
  check(t.spans().size() == 2, "two spans recorded");
  check(t.spans()[1].parent == 0 && t.spans()[0].parent == -1,
        "parents follow nesting");
  check(t.spans()[0].op == 7, "spans carry their op id");
  check(t.spans()[0].end_us >= t.spans()[1].end_us,
        "the outer span ends last");
  check(t.durations_ms("inner").size() == 1, "durations by name");
  const long long a = t.open("a");
  t.open("b");
  t.close(a);  // out of order
  check(t.nesting_errors() == 1, "out-of-order close is counted");
  const std::string j = t.chrome_json();
  check(j.find("\"traceEvents\"") != std::string::npos &&
            j.find("\"ph\": \"X\"") != std::string::npos,
        "chrome trace-event JSON");
}

}  // namespace

int main() {
  percentile_rule();
  slo();
  error_frac();
  json();
  tracer();
  std::printf("perfbench self-test: %s (%d failed)\n",
              failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
