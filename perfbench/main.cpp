// Repo benchmark binary: runs one named workload and prints every metric
// of the run's mode, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// the library calls, reports the per-layer metrics derived from them, and
// writes the spans as Chrome trace-event JSON to --trace-out. The exit
// code is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;
using perfbench::Tracer;

struct WorkloadEntry {
  const char* name;
  RunResult (*run)(const RunArgs&, Tracer&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"seg-numerics", perfbench::run_seg_numerics},
    {"det-costonly", perfbench::run_det_costonly},
    {"serve-steady", perfbench::run_serve_steady},
    {"serve-burst", perfbench::run_serve_burst},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\nworkloads:",
               why.c_str());
  for (const WorkloadEntry& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-out") {
        a.trace_path = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 120))
    usage("--seconds must be in (0, 120]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const RunArgs args = parse(argc, argv);
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads)
    if (args.workload == w.name) entry = &w;
  if (!entry) usage("unknown workload " + args.workload);

  Tracer tracer(args.trace);
  RunResult r;
  try {
    r = entry->run(args, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", entry->name, e.what());
    return 2;
  }

  // The run must report exactly its mode's metric list, in order.
  const auto& list = perfbench::metric_list(args.trace);
  bool complete = r.metrics.all().size() == list.size();
  for (std::size_t i = 0; complete && i < list.size(); ++i)
    complete = r.metrics.all()[i].name == list[i].name;
  if (!complete) {
    std::fprintf(stderr, "perfbench: %s reported an incomplete metric list\n",
                 entry->name);
    return 2;
  }
  if (tracer.nesting_errors() != 0) r.fail("trace spans did not nest");

  if (args.trace && !args.trace_path.empty()) {
    std::ofstream out(args.trace_path);
    out << tracer.chrome_json();
    if (!out) r.fail("could not write trace file " + args.trace_path);
    else
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  args.trace_path.c_str());
  }

  std::printf("%s seed=%llu seconds=%g trace=%d\n", entry->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const perfbench::Metric& m : r.metrics.all())
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-30s %14.6g ratio (%zu failed of %zu attempted)\n",
              "error_frac", r.ops.error_frac(), r.ops.failed, r.ops.attempted);
  for (const std::string& p : r.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("%s\n", perfbench::result_json(r).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
