#include "serve/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

namespace ts::serve {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// splitmix64 finalizer — bijective, well-mixed; used to derive
/// independent per-stream and per-frame seeds from one base seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of one engine draw.
/// Hand-rolled rather than std::uniform_real_distribution: the std
/// distribution algorithms are implementation-defined, and these
/// timestamps must be bit-identical on every standard library.
double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Unit-mean exponential variate by inversion. log1p keeps precision
/// for small u, and 1 - u > 0 always (u < 1), so the result is finite.
double exp_variate(std::mt19937_64& rng) {
  return -std::log1p(-uniform01(rng));
}

void check_field(bool ok, const char* what) {
  if (!ok)
    throw std::invalid_argument(std::string("generate_arrivals: ") + what);
}

/// Advances the clock from `t` by `need` seconds of ON time, skipping
/// OFF windows. Windows alternate ON (length `on`) / OFF (length
/// `off`) starting ON at t = -phase (i.e. `phase` shifts the pattern
/// left). Exact: the returned instant has consumed exactly `need`
/// seconds of ON time past `t`.
///
/// Termination: when `t` already sits on a window boundary within
/// rounding (fmod of a non-dyadic cycle can land a hair short of it),
/// the jump to that boundary is below half an ulp of `t` and leaves it
/// unchanged. Such a step marks `t` as the start of the next ON window
/// instead, so the following iteration consumes a whole window and `t`
/// reaches a strictly later boundary.
double advance_on_time(double t, double need, double on, double off,
                       double phase) {
  const double cycle = on + off;
  bool at_on_start = false;
  for (;;) {
    double pos = 0;
    if (!at_on_start) {
      pos = std::fmod(t + phase, cycle);
      if (pos < 0) pos += cycle;  // fmod keeps the dividend's sign
    }
    at_on_start = false;
    double next;
    if (pos < on) {
      const double avail = on - pos;
      if (need <= avail) return t + need;
      need -= avail;
      next = t + avail + off;  // jump over the OFF window that follows
    } else {
      next = t + (cycle - pos);  // inside an OFF window: jump to next ON
    }
    if (next > t)
      t = next;
    else
      at_on_start = true;  // already on the boundary within rounding
  }
}

}  // namespace

std::vector<double> generate_arrivals(const TrafficSpec& spec,
                                      std::size_t count,
                                      std::uint64_t seed) {
  check_field(std::isfinite(spec.rate_hz) && spec.rate_hz > 0,
              "rate_hz must be finite and > 0");
  if (spec.process == ArrivalProcess::kBursty) {
    check_field(std::isfinite(spec.on_seconds) && spec.on_seconds > 0,
                "on_seconds must be finite and > 0");
    check_field(std::isfinite(spec.off_seconds) && spec.off_seconds >= 0,
                "off_seconds must be finite and >= 0");
  }
  if (spec.process == ArrivalProcess::kDiurnal) {
    check_field(
        std::isfinite(spec.period_seconds) && spec.period_seconds > 0,
        "period_seconds must be finite and > 0");
    check_field(
        spec.trough_fraction >= 0 && spec.trough_fraction <= 1,
        "trough_fraction must be in [0, 1]");
  }
  if (spec.process != ArrivalProcess::kPoisson)
    check_field(std::isfinite(spec.phase_seconds) && spec.phase_seconds >= 0,
                "phase_seconds must be finite and >= 0");

  std::mt19937_64 rng(seed);
  std::vector<double> out;
  out.reserve(count);
  double t = 0;
  switch (spec.process) {
    case ArrivalProcess::kPoisson:
      while (out.size() < count) {
        t += exp_variate(rng) / spec.rate_hz;
        out.push_back(t);
      }
      break;
    case ArrivalProcess::kBursty:
      // Time-rescaling: each arrival consumes an exponential amount of
      // ON time; OFF windows pass instantaneously on the rescaled
      // clock. Exact for piecewise-constant rates — no thinning, every
      // draw becomes an arrival.
      while (out.size() < count) {
        t = advance_on_time(t, exp_variate(rng) / spec.rate_hz,
                            spec.on_seconds, spec.off_seconds,
                            spec.phase_seconds);
        out.push_back(t);
      }
      break;
    case ArrivalProcess::kDiurnal:
      // Thinning against the peak: candidates arrive at rate_hz, and a
      // candidate at time t survives with probability lambda(t) / peak.
      // Two draws per candidate, accepted or not, so the draw count —
      // and thus every accepted timestamp — is schedule-independent.
      while (out.size() < count) {
        t += exp_variate(rng) / spec.rate_hz;
        const double shape =
            spec.trough_fraction +
            (1 - spec.trough_fraction) * 0.5 *
                (1 - std::cos(2 * kPi * (t + spec.phase_seconds) /
                              spec.period_seconds));
        if (uniform01(rng) <= shape) out.push_back(t);
      }
      break;
  }
  return out;
}

std::size_t trace_length(const SequenceTraceSpec& spec) {
  if (spec.sequences <= 0 || spec.frames_per_sequence <= 0 ||
      spec.revisits <= 0)
    throw std::invalid_argument(
        "trace_length: sequences, frames_per_sequence, and revisits "
        "must all be > 0");
  return static_cast<std::size_t>(spec.sequences) *
         static_cast<std::size_t>(spec.frames_per_sequence) *
         static_cast<std::size_t>(spec.revisits);
}

TraceFrame trace_frame(const SequenceTraceSpec& spec, std::size_t k,
                       std::uint64_t seed) {
  const std::size_t total = trace_length(spec);  // validates the counts
  if (k >= total)
    throw std::invalid_argument(
        "trace_frame: k = " + std::to_string(k) +
        " out of range (trace emits " + std::to_string(total) +
        " frames)");
  const std::size_t frames =
      static_cast<std::size_t>(spec.frames_per_sequence);
  const std::size_t seqs = static_cast<std::size_t>(spec.sequences);
  std::size_t sequence, frame;
  if (!spec.shuffled) {
    // Coherent: sequence-major, frames in drive order, revisits of a
    // frame back to back.
    const std::size_t per_seq =
        frames * static_cast<std::size_t>(spec.revisits);
    sequence = k / per_seq;
    frame = (k % per_seq) / static_cast<std::size_t>(spec.revisits);
  } else {
    // Shuffled: revisit-major with sequences interleaved innermost —
    // repeats of one frame are maximally far apart in the emission.
    const std::size_t per_visit = frames * seqs;
    frame = (k % per_visit) / seqs;
    sequence = k % seqs;
  }
  // The tensor key is (seed, sequence, frame) alone: emission order (k,
  // shuffled) can reorder the stream but never change a frame's bytes.
  const std::uint64_t frame_seed =
      mix64(seed ^ mix64((static_cast<std::uint64_t>(sequence) << 32) |
                         static_cast<std::uint64_t>(frame)));
  TraceFrame out;
  out.sequence = static_cast<int>(sequence);
  out.frame = static_cast<int>(frame);
  out.input = make_input(spec.lidar, spec.voxels, frame_seed);
  return out;
}

std::vector<TimedSubmission> build_traffic_mix(
    const std::vector<ModelTraffic>& streams, std::uint64_t seed) {
  std::vector<TimedSubmission> out;
  std::size_t total = 0;
  for (const ModelTraffic& s : streams) total += s.count;
  out.reserve(total);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const ModelTraffic& s = streams[i];
    if (s.model < 0)
      throw std::invalid_argument(
          "build_traffic_mix: model ids must be >= 0");
    const int cls = static_cast<int>(s.priority);
    if (cls < 0 || cls >= kNumPriorityClasses)
      throw std::invalid_argument(
          "build_traffic_mix: invalid priority on stream " +
          std::to_string(i));
    // Independent per-stream seed: adding or reordering other streams
    // never perturbs this stream's arrivals.
    const std::vector<double> arrivals = generate_arrivals(
        s.arrivals, s.count, mix64(seed ^ mix64(i + 1)));
    for (std::size_t k = 0; k < arrivals.size(); ++k)
      out.push_back({arrivals[k], s.model, s.priority, i, k});
  }
  // Deterministic total order: arrival time, then stream, then
  // position. Exact double comparison is safe — the timestamps are
  // reproducible bit patterns, and the (stream, pos) tie-break decides
  // genuine collisions the same way on every host.
  std::sort(out.begin(), out.end(),
            [](const TimedSubmission& a, const TimedSubmission& b) {
              if (a.arrival_seconds != b.arrival_seconds)
                return a.arrival_seconds < b.arrival_seconds;
              if (a.stream != b.stream) return a.stream < b.stream;
              return a.stream_pos < b.stream_pos;
            });
  return out;
}

}  // namespace ts::serve
