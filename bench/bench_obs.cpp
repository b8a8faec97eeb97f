// Observability overhead bench: proves the tracer costs nothing when off.
//
// Four measurements:
//  1. micro: cost of a *disabled* RMSYN_SPAN in ns. The tracer and the
//     profiler share one span record, so the span ctor gate is one relaxed
//     load of their consumer mask + a branch, and this number covers both
//     consumers' disabled path; measured over tens of millions of
//     iterations;
//  2. micro: cost of one bucketed histogram observe_value() in ns — the
//     percentile machinery's per-sample price;
//  3. span + sample census: how many spans one traced Table-2 flow emits
//     and how many histogram samples its metrics collection records —
//     taken from a real traced run, not estimated;
//  4. macro: min-of-3 interleaved flow wall times with tracing off vs on,
//     plus an off-vs-profiled pair for the profiler's enabled cost.
//
// The gate combines 1-3: extrapolated disabled-site cost per flow
// (spans * ns_per_disabled_span + samples * ns_per_observe) must stay
// under --max-overhead percent (default 1%) of the plain flow wall time.
// The macro numbers are reported for context but not gated — enabling
// tracing or profiling is allowed to cost more; the contract is that
// *not* using them is free and that bucketed percentiles stay cheap.
//
// Emits a machine-readable BENCH_obs.json for CI tracking.
//
// Usage: bench_obs [--out file.json] [--max-overhead pct] [circuit ...]
//        (default: BENCH_obs.json, all Table-2 circuits, 1% gate;
//         --max-overhead 0 disables the gate for very noisy hosts)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Result {
  std::string name;
  double plain_seconds = 0.0;    // tracing disabled
  double traced_seconds = 0.0;   // tracing enabled, events recorded
  double profiled_seconds = 0.0; // profiler enabled, tracer off
  uint64_t spans = 0;            // events one traced run emitted
  uint64_t hist_samples = 0;     // histogram observations metrics collect
  std::size_t plain_lits = 0;
  std::size_t traced_lits = 0;
};

double run_once(const std::string& name, const rmsyn::FlowOptions& opt,
                std::size_t* lits_out, rmsyn::FlowRow* row_out = nullptr) {
  rmsyn::Stopwatch sw;
  rmsyn::FlowRow row = rmsyn::run_flow(name, opt);
  if (lits_out != nullptr) *lits_out = row.ours_lits;
  const double s = sw.seconds();
  if (row_out != nullptr) *row_out = std::move(row);
  return s;
}

/// Histogram observations one flow's metrics collection records (the
/// bucketed path: stage.* histograms, flow.row_seconds, rewrite phase
/// timings). This is the census the observe_value() micro-cost multiplies.
uint64_t hist_sample_census(const rmsyn::FlowRow& row) {
  const rmsyn::obs::MetricsRegistry m = rmsyn::collect_flow_metrics({row});
  uint64_t samples = 0;
  for (const auto& e : m.snapshot())
    if (e.v.kind == rmsyn::obs::MetricKind::Histogram) samples += e.v.count;
  return samples;
}

// Cost of one disabled span site. The span name is a runtime value so the
// compiler cannot fold the whole loop away; the check inside Span's ctor
// (one relaxed load) is exactly what every RMSYN_SPAN site pays when
// tracing is off.
double disabled_span_ns(uint64_t iters) {
  const char* volatile vname = "bench-disabled";
  rmsyn::Stopwatch sw;
  for (uint64_t i = 0; i < iters; ++i) {
    RMSYN_SPAN(vname);
  }
  const double s = sw.seconds();
  return 1e9 * s / static_cast<double>(iters);
}

// Cost of one bucketed observe_value(): bucket_for's log10 + the vector
// increment, over a spread of magnitudes so branch prediction cannot pin
// one bucket. Measured on a local MetricValue — same code path the
// registry's observe() takes under its lock.
double observe_value_ns(uint64_t iters) {
  rmsyn::obs::MetricValue h;
  h.kind = rmsyn::obs::MetricKind::Histogram;
  volatile double sink = 0.0;
  rmsyn::Stopwatch sw;
  for (uint64_t i = 0; i < iters; ++i) {
    h.observe_value(1e-6 * static_cast<double>((i % 1000) + 1));
  }
  const double s = sw.seconds();
  sink = h.sum;
  (void)sink;
  return 1e9 * s / static_cast<double>(iters);
}

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::string path = "BENCH_obs.json";
  double max_overhead_pct = 1.0;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) path = argv[++i];
    else if (arg == "--max-overhead" && i + 1 < argc)
      max_overhead_pct = std::atof(argv[++i]);
    else names.emplace_back(arg);
  }
  if (names.empty()) names = benchmark_names();

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.reset();

  obs::Profiler& prof = obs::Profiler::instance();
  prof.disable();
  prof.reset();

  // --- 1. micro: disabled-span cost (tracer AND profiler branch) ---------
  constexpr uint64_t kMicroIters = 50'000'000;
  double ns_per_span = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t = disabled_span_ns(kMicroIters);
    if (t < ns_per_span) ns_per_span = t;
  }
  std::printf("== Observability overhead ==\n");
  std::printf("disabled RMSYN_SPAN: %.3f ns/site (min of 3 x %lluM iters; "
              "covers tracer+profiler gate)\n",
              ns_per_span,
              static_cast<unsigned long long>(kMicroIters / 1'000'000));

  // --- 2. micro: bucketed histogram observe cost -------------------------
  constexpr uint64_t kObserveIters = 10'000'000;
  double ns_per_observe = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t = observe_value_ns(kObserveIters);
    if (t < ns_per_observe) ns_per_observe = t;
  }
  std::printf("bucketed observe_value: %.3f ns/sample (min of 3 x %lluM "
              "iters)\n",
              ns_per_observe,
              static_cast<unsigned long long>(kObserveIters / 1'000'000));

  // --- 3+4. per-circuit: span/sample census and off/on wall times ---------
  FlowOptions opt;
  opt.run_mapping = false;
  opt.run_power = false;

  constexpr int kReps = 3;
  std::vector<Result> results;
  for (const auto& name : names) {
    Result r;
    r.name = name;
    r.plain_seconds = 1e30;
    r.traced_seconds = 1e30;
    r.profiled_seconds = 1e30;
    // Interleave off/on so cache/frequency drift hits both equally.
    for (int rep = 0; rep < kReps; ++rep) {
      tracer.disable();
      FlowRow plain_row;
      const double tp = run_once(name, opt, &r.plain_lits, &plain_row);
      if (tp < r.plain_seconds) r.plain_seconds = tp;
      r.hist_samples = hist_sample_census(plain_row);

      tracer.reset();
      tracer.enable();
      const double tt = run_once(name, opt, &r.traced_lits);
      tracer.disable();
      if (tt < r.traced_seconds) r.traced_seconds = tt;
      r.spans = tracer.summary().events;
      tracer.reset();

      prof.reset();
      prof.enable();
      const double tf = run_once(name, opt, nullptr);
      prof.disable();
      if (tf < r.profiled_seconds) r.profiled_seconds = tf;
      prof.reset();
    }
    results.push_back(r);
  }

  std::printf("%-10s %10s %10s %10s %8s %8s %12s\n", "circuit", "off(s)",
              "on(s)", "prof(s)", "spans", "samples", "off-cost(%)");
  double sum_plain = 0, sum_traced = 0, sum_profiled = 0;
  uint64_t sum_spans = 0, sum_samples = 0;
  bool lits_match = true;
  double worst_disabled_pct = 0.0;
  for (const auto& r : results) {
    sum_plain += r.plain_seconds;
    sum_traced += r.traced_seconds;
    sum_profiled += r.profiled_seconds;
    sum_spans += r.spans;
    sum_samples += r.hist_samples;
    lits_match &= r.plain_lits == r.traced_lits;
    // Extrapolated cost of the disabled sites this circuit's flow passes:
    // every recorded span is one site that, when tracing is off, pays the
    // measured per-site cost, and every histogram sample pays the bucketed
    // observe cost (metrics are always collected).
    const double site_seconds =
        1e-9 * (ns_per_span * static_cast<double>(r.spans) +
                ns_per_observe * static_cast<double>(r.hist_samples));
    const double pct =
        r.plain_seconds > 0 ? 100.0 * site_seconds / r.plain_seconds : 0.0;
    if (pct > worst_disabled_pct) worst_disabled_pct = pct;
    std::printf("%-10s %10.4f %10.4f %10.4f %8llu %8llu %11.4f%%%s\n",
                r.name.c_str(), r.plain_seconds, r.traced_seconds,
                r.profiled_seconds, static_cast<unsigned long long>(r.spans),
                static_cast<unsigned long long>(r.hist_samples), pct,
                r.plain_lits == r.traced_lits ? "" : "  LITS DIFFER");
  }
  const double total_site_seconds =
      1e-9 * (ns_per_span * static_cast<double>(sum_spans) +
              ns_per_observe * static_cast<double>(sum_samples));
  const double disabled_pct =
      sum_plain > 0 ? 100.0 * total_site_seconds / sum_plain : 0.0;
  const double enabled_pct =
      sum_plain > 0 ? 100.0 * (sum_traced / sum_plain - 1.0) : 0.0;
  const double profiled_pct =
      sum_plain > 0 ? 100.0 * (sum_profiled / sum_plain - 1.0) : 0.0;
  std::printf("\nTotal: off %.3fs, traced %.3fs (+%.2f%%), profiled %.3fs "
              "(+%.2f%%)\n",
              sum_plain, sum_traced, enabled_pct, sum_profiled, profiled_pct);
  std::printf("Disabled-obs cost: %llu spans x %.3f ns + %llu samples x "
              "%.3f ns = %.1f us over %.3fs => %.4f%% (target < %.2f%%)\n",
              static_cast<unsigned long long>(sum_spans), ns_per_span,
              static_cast<unsigned long long>(sum_samples), ns_per_observe,
              1e6 * total_site_seconds, sum_plain, disabled_pct,
              max_overhead_pct);
  if (!lits_match)
    std::printf("WARNING: enabling the tracer changed a result — "
                "it must be observation-only\n");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"obs\",\n"
               "  \"disabled_span_ns\": %.4f,\n"
               "  \"observe_value_ns\": %.4f,\n"
               "  \"disabled_overhead_pct\": %.6f,\n"
               "  \"worst_circuit_overhead_pct\": %.6f,\n"
               "  \"enabled_overhead_pct\": %.3f,\n"
               "  \"profiled_overhead_pct\": %.3f,\n"
               "  \"plain_seconds\": %.6f,\n  \"traced_seconds\": %.6f,\n"
               "  \"profiled_seconds\": %.6f,\n"
               "  \"total_spans\": %llu,\n"
               "  \"total_hist_samples\": %llu,\n"
               "  \"results_identical\": %s,\n  \"results\": [\n",
               ns_per_span, ns_per_observe, disabled_pct, worst_disabled_pct,
               enabled_pct, profiled_pct, sum_plain, sum_traced, sum_profiled,
               static_cast<unsigned long long>(sum_spans),
               static_cast<unsigned long long>(sum_samples),
               lits_match ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"plain_seconds\": %.6f, "
                 "\"traced_seconds\": %.6f, \"profiled_seconds\": %.6f, "
                 "\"spans\": %llu, \"hist_samples\": %llu, "
                 "\"lits\": %zu}%s\n",
                 r.name.c_str(), r.plain_seconds, r.traced_seconds,
                 r.profiled_seconds, static_cast<unsigned long long>(r.spans),
                 static_cast<unsigned long long>(r.hist_samples),
                 r.traced_lits, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  // Gate: tracing-off must be free (extrapolated site cost under budget)
  // and observation-only (identical literal counts traced vs not).
  if (!lits_match) return 1;
  if (max_overhead_pct > 0.0 && disabled_pct > max_overhead_pct) {
    std::fprintf(stderr,
                 "FAIL: disabled-obs overhead %.4f%% exceeds the "
                 "%.2f%% budget\n",
                 disabled_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}
