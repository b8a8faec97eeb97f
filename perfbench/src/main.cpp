// rmbench — the rmsyn benchmark. Runs one workload in this process and
// prints one JSON object (metrics, per-circuit QoR records, checks) as its
// last line; perfbench/run.py builds this program, runs it, applies the
// cross-run determinism gate and prints the final result line.
//
//   rmbench --workload W --seed N --seconds S --trace 0|1
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   table2        the 41 Table-2 rows through run_flow, serially
//   table2-jobs4  the same rows through BatchRunner at 4 workers
//   arith-gen     FPRM flow only on adder32/adder64/mult6/mult7
//   scale         AIGER read, rewrite, map and fault simulation on mult64,
//                 adder1024 and the 41 Table-2 specs
//
// The timed section runs whole passes over the workload's circuits until
// --seconds have passed and reports the median pass. Set-up (spec
// generation, library parsing, AIGER writing) is repeated at least three
// times and for at least kSetupMinSeconds, split around the timed section,
// and its fastest repetition reported. With
// --trace 1 the run then replays each circuit twice, once untraced and
// once with spans around every public call, and reports per-layer metrics
// instead of end-to-end ones.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "flow/flow.hpp"
#include "mapping/genlib.hpp"
#include "mapping/mapper.hpp"
#include "network/io.hpp"
#include "network/simulate.hpp"
#include "network/stats.hpp"
#include "obs/json.hpp"
#include "rewrite/database.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/batch.hpp"
#include "testability/faults.hpp"

#include "reference.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace rmbench {
namespace {

using namespace rmsyn;

constexpr std::size_t kSetupMinReps = 3;
constexpr double kSetupMinSeconds = 0.5;
/// Seeded random patterns per circuit for the scale workload's fault
/// simulation.
constexpr std::size_t kFaultPatterns = 1024;
const char* const kArithCircuits[] = {"adder32", "adder64", "mult6", "mult7"};
/// The scale workload's large arithmetic circuits; the Table-2 specs follow
/// them, because rewriting commits replacements on those and on these none.
const char* const kScaleCircuits[] = {"mult64", "adder1024"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: metrics, per-circuit QoR records for the
/// determinism gate, and every check that failed.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> qor;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> pass_walls;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& what) { errors.push_back(what); }
};

double seconds_since(uint64_t t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string data_file(const char* name) {
  return std::string(RMBENCH_DATA_DIR) + "/" + name;
}

/// Times repeated set-ups, some before the timed section and some after
/// it, so they sample the machine at both ends of the run. The set-up is
/// deterministic, so the inputs it leaves behind are the same.
class SetupTimer {
public:
  explicit SetupTimer(std::function<void()> fn) : fn_(std::move(fn)) {
    run(kSetupMinReps - 1);
  }
  /// Runs the remaining set-ups; returns the fastest. On a shared host the
  /// median of a sub-millisecond set-up (arith-gen, scale) moved by up to
  /// 50 % between two sets of runs of the same code, while the fastest
  /// repetition, the cost of the work itself, stayed within 10 %.
  double finish() {
    run(1);
    return *std::min_element(times_.begin(), times_.end());
  }

private:
  void run(std::size_t min_reps) {
    const uint64_t start = now_ns();
    for (std::size_t i = 0;
         i < min_reps || seconds_since(start) < kSetupMinSeconds / 2; ++i) {
      const uint64_t t0 = now_ns();
      fn_();
      times_.push_back(seconds_since(t0));
    }
  }
  std::function<void()> fn_;
  std::vector<double> times_;
};

struct Timed {
  std::vector<double> walls; ///< one per pass
  /// Peak RSS after set-up and the first pass. Later passes add only
  /// allocator fragmentation, which on table2-jobs4 depends on which
  /// worker ran which row.
  double rss_mb = 0.0;
};

/// Runs `pass()` until --seconds have passed, at least once; a traced run
/// needs only one untraced pass to compare its replay against.
Timed timed_passes(const Args& args, const std::function<void()>& pass) {
  Timed t;
  const uint64_t start = now_ns();
  do {
    const uint64_t t0 = now_ns();
    pass();
    t.walls.push_back(seconds_since(t0));
    if (t.walls.size() == 1) t.rss_mb = peak_rss_mb();
  } while (!args.trace && seconds_since(start) < args.seconds);
  return t;
}

/// Calls fn(i) for i in [0, n) on `threads` threads; exceptions are
/// reported per index through `errors`.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn,
                  std::vector<std::string>& errors) {
  errors.assign(n, "");
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        fn(i);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
}

std::string columns_text(const Columns& c) {
  return std::to_string(c.ours_lits) + " " + std::to_string(c.ours_gates) +
         " " + std::to_string(c.ours_map_lits) + " " + num(c.ours_power) +
         " | " + std::to_string(c.base_lits) + " " +
         std::to_string(c.base_gates) + " " + std::to_string(c.base_map_lits) +
         " " + num(c.base_power);
}

struct ReplayWalls {
  double untraced = 0.0;
  double traced = 0.0;
  ReplayWalls& operator+=(const ReplayWalls& o) {
    untraced += o.untraced;
    traced += o.traced;
    return *this;
  }
};

/// Runs `replay(traced)` of circuit `index` on this thread once with
/// tracing off and once with it on. Both runs execute the same code, so
/// the difference of their walls is what recording the spans costs, plus
/// the host's noise. Pairing per circuit keeps the host's drift over
/// minutes out of it, and alternating which run goes first cancels the
/// second run's warmer caches and heap.
ReplayWalls replay_pair(std::size_t index,
                        const std::function<void(bool traced)>& replay) {
  ReplayWalls w;
  const auto timed = [&](bool traced) {
    if (traced) set_tracing(true);
    const uint64_t t0 = now_ns();
    replay(traced);
    (traced ? w.traced : w.untraced) = seconds_since(t0);
    set_tracing(false);
  };
  const bool traced_first = index % 2 == 1;
  timed(traced_first);
  timed(!traced_first);
  return w;
}

/// Per-layer metrics from the spans and counters of a traced run; `walls`
/// sums the replay's circuits.
void report_layers(Outcome& out, const ReplayWalls& walls) {
  static const char* const kSpanLayers[] = {
      "bdd.output_bdds",          "fdd.best_polarity",
      "fdd.best_polarity_multi",  "fdd.build_ofdd",
      "fdd.rm_spectrum",          "fdd.extract_fprm",
      "core.factor_cubes",        "core.factor_ofdd",
      "core.resub_merge",         "core.remove_xor_redundancy",
      "equiv.check_equivalence",  "baseline.baseline_synthesize",
      "baseline.flatten",         "sop.espresso_lite",
      "rewrite.rewrite_network",  "testability.fault_simulate",
      "network.read_aiger",       "mapping.map_network",
      "power.estimate_power",     "core.synthesize",
      "core.pi_order",            "core.remap_forms",
      "core.free_forms",          "bdd.manager",
      "network.strash",           "network.stats",
      "flow.row"};
  const SpanSummary sum = summarize(collect_spans());
  const auto self = [&](const std::string& name) {
    const auto it = sum.self_s.find(name);
    return it == sum.self_s.end() ? 0.0 : it->second;
  };
  for (const char* name : kSpanLayers)
    out.set(std::string(name) + ".s", self(name), "s");
  out.set("baseline.rest.s",
          self("baseline.baseline_synthesize") - self("baseline.flatten") -
              self("sop.espresso_lite"),
          "s");
  const auto total = [&](const std::string& name) {
    const auto it = sum.total_s.find(name);
    return it == sum.total_s.end() ? 0.0 : it->second;
  };

  const auto c = counters();
  const auto get = [&](const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  out.set("bdd.peak_live_nodes", get("bdd.peak_live_nodes"), "count");
  out.set("bdd.cache_hit_rate",
          ratio(get("bdd.cache_hits"), get("bdd.cache_lookups")), "ratio");
  out.set("bdd.gc_runs", get("bdd.gc_runs"), "count");
  out.set("fdd.fprm_cubes", get("fdd.fprm_cubes"), "count");
  out.set("core.redundancy.exact_checks", get("core.redundancy.exact_checks"),
          "count");
  out.set("core.redundancy.yield",
          ratio(get("core.redundancy.reductions"),
                get("core.redundancy.exact_checks")),
          "ratio");
  out.set("baseline.flatten.aborts", get("baseline.flatten.aborts"), "count");
  out.set("baseline.flatten.abort_s", get("baseline.flatten.abort_s"), "s");
  out.set("sop.espresso_lite.cubes_in", get("sop.espresso_lite.cubes_in"),
          "count");
  out.set("sop.espresso_lite.cubes_out", get("sop.espresso_lite.cubes_out"),
          "count");
  out.set("rewrite.cuts_enumerated", get("rewrite.cuts_enumerated"), "count");
  out.set("rewrite.replacements", get("rewrite.replacements"), "count");
  out.set("rewrite.reject_ratio",
          ratio(get("rewrite.rejects"), get("rewrite.candidates")), "ratio");
  out.set("sim.fault_probes", get("sim.fault_probes"), "count");
  out.set("sim.cone_nodes", get("sim.cone_nodes"), "count");
  out.set("sim.events", get("sim.events"), "count");
  // Layers a workload does not reach read 0; the workload overwrites the
  // ones it measures.
  for (const char* name : {"sched.idle_s", "sched.tail_s"}) out.set(name, 0, "s");
  for (const char* name : {"fprm_lits", "fprm_mapped_lits", "sop_lits",
                           "sop_mapped_lits", "scale_lits",
                           "scale_mapped_lits"})
    out.set(name, 0, "lits");
  out.set("fprm_power", 0, "units");
  out.set("sop_power", 0, "units");
  out.set("fault_coverage", 0, "ratio");
  out.set("trace.overhead_s", walls.traced - walls.untraced, "s");
  out.set("trace.probe_s", total("baseline.probe"), "s");
  // The share of the traced replay spent inside a named layer: all but
  // the glue of the row and synthesize spans themselves.
  out.set("trace.coverage",
          ratio(total("flow.row") - self("flow.row") - self("core.synthesize"),
                walls.traced),
          "ratio");
}

// ---------------------------------------------------------------- table2

Outcome run_table2(const Args& args, int jobs) {
  Outcome out;
  std::vector<Benchmark> benches;
  SetupTimer setup([&] {
    benches.clear();
    for (const std::string& name : benchmark_names())
      benches.push_back(make_benchmark(name));
    (void)parse_genlib(mcnc_library_text());
    (void)mcnc_library();
  });
  const std::size_t n = benches.size();

  // Timed section: whole sweeps, closed loop.
  std::vector<std::vector<FlowRow>> pass_rows;
  std::vector<double> slowest, idle, tail;
  const Timed timed = timed_passes(args, [&] {
    std::vector<FlowRow> rows;
    std::vector<double> done_at(n, 0.0);
    const uint64_t t0 = now_ns();
    if (jobs <= 1) {
      for (std::size_t i = 0; i < n; ++i) {
        rows.push_back(run_flow(benches[i]));
        done_at[i] = seconds_since(t0);
      }
    } else {
      // Rows only: with the pool also handed to the polarity search, a row
      // that waits on its own tasks runs whole other rows meanwhile, and a
      // pass takes 12-27 s depending on which rows nest. The traced run
      // checks that default configuration's columns once.
      BatchOptions bo;
      bo.jobs = jobs;
      bo.inner_parallel = false;
      BatchRunner runner(bo);
      runner.on_row = [&](const FlowRow&, std::size_t i) {
        done_at[i] = seconds_since(t0);
      };
      rows = runner.run(benches).rows;
    }
    const double wall = seconds_since(t0);
    double busy = 0.0, worst = 0.0;
    for (const FlowRow& r : rows) {
      busy += r.row_seconds;
      worst = std::max(worst, r.row_seconds);
    }
    std::sort(done_at.begin(), done_at.end());
    slowest.push_back(worst);
    idle.push_back(jobs * wall - busy);
    tail.push_back(wall - (n >= 2 ? done_at[n - 2] : 0.0));
    pass_rows.push_back(std::move(rows));
  });
  out.pass_walls = timed.walls;
  const double wall_s = median(timed.walls);
  const double setup_s = setup.finish();

  // The CLI's default, where the pool also serves the in-flow polarity
  // search, must give the same columns.
  if (args.trace && jobs > 1) {
    BatchOptions bo;
    bo.jobs = jobs;
    const std::vector<FlowRow> rows = BatchRunner(bo).run(benches).rows;
    for (std::size_t i = 0; i < n; ++i)
      if (!(columns_of(rows[i]) == columns_of(pass_rows[0][i])))
        out.fail(benches[i].name +
                 ": columns differ with inner parallelism on");
  }

  // Replay every row (untraced, then traced when asked): the replayed
  // columns must equal run_flow's, and the replayed networks are what the
  // reference checks.
  const int threads = args.trace ? jobs : 4;
  std::vector<ReplayedRow> replayed(n);
  std::vector<std::string> errors;
  ReplayWalls walls;
  if (args.trace) {
    std::vector<ReplayedRow> untraced(n);
    std::vector<ReplayWalls> row_walls(n);
    parallel_for(
        n, threads,
        [&](std::size_t i) {
          row_walls[i] = replay_pair(i, [&](bool traced) {
            (traced ? replayed : untraced)[i] = replay_flow(benches[i]);
          });
        },
        errors);
    for (const ReplayWalls& w : row_walls) walls += w;
    std::vector<std::string> probe_errors;
    parallel_for(
        n, threads,
        [&](std::size_t i) {
          TracingOn on;
          baseline_probe(benches[i].spec);
        },
        probe_errors);
    for (std::size_t i = 0; i < n; ++i)
      if (!probe_errors[i].empty())
        out.fail(benches[i].name + ": baseline probe threw: " + probe_errors[i]);
  } else {
    parallel_for(
        n, threads,
        [&](std::size_t i) { replayed[i] = replay_flow(benches[i]); }, errors);
  }
  std::vector<std::string> ref_errors(n), check_errors;
  parallel_for(
      n, 4,
      [&](std::size_t i) {
        if (!errors[i].empty()) return;
        const uint64_t seed = args.seed ^ (0x7AB1E2ull + i);
        for (const Network* net : {&replayed[i].ours, &replayed[i].base}) {
          const RefCheck rc = check_against_spec(benches[i].spec, *net, seed);
          if (!rc.ok) ref_errors[i] = rc.reason;
        }
      },
      check_errors);

  Columns total;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = benches[i].name;
    std::vector<std::string> why;
    for (const auto& rows : pass_rows) {
      if (!rows[i].worst_status().is_ok())
        why.push_back("flow status " + rows[i].worst_status().to_string());
      if (!(columns_of(rows[i]) == columns_of(pass_rows[0][i])))
        why.push_back("columns differ between passes");
    }
    if (!errors[i].empty()) why.push_back("replay threw: " + errors[i]);
    else if (!(replayed[i].cols == columns_of(pass_rows[0][i])))
      why.push_back("replay-identity: replayed columns " +
                    columns_text(replayed[i].cols) + " vs run_flow " +
                    columns_text(columns_of(pass_rows[0][i])));
    if (!ref_errors[i].empty()) why.push_back("reference: " + ref_errors[i]);
    if (!check_errors[i].empty())
      why.push_back("reference check threw: " + check_errors[i]);
    ++out.attempted;
    if (!why.empty()) ++out.failed;
    for (const std::string& w : why) out.fail(name + ": " + w);

    const Columns c = columns_of(pass_rows[0][i]);
    out.qor["table2/" + name] = columns_text(c);
    total.ours_lits += c.ours_lits;
    total.ours_map_lits += c.ours_map_lits;
    total.ours_power += c.ours_power;
    total.base_lits += c.base_lits;
    total.base_map_lits += c.base_map_lits;
    total.base_power += c.base_power;
  }

  if (args.trace) {
    report_layers(out, walls);
    out.set("sched.idle_s", median(idle), "s");
    out.set("sched.tail_s", median(tail), "s");
    out.set("fprm_lits", static_cast<double>(total.ours_lits), "lits");
    out.set("fprm_mapped_lits", static_cast<double>(total.ours_map_lits),
            "lits");
    out.set("fprm_power", total.ours_power, "units");
    out.set("sop_lits", static_cast<double>(total.base_lits), "lits");
    out.set("sop_mapped_lits", static_cast<double>(total.base_map_lits),
            "lits");
    out.set("sop_power", total.base_power, "units");
  } else {
    out.set("wall_s", wall_s, "s");
    out.set("setup_s", setup_s, "s");
    out.set("slowest_circuit_s", median(slowest), "s");
    out.set("lits", static_cast<double>(total.ours_lits), "lits");
    out.set("mapped_lits", static_cast<double>(total.ours_map_lits), "lits");
    out.set("peak_rss_mb", timed.rss_mb, "MB");
  }
  return out;
}

// -------------------------------------------------------------- arith-gen

struct ArithResult {
  Network net;
  std::size_t lits = 0, gates = 0, map_lits = 0;
  double power = 0.0;
  bool ok = true;
  std::string status;
};

std::string arith_text(const ArithResult& r) {
  return std::to_string(r.lits) + " " + std::to_string(r.gates) + " " +
         std::to_string(r.map_lits) + " " + num(r.power);
}

Outcome run_arith(const Args& args) {
  Outcome out;
  std::vector<Benchmark> benches;
  SetupTimer setup([&] {
    benches.clear();
    for (const char* name : kArithCircuits)
      benches.push_back(make_benchmark(name));
    (void)parse_genlib(mcnc_library_text());
    (void)mcnc_library();
  });
  const std::size_t n = benches.size();

  std::vector<std::vector<ArithResult>> passes;
  std::vector<double> slowest;
  const Timed timed = timed_passes(args, [&] {
    std::vector<ArithResult> res;
    double worst = 0.0;
    for (const Benchmark& b : benches) {
      const uint64_t t0 = now_ns();
      ArithResult r;
      SynthReport rep;
      r.net = synthesize(b.spec, SynthOptions{}, &rep);
      const MapResult m = map_network(r.net, mcnc_library());
      r.power = flow_power(r.net, b.name);
      worst = std::max(worst, seconds_since(t0));
      r.lits = rep.stats.lits;
      r.gates = m.gate_count;
      r.map_lits = m.literal_count;
      r.ok = rep.status.is_ok();
      r.status = rep.status.to_string();
      res.push_back(std::move(r));
    }
    slowest.push_back(worst);
    passes.push_back(std::move(res));
  });
  out.pass_walls = timed.walls;
  const double wall_s = median(timed.walls);
  const double setup_s = setup.finish();

  ReplayWalls walls;
  std::vector<std::string> identity(n);
  if (args.trace) {
    std::vector<Network> nets(n), untraced(n);
    for (std::size_t i = 0; i < n; ++i)
      walls += replay_pair(i, [&](bool traced) {
        Network& net = (traced ? nets : untraced)[i];
        Span row("flow.row");
        net = replay_synthesize(benches[i].spec);
        {
          Span span("mapping.map_network");
          (void)map_network(net, mcnc_library());
        }
        (void)flow_power(net, benches[i].name);
      });
    for (std::size_t i = 0; i < n; ++i)
      if (write_blif_string(nets[i]) != write_blif_string(passes[0][i].net))
        identity[i] = "replay-identity: replayed BLIF differs from synthesize";
  }

  std::size_t lits = 0, map_lits = 0;
  double power = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = benches[i].name;
    const ArithResult& r = passes[0][i];
    std::vector<std::string> why;
    for (const auto& p : passes) {
      if (!p[i].ok) why.push_back("flow status " + p[i].status);
      if (arith_text(p[i]) != arith_text(r))
        why.push_back("QoR differs between passes");
    }
    if (!identity[i].empty()) why.push_back(identity[i]);
    const RefCheck rc = check_arithmetic(name, r.net, args.seed ^ i);
    if (!rc.ok) why.push_back("reference: " + rc.reason);
    ++out.attempted;
    if (!why.empty()) ++out.failed;
    for (const std::string& w : why) out.fail(name + ": " + w);
    out.qor["arith-gen/" + name] = arith_text(r);
    lits += r.lits;
    map_lits += r.map_lits;
    power += r.power;
  }

  if (args.trace) {
    report_layers(out, walls);
    out.set("fprm_lits", static_cast<double>(lits), "lits");
    out.set("fprm_mapped_lits", static_cast<double>(map_lits), "lits");
    out.set("fprm_power", power, "units");
  } else {
    out.set("wall_s", wall_s, "s");
    out.set("setup_s", setup_s, "s");
    out.set("slowest_circuit_s", median(slowest), "s");
    out.set("lits", static_cast<double>(lits), "lits");
    out.set("mapped_lits", static_cast<double>(map_lits), "lits");
    out.set("peak_rss_mb", timed.rss_mb, "MB");
  }
  return out;
}

// ------------------------------------------------------------------ scale

struct ScaleInput {
  std::string name;
  Network spec;
  std::string aiger;
  PatternSet patterns;
};

struct ScaleResult {
  Network net;
  std::size_t lits = 0, map_lits = 0, detected = 0, faults = 0;
};

/// One circuit through read -> rewrite -> map -> fault simulation, with a
/// span around each call (recorded only while tracing is on).
ScaleResult scale_circuit(const ScaleInput& in) {
  Span row("flow.row");
  ScaleResult r;
  {
    Span span("network.read_aiger");
    r.net = read_aiger_string(in.aiger);
  }
  {
    Span span("rewrite.rewrite_network");
    SimStats sim; // the incremental simulation that verifies replacements
    const rw::RewriteStats st = rw::rewrite_network(r.net, {}, &sim);
    count("sim.events", static_cast<double>(sim.events));
    count("rewrite.cuts_enumerated", static_cast<double>(st.cuts_enumerated));
    count("rewrite.replacements", static_cast<double>(st.replacements));
    count("rewrite.candidates", static_cast<double>(st.candidates));
    count("rewrite.rejects",
          static_cast<double>(st.sim_rejects + st.bdd_rejects));
  }
  r.lits = network_stats(r.net).lits;
  {
    Span span("mapping.map_network");
    r.map_lits = map_network(r.net, mcnc_library()).literal_count;
  }
  {
    Span span("testability.fault_simulate");
    SimStats sim;
    FaultSimOptions fo;
    fo.stats = &sim;
    const FaultSimResult fr = fault_simulate(r.net, in.patterns, fo);
    r.detected = fr.detected;
    r.faults = fr.total;
    count("sim.fault_probes", static_cast<double>(sim.fault_probes));
    count("sim.cone_nodes", static_cast<double>(sim.cone_nodes));
    count("sim.events", static_cast<double>(sim.events));
  }
  return r;
}

Outcome run_scale(const Args& args) {
  Outcome out;
  // The library would look for the database under perfbench/; point it at
  // the repository's copy before the first rewrite.
  setenv("RMSYN_REWRITE_DB", data_file("rewrite_db_k4.txt").c_str(), 0);
  std::vector<std::string> names(std::begin(kScaleCircuits),
                                 std::end(kScaleCircuits));
  for (const std::string& name : benchmark_names()) names.push_back(name);
  std::vector<ScaleInput> inputs;
  SetupTimer setup([&] {
    inputs.clear();
    for (std::size_t i = 0; i < names.size(); ++i) {
      Benchmark b = make_benchmark(names[i]);
      std::string aiger = write_aiger_string(b.spec, /*binary=*/true);
      PatternSet patterns =
          random_patterns(b.spec.pi_count(), kFaultPatterns,
                          args.seed * 0x9E3779B97F4A7C15ull + i);
      inputs.push_back(ScaleInput{b.name, std::move(b.spec), std::move(aiger),
                                  std::move(patterns)});
    }
    (void)parse_genlib(mcnc_library_text());
    (void)mcnc_library();
    (void)rw::RewriteDb::load_file(data_file("rewrite_db_k4.txt"));
    (void)rw::RewriteDb::instance();
  });

  std::vector<std::vector<ScaleResult>> passes;
  std::vector<double> slowest;
  const Timed timed = timed_passes(args, [&] {
    std::vector<ScaleResult> res;
    double worst = 0.0;
    for (const ScaleInput& in : inputs) {
      const uint64_t t0 = now_ns();
      res.push_back(scale_circuit(in));
      worst = std::max(worst, seconds_since(t0));
    }
    slowest.push_back(worst);
    passes.push_back(std::move(res));
  });
  out.pass_walls = timed.walls;
  const double wall_s = median(timed.walls);
  const double setup_s = setup.finish();

  std::vector<ScaleResult> traced;
  ReplayWalls walls;
  if (args.trace) {
    traced.resize(inputs.size());
    std::vector<ScaleResult> untraced(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      walls += replay_pair(i, [&](bool traced_run) {
        (traced_run ? traced : untraced)[i] = scale_circuit(inputs[i]);
      });
  }

  const auto text = [](const ScaleResult& r) {
    return std::to_string(r.lits) + " " + std::to_string(r.map_lits) + " " +
           std::to_string(r.detected) + "/" + std::to_string(r.faults);
  };
  std::size_t lits = 0, map_lits = 0, detected = 0, faults = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string& name = inputs[i].name;
    const ScaleResult& r = passes[0][i];
    std::vector<std::string> why;
    for (const auto& p : passes)
      if (text(p[i]) != text(r)) why.push_back("QoR differs between passes");
    if (!traced.empty() && text(traced[i]) != text(r))
      why.push_back("replay-identity: traced pass differs from untraced");
    const uint64_t seed = args.seed ^ (i + 17);
    const RefCheck rc = i < std::size(kScaleCircuits)
                            ? check_arithmetic(name, r.net, seed)
                            : check_against_spec(inputs[i].spec, r.net, seed);
    if (!rc.ok) why.push_back("reference: " + rc.reason);
    ++out.attempted;
    if (!why.empty()) ++out.failed;
    for (const std::string& w : why) out.fail(name + ": " + w);
    out.qor["scale/" + name] =
        std::to_string(r.lits) + " " + std::to_string(r.map_lits);
    out.qor["scale/" + name + "/seed" + std::to_string(args.seed)] =
        std::to_string(r.detected) + "/" + std::to_string(r.faults);
    lits += r.lits;
    map_lits += r.map_lits;
    detected += r.detected;
    faults += r.faults;
  }

  if (args.trace) {
    report_layers(out, walls);
    out.set("scale_lits", static_cast<double>(lits), "lits");
    out.set("scale_mapped_lits", static_cast<double>(map_lits), "lits");
    out.set("fault_coverage",
            faults == 0 ? 0.0 : static_cast<double>(detected) / faults,
            "ratio");
  } else {
    out.set("wall_s", wall_s, "s");
    out.set("setup_s", setup_s, "s");
    out.set("slowest_circuit_s", median(slowest), "s");
    out.set("lits", static_cast<double>(lits), "lits");
    out.set("mapped_lits", static_cast<double>(map_lits), "lits");
    out.set("peak_rss_mb", timed.rss_mb, "MB");
  }
  return out;
}

// ------------------------------------------------------------------- main

void print_outcome(const Args& args, const Outcome& out) {
  obs::Json j = obs::Json::object();
  j["workload"] = args.workload;
  j["seed"] = args.seed;
  j["trace"] = args.trace;
  j["pass_walls"] = obs::Json::array();
  for (const double w : out.pass_walls) j["pass_walls"].push_back(w);
  j["attempted"] = out.attempted;
  j["failed"] = out.failed;
  obs::Json host = obs::Json::object();
  host["nproc"] = std::thread::hardware_concurrency();
  host["compiler"] = RMBENCH_COMPILER;
  host["build_type"] = RMBENCH_BUILD_TYPE;
  j["host"] = std::move(host);
  j["errors"] = obs::Json::array();
  for (const std::string& e : out.errors) j["errors"].push_back(e);
  j["qor"] = obs::Json::object();
  for (const auto& [k, v] : out.qor) j["qor"][k] = v;
  j["metrics"] = obs::Json::object();
  for (const auto& [k, m] : out.metrics) {
    if (!std::isfinite(m.value)) continue;
    obs::Json metric = obs::Json::object();
    metric["value"] = m.value;
    metric["unit"] = m.unit;
    j["metrics"][k] = std::move(metric);
  }
  std::printf("%s\n", j.dump().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: rmbench --workload table2|table2-jobs4|arith-gen|scale"
               " [--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

} // namespace
} // namespace rmbench

int main(int argc, char** argv) {
  using namespace rmbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") args.trace = val == "1";
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  Outcome out;
  try {
    if (args.workload == "table2") out = run_table2(args, 1);
    else if (args.workload == "table2-jobs4") out = run_table2(args, 4);
    else if (args.workload == "arith-gen") out = run_arith(args);
    else if (args.workload == "scale") out = run_scale(args);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmbench: %s\n", e.what());
    return 1;
  }
  print_outcome(args, out);
  return out.errors.empty() ? 0 : 1;
}
