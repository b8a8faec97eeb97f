// rmsyn command-line driver.
//
//   rmsyn_cli synth    <input> [-o out.blif] [--method cubes|ofdd|best]
//                      [--no-redundancy] [--no-resub] [--rewrite]
//                      [--trace out.json]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//   rmsyn_cli baseline <input> [-o out.blif]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//   rmsyn_cli map      <input> [--lib file.genlib]
//   rmsyn_cli verify   <input-a> <input-b>
//   rmsyn_cli power    <input>
//   rmsyn_cli atpg     <input> [--jobs N] [--no-drop]
//   rmsyn_cli dump     <input> [-o out.blif]   (spec as BLIF, unsynthesized)
//   rmsyn_cli rewrite  <input> [-o out.blif] [--jobs N] [--passes N]
//                      [--cut-limit N] [--db file]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//   rmsyn_cli rewrite-dbgen [-o out.txt]
//   rmsyn_cli table2   [circuit ...] [--keep-going] [--jobs N] [--retries N]
//                      [--rewrite]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//                      [--trace out.json] [--report out.json]
//                      [--profile out.folded] [--heartbeat sec]
//   rmsyn_cli batch    <manifest> [--keep-going] [--jobs N] [--retries N]
//                      [--rewrite] [--no-mapping] [--no-power]
//                      [--journal out.jsonl | --resume journal.jsonl]
//                      [--timeout sec] [--node-limit n] [--step-limit n]
//                      [--batch-timeout sec] [--batch-node-limit n]
//                      [--trace out.json] [--report out.json]
//                      [--profile out.folded] [--heartbeat sec]
//   rmsyn_cli validate-report <report.json> <schema.json>
//   rmsyn_cli report-diff <baseline.json> <candidate.json>
//                      [--ignore-timing] [--noise-pct P] [--noise-floor sec]
//   rmsyn_cli list
//
//   Every command also takes [--paranoid] [--fault-plan spec].
//
// The synopsis mirrors kFlags and kCommands below: kFlags says what each
// flag parses and which option struct it writes, kCommands which flags and
// how many positional arguments each command accepts. Anything else is
// "<cmd>: unknown option X" (exit 1).
//
// <input> is a .blif file, a .pla file, or the name of a built-in Table-2
// benchmark circuit (see `rmsyn_cli list`). The batch manifest is a text
// file with one input per line ('#' comments and blank lines skipped).
//
// Resource budgets (--timeout wall-clock seconds per budget slice,
// --node-limit peak live DD nodes, --step-limit cooperative polls) put the
// flow on the degradation ladder instead of running unbounded; the status
// is printed and reflected in the exit code. Exit codes are stable (see
// util/errors.hpp and README "Exit codes"): 0 ok, 1 usage, 2 degraded,
// 3 transient failure, 4 fatal input (parse error), 5 invariant/verify.
//
// Resilience (DESIGN.md §12): table2 and batch stop at the first failed
// row unless --keep-going; --retries N re-runs transient-retryable
// failed rows with x2-escalated budget slices; batch --journal FILE
// appends one fsync'd JSONL checkpoint per settled row; batch --resume
// FILE replays completed journal rows and re-runs the rest; --paranoid
// runs the deep network invariant checker after every structural
// transform; --fault-plan seed=S,truncate=N,corrupt=N,arena=N,journal=N
// arms deterministic fault injection for testing. --jobs N runs N circuits
// concurrently on the work-stealing scheduler (sched/batch.hpp); every
// result column is bit-identical to --jobs 1. --batch-timeout and
// --batch-node-limit are budgets for the whole batch, shared by all
// workers.
//
// Observability (src/obs): --trace writes a Chrome trace-event JSON
// (chrome://tracing / Perfetto) merged from every worker thread's spans;
// --report writes the machine-readable run report (schema:
// data/report_schema.json, checked by `validate-report`); --profile writes
// a folded-stack attribution profile (flamegraph.pl / speedscope input)
// and embeds the tree in the report; --heartbeat N prints a progress line
// (rows done, current circuit/stage, live DD nodes) every N seconds while
// the run is in flight. None of them perturbs the result columns.
// `report-diff` compares two reports (or BENCH_*.json files) and exits 0
// on no regression, 2 on a regression, 4 on schema mismatch — the CI
// baseline gate runs it with --ignore-timing against data/baselines/.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/script.hpp"
#include "benchgen/spec.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "flow/flow.hpp"
#include "mapping/mapper.hpp"
#include "network/io.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "obs/diff.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "power/power.hpp"
#include "rewrite/database.hpp"
#include "rewrite/rewrite.hpp"
#include "sched/batch.hpp"
#include "sched/pool.hpp"
#include "util/errors.hpp"
#include "util/faultplan.hpp"
#include "util/osinfo.hpp"
#include "util/stopwatch.hpp"
#include "sop/pla.hpp"
#include "testability/faults.hpp"

namespace {

using namespace rmsyn;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Reads a whole file, routing the bytes through the FaultPlan's IO
/// corruption/truncation points (a no-op unless --fault-plan armed them).
std::string load_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return apply_io_faults(ss.str());
}

Network load_input(const std::string& spec) {
  if (ends_with(spec, ".blif")) return read_blif_string(load_file_bytes(spec));
  if (ends_with(spec, ".pla")) {
    const PlaFile pla = read_pla_string(load_file_bytes(spec));
    return network_from_covers(pla.outputs, pla.num_inputs);
  }
  if (ends_with(spec, ".aag") || ends_with(spec, ".aig"))
    return read_aiger_string(load_file_bytes(spec));
  if (has_benchmark(spec)) return make_benchmark(spec).spec;
  throw std::runtime_error("unknown input '" + spec +
                           "' (not a .blif/.pla/.aag/.aig file or benchmark "
                           "name)");
}

// --- command line ------------------------------------------------------------

/// Observability switches (synth takes --trace; table2 and batch all four).
struct RunObs {
  std::string trace_path;   ///< --trace: Chrome trace-event JSON
  std::string report_path;  ///< --report: machine-readable run report
  std::string profile_path; ///< --profile: folded-stack attribution tree
  double heartbeat_seconds = 0.0; ///< --heartbeat: progress-line period
  bool tracing() const { return !trace_path.empty(); }
  bool profiling() const { return !profile_path.empty(); }
};

/// Everything a command line sets. Each flag writes one field of a library
/// option struct. table2 and batch run whole flows from `batch`, and synth
/// and baseline read their SynthOptions, BaselineOptions and budget from
/// the same `batch.flow`, so every flag has exactly one destination.
struct Cli {
  std::vector<std::string> inputs; ///< positional arguments
  std::string out_path;            ///< -o
  std::string lib_path;            ///< --lib
  BatchOptions batch;
  rw::RewriteOptions rewrite;
  FaultSimOptions fault;
  obs::DiffOptions diff;
  RunObs obs;

  // table2 and batch stop at the first failed row unless --keep-going.
  Cli() { batch.keep_going = false; }
  SynthOptions& synth() { return batch.flow.synth; }
  ResourceLimits& limits() { return batch.flow.limits; }
};

/// Thrown by a value parser; parse_args() turns it into the "bad value"
/// error, naming the flag and the value.
struct BadValue {
  std::string want;
};

double seconds(const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos == v.size() && d > 0.0) return d;
  } catch (const std::exception&) {
  }
  throw BadValue{"seconds > 0, e.g. 0.001"};
}

/// A positive integer no larger than `max` (and so never narrowed on the
/// way into a T): no sign, no wrap-around.
template <class T>
T count(const std::string& v, T max = std::numeric_limits<T>::max()) {
  uint64_t n = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc() || ptr != end || n == 0)
    throw BadValue{"a positive integer"};
  if (n > static_cast<uint64_t>(max))
    throw BadValue{"at most " + std::to_string(max)};
  return static_cast<T>(n);
}

FactorMethod method(const std::string& v) {
  if (v == "cubes") return FactorMethod::Cubes;
  if (v == "ofdd") return FactorMethod::Ofdd;
  if (v == "best") return FactorMethod::Best;
  throw BadValue{"cubes, ofdd or best"};
}

using Arg = const std::string&;

struct Flag {
  const char* name;
  bool takes_value;
  void (*apply)(Cli& c, Arg value); ///< parses the value and stores it
};

const Flag kFlags[] = {
    {"-o", true, [](Cli& c, Arg v) { c.out_path = v; }},
    // Synthesis (SynthOptions)
    {"--method", true, [](Cli& c, Arg v) { c.synth().method = method(v); }},
    {"--no-redundancy", false,
     [](Cli& c, Arg) { c.synth().run_redundancy_removal = false; }},
    {"--no-resub", false, [](Cli& c, Arg) { c.synth().run_resub = false; }},
    {"--rewrite", false, [](Cli& c, Arg) { c.synth().run_rewrite = true; }},
    // Per-flow budget (ResourceLimits)
    {"--timeout", true,
     [](Cli& c, Arg v) { c.limits().deadline_seconds = seconds(v); }},
    {"--node-limit", true,
     [](Cli& c, Arg v) { c.limits().node_limit = count<std::size_t>(v); }},
    {"--step-limit", true,
     [](Cli& c, Arg v) { c.limits().step_limit = count<uint64_t>(v); }},
    // Rewriting (RewriteOptions), mapping, fault simulation (FaultSimOptions)
    {"--passes", true,
     [](Cli& c, Arg v) { c.rewrite.max_passes = count<int>(v); }},
    {"--cut-limit", true,
     [](Cli& c, Arg v) { c.rewrite.cut_limit = count<int>(v); }},
    {"--db", true, [](Cli& c, Arg v) { c.rewrite.db_path = v; }},
    {"--lib", true, [](Cli& c, Arg v) { c.lib_path = v; }},
    {"--no-drop", false, [](Cli& c, Arg) { c.fault.drop_faults = false; }},
    // Batches (BatchOptions, FlowOptions); --jobs also sizes atpg's and
    // rewrite's pools
    {"--jobs", true, [](Cli& c, Arg v) { c.batch.jobs = count<int>(v, 256); }},
    {"--keep-going", false, [](Cli& c, Arg) { c.batch.keep_going = true; }},
    {"--retries", true,
     [](Cli& c, Arg v) { c.batch.retries = count<int>(v); }},
    {"--journal", true, [](Cli& c, Arg v) { c.batch.journal_path = v; }},
    {"--resume", true,
     [](Cli& c, Arg v) {
       c.batch.journal_path = v;
       c.batch.resume = true;
     }},
    {"--batch-timeout", true,
     [](Cli& c, Arg v) { c.batch.batch_deadline_seconds = seconds(v); }},
    {"--batch-node-limit", true,
     [](Cli& c, Arg v) {
       c.batch.batch_allocation_budget = count<uint64_t>(v);
     }},
    {"--no-mapping", false,
     [](Cli& c, Arg) { c.batch.flow.run_mapping = false; }},
    {"--no-power", false, [](Cli& c, Arg) { c.batch.flow.run_power = false; }},
    // Observability (RunObs)
    {"--trace", true, [](Cli& c, Arg v) { c.obs.trace_path = v; }},
    {"--report", true, [](Cli& c, Arg v) { c.obs.report_path = v; }},
    {"--profile", true, [](Cli& c, Arg v) { c.obs.profile_path = v; }},
    {"--heartbeat", true,
     [](Cli& c, Arg v) { c.obs.heartbeat_seconds = seconds(v); }},
    // Report diffing (DiffOptions)
    {"--ignore-timing", false,
     [](Cli& c, Arg) { c.diff.ignore_timing = true; }},
    {"--noise-pct", true,
     [](Cli& c, Arg v) { c.diff.seconds_noise_frac = seconds(v) / 100.0; }},
    {"--noise-floor", true,
     [](Cli& c, Arg v) { c.diff.seconds_noise_floor = seconds(v); }},
    // Global switches (every command)
    {"--paranoid", false, [](Cli&, Arg) { set_paranoid_checks(true); }},
    {"--fault-plan", true,
     [](Cli&, Arg v) { install_fault_plan(FaultPlan::parse(v)); }},
};

/// Flags every command accepts.
constexpr std::string_view kGlobalFlags = "--paranoid --fault-plan";

struct Command {
  const char* name;
  std::size_t min_inputs, max_inputs; ///< positional arity
  const char* missing;                ///< error when inputs < min_inputs
  std::string_view flags;             ///< accepted flags, space-separated
  int (*run)(Cli& c);
};

/// Whether the space-separated `names` contain `flag`.
bool lists(std::string_view names, const std::string& flag) {
  const std::string padded = " " + std::string(names) + " ";
  return padded.find(" " + flag + " ") != std::string::npos;
}

/// The one command-line parser: every "unknown option" and "bad value"
/// error comes from here.
Cli parse_args(const Command& cmd, const std::vector<std::string>& args) {
  Cli c;
  const std::string prefix = std::string(cmd.name) + ": ";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.empty() || a[0] != '-') {
      if (c.inputs.size() == cmd.max_inputs)
        throw std::runtime_error(prefix + "unknown option " + a);
      c.inputs.push_back(a);
      continue;
    }
    const Flag* flag = nullptr;
    if (lists(cmd.flags, a) || lists(kGlobalFlags, a))
      for (const Flag& f : kFlags)
        if (a == f.name) flag = &f;
    if (flag == nullptr)
      throw std::runtime_error(prefix + "unknown option " + a);
    std::string value;
    if (flag->takes_value) {
      if (i + 1 == args.size())
        throw std::runtime_error(prefix + a + " needs a value");
      value = args[++i];
    }
    try {
      flag->apply(c, value);
    } catch (const BadValue& e) {
      throw std::runtime_error(a + ": bad value '" + value + "' (want " +
                               e.want + ")");
    }
  }
  if (c.inputs.size() < cmd.min_inputs) throw std::runtime_error(cmd.missing);
  return c;
}

// --- shared run plumbing -----------------------------------------------------

/// Arms `gov` when `limits` sets a budget; returns it for an options struct's
/// governor pointer (null = unbudgeted).
ResourceGovernor* arm_governor(std::optional<ResourceGovernor>& gov,
                               const ResourceLimits& limits) {
  if (limits.unlimited()) return nullptr;
  return &gov.emplace(limits);
}

/// Exit code from the worst status (stable contract, see util/errors.hpp):
/// ok = 0, degraded = 2, failed = the taxonomy mapping of its error code
/// (3 transient, 4 fatal input, 5 invariant/verify).
int status_exit_code(const FlowStatus& st) {
  if (st.severity() == 0) return ExitCode::Ok;
  if (st.severity() == 1) return ExitCode::BudgetDegraded;
  return st.code == ErrorCode::None ? ExitCode::TransientFailure
                                    : exit_code_for_error(st.code);
}

void write_output(const Network& net, const std::string& path,
                  const std::string& model) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_blif(out, decompose2(net), model);
  std::printf("wrote %s\n", path.c_str());
}

/// Arms the tracer and/or profiler for a run (idempotent reset + enable).
void start_tracing(const RunObs& o) {
  if (o.tracing()) {
    obs::Tracer::instance().reset();
    obs::Tracer::instance().enable();
  }
  if (o.profiling()) {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().enable();
  }
}

/// Stops the tracer/profiler and writes the --trace/--profile files.
void write_traces(const RunObs& o) {
  if (o.tracing()) {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().write_chrome_trace(o.trace_path);
    std::printf("wrote trace %s\n", o.trace_path.c_str());
  }
  if (o.profiling()) {
    obs::Profiler::instance().disable();
    obs::Profiler::instance().write_folded(o.profile_path);
    std::printf("wrote profile %s\n", o.profile_path.c_str());
  }
}

/// A row the batch runner never started because the budget was cancelled
/// (keep_going=false after a failure, batch deadline, or explicit cancel).
bool row_was_cancelled(const FlowRow& r) {
  return r.ours_status.is_failed() && r.ours_status.stage == "batch";
}

/// The run table2 and batch share: heartbeat, tracing, the root span, the
/// scheduler run and the --trace/--profile/--report artifacts.
/// `progress` prints one line per row as it settles.
BatchResult run_rows(const Cli& c, const char* command, const char* root_span,
                     const std::vector<Benchmark>& benches, bool progress) {
  // Row lines and heartbeat lines funnel through one sink, so concurrent
  // writers under --jobs N cannot interleave mid-line.
  obs::OutputSink sink;
  std::optional<obs::Heartbeat> heartbeat;
  if (c.obs.heartbeat_seconds > 0.0)
    heartbeat.emplace(sink, c.obs.heartbeat_seconds);
  start_tracing(c.obs);
  Stopwatch sw;
  BatchRunner runner(c.batch);
  std::size_t done = 0;
  if (progress) {
    runner.on_row = [&](const FlowRow& r, std::size_t) {
      // Rows settle in completion order under --jobs; the index printed is
      // a completion counter, not the manifest position. (The counter
      // needs no lock: on_row is serialized by the runner's settle mutex.)
      sink.printf("[%zu/%zu] %-12s %-24s lits %zu vs %zu  power %.4f vs %.4f\n",
                  ++done, benches.size(), r.circuit.c_str(),
                  r.worst_status().to_string().c_str(), r.ours_lits,
                  r.base_lits, r.ours_power, r.base_power);
    };
  }
  BatchResult result;
  {
    RMSYN_SPAN(root_span); // must close before the trace export
    result = runner.run(benches);
  }
  const double wall = sw.seconds();
  if (heartbeat.has_value()) heartbeat->stop();
  write_traces(c.obs);
  if (c.obs.report_path.empty()) return result;

  const int jobs = c.batch.jobs;
  obs::ReportBuilder rb(command, jobs);
  for (const FlowRow& r : result.rows) rb.add_row(flow_row_json(r));
  obs::MetricsRegistry m = collect_flow_metrics(result.rows);
  if (jobs > 1) m.absorb_sched(result.sched);
  m.set("os.peak_rss_mb", peak_rss_mb());
  rb.set_metrics(m);
  if (c.obs.tracing())
    rb.set_trace(obs::Tracer::instance().summary(), wall, c.obs.trace_path);
  if (c.obs.profiling())
    rb.set_profile(obs::Profiler::instance().merged(), c.obs.profile_path);
  obs::write_json_file(c.obs.report_path, rb.finish(wall));
  std::printf("wrote report %s\n", c.obs.report_path.c_str());
  return result;
}

/// The lines table2 and batch end with: the p50/p99 row latency (the
/// flow.row_seconds histogram), batch's resilience counters when
/// `resilience` is set, and at --jobs > 1 the DD-kernel and scheduler
/// summaries. Returns the run's exit code.
int finish_rows(const Cli& c, const BatchResult& result, bool resilience) {
  for (const auto& e : collect_flow_metrics(result.rows).snapshot()) {
    if (e.name != "flow.row_seconds") continue;
    std::printf("row latency: p50 %.3fs, p99 %.3fs, max %.3fs over %llu rows\n",
                e.v.percentile(0.5), e.v.percentile(0.99), e.v.max,
                static_cast<unsigned long long>(e.v.count));
  }
  if (resilience)
    std::printf("resilience: %zu rows replayed from journal, %zu retries "
                "used, %zu journal errors, %zu journal lines skipped\n",
                result.rows_replayed, result.retries_used,
                result.journal_errors, result.journal_skipped_lines);
  if (c.batch.jobs > 1) {
    std::printf("%s", format_dd_kernel_summary(result.rows).c_str());
    std::printf("%s", format_sched_summary(result.sched).c_str());
  }
  return status_exit_code(result.worst);
}

// --- commands ----------------------------------------------------------------

int cmd_synth(Cli& c) {
  SynthOptions& opt = c.synth();
  std::optional<ResourceGovernor> gov;
  opt.governor = arm_governor(gov, c.limits());
  const std::string& input = c.inputs[0];
  const Network spec = load_input(input);
  start_tracing(c.obs);
  SynthReport rep;
  Network result;
  {
    RMSYN_SPAN("synth");
    result = synthesize(spec, opt, &rep);
  }
  write_traces(c.obs);
  std::printf("synthesized %s: %s in %.3fs (status %s)\n", input.c_str(),
              to_string(rep.stats).c_str(), rep.seconds,
              rep.status.to_string().c_str());
  std::printf("FPRM cubes per output:");
  for (const auto n : rep.fprm_cube_counts) std::printf(" %zu", n);
  std::printf("\nredundancy: %zu XOR->OR, %zu XOR->AND, %zu fanins removed "
              "(%zu gates proven irreducible by pattern simulation)\n",
              rep.redundancy.reduced_to_or, rep.redundancy.reduced_to_andnot,
              rep.redundancy.fanins_removed, rep.redundancy.pattern_pruned);
  std::printf("dd kernel: cache hit rate %.1f%%, peak live nodes %zu, "
              "%llu gc runs, %llu reorders\n",
              100.0 * rep.bdd.cache_hit_rate(), rep.bdd.peak_live_nodes,
              static_cast<unsigned long long>(rep.bdd.gc_runs),
              static_cast<unsigned long long>(rep.bdd.reorder_runs));
  if (!rep.rewrite.empty()) {
    obs::MetricsRegistry m;
    m.absorb_rewrite(rep.rewrite);
    std::printf("%s", obs::format_metrics_summary(m).c_str());
  }
  if (!rep.stages.empty()) std::printf("%s", rep.stages.to_string().c_str());
  write_output(result, c.out_path, "rmsyn_synth");
  return status_exit_code(rep.status);
}

int cmd_baseline(Cli& c) {
  BaselineOptions& opt = c.batch.flow.baseline;
  std::optional<ResourceGovernor> gov;
  opt.governor = arm_governor(gov, c.limits());
  const Network spec = load_input(c.inputs[0]);
  BaselineReport rep;
  const Network result = baseline_synthesize(spec, opt, &rep);
  std::printf("baseline %s: %s in %.3fs (SOP lits %d -> %d, %d divisors "
              "extracted, status %s)\n",
              c.inputs[0].c_str(), to_string(rep.stats).c_str(), rep.seconds,
              rep.sop_lits_initial, rep.sop_lits_final, rep.nodes_extracted,
              rep.status.to_string().c_str());
  write_output(result, c.out_path, "rmsyn_baseline");
  return status_exit_code(rep.status);
}

int cmd_map(Cli& c) {
  const CellLibrary* lib = &mcnc_library();
  CellLibrary custom;
  if (!c.lib_path.empty()) {
    std::ifstream in(c.lib_path);
    if (!in) throw std::runtime_error("cannot open library");
    std::ostringstream ss;
    ss << in.rdbuf();
    custom = parse_genlib(ss.str());
    lib = &custom;
  }
  const Network net = load_input(c.inputs[0]);
  const MapResult r = map_network(net, *lib);
  std::printf("mapped %s: %zu cells, %zu literals, area %.1f\n",
              c.inputs[0].c_str(), r.gate_count, r.literal_count, r.area);
  // Cell histogram.
  std::map<std::string, int> hist;
  for (const auto& g : r.gates) ++hist[g.cell];
  for (const auto& [name, n] : hist)
    std::printf("  %-8s x%d\n", name.c_str(), n);
  return 0;
}

int cmd_verify(Cli& c) {
  const Network a = load_input(c.inputs[0]);
  const Network b = load_input(c.inputs[1]);
  const auto r = check_equivalence(a, b);
  std::printf("%s\n", r.equivalent ? "EQUIVALENT" : ("NOT EQUIVALENT: " + r.reason).c_str());
  return r.equivalent ? ExitCode::Ok : ExitCode::InvariantOrVerify;
}

int cmd_power(Cli& c) {
  const Network net = load_input(c.inputs[0]);
  const PowerReport r = estimate_power(net);
  std::printf("power %s: total %.4f (switching sum %.4f over %zu nets, %s "
              "probabilities)\n",
              c.inputs[0].c_str(), r.total, r.switching_sum, r.nets,
              r.exact ? "exact BDD" : "simulated");
  return 0;
}

int cmd_atpg(Cli& c) {
  const Network spec = load_input(c.inputs[0]);
  SynthReport rep;
  const Network net = synthesize(spec, {}, &rep);
  const PatternSet tests = fprm_pattern_set(
      net.pi_count(), rep.forms, /*include_sa1=*/true, std::size_t{1} << 16);
  SimStats stats;
  c.fault.stats = &stats;
  std::optional<ThreadPool> pool;
  if (c.batch.jobs > 1) {
    pool.emplace(c.batch.jobs - 1); // the caller helps, as in table2/batch
    c.fault.pool = &*pool;
  }
  const auto sim = fault_simulate(net, tests, c.fault);
  std::printf("synthesized network: %zu faults, FPRM-derived test set of %zu "
              "patterns detects %zu (%.1f%% coverage)\n",
              sim.total, tests.num_patterns, sim.detected,
              100.0 * sim.coverage());
  for (const auto& f : sim.undetected)
    std::printf("  undetected: %s\n", to_string(f, net).c_str());
  obs::MetricsRegistry m;
  m.absorb_sim(stats);
  std::printf("%s", obs::format_metrics_summary(m).c_str());
  return 0;
}

int cmd_dump(Cli& c) {
  const std::string& input = c.inputs[0];
  const Network net = load_input(input);
  if (c.out_path.empty()) {
    std::printf("%s", write_blif_string(decompose2(net), input).c_str());
  } else {
    write_output(net, c.out_path, input);
  }
  return 0;
}

int cmd_rewrite(Cli& c) {
  rw::RewriteOptions& opt = c.rewrite;
  const Network spec = load_input(c.inputs[0]);
  std::optional<ResourceGovernor> gov;
  opt.governor = arm_governor(gov, c.limits());
  std::optional<ThreadPool> pool;
  if (c.batch.jobs > 1) {
    pool.emplace(c.batch.jobs);
    opt.pool = &*pool;
  }
  Network net = spec;
  Stopwatch sw;
  const rw::RewriteStats st = rw::rewrite_network(net, opt);
  const double secs = sw.seconds();
  // Every replacement was verified in-pass; this is the belt-and-braces
  // whole-network check the paper's flow runs (SIS `verify`). It shares
  // the run's budget: on exhaustion the BDD phase comes back undecided
  // (the simulation miter still runs) instead of hanging on BDD-hostile
  // functions like wide multipliers.
  const auto check = check_equivalence(spec, net, 0xC0FFEE, opt.governor);
  if (check.decided && !check.equivalent)
    throw RmsynError(ErrorCode::VerifyMismatch,
                     "rewrite: result not equivalent to input: " +
                         check.reason);
  obs::MetricsRegistry m;
  m.absorb_rewrite(st);
  std::printf("%s", obs::format_metrics_summary(m).c_str());
  std::printf("rewrite %s: %s in %.3fs (equivalence %s)\n",
              c.inputs[0].c_str(), to_string(network_stats(net)).c_str(),
              secs, check.decided ? "verified" : "undecided");
  write_output(net, c.out_path, "rmsyn_rewrite");
  const bool tripped =
      gov.has_value() && gov->trip_kind() != TripKind::None;
  return tripped ? ExitCode::BudgetDegraded : ExitCode::Ok;
}

int cmd_rewrite_dbgen(Cli& c) {
  const std::string out_path =
      c.out_path.empty() ? "data/rewrite_db_k4.txt" : c.out_path;
  Stopwatch sw;
  const rw::RewriteDb db = rw::RewriteDb::generate();
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  db.save(out);
  int max_cost = 0;
  long total_cost = 0;
  for (const auto& e : db.entries()) {
    max_cost = std::max(max_cost, e.cost);
    total_cost += e.cost;
  }
  std::printf("rewrite-dbgen: %zu NPN classes in %.2fs (max cost %d, "
              "total %ld) -> %s\n",
              db.size(), sw.seconds(), max_cost, total_cost,
              out_path.c_str());
  return 0;
}

int cmd_table2(Cli& c) {
  const std::vector<std::string> names =
      c.inputs.empty() ? benchmark_names() : c.inputs;
  std::vector<Benchmark> benches;
  benches.reserve(names.size());
  for (const auto& n : names) benches.push_back(make_benchmark(n));

  const BatchResult result =
      run_rows(c, "table2", "table2", benches, /*progress=*/false);
  if (result.worst.is_failed() && !c.batch.keep_going) {
    // Print what actually ran (everything up to the failure in serial
    // order; possibly more under --jobs) and abort, as the serial sweep
    // always has.
    std::vector<FlowRow> ran;
    std::string culprit;
    for (const auto& r : result.rows) {
      if (row_was_cancelled(r)) continue;
      ran.push_back(r);
      if (r.worst_status().is_failed() && culprit.empty())
        culprit = r.circuit + " failed (" + r.worst_status().to_string() + ")";
    }
    std::printf("%s", format_table2(ran).c_str());
    std::fprintf(stderr,
                 "table2: %s; aborting sweep (use --keep-going to continue)\n",
                 culprit.c_str());
    return 3;
  }
  std::printf("%s", format_table2(result.rows).c_str());
  return finish_rows(c, result, /*resilience=*/false);
}

int cmd_batch(Cli& c) {
  // Manifest: one benchmark name or .pla/.blif path per line.
  std::ifstream in(c.inputs[0]);
  if (!in) throw std::runtime_error("cannot open manifest " + c.inputs[0]);
  std::vector<Benchmark> benches;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t a = line.find_first_not_of(" \t\r");
    if (a == std::string::npos) continue;
    const std::size_t b = line.find_last_not_of(" \t\r");
    const std::string entry = line.substr(a, b - a + 1);
    if (has_benchmark(entry)) {
      benches.push_back(make_benchmark(entry));
    } else {
      Benchmark bench;
      bench.name = entry;
      bench.spec = load_input(entry);
      bench.num_inputs = static_cast<int>(bench.spec.pi_count());
      bench.num_outputs = static_cast<int>(bench.spec.po_count());
      bench.description = "manifest input";
      benches.push_back(std::move(bench));
    }
  }
  if (benches.empty()) throw std::runtime_error("batch: empty manifest");

  const BatchResult result =
      run_rows(c, "batch", "batch-run", benches, /*progress=*/true);
  std::size_t ok = 0, degraded = 0, failed = 0, cancelled = 0;
  for (const auto& r : result.rows) {
    if (row_was_cancelled(r)) ++cancelled;
    else if (r.worst_status().is_failed()) ++failed;
    else if (r.worst_status().is_degraded()) ++degraded;
    else ++ok;
  }
  std::printf("batch: %zu circuits in %.2fs at --jobs %d: "
              "%zu ok, %zu degraded, %zu failed, %zu cancelled\n",
              result.rows.size(), result.seconds, c.batch.jobs, ok, degraded,
              failed, cancelled);
  const BatchOptions& b = c.batch;
  return finish_rows(c, result,
                     b.resume || !b.journal_path.empty() || b.retries > 0);
}

int cmd_validate_report(Cli& c) {
  const obs::Json doc = obs::Json::parse(obs::read_file(c.inputs[0]));
  const obs::Json schema = obs::Json::parse(obs::read_file(c.inputs[1]));
  std::vector<std::string> errors;
  if (!obs::validate_json(doc, schema, &errors)) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "validate-report: %s\n", e.c_str());
    return 1;
  }
  std::printf("report OK: schema_version %d, %zu rows, worst status %s\n",
              static_cast<int>(doc.get("schema_version").as_number()),
              doc.get("rows").size(),
              doc.get("worst_status").as_string().c_str());
  return 0;
}

int cmd_report_diff(Cli& c) {
  const obs::Json base = obs::Json::parse(obs::read_file(c.inputs[0]));
  const obs::Json ours = obs::Json::parse(obs::read_file(c.inputs[1]));
  const obs::DiffResult r = obs::diff_documents(base, ours, c.diff);
  std::printf("%s", obs::format_diff(r).c_str());
  return obs::diff_exit_code(r);
}

int cmd_list(Cli&) {
  for (const auto& name : benchmark_names()) {
    const Benchmark b = make_benchmark(name);
    std::printf("%-10s %4d/%-4d %s%s%s\n", b.name.c_str(), b.num_inputs,
                b.num_outputs, b.arithmetic ? "[arith] " : "        ",
                b.exact ? "" : "[synthetic] ", b.description.c_str());
  }
  return 0;
}

constexpr std::size_t kAnyCount = std::numeric_limits<std::size_t>::max();

const Command kCommands[] = {
    {"synth", 1, 1, "synth: missing input",
     "-o --method --no-redundancy --no-resub --rewrite --trace "
     "--timeout --node-limit --step-limit",
     cmd_synth},
    {"baseline", 1, 1, "baseline: missing input",
     "-o --timeout --node-limit --step-limit", cmd_baseline},
    {"map", 1, 1, "map: missing input", "--lib", cmd_map},
    {"verify", 2, 2, "verify: need two inputs", "", cmd_verify},
    {"power", 1, 1, "power: missing input", "", cmd_power},
    {"atpg", 1, 1, "atpg: missing input", "--jobs --no-drop", cmd_atpg},
    {"dump", 1, 1, "dump: missing input", "-o", cmd_dump},
    {"rewrite", 1, 1, "rewrite: missing input",
     "-o --jobs --passes --cut-limit --db "
     "--timeout --node-limit --step-limit",
     cmd_rewrite},
    {"rewrite-dbgen", 0, 0, nullptr, "-o", cmd_rewrite_dbgen},
    {"table2", 0, kAnyCount, nullptr,
     "--keep-going --jobs --retries --rewrite "
     "--timeout --node-limit --step-limit "
     "--trace --report --profile --heartbeat",
     cmd_table2},
    {"batch", 1, 1, "batch: missing manifest file",
     "--keep-going --jobs --retries --rewrite --no-mapping --no-power "
     "--journal --resume --timeout --node-limit --step-limit "
     "--batch-timeout --batch-node-limit "
     "--trace --report --profile --heartbeat",
     cmd_batch},
    {"validate-report", 2, 2,
     "validate-report: need <report.json> <schema.json>", "",
     cmd_validate_report},
    {"report-diff", 2, 2, "report-diff: need <baseline.json> <candidate.json>",
     "--ignore-timing --noise-pct --noise-floor", cmd_report_diff},
    {"list", 0, 0, nullptr, "", cmd_list},
};

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::string names;
    for (const Command& c : kCommands)
      names += (names.empty() ? "" : "|") + std::string(c.name);
    std::fprintf(stderr, "usage: %s %s ...\n", argv[0], names.c_str());
    return ExitCode::Usage;
  }
  const std::string name = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    for (const Command& cmd : kCommands) {
      if (name != cmd.name) continue;
      Cli c = parse_args(cmd, args);
      return cmd.run(c);
    }
    std::fprintf(stderr, "unknown command %s\n", name.c_str());
    return ExitCode::Usage;
  } catch (const RmsynError& e) {
    std::fprintf(stderr, "error [%s]: %s\n", to_string(e.code()), e.what());
    return exit_code_for_error(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for_error(classify_exception(e));
  }
}
