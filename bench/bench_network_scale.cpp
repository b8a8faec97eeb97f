// Large-network scaling bench for the SoA core: generates a wide array
// multiplier, pushes it through the whole parse -> stats -> simulate ->
// redundancy pipeline, and gates CI on a nodes/sec floor for the
// simulator plus a peak-RSS ceiling for the run. The default circuit is
// mult132 (103,754 nodes) — the smallest ~128-bit multiplier that clears
// the >= 100k-node floor the bench also gates on (mult128 is 97,538).
// The parse stage is a binary AIGER round-trip, so reader and writer are
// both exercised at scale; redundancy runs under a governed budget and
// must bail out cleanly rather than OOM or hang.
//
// Emits a machine-readable BENCH_network_scale.json for CI tracking.
//
// Usage: bench_network_scale [--out file.json] [--circuit multN|adderN]
//        [--min-nodes X] [--min-nodes-per-sec X] [--max-rss-mb M]
//        [--patterns N]
//        (default: BENCH_network_scale.json, mult132, 100000, 1e6, 3000, 256)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/spec.hpp"
#include "core/redundancy.hpp"
#include "network/io.hpp"
#include "network/stats.hpp"
#include "sim/sim.hpp"
#include "util/governor.hpp"
#include "util/osinfo.hpp"

namespace {

using rmsyn::peak_rss_mb;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Stage {
  const char* name;
  double seconds = 0.0;
  std::size_t nodes = 0; ///< node count the stage operated on
  double nodes_per_sec() const {
    return seconds > 0 ? static_cast<double>(nodes) / seconds : 0.0;
  }
};

} // namespace

int main(int argc, char** argv) {
  using namespace rmsyn;
  std::string path = "BENCH_network_scale.json";
  std::string circuit = "mult132";
  std::size_t min_nodes = 100000;
  double min_nodes_per_sec = 1e6;
  double max_rss_mb = 3000.0;
  std::size_t num_patterns = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) path = argv[++i];
    else if (arg == "--circuit" && i + 1 < argc) circuit = argv[++i];
    else if (arg == "--min-nodes" && i + 1 < argc)
      min_nodes = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (arg == "--min-nodes-per-sec" && i + 1 < argc)
      min_nodes_per_sec = std::stod(argv[++i]);
    else if (arg == "--max-rss-mb" && i + 1 < argc)
      max_rss_mb = std::stod(argv[++i]);
    else if (arg == "--patterns" && i + 1 < argc)
      num_patterns = static_cast<std::size_t>(std::stoul(argv[++i]));
  }

  std::vector<Stage> stages;

  // ---- generate --------------------------------------------------------
  Stage gen{"generate"};
  double t0 = now_seconds();
  Network net = make_benchmark(circuit).spec;
  gen.seconds = now_seconds() - t0;
  gen.nodes = net.node_count();
  stages.push_back(gen);
  std::printf("%-10s %8zu nodes in %7.3fs (%.2fM nodes/s)\n", gen.name,
              gen.nodes, gen.seconds, gen.nodes_per_sec() / 1e6);

  // ---- parse (binary AIGER round-trip) ---------------------------------
  Stage parse{"aiger_roundtrip"};
  t0 = now_seconds();
  const std::string aig = write_aiger_string(net, /*binary=*/true);
  Network reread = read_aiger_string(aig);
  parse.seconds = now_seconds() - t0;
  parse.nodes = reread.node_count();
  stages.push_back(parse);
  std::printf("%-10s %8zu nodes in %7.3fs (%.2fM nodes/s, %zu KB)\n",
              parse.name, parse.nodes, parse.seconds,
              parse.nodes_per_sec() / 1e6, aig.size() / 1024);

  // ---- stats -----------------------------------------------------------
  Stage st{"stats"};
  t0 = now_seconds();
  const NetworkStats ns = network_stats(net);
  st.seconds = now_seconds() - t0;
  st.nodes = net.node_count();
  stages.push_back(st);
  std::printf("%-10s %8zu gates2, depth %zu in %7.3fs\n", st.name, ns.gates2,
              ns.depth, st.seconds);

  // ---- simulate (carries the nodes/sec gate) ---------------------------
  Stage sim{"simulate"};
  const PatternSet patterns =
      random_patterns(net.pi_count(), num_patterns, 0x5CA1E);
  t0 = now_seconds();
  const auto values = simulate(net, patterns);
  sim.seconds = now_seconds() - t0;
  sim.nodes = net.node_count();
  stages.push_back(sim);
  std::printf("%-10s %8zu nodes in %7.3fs (%.2fM nodes/s, %zu patterns)\n",
              sim.name, sim.nodes, sim.seconds, sim.nodes_per_sec() / 1e6,
              num_patterns);

  // ---- redundancy under a governed budget ------------------------------
  // The exact (BDD) decisions cannot finish on a 100k-node multiplier;
  // the point is that the pass degrades cleanly — budget trips make it
  // keep undecided gates and return — instead of OOMing or hanging.
  Stage red{"redundancy"};
  ResourceLimits limits;
  limits.deadline_seconds = 20.0;
  limits.node_limit = 2'000'000;
  ResourceGovernor governor(limits);
  RedundancyOptions ropt;
  ropt.governor = &governor;
  ropt.max_patterns = 1024;
  RedundancyStats rstats;
  t0 = now_seconds();
  const Network reduced = remove_xor_redundancy(net, {}, ropt, &rstats);
  red.seconds = now_seconds() - t0;
  red.nodes = reduced.node_count();
  stages.push_back(red);
  std::printf("%-10s %8zu -> %zu nodes in %7.3fs (budget %s)\n", red.name,
              net.node_count(), red.nodes, red.seconds,
              governor.exhausted() ? "tripped" : "not tripped");

  const double rss = peak_rss_mb();
  const double sim_rate = sim.nodes_per_sec();
  std::printf("peak RSS %.1f MB\n", rss);

  bool gate_ok = true;
  if (gen.nodes < min_nodes) {
    std::printf("GATE FAILED: circuit has %zu nodes < required %zu\n",
                gen.nodes, min_nodes);
    gate_ok = false;
  }
  if (sim_rate < min_nodes_per_sec) {
    std::printf("GATE FAILED: simulate %.0f nodes/s < required %.0f\n",
                sim_rate, min_nodes_per_sec);
    gate_ok = false;
  } else {
    std::printf("gate ok: simulate %.2fM nodes/s >= %.2fM\n", sim_rate / 1e6,
                min_nodes_per_sec / 1e6);
  }
  if (rss > max_rss_mb) {
    std::printf("GATE FAILED: peak RSS %.1f MB > ceiling %.1f MB\n", rss,
                max_rss_mb);
    gate_ok = false;
  } else {
    std::printf("gate ok: peak RSS %.1f MB <= %.1f MB\n", rss, max_rss_mb);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"network_scale\",\n"
               "  \"circuit\": \"%s\",\n"
               "  \"patterns\": %zu,\n"
               "  \"min_nodes\": %zu,\n"
               "  \"min_nodes_per_sec\": %.0f,\n"
               "  \"max_rss_mb\": %.1f,\n"
               "  \"peak_rss_mb\": %.1f,\n"
               "  \"gates2\": %zu,\n"
               "  \"depth\": %zu,\n"
               "  \"governor_tripped\": %s,\n  \"stages\": [\n",
               circuit.c_str(), num_patterns, min_nodes, min_nodes_per_sec,
               max_rss_mb,
               rss, ns.gates2, ns.depth,
               governor.exhausted() ? "true" : "false");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& s = stages[i];
    std::fprintf(f,
                 "    {\"stage\": \"%s\", \"nodes\": %zu, \"seconds\": %.6f, "
                 "\"nodes_per_sec\": %.0f}%s\n",
                 s.name, s.nodes, s.seconds, s.nodes_per_sec(),
                 i + 1 < stages.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  return gate_ok ? 0 : 1;
}
