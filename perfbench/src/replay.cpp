#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "baseline/script.hpp"
#include "baseline/sop_network.hpp"
#include "core/factor_cubes.hpp"
#include "core/factor_ofdd.hpp"
#include "core/redundancy.hpp"
#include "core/resub.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "mapping/genlib.hpp"
#include "mapping/mapper.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "power/power.hpp"
#include "sop/minimize.hpp"
#include "trace.hpp"

namespace rmbench {

using namespace rmsyn;

namespace {

struct Candidate {
  Network net;
  std::vector<FprmForm> forms;
  std::size_t cost = 0;
};

std::vector<NodeId> add_spec_pis(Network& out, const Network& spec) {
  std::vector<NodeId> pi_nodes;
  for (std::size_t i = 0; i < spec.pi_count(); ++i)
    pi_nodes.push_back(out.add_pi(spec.name(spec.pis()[i])));
  return pi_nodes;
}

bool is_constant(BddManager& mgr, BddRef f) {
  return f == mgr.bdd_false() || f == mgr.bdd_true();
}

FprmForm traced_extract(BddManager& mgr, const Ofdd& ofdd, int nvars,
                        std::size_t cube_limit) {
  Span span("fdd.extract_fprm");
  FprmForm form = extract_fprm(mgr, ofdd, nvars, cube_limit);
  // synthesize() also counts the spectrum's cubes here for its report.
  (void)fprm_cube_count(mgr, ofdd.root, ofdd.support);
  count("fdd.fprm_cubes", static_cast<double>(form.cube_count()));
  return form;
}

/// Method 1 with per-output polarity search (synthesize's cube candidate).
Candidate cubes_candidate(const Network& spec, BddManager& mgr,
                          const std::vector<BddRef>& fns,
                          const SynthOptions& opt) {
  Candidate c;
  const std::vector<NodeId> pi_nodes = add_spec_pis(c.net, spec);
  for (std::size_t j = 0; j < spec.po_count(); ++j) {
    const BddRef f = fns[j];
    if (is_constant(mgr, f)) {
      c.net.add_po(c.net.constant(f == mgr.bdd_true()), spec.po_name(j));
      c.forms.emplace_back();
      continue;
    }
    BitVec polarity;
    {
      Span span("fdd.best_polarity");
      polarity = best_polarity(mgr, f, opt.polarity);
    }
    Ofdd ofdd;
    {
      Span span("fdd.build_ofdd");
      ofdd = build_ofdd(mgr, f, polarity);
    }
    FprmForm form = traced_extract(
        mgr, ofdd, static_cast<int>(spec.pi_count()), opt.cube_limit);
    NodeId root;
    if (form.truncated) {
      Span span("core.factor_ofdd");
      root = factor_ofdd(c.net, pi_nodes, mgr, ofdd);
    } else {
      Span span("core.factor_cubes");
      root = factor_cubes(c.net, pi_nodes, form);
    }
    c.net.add_po(root, spec.po_name(j));
    c.forms.push_back(std::move(form));
    Span span("bdd.manager");
    mgr.gc();
  }
  return c;
}

/// Method 2 with one shared polarity (synthesize's OFDD candidate).
Candidate ofdd_candidate(const Network& spec, BddManager& mgr,
                         const std::vector<BddRef>& fns,
                         const SynthOptions& opt) {
  Candidate c;
  const std::vector<NodeId> pi_nodes = add_spec_pis(c.net, spec);
  BitVec polarity;
  {
    Span span("fdd.best_polarity_multi");
    polarity = best_polarity_multi(mgr, fns, opt.polarity);
  }
  std::vector<int> all_vars;
  for (int v = 0; v < static_cast<int>(spec.pi_count()); ++v)
    all_vars.push_back(v);
  SharedOfddBuilder shared(c.net, pi_nodes, mgr, polarity);
  for (std::size_t j = 0; j < spec.po_count(); ++j) {
    const BddRef f = fns[j];
    if (is_constant(mgr, f)) {
      c.net.add_po(c.net.constant(f == mgr.bdd_true()), spec.po_name(j));
      c.forms.emplace_back();
      continue;
    }
    BddRef spectrum;
    {
      Span span("fdd.rm_spectrum");
      spectrum = rm_spectrum(mgr, f, all_vars, polarity);
    }
    {
      Span span("core.factor_ofdd");
      c.net.add_po(shared.build(spectrum), spec.po_name(j));
    }
    Ofdd ofdd;
    {
      Span span("fdd.build_ofdd");
      ofdd = build_ofdd(mgr, f, polarity);
    }
    c.forms.push_back(traced_extract(
        mgr, ofdd, static_cast<int>(spec.pi_count()), opt.cube_limit));
  }
  return c;
}

/// synthesize() hands its FPRM forms back in the spec's variable order;
/// the network does not depend on it, but the time it takes is part of
/// every synthesize() call, so the replay pays it too.
void remap_forms(std::vector<FprmForm>& forms,
                 const std::vector<std::size_t>& perm) {
  for (FprmForm& form : forms) {
    if (form.polarity.size() == 0) continue;
    const std::size_t k = form.support.size();
    std::vector<int> new_ids(k);
    for (std::size_t i = 0; i < k; ++i)
      new_ids[i] = static_cast<int>(perm[static_cast<std::size_t>(form.support[i])]);
    std::vector<std::size_t> by_id(k);
    for (std::size_t i = 0; i < k; ++i) by_id[i] = i;
    std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
      return new_ids[a] < new_ids[b];
    });
    std::vector<int> sorted_ids(k);
    std::vector<std::size_t> new_pos(k);
    for (std::size_t r = 0; r < k; ++r) {
      sorted_ids[r] = new_ids[by_id[r]];
      new_pos[by_id[r]] = r;
    }
    for (BitVec& cube : form.cubes) {
      BitVec remapped(cube.size());
      for (std::size_t i = cube.first_set(); i != BitVec::npos;
           i = cube.next_set(i + 1))
        remapped.set(new_pos[i]);
      cube = remapped;
    }
    form.support = std::move(sorted_ids);
    BitVec pol(form.polarity.size());
    for (std::size_t v = 0; v < perm.size(); ++v)
      pol.set(perm[v], form.polarity.get(v));
    form.polarity = pol;
  }
}

uint64_t fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

} // namespace

void baseline_probe(const Network& spec) {
  Span probe("baseline.probe");
  const BaselineOptions bo;
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(spec)));
  {
    Span span("baseline.flatten");
    SopNetwork flat = sn;
    if (flat.flatten(bo.flatten_cube_cap)) {
      sn = std::move(flat);
    } else {
      count("baseline.flatten.aborts", 1);
      count("baseline.flatten.abort_s", span.seconds());
    }
  }
  Span span("sop.espresso_lite");
  for (const int n : sn.topo_nodes()) {
    const Cover& c = sn.cover_of(n);
    if (c.size() <= 1) continue;
    count("sop.espresso_lite.cubes_in", static_cast<double>(c.size()));
    Cover out = espresso_lite(c);
    count("sop.espresso_lite.cubes_out", static_cast<double>(out.size()));
    sn.set_cover(n, std::move(out));
  }
}

Columns columns_of(const FlowRow& row) {
  Columns c;
  c.ours_lits = row.ours_lits;
  c.ours_gates = row.ours_gates;
  c.ours_map_lits = row.ours_map_lits;
  c.ours_power = row.ours_power;
  c.base_lits = row.base_lits;
  c.base_gates = row.base_gates;
  c.base_map_lits = row.base_map_lits;
  c.base_power = row.base_power;
  return c;
}

Network replay_synthesize(const Network& spec) {
  Span top("core.synthesize");
  const SynthOptions opt;
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> identity(spec.pi_count());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  orders.push_back(identity);
  {
    Span span("core.pi_order");
    if (auto h = spectrum_friendly_pi_order(spec); h != identity)
      orders.push_back(std::move(h));
  }

  std::optional<Candidate> best;
  std::size_t best_order = 0;
  for (std::size_t oi = 0; oi < orders.size(); ++oi) {
    Network spec_p;
    {
      Span span("core.pi_order");
      spec_p = oi == 0 ? spec : permute_pis(spec, orders[oi]);
    }
    std::unique_ptr<BddManager> owned;
    {
      Span span("bdd.manager");
      owned = std::make_unique<BddManager>(static_cast<int>(spec_p.pi_count()));
    }
    BddManager& mgr = *owned;
    std::vector<BddRef> fns;
    {
      Span span("bdd.output_bdds");
      fns = output_bdds(mgr, spec_p);
    }
    Candidate cands[2] = {cubes_candidate(spec_p, mgr, fns, opt),
                          ofdd_candidate(spec_p, mgr, fns, opt)};
    for (Candidate& c : cands) {
      {
        Span span("core.resub_merge");
        c.net = resub_merge(c.net, ResubOptions{});
      }
      Span span("network.stats");
      c.cost = network_stats(c.net).gates2;
      if (!best.has_value() || c.cost < best->cost) {
        best = std::move(c);
        best_order = oi;
      }
    }
    const BddStats st = mgr.stats();
    count_max("bdd.peak_live_nodes", static_cast<double>(st.peak_live_nodes));
    count("bdd.cache_lookups", static_cast<double>(st.cache_lookups));
    count("bdd.cache_hits", static_cast<double>(st.cache_hits));
    count("bdd.gc_runs", static_cast<double>(st.gc_runs));
    Span span("bdd.manager");
    owned.reset();
  }

  Network out;
  {
    Span span("core.remove_xor_redundancy");
    RedundancyStats rs;
    out = remove_xor_redundancy(best->net, best->forms, opt.redundancy, &rs);
    count("core.redundancy.exact_checks", static_cast<double>(rs.exact_checks));
    count("core.redundancy.reductions",
          static_cast<double>(rs.reduced_to_or + rs.reduced_to_andnot +
                              rs.reduced_to_nand +
                              rs.observability_reductions +
                              rs.fanins_removed));
  }
  {
    Span span("network.strash");
    out = strash(out);
  }
  if (best_order != 0) {
    const auto& perm = orders[best_order];
    {
      Span span("core.pi_order");
      std::vector<std::size_t> inverse(perm.size());
      for (std::size_t k = 0; k < perm.size(); ++k) inverse[perm[k]] = k;
      out = permute_pis(out, inverse);
    }
    Span span("core.remap_forms");
    remap_forms(best->forms, perm);
  }
  {
    Span span("equiv.check_equivalence");
    const EquivResult check = check_equivalence(spec, out, 0xC0FFEE, nullptr);
    if (!check.equivalent)
      throw std::runtime_error("replayed synthesis not equivalent: " +
                               check.reason);
  }
  {
    // synthesize() hands the forms to its report; freeing millions of
    // cubes is part of the call's cost either way.
    Span span("core.free_forms");
    best.reset();
  }
  return out;
}

double flow_power(const Network& net, const std::string& circuit) {
  Span span("power.estimate_power");
  PowerOptions po;
  po.sim_seed ^= fnv1a64(circuit);
  return estimate_power(expand_xor(decompose2(strash(net))), po).total;
}

ReplayedRow replay_flow(const Benchmark& bench) {
  Span row_span("flow.row");
  ReplayedRow r;
  r.ours = replay_synthesize(bench.spec);
  {
    Span span("baseline.baseline_synthesize");
    r.base = baseline_synthesize(bench.spec);
  }
  {
    Span span("network.stats");
    r.cols.ours_lits = network_stats(r.ours).lits;
    r.cols.base_lits = network_stats(r.base).lits;
  }
  for (auto [net, gates, lits] :
       {std::tuple{&r.ours, &r.cols.ours_gates, &r.cols.ours_map_lits},
        std::tuple{&r.base, &r.cols.base_gates, &r.cols.base_map_lits}}) {
    Span span("mapping.map_network");
    const MapResult m = map_network(*net, mcnc_library());
    *gates = m.gate_count;
    *lits = m.literal_count;
  }
  r.cols.ours_power = flow_power(r.ours, bench.name);
  r.cols.base_power = flow_power(r.base, bench.name);
  return r;
}

} // namespace rmbench
