// The Table-2 circuit registry: name -> generator + metadata, in the
// paper's row order.
#include "benchgen/spec.hpp"

#include <functional>
#include <map>

#include "benchgen/generators.hpp"
#include "util/errors.hpp"

namespace rmsyn {

namespace {

struct Entry {
  bool arithmetic;
  bool exact;
  const char* description;
  std::function<Network()> build;
};

const std::vector<std::pair<std::string, Entry>>& registry() {
  static const std::vector<std::pair<std::string, Entry>> table = {
      {"5xp1",
       {true, false,
        "modeled as y = 5x+1 over 7 bits (10 outputs); original PLA not "
        "redistributable",
        [] { return bg::fivexp1(); }}},
      {"9sym",
       {true, true, "symmetric: 1 iff input weight in [3,6]",
        [] { return weight_band(9, 3, 6); }}},
      {"adr4",
       {true, true, "4-bit ripple adder, no carry-in, with carry-out",
        [] { return ripple_adder(4, false, true); }}},
      {"add6",
       {true, true, "6-bit ripple adder, no carry-in, with carry-out",
        [] { return ripple_adder(6, false, true); }}},
      {"addm4",
       {true, false, "modeled as (a*b + c) mod 256, a,b 4-bit (9/8)",
        [] { return bg::addm4(); }}},
      {"bcd-div3",
       {true, false,
        "BCD digit / 3 -> quotient+remainder, non-BCD codes map to 0",
        [] { return bg::bcd_div3(); }}},
      {"cc",
       {false, false, "synthetic random control logic (21/20), seeded",
        [] { return bg::cc(); }}},
      {"co14",
       {true, false, "modeled as equality of two 7-bit vectors (14/1)",
        [] { return bg::co14(); }}},
      {"cm163a",
       {false, false, "modeled on 74x163 counter next-state logic (16/5)",
        [] { return bg::counter163(); }}},
      {"cm82a",
       {true, true, "2-bit ripple adder with carry-in and carry-out (5/3)",
        [] { return ripple_adder(2, true, true); }}},
      {"cm85a",
       {false, false, "modeled on the 74x85 4-bit magnitude comparator (11/3)",
        [] { return bg::comparator85(); }}},
      {"cmb",
       {false, false, "modeled as an 8-bit bus checker (16/4)",
        [] { return bg::cmb(); }}},
      {"f2",
       {true, false, "modeled as a 2x2 multiplier (4/4)",
        [] { return bg::f2(); }}},
      {"f51m",
       {true, false, "modeled as y = (5x+1) mod 256 over 8 bits (8/8)",
        [] { return bg::f51m(); }}},
      {"frg1",
       {false, false, "synthetic random control logic (28/3), seeded",
        [] { return bg::frg1(); }}},
      {"i1",
       {false, false, "synthetic random control logic (25/13), seeded",
        [] { return bg::i1(); }}},
      {"i3",
       {false, false, "synthetic wide AND-OR selector plane (132/6)",
        [] { return bg::i3(); }}},
      {"i4",
       {false, false, "synthetic wide AND-OR selector plane (192/6)",
        [] { return bg::i4(); }}},
      {"i5",
       {false, false, "modeled as a 66-wide 2:1 mux bank (133/66)",
        [] { return bg::mux_bank66(); }}},
      {"m181",
       {false, false, "synthetic random control logic (15/9), seeded",
        [] { return bg::m181(); }}},
      {"majority",
       {true, true, "5-input majority", [] { return bg::majority5(); }}},
      {"misg",
       {false, false, "synthetic random control logic (56/23), seeded",
        [] { return bg::misg(); }}},
      {"mish",
       {false, false, "synthetic random control logic (94/34), seeded",
        [] { return bg::mish(); }}},
      {"mlp4",
       {true, true, "4x4 array multiplier (8/8)",
        [] { return array_multiplier(4, 4, 8); }}},
      {"my_adder",
       {true, true, "16-bit ripple adder with carry-in and carry-out (33/17)",
        [] { return ripple_adder(16, true, true); }}},
      {"parity",
       {true, true, "16-input parity", [] { return parity_chain(16); }}},
      {"pcle",
       {false, false, "modeled as registered-bus load glue (19/9)",
        [] { return bg::pcle(); }}},
      {"pcler8",
       {false, false, "modeled as registered-bus load glue (27/17)",
        [] { return bg::pcler8(); }}},
      {"pm1",
       {false, false, "synthetic random control logic (16/13), seeded",
        [] { return bg::pm1(); }}},
      {"radd",
       {true, true, "4-bit ripple adder, no carry-in, with carry-out (8/5)",
        [] { return ripple_adder(4, false, true); }}},
      {"rd53",
       {true, true, "ones counter: 5 inputs -> 3-bit count",
        [] { return ones_counter(5); }}},
      {"rd73",
       {true, true, "ones counter: 7 inputs -> 3-bit count",
        [] { return ones_counter(7); }}},
      {"rd84",
       {true, true, "ones counter: 8 inputs -> 4-bit count",
        [] { return ones_counter(8); }}},
      {"shift",
       {false, false, "modeled as a 16-bit barrel shifter, 3-bit amount (19/16)",
        [] { return bg::barrel_shift16(); }}},
      {"sqr6",
       {true, true, "6-bit squarer (6/12)", [] { return squarer(6, 12); }}},
      {"squar5",
       {true, false, "5-bit squarer, low 8 product bits (5/8)",
        [] { return squarer(5, 8); }}},
      {"sym10",
       {true, true, "symmetric: 1 iff input weight in [3,6]",
        [] { return weight_band(10, 3, 6); }}},
      {"t481",
       {true, true, "closed form printed in the paper (Example 1)",
        [] { return bg::t481(); }}},
      {"tcon",
       {false, false, "modeled as feed-through/gated wire bundle (17/16)",
        [] { return bg::tcon(); }}},
      {"xor10",
       {true, true, "10-input parity", [] { return parity_chain(10); }}},
      {"z4ml",
       {true, true, "3-bit ripple adder with carry-in and carry-out (7/4)",
        [] { return ripple_adder(3, true, true); }}},
  };
  return table;
}

/// Parses a parameterized family name "<prefix><N>" (e.g. adder64,
/// mult128). Returns N, or 0 when `name` is not of that shape or N is
/// outside [2, max_bits].
int parse_param(const std::string& name, const std::string& prefix,
                int max_bits) {
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0)
    return 0;
  int n = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return 0;
    n = n * 10 + (c - '0');
    if (n > max_bits) return 0;
  }
  return n >= 2 ? n : 0;
}

} // namespace

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& [name, entry] : registry()) v.push_back(name);
    return v;
  }();
  return names;
}

bool has_benchmark(const std::string& name) {
  for (const auto& [n, e] : registry())
    if (n == name) return true;
  return parse_param(name, "adder", 1024) != 0 ||
         parse_param(name, "mult", 512) != 0;
}

Benchmark make_benchmark(const std::string& name) {
  for (const auto& [n, e] : registry()) {
    if (n != name) continue;
    Benchmark b;
    b.name = n;
    b.arithmetic = e.arithmetic;
    b.exact = e.exact;
    b.description = e.description;
    b.spec = e.build();
    b.num_inputs = static_cast<int>(b.spec.pi_count());
    b.num_outputs = static_cast<int>(b.spec.po_count());
    return b;
  }
  // Parameterized large-benchmark families, not part of the Table-2 set:
  // adderN = N-bit ripple adder with carry-in/out, multN = NxN array
  // multiplier with the full 2N-bit product (mult128 is ~100k+ gates).
  if (const int n = parse_param(name, "adder", 1024)) {
    Benchmark b;
    b.name = name;
    b.arithmetic = b.exact = true;
    b.description = std::to_string(n) +
                    "-bit ripple adder with carry-in and carry-out (generated)";
    b.spec = ripple_adder(n, true, true);
    b.num_inputs = static_cast<int>(b.spec.pi_count());
    b.num_outputs = static_cast<int>(b.spec.po_count());
    return b;
  }
  if (const int n = parse_param(name, "mult", 512)) {
    Benchmark b;
    b.name = name;
    b.arithmetic = b.exact = true;
    b.description = std::to_string(n) + "x" + std::to_string(n) +
                    " array multiplier, full product (generated)";
    b.spec = array_multiplier(n, n, 2 * n);
    b.num_inputs = static_cast<int>(b.spec.pi_count());
    b.num_outputs = static_cast<int>(b.spec.po_count());
    return b;
  }
  throw RmsynError(ErrorCode::ParseError,
                   "make_benchmark: unknown circuit " + name);
}

} // namespace rmsyn
