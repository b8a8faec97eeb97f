// Benchmark circuit generators reproducing the IWLS'91 set of Table 2.
//
// Circuits whose function is publicly known (the arithmetic ones: adders,
// multipliers, squarers, ones-counters, symmetric functions, parity, t481 —
// whose closed form the paper itself prints) are regenerated exactly from
// their arithmetic definitions. Circuits whose function is not public are
// replaced by documented, seeded synthetic stand-ins with identical I/O
// counts (see DESIGN.md §2 and each generator's comment); they exercise the
// same code paths and reproduce the paper's qualitative behaviour outside
// the arithmetic class.
#pragma once

#include <string>
#include <vector>

#include "network/network.hpp"
#include "sop/cover.hpp"
#include "tt/truth_table.hpp"

namespace rmsyn {

struct Benchmark {
  std::string name;
  int num_inputs = 0;
  int num_outputs = 0;
  bool arithmetic = false; ///< member of the paper's arithmetic subset
  bool exact = false;      ///< regenerated from the known function
  std::string description; ///< includes the substitution note when !exact
  Network spec;
};

/// All Table-2 circuit names, in the paper's row order.
const std::vector<std::string>& benchmark_names();

/// Builds one benchmark by name. Besides the Table-2 registry this accepts
/// the parameterized large-benchmark families "adderN" (N-bit ripple adder
/// with carry-in/out, 2 <= N <= 1024) and "multN" (NxN array multiplier
/// with the full 2N-bit product, 2 <= N <= 512), e.g. adder64, mult128.
/// Throws RmsynError(ParseError) for unknown names: a bad circuit name is
/// a fatal input, like an unreadable file.
Benchmark make_benchmark(const std::string& name);

/// True when `name` is in the registry or a valid parameterized family
/// name (see make_benchmark).
bool has_benchmark(const std::string& name);

// ---- building blocks shared by generators and tests ----

/// n-bit ripple-carry adder; inputs a[0..n), b[0..n) (LSB first) and an
/// optional carry-in; outputs n sum bits plus an optional carry-out.
Network ripple_adder(int nbits, bool with_cin, bool with_cout);

/// n x m array multiplier, LSB first, producing `out_bits` low product bits
/// (out_bits <= n+m).
Network array_multiplier(int n, int m, int out_bits);

/// n-bit squarer producing the low `out_bits` bits of x².
Network squarer(int nbits, int out_bits);

/// Counts the ones among n inputs into a ceil(log2(n+1))-bit binary output
/// (the rd53/rd73/rd84 family).
Network ones_counter(int nbits);

/// Symmetric threshold-band function: output 1 iff lo <= weight <= hi.
Network weight_band(int nbits, int lo, int hi);

/// n-input parity.
Network parity_chain(int nbits);

/// Builds a two-level network (one OR-of-ANDs node per output) from covers.
Network network_from_covers(const std::vector<Cover>& outputs,
                            int num_inputs);

/// Builds a two-level network from explicit truth tables.
Network network_from_tts(const std::vector<TruthTable>& outputs);

} // namespace rmsyn
