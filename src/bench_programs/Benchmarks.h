//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite of the paper's Section 4, written in GTLC+ (fully
/// typed). Programs read their size parameters with `read-int`, wrap the
/// measured kernel in `(time ...)` (the paper uses internal timing so
/// setup is excluded), and print a checksum so results can be compared
/// across cast modes and configurations.
///
/// Provenance (paper Section 4.1):
///   sieve        — Gradual Typing Performance benchmarks (streams via
///                  equirecursive types)
///   n-body       — Computer Language Benchmarks Game
///   tak, ray, fft— R6RS Scheme benchmark suite
///   blackscholes — PARSEC (synthetic portfolio replaces the PARSEC input
///                  files; see DESIGN.md §5)
///   matmult, quicksort — textbook kernels
///   even/odd     — the CPS example of paper Figure 2
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_BENCH_PROGRAMS_BENCHMARKS_H
#define GRIFT_BENCH_PROGRAMS_BENCHMARKS_H

#include <string>
#include <vector>

namespace grift {

/// One benchmark program.
struct BenchProgram {
  std::string Name;
  std::string Source;       ///< fully typed GTLC+ source
  std::string BenchInput;   ///< input for benchmark-scale runs
  std::string TestInput;    ///< small input for correctness tests
  std::string TestOutput;   ///< expected program output on TestInput
};

/// All nine suite benchmarks (everything except even/odd, which is a
/// Figure 4 program measured at its own sizes).
const std::vector<BenchProgram> &allBenchmarks();

/// Looks a benchmark up by name; aborts on unknown names.
const BenchProgram &getBenchmark(const std::string &Name);

/// The even/odd CPS program of paper Figure 2 (partially typed exactly as
/// in the figure). Reads n from input.
std::string evenOddSource();

/// The quicksort of paper Figure 3: fully typed except the vector
/// parameter of sort!, which is (Vect Dyn). Reads the array length.
std::string quicksortFig3Source();

} // namespace grift

#endif // GRIFT_BENCH_PROGRAMS_BENCHMARKS_H
