//===- perfbench/src/Inputs.h - Benchmark-owned input generators -*- C++ -*-===//
///
/// \file
/// The benchmark writes its own graphs from its own seed, with its own
/// generators, so that a change to the project's src/graph/Generators.cpp
/// can never silently change a workload. Graphs reach the program only as
/// edge-list files ("src dst" lines, the format loadEdgeListFile reads);
/// road-grid edge lengths go to a side file of "src dst len" lines.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PERFBENCH_INPUTS_H
#define GM_PERFBENCH_INPUTS_H

#include "graph/Graph.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, and identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

using EdgeList = std::vector<std::pair<uint32_t, uint32_t>>;

struct LengthEdge {
  uint32_t Src, Dst;
  int64_t Len;
};

/// R-MAT power-law graph on 2^Scale nodes (a, b, c, d = 0.57, 0.19, 0.19,
/// 0.05), node ids not permuted, so hubs cluster at low ids.
EdgeList rmatEdges(unsigned Scale, uint64_t NumEdges, uint64_t Seed);

/// A Rows x Cols street grid: every street is two directed edges with the
/// same integer length, drawn uniformly from [1, MaxLen].
std::vector<LengthEdge> roadGridEdges(uint32_t Rows, uint32_t Cols,
                                      int64_t MaxLen, uint64_t Seed);

EdgeList withoutLengths(const std::vector<LengthEdge> &Edges);

/// Write "src dst" / "src dst len" lines; throw std::runtime_error on IO
/// failure.
void writeEdgeListFile(const std::string &Path, const EdgeList &Edges);
void writeLengthFile(const std::string &Path,
                     const std::vector<LengthEdge> &Edges);

/// Reads a length file and returns the lengths indexed by \p G's edge ids.
/// Throws std::runtime_error when a line names an edge \p G lacks or an
/// edge is left without a length.
std::vector<int64_t> loadLengths(const std::string &Path, const gm::Graph &G);

} // namespace perfbench

#endif // GM_PERFBENCH_INPUTS_H
