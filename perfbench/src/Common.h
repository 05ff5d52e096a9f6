//===- perfbench/src/Common.h - Shared benchmark types ----------*- C++ -*-===//
///
/// \file
/// What every workload driver shares: the run options, the metric record
/// (name, value, unit, sample count), the outcome of one run, and the small
/// statistics and clock helpers used to turn samples into metrics.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PERFBENCH_COMMON_H
#define GM_PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Workload sizes. Full is the benchmark proper; Toy runs every workload in
/// a couple of seconds for the self-check.
enum class Size { Full, Toy };

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  Size Scale = Size::Full;
  std::string Root;    ///< checkout root (holds algorithms/*.gm)
  std::string WorkDir; ///< scratch for generated inputs and trace files
  unsigned Cores = 1;  ///< hardware threads available to the run
};

/// One reported figure. Samples is how many measurements it summarizes
/// (1 for a single measured or derived value, 0 when the workload does not
/// exercise that layer and the value is a structural zero).
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
};

struct Outcome {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Jobs attempted, and those that failed, were rejected, produced a
  /// wrong output, or missed the latency limit.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Output-check failures, one line each. Any entry fails the run.
  std::vector<std::string> Errors;
  /// Traced runs: self seconds of the recorded spans, by span name.
  std::map<std::string, double> SelfSeconds;

  void add(std::vector<Metric> &To, std::string Name, double Value,
           std::string Unit, uint64_t Samples) {
    To.push_back({std::move(Name), Value, std::move(Unit), Samples});
  }
  void e2e(std::string Name, double Value, std::string Unit,
           uint64_t Samples) {
    add(EndToEnd, std::move(Name), Value, std::move(Unit), Samples);
  }
  void layer(std::string Name, double Value, std::string Unit,
             uint64_t Samples) {
    add(PerLayer, std::move(Name), Value, std::move(Unit), Samples);
  }
  void error(std::string Msg) { Errors.push_back(std::move(Msg)); }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Linear-interpolation quantile (q in [0,1]) of \p V; 0 when empty.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const size_t Lo = size_t(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

inline double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Process peak resident set size in MiB.
double peakRssMb();

/// Reads a whole file; throws std::runtime_error when it cannot.
std::string readFile(const std::string &Path);

/// Workload entry points (Batch.cpp, Serving.cpp).
Outcome runPageRankRmat(const Options &O);
Outcome runSsspGrid(const Options &O);
Outcome runServingMix(const Options &O);

} // namespace perfbench

#endif // GM_PERFBENCH_COMMON_H
