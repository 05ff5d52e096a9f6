//===- perfbench/src/Spans.h - The benchmark's own span recorder -*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer of the
/// program: a name ("layer.what"), a start, an end, a parent, and the id of
/// the job they belong to. Engine phases are not observable from outside a
/// call, so they are attached afterwards as derived child spans built from
/// the RunStats the call returned. Spans stay in memory and are written out
/// as one Chrome-trace JSON document when the run ends.
///
/// A span's self time is its duration minus the time its children cover.
/// Container spans (the engine run and its supersteps) attribute their self
/// time to no layer: that is the unattributed remainder.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PERFBENCH_SPANS_H
#define GM_PERFBENCH_SPANS_H

#include "Common.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gm::pregel {
struct RunStats;
}

namespace perfbench {

struct Span {
  std::string Name;
  uint64_t Job = 0;
  int Parent = -1;
  double Start = 0, End = 0; ///< seconds since the log was created
  bool Derived = false;      ///< built from returned stats, not a clock
};

/// Per-superstep phase totals of one engine run, in seconds.
struct PhaseSeconds {
  double Master = 0, Compute = 0, Combine = 0, Barrier = 0, Deliver = 0;
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  /// Seconds since the log was created.
  double now() const { return secondsSince(Origin); }

  /// Records a span with explicit times; returns its index (-1 when the
  /// log is disabled).
  int add(std::string Name, uint64_t Job, int Parent, double Start,
          double End, bool Derived = false);

  /// Attaches one engine run as derived children of \p Parent: a pregel.run
  /// span of the run's wall time ending where the parent ends, one
  /// pregel.step per superstep laid end to end inside it, and the phases
  /// master, compute (containing combine), barrier and deliver inside each
  /// step.
  void attachEngineRun(int Parent, const gm::pregel::RunStats &S);
  /// The same from per-run phase totals only (a report without steps).
  void attachEnginePhases(int Parent, double WallSeconds,
                          const PhaseSeconds &P);

  /// Self seconds summed by span name.
  std::map<std::string, double> selfSeconds() const;
  /// Self seconds of the container spans (see file comment).
  double unattributedSeconds() const;
  /// Summed duration of the root spans named \p Root.
  double rootSeconds(const std::string &Root) const;

  /// True when every span lies inside its parent and shares its job id;
  /// otherwise fills \p Why with the first violation.
  bool nests(std::string *Why) const;

  /// Writes the Chrome-trace JSON document; throws std::runtime_error on
  /// IO failure.
  void writeChromeTrace(const std::string &Path) const;

private:
  /// Lays the phases of \p P end to end from \p T under \p Parent,
  /// clipped at \p Limit, with \p Job's id.
  void addPhases(const Span &Job, int Parent, double T, double Limit,
                   const PhaseSeconds &P);
  Span span(int Idx) const;

  bool Enabled;
  Clock::time_point Origin = Clock::now();
  mutable std::mutex Mu; ///< guards Spans (serving records from threads)
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // GM_PERFBENCH_SPANS_H
