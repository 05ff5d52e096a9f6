//===- perfbench/src/Spans.cpp ---------------------------------------------===//

#include "Spans.h"

#include "pregel/Runtime.h"
#include "support/JSON.h"

#include <fstream>
#include <stdexcept>

using namespace perfbench;

namespace {

/// Spans whose self time belongs to no layer.
bool isContainer(const std::string &Name) {
  return Name == "pregel.run" || Name == "pregel.step";
}

/// Slack for derived spans, whose times are sums of separately rounded
/// clock readings.
constexpr double NestSlack = 1e-6;

} // namespace

int SpanLog::add(std::string Name, uint64_t Job, int Parent, double Start,
                 double End, bool Derived) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({std::move(Name), Job, Parent, Start, End, Derived});
  return int(Spans.size()) - 1;
}

void SpanLog::addPhases(const Span &Job, int Parent, double T, double Limit,
                        const PhaseSeconds &P) {
  auto Phase = [&](const char *Name, double Secs) {
    const double Stop = std::min(T + Secs, Limit);
    const int Idx = add(Name, Job.Job, Parent, T, Stop, true);
    T = Stop;
    return Idx;
  };
  Phase("pregel.master", P.Master);
  const double ComputeStart = T;
  const int Compute = Phase("pregel.compute", P.Compute);
  // Combining runs inside the compute phase, at the end of each worker's
  // vertex loop.
  add("pregel.combine", Job.Job, Compute, std::max(ComputeStart, T - P.Combine),
      T, true);
  Phase("pregel.barrier", P.Barrier);
  Phase("pregel.deliver", P.Deliver);
}

void SpanLog::attachEnginePhases(int Parent, double WallSeconds,
                                 const PhaseSeconds &P) {
  if (!Enabled || Parent < 0)
    return;
  const Span Par = span(Parent);
  const double Begin = std::max(Par.Start, Par.End - WallSeconds);
  const int Run =
      add("pregel.run", Par.Job, Parent, Begin, Par.End, true);
  addPhases(Par, Run, Begin, Par.End, P);
}

void SpanLog::attachEngineRun(int Parent, const gm::pregel::RunStats &S) {
  if (!Enabled || Parent < 0)
    return;
  const Span Par = span(Parent);
  const double Begin = std::max(Par.Start, Par.End - S.WallSeconds);
  const int Run =
      add("pregel.run", Par.Job, Parent, Begin, Par.End, true);
  double T = Begin;
  for (const gm::pregel::SuperstepMetrics &M : S.Steps) {
    const PhaseSeconds P{M.MasterSeconds, M.ComputeSeconds, M.CombineSeconds,
                         M.BarrierSeconds, M.DeliverSeconds};
    const double StepEnd = std::min(
        T + P.Master + P.Compute + P.Barrier + P.Deliver, Par.End);
    const int Step =
        add("pregel.step", Par.Job, Run, T, StepEnd, true);
    addPhases(Par, Step, T, StepEnd, P);
    T = StepEnd;
  }
}

Span SpanLog::span(int Idx) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans[size_t(Idx)];
}

std::map<std::string, double> SpanLog::selfSeconds() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  // Children of one parent never overlap (one thread records them in
  // order), so covered time is the sum of their durations.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  std::map<std::string, double> ByName;
  for (size_t I = 0; I < Spans.size(); ++I)
    ByName[Spans[I].Name] += std::max(0.0, Self[I]);
  return ByName;
}

double SpanLog::unattributedSeconds() const {
  double Total = 0;
  for (const auto &[Name, Secs] : selfSeconds())
    if (isContainer(Name))
      Total += Secs;
  return Total;
}

double SpanLog::rootSeconds(const std::string &Root) const {
  std::lock_guard<std::mutex> Lock(Mu);
  double Total = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0 && S.Name == Root)
      Total += S.End - S.Start;
  return Total;
}

bool SpanLog::nests(std::string *Why) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto Fail = [&](const std::string &What) {
      if (Why)
        *Why = "span " + std::to_string(I) + " (" + S.Name + "): " + What;
      return false;
    };
    if (S.End < S.Start)
      return Fail("ends before it starts");
    if (S.Parent < 0)
      continue;
    if (size_t(S.Parent) >= I)
      return Fail("parent recorded after the child");
    const Span &P = Spans[S.Parent];
    if (P.Job != S.Job)
      return Fail("job id differs from its parent's");
    if (S.Start < P.Start - NestSlack || S.End > P.End + NestSlack)
      return Fail("lies outside its parent " + P.Name);
  }
  return true;
}

void SpanLog::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream Out(Path);
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
  gm::json::Writer W(Out, /*Pretty=*/false);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.field("name", S.Name);
    W.field("cat", S.Name.substr(0, S.Name.find('.')));
    W.field("ph", "X");
    W.field("ts", S.Start * 1e6);
    W.field("dur", (S.End - S.Start) * 1e6);
    W.field("pid", uint64_t(1));
    W.field("tid", uint64_t(1));
    W.key("args");
    W.beginObject();
    W.field("job", S.Job);
    W.field("span", uint64_t(I));
    W.field("parent", int64_t(S.Parent));
    W.field("derived", S.Derived);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.field("displayTimeUnit", "ms");
  W.endObject();
  Out << '\n';
  if (!Out)
    throw std::runtime_error("short write to " + Path);
}
