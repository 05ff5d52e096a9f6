//===- perfbench/src/Serving.cpp - serving-mix ------------------------------===//
///
/// \file
/// An in-process gm::service::Service driven through handle(), with no
/// socket, by an open-loop generator.
///
///  * Graphs: two small resident graphs, a social one (R-MAT) and a road
///    one (street grid), loaded from edge-list files.
///  * Jobs: a Poisson stream of a seeded mix of heavy jobs (pagerank,
///    comp_label) and light ones (degree_stats, conductance, bc_approx).
///    Every job supplies all its scalar arguments and a fresh engine seed,
///    and runs on the default interp backend. A fixed share of jobs are
///    exact repeats of recent ones, which the result cache can serve; a low
///    share of requests reload a graph, which bumps its epoch and drops its
///    cached reports.
///  * Threads: min(nproc/2, 4) executors, each job one sequential engine,
///    so executors x engine threads <= nproc. The generator is one thread.
///
/// The generator spins, on a core of its own, until each job is due and
/// submits it without waiting ("wait": false), so the service's queue, not
/// the generator, absorbs a burst. After the phase it waits for every job
/// and reads its record, report included, from the service's scheduler. A
/// job completes at its admission time plus the queue and run seconds the
/// service records for it; its latency runs from its due time to that
/// completion, so a late generator is charged too, and how late it ran is
/// reported as loadgen.lag. A rejected submit counts as over the latency
/// limit.
///
/// After untimed warm-up traffic and the timed set-ups, a run spends half
/// its window at the nominal rate (latencies and the per-layer figures),
/// then the rest, on a fresh service, searching a fixed geometric ladder of
/// rates for the highest one whose p99 latency meets the limit. A traced
/// run spends the whole window at the nominal rate and traces every job.
///
/// Checks: every response is ok; every report of one job identity equals
/// the first one after canonicalizeReport (so a cache hit equals its miss);
/// after the window every distinct job is rerun directly (compile +
/// runProgramWithBackend) and its totals must equal the served report's,
/// with pagerank and comp_label outputs also checked against the reference
/// kernels.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Inputs.h"
#include "Spans.h"

#include "algorithms/reference/Sequential.h"
#include "driver/Compiler.h"
#include "exec/Backend.h"
#include "graph/EdgeListIO.h"
#include "pregel/MessageLayout.h"
#include "service/Service.h"
#include "support/JSON.h"

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sched.h>

using namespace perfbench;
using namespace gm;

namespace {

/// Offered rate of the latency figures, and the limit on latency_p99_s.
/// On a 4-core host the nominal rate is about a seventh of
/// max_rate_jobs_per_s: near half of it, queueing made the medians swing
/// from run to run. The limit sits well above the heaviest job's run time,
/// so only queueing can break it.
constexpr double NominalRate = 80;    // jobs per second
constexpr double LatencyLimit = 0.25; // seconds
/// The max-rate ladder: NominalRate * 2^(k/12) for k in [LadderLo, LadderHi],
/// a quarter to 64 times the nominal rate in steps of 6%.
constexpr int LadderLo = -24, LadderHi = 72;
/// The max-rate search: a staircase of steps of a fixed length, moving
/// StairStride rungs at first. The length is fixed rather than a share of
/// the window because it sets how far past its capacity the service can
/// run for one step before the backlog breaks the limit.
constexpr double StepSeconds = 1.0;
constexpr int StairStride = 4;
/// Set-ups timed for setup_s.
constexpr int SetupReps = 5;
/// Untimed warm-up traffic, at four times the nominal rate (rung 24 of the
/// ladder) for a fixed 15 s, a tenth of the window at toy size.
constexpr int WarmupRung = 24;
constexpr double WarmupSeconds = 15;
constexpr unsigned JobWorkers = 2; // engine workers per job (sequential)

// The traffic mix below is an assumption: the repository holds no record of
// real gmd traffic. Each share is chosen for what the benchmark must
// expose, not to model a population of users.

/// Every 100th request is a reload: at the nominal rate that is one every
/// 1.25 s, so a window holds enough reloads for service.load_s and each
/// graph's cache lives long enough for most repeats to hit it.
constexpr uint64_t ReloadEvery = 100;
/// A repeat picks one of the last 32 fresh jobs. That is well inside the
/// service's default cache of 128 reports, so a repeat misses only when a
/// reload dropped its entry or its first run has not finished yet.
constexpr size_t RecentJobs = 32;

struct ProgramDef {
  const char *Name;
  int Slots[2]; ///< fresh jobs on the social and road graph per deck
};

/// The mix, dealt from a shuffled deck so that every 20 jobs hold exactly
/// these shares: 8 repeats of a recent job and 12 fresh jobs, six on each
/// graph. 8 repeats in 20 put hits and misses each near half the jobs, so
/// both service.hit_s and the misses' engine figures rest on hundreds of
/// samples per run. Every program runs on both graphs in every deck, so
/// each deck exercises all of them; the lightest, degree_stats, fills the
/// remaining slots, which keeps the heavy jobs (pagerank, comp_label) a
/// third of the fresh ones. bc_approx runs on the social graph only: on the
/// grid its cost swings with the BFS depth of its random root, and those
/// few jobs would set the p99 latency.
const ProgramDef Programs[] = {
    {"pagerank", {1, 1}},    {"comp_label", {1, 1}}, {"degree_stats", {2, 3}},
    {"conductance", {1, 1}}, {"bc_approx", {1, 0}},
};
constexpr int RepeatSlots = 8;
constexpr size_t NumPrograms = std::size(Programs);
const char *const GraphNames[] = {"social", "road"};

const char *const CountKeys[] = {"supersteps", "sparse_supersteps",
                                 "messages", "network_messages",
                                 "network_bytes"};

struct Request {
  double Due = 0; ///< seconds after the phase starts
  bool Reload = false;
  bool Traced = false;
  std::string Body; ///< request JSON; also the job's identity
  size_t Program = 0;
  unsigned Graph = 0;
  std::vector<std::pair<std::string, double>> Args;
  uint64_t Seed = 0;
};

struct Reply {
  double Issue = 0, Admitted = 0, Done = 0; ///< seconds after phase start
  std::string Resp;                         ///< until it is checked
  bool Ok = false, Hit = false;
  double QueueS = 0, RunS = 0;
  /// From the served report (misses and hits alike).
  std::map<std::string, double> Totals;
  double EngineWall = 0, Imbalance = 0;
  PhaseSeconds Phases;
};

/// Generates the seeded request stream.
class MixGenerator {
public:
  MixGenerator(uint64_t Seed, std::string AlgoDir,
               std::vector<std::string> GraphFiles)
      : R(Seed), AlgoDir(std::move(AlgoDir)),
        GraphFiles(std::move(GraphFiles)) {}

  /// Poisson arrivals at \p Rate for \p Seconds.
  std::vector<Request> schedule(double Rate, double Seconds, bool Traced) {
    std::vector<Request> Out;
    for (double T = 0;;) {
      T += -std::log(1 - R.uniform()) / Rate;
      if (T >= Seconds)
        return Out;
      Request Q = next();
      Q.Due = T;
      Q.Traced = Traced;
      Out.push_back(std::move(Q));
    }
  }

  /// One job of \p Program on graph \p Graph, with seeded arguments.
  Request job(size_t Program, unsigned Graph, uint64_t Seed) {
    Request Q;
    Q.Program = Program;
    Q.Graph = Graph;
    Q.Seed = Seed;
    const std::string Prog = Programs[Program].Name;
    if (Prog == "pagerank")
      Q.Args = {{"e", 0.0},
                {"d", 0.80 + 0.01 * double(R.below(11))},
                {"max_iter", 10.0}};
    else if (Prog == "degree_stats")
      Q.Args = {{"hub_bar", double(1 + R.below(64))}};
    else if (Prog == "conductance")
      Q.Args = {{"num", double(R.below(4))}};
    else if (Prog == "bc_approx")
      Q.Args = {{"K", 1.0}};
    std::ostringstream OS;
    json::Writer W(OS, false);
    W.beginObject();
    W.field("op", "submit");
    W.field("graph", GraphNames[Graph]);
    W.field("source_file", AlgoDir + "/" + Prog + ".gm");
    W.key("args");
    W.beginObject();
    for (const auto &[Name, V] : Q.Args)
      W.field(Name, V);
    W.endObject();
    W.field("workers", JobWorkers);
    W.field("threaded", false);
    W.field("seed", Seed);
    W.field("wait", false);
    W.endObject();
    Q.Body = OS.str();
    return Q;
  }

private:
  Request next() {
    if (++Count % ReloadEvery == 0) {
      Request Q;
      Q.Reload = true;
      Q.Graph = unsigned(Count / ReloadEvery % 2);
      std::ostringstream OS;
      json::Writer W(OS, false);
      W.beginObject();
      W.field("op", "load");
      W.field("graph", GraphNames[Q.Graph]);
      W.field("file", GraphFiles[Q.Graph]);
      W.endObject();
      Q.Body = OS.str();
      return Q;
    }
    if (Deck.empty()) {
      for (size_t P = 0; P < NumPrograms; ++P)
        for (int G = 0; G < 2; ++G)
          Deck.insert(Deck.end(), Programs[P].Slots[G], int(P) * 2 + G);
      Deck.insert(Deck.end(), RepeatSlots, -1);
      for (size_t I = Deck.size() - 1; I > 0; --I)
        std::swap(Deck[I], Deck[R.below(I + 1)]);
    }
    const int Card = Deck.back();
    Deck.pop_back();
    if (Card < 0 && !Recent.empty())
      return Recent[R.below(Recent.size())];
    const int Fresh = Card < 0 ? 0 : Card;
    Request Q = job(size_t(Fresh / 2), unsigned(Fresh % 2),
                    1 + R.below(1u << 30));
    if (Recent.size() < RecentJobs)
      Recent.push_back(Q);
    else
      Recent[NextSlot++ % RecentJobs] = Q;
    return Q;
  }

  Rng R;
  std::string AlgoDir;
  std::vector<std::string> GraphFiles;
  std::vector<Request> Recent;
  size_t NextSlot = 0;
  std::vector<int> Deck; ///< -1: repeat; else program * 2 + graph
  uint64_t Count = 0;    ///< requests generated
};

/// Runs Body(0..N-1) on up to \p Threads threads.
template <typename Fn> void parallelFor(unsigned Threads, size_t N, Fn Body) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// Keeps the generator on a core of its own and the service on the others,
/// as with a remote client. When they shared cores, the kernel woke
/// executors on the generator's core, and a job that ran there inside the
/// generator's submit call was charged its run time twice. A no-op on a
/// single core.
class CoreSplit {
public:
  CoreSplit() {
    CPU_ZERO(&All);
    CPU_ZERO(&Gen);
    CPU_ZERO(&Rest);
    if (sched_getaffinity(0, sizeof All, &All) != 0 || CPU_COUNT(&All) < 2)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &All))
        CPU_SET(C, CPU_COUNT(&Gen) ? &Rest : &Gen);
    Enabled = true;
  }
  /// Binds the calling thread, and the threads it creates from now on.
  void generator() const { bind(Gen); }
  void service() const { bind(Rest); }
  void all() const { bind(All); }

private:
  void bind(const cpu_set_t &Set) const {
    if (Enabled)
      sched_setaffinity(0, sizeof Set, &Set);
  }
  cpu_set_t All, Gen, Rest;
  bool Enabled = false;
};

/// One phase's figures.
struct PhaseSummary {
  std::vector<double> Latency, InService, Lag, Queue, Run, HitRun;
  size_t Jobs = 0, OverLimit = 0;

  /// The p99 latency, with a refused job counted as infinitely late, is
  /// within the limit.
  bool meetsLimit() const { return OverLimit <= Jobs / 100; }
};

/// The service under test, the response checks, and the spans.
class ServingRun {
public:
  ServingRun(const Options &O, Outcome &Out, SpanLog &Log)
      : O(O), Out(Out), Log(Log), Threads(std::min(O.Cores, 8u)) {}

  std::unique_ptr<service::Service> Svc;
  const CoreSplit Split;

  /// Runs one open-loop phase, then collects and checks every reply.
  PhaseSummary phase(const std::vector<Request> &Reqs, uint64_t JobBase) {
    std::vector<Reply> Replies(Reqs.size());
    const auto Start = Clock::now();
    const double LogStart = Log.now();
    Split.generator();
    for (size_t I = 0; I < Reqs.size(); ++I) {
      // Spin rather than sleep until the request is due: waking a sleeping
      // thread on a shared host can take longer than a light job runs.
      const auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(Reqs[I].Due));
      while (Clock::now() < Due) {
      }
      Reply &A = Replies[I];
      A.Issue = secondsSince(Start);
      A.Resp = Svc->handle(Reqs[I].Body);
      A.Admitted = secondsSince(Start);
    }
    Split.all();
    parallelFor(Threads, Reqs.size(), [&](size_t I) {
      collect(Reqs[I], Replies[I], LogStart, JobBase + I);
    });

    PhaseSummary S;
    for (size_t I = 0; I < Reqs.size(); ++I) {
      const Request &Q = Reqs[I];
      const Reply &A = Replies[I];
      if (Q.Reload) {
        if (A.Ok)
          ReloadS.push_back(A.Admitted - A.Issue);
        continue;
      }
      ++S.Jobs;
      S.Lag.push_back(A.Issue - Q.Due);
      if (!A.Ok) {
        ++S.OverLimit;
        continue;
      }
      const double Latency = A.Done - Q.Due;
      S.Latency.push_back(Latency);
      S.InService.push_back(A.Done - A.Issue);
      S.Queue.push_back(A.QueueS);
      S.Run.push_back(A.RunS);
      if (A.Hit)
        S.HitRun.push_back(A.RunS);
      else
        Misses.push_back(A);
      if (Latency > LatencyLimit)
        ++S.OverLimit;
    }
    return S;
  }

  /// Reruns every distinct served job directly and checks it.
  void checkDirect(const std::vector<std::string> &GraphFiles);

  /// Engine counts summed over the distinct jobs served.
  std::map<std::string, double> distinctTotals() const {
    std::map<std::string, double> Sum;
    for (const char *K : CountKeys)
      Sum[K] = 0;
    for (const auto &[Key, D] : Seen)
      for (const auto &[K, V] : D.Totals)
        Sum[K] += V;
    return Sum;
  }

  size_t distinctJobs() const { return Seen.size(); }

  /// Served misses (engine figures) and reload times, over all phases.
  std::vector<Reply> Misses;
  std::vector<double> ReloadS;
  /// From the direct reruns.
  std::vector<double> ExecOverhead, RefS, RefEngineS;
  /// Time spent recording spans.
  double TraceSeconds = 0;

private:
  struct Distinct {
    Request Req;
    std::string Canonical;
    std::map<std::string, double> Totals;
  };

  /// Waits for one submitted job, fetches its result and checks it.
  void collect(const Request &Q, Reply &A, double LogStart, uint64_t Job);

  /// Records a check failure. The job itself counts as failed through
  /// its phase summary (its reply is not ok).
  void fail(const Request &Q, const std::string &Why) {
    std::lock_guard<std::mutex> Lock(Mu);
    Out.error((Q.Reload ? std::string("reload") : Q.Body) + ": " + Why);
  }

  const Options &O;
  Outcome &Out;
  SpanLog &Log;
  const unsigned Threads;
  std::mutex Mu; ///< guards Seen, Out and the result vectors
  std::map<std::string, Distinct> Seen;
};

void ServingRun::collect(const Request &Q, Reply &A, double LogStart,
                         uint64_t Job) {
  json::Node N;
  std::string Err;
  if (!json::parse(A.Resp, N, &Err)) {
    fail(Q, "unparseable response: " + Err);
    return;
  }
  A.Resp = std::string();
  A.Ok = N.boolAt("ok");
  // Admission control refusing a submit is the service working as designed
  // under overload: the job counts as failed, but it is no check failure.
  // Every other refusal is.
  if (!A.Ok && (Q.Reload || N.strAt("error").find("queue full") ==
                                std::string::npos))
    fail(Q, "refused: " + N.strAt("error"));
  if (!A.Ok || Q.Reload)
    return;

  const uint64_t Id = uint64_t(N.intAt("job"));
  Svc->scheduler().wait(Id);
  const std::optional<service::JobRecord> R = Svc->scheduler().info(Id);
  if (!R || R->State != service::JobState::Done) {
    A.Ok = false;
    fail(Q, "job did not finish: " + (R ? R->Error : "unknown job"));
    return;
  }
  A.Hit = R->CacheHit;
  A.QueueS = R->QueueSeconds;
  A.RunS = R->RunSeconds;
  A.Done = A.Admitted + A.QueueS + A.RunS;
  json::Node Report;
  const json::Node *Runs =
      json::parse(R->Report, Report, &Err) ? Report.find("runs") : nullptr;
  const json::Node *Totals =
      Runs && !Runs->Elems.empty() ? Runs->Elems[0].find("totals") : nullptr;
  if (!Totals) {
    A.Ok = false;
    fail(Q, "report carries no totals " + Err);
    return;
  }
  for (const char *K : CountKeys)
    A.Totals[K] = Totals->numAt(K);
  A.EngineWall = Totals->numAt("wall_seconds");
  A.Imbalance = Totals->numAt("time_imbalance");
  if (const json::Node *Ph = Totals->find("phase_seconds")) {
    A.Phases.Master = Ph->numAt("master");
    A.Phases.Compute = Ph->numAt("compute");
    A.Phases.Combine = Ph->numAt("combine");
    A.Phases.Barrier = Ph->numAt("barrier");
    A.Phases.Deliver = Ph->numAt("delivery");
  }
  std::string Canonical = service::canonicalizeReport(R->Report);

  if (Q.Traced) {
    // Measured: the due-to-issue lag and the submit call. Derived from the
    // job record: its queue wait and run, end to end after admission.
    const auto TraceStart = Clock::now();
    const double Due = LogStart + Q.Due, Issue = LogStart + A.Issue;
    const double Admitted = LogStart + A.Admitted;
    const double RunStart = Admitted + A.QueueS, Done = LogStart + A.Done;
    const int Root = Log.add("loadgen.request", Job, -1, Due, Done);
    Log.add("loadgen.lag", Job, Root, Due, Issue);
    Log.add("service.submit", Job, Root, Issue, Admitted);
    Log.add("service.queue", Job, Root, Admitted, RunStart, true);
    const int RunSpan =
        Log.add("service.run", Job, Root, RunStart, Done, true);
    if (!A.Hit)
      Log.attachEnginePhases(RunSpan, A.EngineWall, A.Phases);
    std::lock_guard<std::mutex> Lock(Mu);
    TraceSeconds += secondsSince(TraceStart);
  }

  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Seen.find(Q.Body);
  if (It == Seen.end()) {
    Seen.emplace(Q.Body, Distinct{Q, std::move(Canonical), A.Totals});
    return;
  }
  if (It->second.Canonical != Canonical) {
    ++Out.Failed;
    Out.error(Q.Body + ": " + (A.Hit ? "cache hit" : "rerun") +
              " report differs from the first report of the same job");
  }
}

void ServingRun::checkDirect(const std::vector<std::string> &GraphFiles) {
  std::vector<Graph> Graphs;
  for (const std::string &F : GraphFiles) {
    std::string Err;
    auto G = loadEdgeListFile(F, 0, &Err);
    if (!G)
      throw std::runtime_error("loadEdgeListFile: " + Err);
    Graphs.push_back(std::move(*G));
  }
  std::vector<CompileResult> Compiled;
  for (const ProgramDef &P : Programs) {
    Compiled.push_back(
        compileGreenMarlFile(O.Root + "/algorithms/" + P.Name + ".gm"));
    if (!Compiled.back().ok())
      throw std::runtime_error(std::string("compile ") + P.Name);
  }
  std::vector<const Distinct *> Todo;
  for (const auto &[Key, D] : Seen)
    Todo.push_back(&D);

  parallelFor(Threads, Todo.size(), [&](size_t I) {
    const Distinct &D = *Todo[I];
    const Request &Q = D.Req;
    const pir::PregelProgram &P = *Compiled[Q.Program].Program;
    exec::ExecArgs Args;
    for (const auto &[Name, V] : Q.Args)
      Args.Scalars[Name] =
          P.Globals[P.findGlobal(Name)].Ty == ValueKind::Double
              ? Value::makeDouble(V)
              : Value::makeInt(int64_t(V));
    pregel::Config Cfg;
    Cfg.NumWorkers = JobWorkers;
    Cfg.RandomSeed = Q.Seed;
    const Graph &G = Graphs[Q.Graph];
    const auto T0 = Clock::now();
    exec::BackendRun R =
        exec::runProgramWithBackend(P, G, std::move(Args), Cfg);
    const double Wall = secondsSince(T0);

    std::string Err;
    const pregel::RunStats &S = R.Stats;
    const double Direct[] = {double(S.Supersteps), double(S.SparseSupersteps),
                             double(S.TotalMessages), double(S.NetworkMessages),
                             double(S.NetworkBytes)};
    for (size_t K = 0; K < std::size(CountKeys); ++K)
      if (D.Totals.at(CountKeys[K]) != Direct[K])
        Err = std::string("served ") + CountKeys[K] + " " +
              std::to_string(D.Totals.at(CountKeys[K])) + ", direct run " +
              std::to_string(Direct[K]);
    double RefSeconds = -1;
    const std::string Prog = Programs[Q.Program].Name;
    if (Err.empty() && Prog == "pagerank") {
      const auto T1 = Clock::now();
      const std::vector<double> Ref = reference::pageRank(
          G, Q.Args[1].second, 0.0, int(Q.Args[2].second));
      RefSeconds = secondsSince(T1);
      for (NodeId V = 0; V < G.numNodes() && Err.empty(); ++V)
        if (!(std::fabs(R.nodeValue("pg_rank", V).getDouble() - Ref[V]) <=
              1e-9))
          Err = "pg_rank differs from reference::pageRank at node " +
                std::to_string(V);
    } else if (Err.empty() && Prog == "comp_label") {
      const auto T1 = Clock::now();
      const std::vector<NodeId> Ref = reference::weaklyConnectedComponents(G);
      RefSeconds = secondsSince(T1);
      for (NodeId V = 0; V < G.numNodes() && Err.empty(); ++V)
        if (R.nodeValue("comp", V).getInt() != int64_t(Ref[V]))
          Err = "comp differs from the reference components at node " +
                std::to_string(V);
    }

    std::lock_guard<std::mutex> Lock(Mu);
    ExecOverhead.push_back(Wall - S.WallSeconds);
    if (RefSeconds >= 0) {
      RefS.push_back(RefSeconds);
      RefEngineS.push_back(S.WallSeconds);
    }
    if (!Err.empty()) {
      ++Out.Failed;
      Out.error(Q.Body + ": " + Err);
    }
  });
}

double ladderRate(double K) { return NominalRate * std::exp2(K / 12); }

} // namespace

Outcome perfbench::runServingMix(const Options &O) {
  // A 2^10-node social graph with 2^13 edges and a 24 x 48 street grid:
  // small enough that per-job compile, the service and the interpreter do
  // most of the work, not the engine's hot loop, and that a job's data stay
  // in a core's own cache. With a 2^12-node social graph the jobs spilled
  // into the cache the host's cores share, and on a shared 4-core host
  // their times swung up to 2x with the load of other tenants. Toy: a
  // quarter of the social graph, a ninth of the grid.
  const bool Toy = O.Scale == Size::Toy;
  Outcome Out;
  SpanLog Log(O.Trace);
  const std::vector<std::string> GraphFiles = {
      O.WorkDir + "/serving-social.el", O.WorkDir + "/serving-road.el"};
  writeEdgeListFile(GraphFiles[0],
                    rmatEdges(Toy ? 8 : 10, Toy ? 2048 : 8192, O.Seed));
  writeEdgeListFile(GraphFiles[1],
                    withoutLengths(roadGridEdges(Toy ? 8 : 24, Toy ? 16 : 48,
                                                 100, O.Seed + 1)));
  const std::string AlgoDir = O.Root + "/algorithms";

  ServingRun SR(O, Out, Log);
  service::ServiceConfig Cfg;
  Cfg.MaxRunningJobs = std::max(1u, std::min(O.Cores / 2, 4u));
  // A backlog deep enough that the latency limit, not admission control,
  // decides the max rate. Behind gmd's default bound of 64 queued jobs, a
  // burst of heavy jobs near the limit fills the queue within a tenth of a
  // second, and each ladder step's verdict turned on whether one came.
  Cfg.MaxQueuedJobs = size_t(1) << 20;
  MixGenerator Gen(O.Seed, AlgoDir, GraphFiles);

  // Set-up: a new service, both graphs loaded, and one warm-up job per
  // program and graph (engine seed 0, which the timed mix never uses).
  std::vector<double> LoadS;
  auto SetUp = [&] {
    SR.Split.service(); // the executors inherit it
    auto Svc = std::make_unique<service::Service>(Cfg);
    SR.Split.all();
    for (unsigned G = 0; G < 2; ++G) {
      const auto T1 = Clock::now();
      const std::string Resp = Svc->handle(
          std::string("{\"op\":\"load\",\"graph\":\"") + GraphNames[G] +
          "\",\"file\":\"" + GraphFiles[G] + "\"}");
      LoadS.push_back(secondsSince(T1));
      if (Resp.find("\"ok\":true") == std::string::npos)
        throw std::runtime_error("load failed: " + Resp);
    }
    for (size_t P = 0; P < NumPrograms; ++P)
      for (unsigned G = 0; G < 2; ++G) {
        if (Programs[P].Slots[G] == 0)
          continue;
        std::string Body = Gen.job(P, G, 0).Body;
        Body.replace(Body.find("\"wait\":false"), 12, "\"wait\":true");
        const std::string Resp = Svc->handle(Body);
        if (Resp.find("\"ok\":true") == std::string::npos)
          throw std::runtime_error("warm-up job failed: " + Resp);
      }
    return Svc;
  };
  SR.Svc = SetUp();

  auto Stats = [&] {
    json::Node N;
    json::parse(SR.Svc->handle("{\"op\":\"stats\"}"), N);
    return N;
  };
  auto Counter = [](const json::Node &N, const char *Group, const char *Key) {
    const json::Node *G = N.find(Group);
    return G ? double(G->intAt(Key)) : 0.0;
  };

  // Warm-up traffic, neither timed nor counted; it also fills the result
  // cache. On a shared host the first run after a quiet spell ran its
  // nominal phase up to 2x slow, while its ladder steps, some 20 s into
  // the run, ran as fast as any later run's. So the warm-up is heavy load
  // for about that long.
  SR.phase(Gen.schedule(ladderRate(WarmupRung),
                        Toy ? O.Seconds / 10 : WarmupSeconds, false),
           0);
  SR.Misses.clear();
  SR.ReloadS.clear();

  // setup_s: the median of several more set-ups, each of a service of its
  // own that is dropped untimed. They run after the warm-up traffic for
  // the same reason it exists: timed at the start of the process, they
  // swung with how long the host had been idle before it.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    const auto T0 = Clock::now();
    const auto Svc = SetUp();
    SetupS.push_back(secondsSince(T0));
  }

  // The nominal rate: half the window, or all of it in a traced run.
  const json::Node Before = Stats();
  const PhaseSummary Nom = SR.phase(
      Gen.schedule(NominalRate, O.Trace ? O.Seconds : O.Seconds / 2, O.Trace),
      1);
  const json::Node End = Stats();
  // Memory at the nominal rate. The service keeps every finished job's
  // record, so the ladder's overload steps would add memory in proportion
  // to the rates they happen to try.
  const double RssMb = peakRssMb();
  Out.Attempted += Nom.Jobs;
  Out.Failed += Nom.OverLimit;

  // The ladder, on a fresh service with its own request stream so that it
  // leaves the nominal figures alone. Near the limit one step's verdict is
  // a coin toss (a burst of heavy jobs can spoil it), so the last rung of
  // a bisection swung from run to run. A staircase instead moves up after
  // a step that meets the limit and down after one that does not, by
  // StairStride rungs at first and half as many after each reversal, down
  // to one. It then hovers where a step passes half the time, and the
  // result is the rate at the mean rung of its second half. It starts at
  // the rung the nominal phase predicts: executors over mean run time.
  std::vector<double> Rungs;
  if (!O.Trace) {
    SR.Svc = SetUp();
    MixGenerator LadderGen(~O.Seed, AlgoDir, GraphFiles);
    const double Step = Toy ? StepSeconds / 10 : StepSeconds;
    const int Steps = std::max(8, int(O.Seconds / 2 / Step));
    const double Capacity =
        Nom.Run.empty() ? NominalRate
                        : Cfg.MaxRunningJobs * double(Nom.Run.size()) /
                              sum(Nom.Run);
    int K = std::clamp(int(std::lround(12 * std::log2(Capacity / NominalRate))),
                       LadderLo, LadderHi);
    for (int Stride = StairStride, Last = 0; int(Rungs.size()) < Steps;) {
      Rungs.push_back(K);
      const int Dir =
          SR.phase(LadderGen.schedule(ladderRate(K), Step, false), 0)
                  .meetsLimit()
              ? 1
              : -1;
      if (Last && Dir != Last)
        Stride = std::max(1, Stride / 2);
      Last = Dir;
      K = std::clamp(K + Dir * Stride, LadderLo, LadderHi);
    }
    Rungs.erase(Rungs.begin(), Rungs.begin() + Steps / 2);
  }

  SR.checkDirect(GraphFiles);

  if (!O.Trace) {
    Out.e2e("setup_s", median(SetupS), "s", SetupS.size());
    Out.e2e("job_p50_s", median(Nom.InService), "s", Nom.InService.size());
    Out.e2e("latency_p50_s", median(Nom.Latency), "s", Nom.Latency.size());
    Out.e2e("latency_p99_s", quantile(Nom.Latency, 0.99), "s",
            Nom.Latency.size());
    Out.e2e("max_rate_jobs_per_s",
            ladderRate(sum(Rungs) / double(Rungs.size())), "1/s",
            Rungs.size());
    Out.e2e("peak_rss_mb", RssMb, "MB", 1);
    return Out;
  }

  // Per-layer figures. Graph load and compile are timed here, outside the
  // service, on the same inputs.
  std::vector<double> GraphLoadS, EdgesPerS, CompileS;
  for (const std::string &F : GraphFiles)
    for (int Rep = 0; Rep < 3; ++Rep) {
      const auto T0 = Clock::now();
      const auto G = loadEdgeListFile(F);
      GraphLoadS.push_back(secondsSince(T0));
      EdgesPerS.push_back(double(G ? G->numEdges() : 0) / GraphLoadS.back());
    }
  double States = 0, RecordBytes = 0;
  for (const ProgramDef &P : Programs)
    for (int Rep = 0; Rep < 3; ++Rep) {
      const auto T0 = Clock::now();
      const CompileResult C =
          compileGreenMarlFile(AlgoDir + "/" + P.Name + ".gm");
      CompileS.push_back(secondsSince(T0));
      if (Rep == 0 && C.ok()) {
        States += double(C.Program->States.size());
        RecordBytes +=
            double(pir::deriveMessageLayout(*C.Program).recordSize());
      }
    }
  std::vector<double> Wall, Delivery, Combine, Compute, Barrier, Master,
      Imbalance;
  double Messages = 0;
  for (const Reply &A : SR.Misses) {
    Wall.push_back(A.EngineWall);
    Delivery.push_back(A.Phases.Deliver);
    Combine.push_back(A.Phases.Combine);
    Compute.push_back(A.Phases.Compute);
    Barrier.push_back(A.Phases.Barrier);
    Master.push_back(A.Phases.Master);
    Imbalance.push_back(A.Imbalance);
    Messages += A.Totals.at("messages");
  }
  const std::map<std::string, double> Counts = SR.distinctTotals();
  const uint64_t NM = Wall.size(), ND = SR.distinctJobs();
  std::vector<double> AllLoads = LoadS;
  AllLoads.insert(AllLoads.end(), SR.ReloadS.begin(), SR.ReloadS.end());

  Out.layer("graph.load_s", median(GraphLoadS), "s", GraphLoadS.size());
  Out.layer("graph.edges_per_s", median(EdgesPerS), "1/s", EdgesPerS.size());
  Out.layer("compile.s", median(CompileS), "s", CompileS.size());
  Out.layer("compile.vertex_states", States, "count", NumPrograms);
  Out.layer("compile.record_bytes", RecordBytes, "B", NumPrograms);
  Out.layer("exec.overhead_s", median(SR.ExecOverhead), "s",
            SR.ExecOverhead.size());
  Out.layer("exec.native_share", 0.0, "share", SR.ExecOverhead.size());
  Out.layer("pregel.wall_s", median(Wall), "s", NM);
  Out.layer("pregel.delivery_s", median(Delivery), "s", NM);
  Out.layer("pregel.combine_s", median(Combine), "s", NM);
  Out.layer("pregel.compute_s", median(Compute), "s", NM);
  Out.layer("pregel.barrier_s", median(Barrier), "s", NM);
  Out.layer("pregel.master_s", median(Master), "s", NM);
  Out.layer("pregel.messages", Counts.at("messages"), "count", ND);
  Out.layer("pregel.network_bytes", Counts.at("network_bytes"), "B", ND);
  Out.layer("pregel.msgs_per_s", sum(Wall) > 0 ? Messages / sum(Wall) : 0.0,
            "1/s", NM);
  Out.layer("pregel.time_imbalance", median(Imbalance), "ratio", NM);
  Out.layer("pregel.supersteps", Counts.at("supersteps"), "count", ND);
  Out.layer("pregel.sparse_supersteps", Counts.at("sparse_supersteps"),
            "count", ND);
  Out.layer("reference.s", sum(SR.RefS), "s", SR.RefS.size());
  Out.layer("pregel.ceiling_ratio",
            sum(SR.RefS) > 0 ? sum(SR.RefEngineS) / sum(SR.RefS) : 0.0,
            "ratio", SR.RefS.size());
  Out.layer("service.load_s", median(AllLoads), "s", AllLoads.size());
  Out.layer("service.queue_p50_s", median(Nom.Queue), "s", Nom.Queue.size());
  Out.layer("service.queue_p99_s", quantile(Nom.Queue, 0.99), "s",
            Nom.Queue.size());
  Out.layer("service.run_p50_s", median(Nom.Run), "s", Nom.Run.size());
  Out.layer("service.run_p99_s", quantile(Nom.Run, 0.99), "s",
            Nom.Run.size());
  Out.layer("service.hit_s", median(Nom.HitRun), "s", Nom.HitRun.size());
  Out.layer("service.cache_hit_ratio",
            Nom.Jobs ? double(Nom.HitRun.size()) / double(Nom.Jobs) : 0.0,
            "share", Nom.Jobs);
  Out.layer("service.rejected",
            Counter(End, "jobs", "rejected") -
                Counter(Before, "jobs", "rejected"),
            "count", Out.Attempted);
  Out.layer("service.failed",
            Counter(End, "jobs", "failed") - Counter(Before, "jobs", "failed"),
            "count", Out.Attempted);
  Out.layer("loadgen.lag_p99_s", quantile(Nom.Lag, 0.99), "s",
            Nom.Lag.size());
  Out.layer("trace.unattributed_share",
            Log.unattributedSeconds() / Log.rootSeconds("loadgen.request"),
            "share", Nom.Latency.size());
  // As on the batch workloads: the time spent recording spans, as a share
  // of the traced jobs' submit-to-completion time. Here the spans are
  // recorded after each phase, off the requests' path.
  Out.layer("trace.overhead_share", SR.TraceSeconds / sum(Nom.InService),
            "share", Nom.InService.size());

  std::string Why;
  if (!Log.nests(&Why))
    Out.error("trace spans do not nest: " + Why);
  Out.SelfSeconds = Log.selfSeconds();
  Log.writeChromeTrace(O.WorkDir + "/trace-serving-mix.json");
  return Out;
}
