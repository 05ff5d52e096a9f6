//===- perfbench/src/Batch.cpp - pagerank-rmat and sssp-grid ---------------===//
///
/// \file
/// The two batch workloads. Each writes its input files, sets up (edge-list
/// load + compile) several times, times the single-thread reference kernel
/// on the same graph (the ceiling leg), then runs jobs back to back for the
/// measuring window: a closed loop with one client, so each job is due when
/// the previous one finishes. Every job's output is checked against the
/// reference kernel.
///
/// Engine configuration, fixed for both: native backend, threaded, with
/// min(nproc, 4) workers, every other knob at its default.
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
#include "pregelir/PregelIR.h"

#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

using namespace perfbench;
using namespace gm;

namespace {

/// One batch workload: its inputs, program, arguments and output check.
struct BatchSpec {
  std::string Name;
  std::string Program; ///< file under algorithms/
  std::string EdgeFile;
  std::string LengthFile; ///< empty when the program takes no lengths
  /// Builds the job's arguments on the loaded graph.
  std::function<exec::ExecArgs(const std::vector<int64_t> &Len)> Args;
  /// Runs the reference kernel; the returned closure checks one job's
  /// output against it and returns an error message or "".
  std::function<std::function<std::string(const exec::BackendRun &)>(
      const Graph &, const std::vector<int64_t> &Len)>
      Reference;
};

struct JobSample {
  double Wall = 0;
  pregel::RunStats Stats;
  exec::BackendKind Used = exec::BackendKind::Interp;
  double TraceSeconds = 0; ///< spent recording the job's spans
};

PhaseSeconds phasesOf(const pregel::RunStats &S) {
  PhaseSeconds P;
  for (const pregel::SuperstepMetrics &M : S.Steps) {
    P.Master += M.MasterSeconds;
    P.Compute += M.ComputeSeconds;
    P.Combine += M.CombineSeconds;
    P.Barrier += M.BarrierSeconds;
    P.Deliver += M.DeliverSeconds;
  }
  return P;
}

Outcome runBatch(const Options &O, const BatchSpec &Spec) {
  Outcome Out;
  SpanLog Log(O.Trace);

  // Set-up, several times: input files to a resident graph, plus compile.
  // The last repetition's graph and program are the ones the jobs use.
  const int SetupReps = 3;
  std::vector<double> SetupS, LoadS, CompileS;
  std::optional<Graph> G;
  std::vector<int64_t> Len;
  CompileResult C;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    G.reset();
    C = CompileResult();
    const double Start = Log.now();
    const auto T0 = Clock::now();
    std::string Err;
    G = loadEdgeListFile(Spec.EdgeFile, 0, &Err);
    if (!G)
      throw std::runtime_error("loadEdgeListFile: " + Err);
    LoadS.push_back(secondsSince(T0));
    const double Loaded = Log.now();
    if (!Spec.LengthFile.empty())
      Len = loadLengths(Spec.LengthFile, *G);
    const double LengthsRead = Log.now();
    const auto T1 = Clock::now();
    C = compileGreenMarlFile(O.Root + "/algorithms/" + Spec.Program);
    CompileS.push_back(secondsSince(T1));
    if (!C.ok())
      throw std::runtime_error("compile " + Spec.Program + ": " +
                               C.Diags->dump());
    SetupS.push_back(secondsSince(T0));
    const double End = Log.now();
    const int Root = Log.add("setup", 0, -1, Start, End);
    Log.add("graph.load", 0, Root, Start, Loaded);
    if (!Spec.LengthFile.empty())
      Log.add("graph.lengths", 0, Root, Loaded, LengthsRead);
    Log.add("driver.compile", 0, Root, End - CompileS.back(), End);
  }
  const pir::PregelProgram &P = *C.Program;

  // The ceiling leg: the single-thread reference kernel on the same graph.
  std::vector<double> RefS;
  std::function<std::string(const exec::BackendRun &)> Check;
  for (int Rep = 0; Rep < 3; ++Rep) {
    const double Start = Log.now();
    const auto T0 = Clock::now();
    Check = Spec.Reference(*G, Len);
    RefS.push_back(secondsSince(T0));
    Log.add("reference.kernel", 0, -1, Start, Log.now());
  }

  pregel::Config Cfg;
  Cfg.Backend = pregel::ExecBackend::Native;
  Cfg.Threaded = true;
  Cfg.NumWorkers = std::min(O.Cores, 4u);
  const exec::ExecArgs Args = Spec.Args(Len);

  auto RunJob = [&](uint64_t Job, bool Traced) {
    exec::ExecArgs JobArgs = Args; // copied outside the timed call
    JobSample S;
    const double Start = Log.now();
    const auto T0 = Clock::now();
    exec::BackendRun R =
        exec::runProgramWithBackend(P, *G, std::move(JobArgs), Cfg);
    S.Wall = secondsSince(T0);
    if (Traced) {
      const auto TraceStart = Clock::now();
      const int Idx = Log.add("exec.run", Job, -1, Start, Log.now());
      Log.attachEngineRun(Idx, R.Stats);
      S.TraceSeconds = secondsSince(TraceStart);
    }
    ++Out.Attempted;
    const std::string Err = Check(R);
    if (!Err.empty()) {
      ++Out.Failed;
      Out.error(Spec.Name + " job " + std::to_string(Job) + ": " + Err);
    }
    S.Used = R.Used;
    S.Stats = std::move(R.Stats);
    return S;
  };

  // Warm-up: one job, checked, not timed.
  RunJob(0, false);
  Out.Attempted = Out.Failed = 0;

  // The measuring window; a traced run traces every job.
  std::vector<JobSample> Jobs;
  const auto Window = Clock::now();
  while (Jobs.size() < 3 || secondsSince(Window) < O.Seconds)
    Jobs.push_back(RunJob(Jobs.size() + 1, O.Trace));

  for (const JobSample &S : Jobs) {
    const pregel::RunStats &A = S.Stats, &B = Jobs.front().Stats;
    if (A.Supersteps != B.Supersteps || A.TotalMessages != B.TotalMessages ||
        A.NetworkBytes != B.NetworkBytes ||
        A.SparseSupersteps != B.SparseSupersteps)
      Out.error(Spec.Name + ": engine counts differ between identical jobs");
  }

  std::vector<double> Walls;
  double TraceSeconds = 0;
  for (const JobSample &S : Jobs) {
    Walls.push_back(S.Wall);
    TraceSeconds += S.TraceSeconds;
  }

  if (!O.Trace) {
    const uint64_t N = Walls.size();
    Out.e2e("setup_s", median(SetupS), "s", SetupS.size());
    Out.e2e("job_p50_s", median(Walls), "s", N);
    Out.e2e("latency_p50_s", median(Walls), "s", N);
    Out.e2e("latency_p99_s", quantile(Walls, 0.99), "s", N);
    Out.e2e("max_rate_jobs_per_s", double(N) / sum(Walls), "1/s", N);
    Out.e2e("peak_rss_mb", peakRssMb(), "MB", 1);
    return Out;
  }

  // Per-layer figures.
  std::vector<double> Overhead, Wall, Delivery, Combine, Compute, Barrier,
      Master, Imbalance;
  uint64_t Native = 0;
  for (const JobSample &S : Jobs) {
    if (S.Used == exec::BackendKind::NativeRegistry)
      ++Native;
    const PhaseSeconds Ph = phasesOf(S.Stats);
    Overhead.push_back(S.Wall - S.Stats.WallSeconds);
    Wall.push_back(S.Stats.WallSeconds);
    Delivery.push_back(Ph.Deliver);
    Combine.push_back(Ph.Combine);
    Compute.push_back(Ph.Compute);
    Barrier.push_back(Ph.Barrier);
    Master.push_back(Ph.Master);
    Imbalance.push_back(pregel::runTimeImbalance(S.Stats.Steps));
  }
  const uint64_t NT = Wall.size();
  const pregel::RunStats &First = Jobs.front().Stats;
  const double LoadMed = median(LoadS);
  Out.layer("graph.load_s", LoadMed, "s", LoadS.size());
  Out.layer("graph.edges_per_s", double(G->numEdges()) / LoadMed, "1/s",
            LoadS.size());
  Out.layer("compile.s", median(CompileS), "s", CompileS.size());
  Out.layer("compile.vertex_states", double(P.States.size()), "count", 1);
  Out.layer("compile.record_bytes",
            double(pir::deriveMessageLayout(P).recordSize()), "B", 1);
  Out.layer("exec.overhead_s", median(Overhead), "s", NT);
  Out.layer("exec.native_share", double(Native) / double(Jobs.size()),
            "share", Jobs.size());
  Out.layer("pregel.wall_s", median(Wall), "s", NT);
  Out.layer("pregel.delivery_s", median(Delivery), "s", NT);
  Out.layer("pregel.combine_s", median(Combine), "s", NT);
  Out.layer("pregel.compute_s", median(Compute), "s", NT);
  Out.layer("pregel.barrier_s", median(Barrier), "s", NT);
  Out.layer("pregel.master_s", median(Master), "s", NT);
  Out.layer("pregel.messages", double(First.TotalMessages), "count", 1);
  Out.layer("pregel.network_bytes", double(First.NetworkBytes), "B", 1);
  Out.layer("pregel.msgs_per_s", double(First.TotalMessages) / median(Wall),
            "1/s", NT);
  Out.layer("pregel.time_imbalance", median(Imbalance), "ratio", NT);
  Out.layer("pregel.supersteps", double(First.Supersteps), "count", 1);
  Out.layer("pregel.sparse_supersteps", double(First.SparseSupersteps),
            "count", 1);
  Out.layer("reference.s", median(RefS), "s", RefS.size());
  Out.layer("pregel.ceiling_ratio", median(Wall) / median(RefS), "ratio", NT);
  Out.layer("trace.unattributed_share",
            Log.unattributedSeconds() / Log.rootSeconds("exec.run"), "share",
            NT);
  // A traced job differs from an untraced one only by recording its spans,
  // after the timed call.
  Out.layer("trace.overhead_share", TraceSeconds / sum(Walls), "share", NT);

  std::string Why;
  if (!Log.nests(&Why))
    Out.error("trace spans do not nest: " + Why);
  Out.SelfSeconds = Log.selfSeconds();
  Log.writeChromeTrace(O.WorkDir + "/trace-" + Spec.Name + ".json");
  return Out;
}

} // namespace

Outcome perfbench::runPageRankRmat(const Options &O) {
  // 2^17 nodes and 2^21 edges: few heavy supersteps (about 2M messages
  // each) on a skewed partition, so delivery, combining and worker
  // imbalance dominate the job, and edge-list parsing plus CSR build
  // dominate set-up. Toy: 2^10 nodes, 2^13 edges.
  const bool Toy = O.Scale == Size::Toy;
  const unsigned Scale = Toy ? 10 : 17;
  const uint64_t Edges = Toy ? 1u << 13 : 1u << 21;
  constexpr int Iters = 10;
  constexpr double Damping = 0.85;

  BatchSpec Spec;
  Spec.Name = "pagerank-rmat";
  Spec.Program = "pagerank.gm";
  Spec.EdgeFile = O.WorkDir + "/pagerank-rmat.el";
  writeEdgeListFile(Spec.EdgeFile, rmatEdges(Scale, Edges, O.Seed));
  Spec.Args = [](const std::vector<int64_t> &) {
    exec::ExecArgs A;
    A.Scalars["e"] = Value::makeDouble(0.0); // run all Iters iterations
    A.Scalars["d"] = Value::makeDouble(Damping);
    A.Scalars["max_iter"] = Value::makeInt(Iters);
    return A;
  };
  Spec.Reference = [](const Graph &G, const std::vector<int64_t> &) {
    std::vector<double> Ref = reference::pageRank(G, Damping, 0.0, Iters);
    return [Ref = std::move(Ref)](const exec::BackendRun &R) -> std::string {
      // The engine sums in-neighbour contributions in a fixed order that
      // differs from the reference's, so allow rounding-level drift.
      constexpr double Tolerance = 1e-9;
      for (NodeId N = 0; N < Ref.size(); ++N) {
        const double Got = R.nodeValue("pg_rank", N).getDouble();
        if (!(std::fabs(Got - Ref[N]) <= Tolerance))
          return "pg_rank[" + std::to_string(N) + "] = " +
                 std::to_string(Got) + ", reference " +
                 std::to_string(Ref[N]);
      }
      return "";
    };
  };
  return runBatch(O, Spec);
}

Outcome perfbench::runSsspGrid(const Options &O) {
  // A 256 x 512 two-way street grid (2^17 nodes) with integer lengths in
  // [1, 100], from a corner: about 800 cheap supersteps with a thin
  // wavefront, so fixed per-superstep costs and dense O(N) compute scans
  // dominate and delivery is light. Toy: 16 x 32.
  const bool Toy = O.Scale == Size::Toy;
  const uint32_t Rows = Toy ? 16 : 256, Cols = Toy ? 32 : 512;

  BatchSpec Spec;
  Spec.Name = "sssp-grid";
  Spec.Program = "sssp.gm";
  Spec.EdgeFile = O.WorkDir + "/sssp-grid.el";
  Spec.LengthFile = O.WorkDir + "/sssp-grid.len";
  const std::vector<LengthEdge> Grid = roadGridEdges(Rows, Cols, 100, O.Seed);
  writeEdgeListFile(Spec.EdgeFile, withoutLengths(Grid));
  writeLengthFile(Spec.LengthFile, Grid);
  Spec.Args = [](const std::vector<int64_t> &Len) {
    exec::ExecArgs A;
    A.Scalars["root"] = Value::makeInt(0);
    std::vector<Value> &L = A.EdgeProps["len"];
    L.reserve(Len.size());
    for (int64_t X : Len)
      L.push_back(Value::makeInt(X));
    return A;
  };
  Spec.Reference = [](const Graph &G, const std::vector<int64_t> &Len) {
    std::vector<int64_t> Ref = reference::sssp(G, 0, Len);
    return [Ref = std::move(Ref)](const exec::BackendRun &R) -> std::string {
      for (NodeId N = 0; N < Ref.size(); ++N) {
        const int64_t Got = R.nodeValue("dist", N).getInt();
        if (Got != Ref[N])
          return "dist[" + std::to_string(N) + "] = " + std::to_string(Got) +
                 ", reference " + std::to_string(Ref[N]);
      }
      return "";
    };
  };
  return runBatch(O, Spec);
}
