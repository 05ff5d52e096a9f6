//===- perfbench/src/main.cpp - gm_perfbench driver -------------------------===//
///
/// \file
/// gm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              --root <checkout> --work-dir <dir> [--size full|toy]
///
/// Runs one workload and prints a table of every metric (name, value, unit,
/// sample count), with --trace 1 also the self time of every recorded span
/// name, then, as the last line, one JSON object:
///   {"correct": bool, "attempted": n, "failed": n,
///    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// per-layer ones. Exit status 1 when any output check failed, 2 on a
/// usage or set-up error (then no result line is printed).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

namespace {

/// Every metric the benchmark defines, with its unit. BENCHMARK.json lists
/// the same names; the self-check holds the two together.
const std::vector<std::pair<std::string, std::string>> EndToEndCatalog = {
    {"setup_s", "s"},       {"job_p50_s", "s"},
    {"latency_p50_s", "s"}, {"latency_p99_s", "s"},
    {"max_rate_jobs_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> PerLayerCatalog = {
    {"graph.load_s", "s"},
    {"graph.edges_per_s", "1/s"},
    {"compile.s", "s"},
    {"compile.vertex_states", "count"},
    {"compile.record_bytes", "B"},
    {"exec.overhead_s", "s"},
    {"exec.native_share", "share"},
    {"pregel.wall_s", "s"},
    {"pregel.delivery_s", "s"},
    {"pregel.combine_s", "s"},
    {"pregel.compute_s", "s"},
    {"pregel.barrier_s", "s"},
    {"pregel.master_s", "s"},
    {"pregel.messages", "count"},
    {"pregel.network_bytes", "B"},
    {"pregel.msgs_per_s", "1/s"},
    {"pregel.time_imbalance", "ratio"},
    {"pregel.supersteps", "count"},
    {"pregel.sparse_supersteps", "count"},
    {"reference.s", "s"},
    {"pregel.ceiling_ratio", "ratio"},
    {"service.load_s", "s"},
    {"service.queue_p50_s", "s"},
    {"service.queue_p99_s", "s"},
    {"service.run_p50_s", "s"},
    {"service.run_p99_s", "s"},
    {"service.hit_s", "s"},
    {"service.cache_hit_ratio", "share"},
    {"service.rejected", "count"},
    {"service.failed", "count"},
    {"loadgen.lag_p99_s", "s"},
    {"trace.unattributed_share", "share"},
    {"trace.overhead_share", "share"},
};

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "gm_perfbench: %s\nusage: gm_perfbench --workload "
               "pagerank-rmat|sssp-grid|serving-mix --seed N --seconds S "
               "--trace 0|1 --root DIR --work-dir DIR [--size full|toy]\n",
               Msg.c_str());
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  std::map<std::string, std::string> Kv;
  for (int I = 1; I < Argc; I += 2) {
    if (std::strncmp(Argv[I], "--", 2) != 0 || I + 1 >= Argc)
      usage(std::string("bad argument ") + Argv[I]);
    Kv[Argv[I] + 2] = Argv[I + 1];
  }
  auto Take = [&](const char *Key) {
    auto It = Kv.find(Key);
    if (It == Kv.end())
      usage(std::string("missing --") + Key);
    std::string V = It->second;
    Kv.erase(It);
    return V;
  };
  try {
    O.Workload = Take("workload");
    O.Seed = std::stoull(Take("seed"));
    O.Seconds = std::stod(Take("seconds"));
    const std::string Trace = Take("trace");
    if (Trace != "0" && Trace != "1")
      usage("--trace takes 0 or 1");
    O.Trace = Trace == "1";
    O.Root = Take("root");
    O.WorkDir = Take("work-dir");
  } catch (const std::logic_error &) {
    usage("malformed number");
  }
  if (Kv.count("size")) {
    const std::string S = Take("size");
    if (S != "full" && S != "toy")
      usage("--size takes full or toy");
    O.Scale = S == "toy" ? Size::Toy : Size::Full;
  }
  if (!Kv.empty())
    usage("unknown option --" + Kv.begin()->first);
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  O.Cores = std::max(1u, std::thread::hardware_concurrency());
  return O;
}

/// Fills in the per-layer metrics of layers the workload does not exercise
/// (value 0, 0 samples) and rejects names outside the catalog.
void completeLayers(Outcome &Out) {
  std::map<std::string, Metric> ByName;
  for (Metric &M : Out.PerLayer)
    ByName[M.Name] = M;
  std::vector<Metric> Full;
  for (const auto &[Name, Unit] : PerLayerCatalog) {
    auto It = ByName.find(Name);
    if (It == ByName.end()) {
      Full.push_back({Name, 0.0, Unit, 0});
      continue;
    }
    if (It->second.Unit != Unit)
      throw std::logic_error("metric " + Name + " reported in " +
                             It->second.Unit + ", catalog says " + Unit);
    Full.push_back(It->second);
    ByName.erase(It);
  }
  if (!ByName.empty())
    throw std::logic_error("metric " + ByName.begin()->first +
                           " is not in the catalog");
  Out.PerLayer = std::move(Full);
}

void checkEndToEnd(const Outcome &Out) {
  if (Out.EndToEnd.size() != EndToEndCatalog.size())
    throw std::logic_error("workload reported " +
                           std::to_string(Out.EndToEnd.size()) +
                           " end-to-end metrics");
  for (size_t I = 0; I < EndToEndCatalog.size(); ++I)
    if (Out.EndToEnd[I].Name != EndToEndCatalog[I].first ||
        Out.EndToEnd[I].Unit != EndToEndCatalog[I].second)
      throw std::logic_error("end-to-end metric " + Out.EndToEnd[I].Name +
                             " out of catalog order or unit");
}

/// All the digits of \p V; a non-finite value (already a check failure)
/// prints as 0 to keep the result line valid JSON.
std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  Outcome Out;
  try {
    if (O.Workload == "pagerank-rmat")
      Out = runPageRankRmat(O);
    else if (O.Workload == "sssp-grid")
      Out = runSsspGrid(O);
    else if (O.Workload == "serving-mix")
      Out = runServingMix(O);
    else
      usage("unknown workload " + O.Workload);
    if (O.Trace)
      completeLayers(Out);
    else
      checkEndToEnd(Out);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "gm_perfbench: %s: %s\n", O.Workload.c_str(),
                 E.what());
    return 2;
  }

  const std::vector<Metric> &Shown = O.Trace ? Out.PerLayer : Out.EndToEnd;
  for (const Metric &M : Shown)
    if (!std::isfinite(M.Value))
      Out.error("metric " + M.Name + " is not finite");
  for (const std::string &E : Out.Errors)
    std::printf("CHECK FAILED: %s\n", E.c_str());

  const double FailRate =
      Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 0.0;
  std::printf("%-28s %20s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric &M : Shown)
    std::printf("%-28s %20.9g %-8s %llu\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), static_cast<unsigned long long>(M.Samples));
  std::printf("%-28s %20.9g %-8s %llu\n", "fail_rate", FailRate, "share",
              static_cast<unsigned long long>(Out.Attempted));
  if (!Out.SelfSeconds.empty()) {
    // pregel.run and pregel.step self time is the unattributed remainder.
    std::printf("\n%-28s %20s\n", "span", "self seconds");
    for (const auto &[Name, Secs] : Out.SelfSeconds)
      std::printf("%-28s %20.9g\n", Name.c_str(), Secs);
  }

  const bool Correct = Out.Errors.empty();
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Out.Attempted) +
                     ", \"failed\": " + std::to_string(Out.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Shown.size(); ++I)
    Line += (I ? ", \"" : "\"") + Shown[I].Name + "\": {\"value\": " +
            number(Shown[I].Value) + ", \"unit\": \"" + Shown[I].Unit + "\"}";
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return Correct ? 0 : 1;
}
