//===- perfbench/src/Bench.h - Shared harness pieces ----------------------===//
///
/// \file
/// What every workload of the benchmark shares: the command-line options,
/// the in-memory span recorder that gives the traced run its per-layer
/// self times, the metric sink that prints the result line, and small
/// statistics helpers (median, nearest-rank percentile, geometric mean).
///
/// The benchmark drives the library from outside: spans wrap calls into
/// public functions of src/ and nothing inside src/ is instrumented for
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "api/AnalysisSession.h"
#include "core/BECAnalysis.h"
#include "sim/Trace.h"
#include "support/Xoshiro.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string TraceOut;
  /// Self-check size: every workload shrinks to a sub-second run that
  /// still reports every metric it owns.
  bool Minimal = false;
  /// Self-check of the verdict checker: corrupt one engine verdict before
  /// it is checked, which must show up as a failed operation.
  bool FlipVerdict = false;
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// CPU time all threads of this process have used, in seconds. It leaves
/// out the time a shared host gave the core to another guest (steal), which
/// on such a host moves wall-clock figures by up to a third between runs
/// minutes apart.
double cpuSeconds();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded layer call. Parent is the index of the enclosing span on
/// the same thread, or -1 for a root; Item ties the spans of one program
/// or request together.
struct SpanRecord {
  const char *Name;
  uint64_t Item;
  int64_t Parent;
  int64_t StartNs;
  int64_t EndNs;
  uint32_t Thread;
};

/// Records spans in memory while enabled; a disabled recorder costs one
/// branch per span. Spans nest per thread through a thread-local stack.
class SpanRecorder {
public:
  void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Self time per span name in nanoseconds: each span's duration minus
  /// the part its direct children cover.
  std::vector<std::pair<std::string, int64_t>> selfTimes() const;
  /// Writes every span as one JSON document (name, item, parent, start
  /// and end in microseconds since the first span).
  bool writeFile(const std::string &Path) const;

private:
  friend class Span;
  int64_t open(const char *Name, uint64_t Item);
  void close(int64_t Index);

  std::atomic<bool> Enabled{false};
  std::mutex Mutex;
  std::vector<SpanRecord> Spans;
};

/// The process's recorder (one traced phase per run).
SpanRecorder &recorder();

/// RAII span around one layer call.
class Span {
public:
  Span(const char *Name, uint64_t Item)
      : Index(recorder().enabled() ? recorder().open(Name, Item) : -1) {}
  ~Span() {
    if (Index >= 0)
      recorder().close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Index;
};

//===----------------------------------------------------------------------===//
// Metrics and the result line
//===----------------------------------------------------------------------===//

/// The run's outcome: every operation attempted, those that failed or
/// produced a wrong output, the digest of the rendered reports, and the
/// metrics in print order.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string ReportDigest;
  std::vector<std::string> Problems; ///< One line per failure kind seen.
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Counts one checked operation; a false \p Ok is a failure described
  /// by \p What.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok)
      fail(What);
  }
  /// Counts one failed operation (its description is kept once per
  /// distinct text).
  void fail(const std::string &What);
  /// The final stdout line run.py reads.
  std::string json() const;
};

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank percentile \p P (0 < P <= 100).
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
/// Peak resident set size of this process in MiB.
double peakRssMb();

/// 64-bit FNV-1a, printed as 16 hex digits.
class Digest {
public:
  void add(std::string_view S);
  std::string hex() const;

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

/// Replaces every `"seconds":<number>` value with 0 so reports of two runs
/// compare byte for byte.
std::string stripSeconds(std::string_view Json);

/// splitmix64 mixing of a seed and a stream index (independent per-purpose
/// seeds from the one benchmark seed).
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// Fisher-Yates shuffle of \p V drawn from \p Seed.
template <class T> void seededShuffle(std::vector<T> &V, uint64_t Seed) {
  bec::Xoshiro256 Rng(Seed);
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
}

/// Runs \p Once K times and returns the median CPU time of one run in
/// seconds: the set-up metric (the last repetition's state is the one
/// kept).
template <class Fn> double timedSetup(unsigned K, Fn &&Once) {
  std::vector<double> T;
  for (unsigned I = 0; I < K; ++I) {
    double C0 = cpuSeconds();
    Once();
    T.push_back(cpuSeconds() - C0);
  }
  return median(T);
}

/// The passes of one kind (traced or not) of a run.
struct Phase {
  unsigned Passes = 0;
  double WallS = 0; ///< Sum over the passes.
  double CpuS = 0;  ///< Sum over the passes.
  double Items = 0; ///< Sum over the passes.
  std::vector<double> PassWallS;
  /// Items (programs, FI runs) per second of each whole pass.
  std::vector<double> PassRates;
};

/// Runs \p Pass(Ph, Traced), which returns the items it completed, until
/// O.Seconds are used (at least once). A traced run alternates untraced
/// passes into \p Plain and traced passes into \p Traced for twice as long,
/// so a drift of the shared host's speed hits both kinds alike.
template <class PhaseT, class Fn>
void runPasses(const Options &O, PhaseT &Plain, PhaseT &Traced, Fn &&Pass) {
  auto Once = [&](PhaseT &Ph, bool On) {
    recorder().enable(On);
    auto T0 = Clock::now();
    double C0 = cpuSeconds();
    double Items = Pass(Ph, On);
    Ph.CpuS += cpuSeconds() - C0;
    Ph.Items += Items;
    recorder().enable(false);
    double Wall = secondsSince(T0);
    Ph.PassWallS.push_back(Wall);
    Ph.PassRates.push_back(Items / Wall);
    Ph.WallS += Wall;
    ++Ph.Passes;
  };
  auto T0 = Clock::now();
  do {
    Once(Plain, false);
    if (O.Trace)
      Once(Traced, true);
  } while (secondsSince(T0) < (O.Trace ? 2 : 1) * O.Seconds);
}

/// Adds the end-to-end metrics, the same three on every workload: set-up
/// CPU time, operations per CPU second and peak memory. An operation is a
/// classified FI run (campaign workloads), an analyzed program
/// (analyze-corpus) or a completed request (serve-mixed); \p CpuS is what
/// the process used for \p Ops of them, server and clients included.
void addEndToEnd(Result &R, double SetupS, double Ops, double CpuS);

/// Adds "<layer>_ms", the self time of each named span per \p Items, and
/// returns their sum in seconds.
double addLayerSelfTimes(Result &R, const std::vector<std::string> &Layers,
                         double Items);

/// Adds the tracing overhead (traced against untraced wall time per item)
/// and the share of the traced phase's busy time that \p LayerS, the
/// layer spans' self time, accounts for.
void addTraceOverhead(Result &R, double LayerS, double TracedBusyS,
                      double TracedPerItemS, double UntracedPerItemS);

//===----------------------------------------------------------------------===//
// Layer calls shared by the campaign and corpus pipelines
//===----------------------------------------------------------------------===//

/// Parses and verifies \p Asm, each call inside its layer's span
/// (ir.parse, ir.verify). nullopt with \p Error set when either fails.
std::optional<bec::Program> parseAndVerify(std::string_view Asm,
                                           const std::string &Name,
                                           uint64_t Item, std::string &Error);

struct Analyzed {
  std::shared_ptr<const bec::Trace> Golden;
  std::shared_ptr<const bec::BECAnalysis> Bec;
};

/// The golden run and the BEC analysis of \p P, each primitive query
/// inside its layer's span (sim.golden, analysis.liveness,
/// analysis.usedef, analysis.bitvalues, core.bec).
Analyzed analyzeLayers(bec::AnalysisSession &S, const bec::CachedProgramPtr &P,
                       uint64_t Item);

// Workload entry points (one per source file).
Result runCampaignWorkload(const Options &O, bool Exhaustive);
Result runAnalyzeWorkload(const Options &O);
Result runServeWorkload(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
