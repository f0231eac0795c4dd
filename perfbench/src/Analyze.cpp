//===- perfbench/src/Analyze.cpp - The analyze-corpus workload ------------===//
///
/// \file
/// The analyze-corpus workload: the cold compile-time path (`bec analyze`
/// plus `bec schedule`) for each program of a seeded corpus on a fresh
/// session. perfbench/baseline.json describes its inputs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Queries.h"
#include "api/Serialize.h"
#include "fuzz/Generator.h"
#include "sched/ListScheduler.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>

using namespace bec;
using namespace perfbench;

namespace {

/// Generated programs per corpus (plus the eight bundled ones): enough
/// that the corpus of one seed costs about what the corpus of another does.
constexpr unsigned CorpusSize = 2000;
/// Set-up (generating the corpus, ~75 ms) is short, so its median is taken
/// over many repetitions.
constexpr unsigned SetupRepeats = 15;

struct CorpusEntry {
  std::string Name;
  std::string Asm;
  /// The bundled workload, whose reference model checks the golden run;
  /// null for generated programs.
  const Workload *Bundled = nullptr;
};

/// One program through the pipeline. Returns the rendered analyze and
/// schedule documents, or an error text; \p Golden receives the golden run.
std::string pipeline(const CorpusEntry &E, uint64_t Item, std::string &Error,
                     std::shared_ptr<const Trace> &Golden) {
  std::optional<Program> Parsed = parseAndVerify(E.Asm, E.Name, Item, Error);
  if (!Parsed)
    return {};
  AnalysisSession Session;
  CachedProgramPtr P = Session.intern(std::move(*Parsed));
  Analyzed A = analyzeLayers(Session, P, Item);
  Golden = A.Golden;
  if (Golden->End != Outcome::Finished) {
    Error = std::string("golden run ended with ") + outcomeName(Golden->End);
    return {};
  }
  auto Analyze = std::make_shared<AnalyzeResult>();
  auto Sched = std::make_shared<ScheduleCmdResult>();
  Analyze->Instrs = Sched->Instrs = P->program().size();
  Analyze->Cycles = Sched->Cycles = Golden->Cycles;
  {
    Span S("core.trace_metrics", Item);
    Analyze->Counts = *Session.get<CountsQuery>(P);
    Analyze->Vulnerability = *Session.get<VulnQuery>(P);
  }
  Sched->PolicyVuln[0] = Analyze->Vulnerability;
  const SchedulePolicy Policies[] = {SchedulePolicy::SourceOrder,
                                     SchedulePolicy::BestReliability,
                                     SchedulePolicy::WorstReliability};
  for (unsigned I = 0; I < 3; ++I) {
    Program Scheduled = [&] {
      Span S("sched.schedule", Item);
      return scheduleProgram(*A.Bec, Policies[I]);
    }();
    {
      Span S("api.render", Item);
      Sched->PolicyAsm[I] = Scheduled.toString();
    }
    if (I == 0)
      continue;
    CachedProgramPtr SP = Session.intern(std::move(Scheduled));
    Analyzed SA = analyzeLayers(Session, SP, Item);
    if (SA.Golden->End != Outcome::Finished) {
      Error = std::string("scheduled run ended with ") +
              outcomeName(SA.Golden->End);
      return {};
    }
    Span S("core.trace_metrics", Item);
    Sched->PolicyVuln[I] = *Session.get<VulnQuery>(SP);
  }
  Span S("api.render", Item);
  std::shared_ptr<const AnalyzeResult> AR = Analyze;
  std::shared_ptr<const ScheduleCmdResult> SR = Sched;
  return renderAnalyzeJson({&E.Name, 1}, {&AR, 1}) +
         renderScheduleJson({&E.Name, 1}, {&SR, 1});
}

struct CorpusPhase : Phase {
  /// Pipeline latency of every program of every pass.
  std::vector<double> LatencyMs;
  /// The median latency of each pass.
  std::vector<double> PassP50Ms;
};

} // namespace

Result perfbench::runAnalyzeWorkload(const Options &O) {
  Result R;
  std::vector<CorpusEntry> Corpus;
  unsigned GeneratorErrors = 0;
  double Setup = timedSetup(SetupRepeats, [&] {
    Corpus.clear();
    GeneratorErrors = 0;
    for (const Workload &W : allWorkloads())
      Corpus.push_back({W.Name, W.Asm, &W});
    fuzz::GeneratorOptions GO;
    GO.MinBlocks = 6;
    GO.MaxBlocks = 12;
    unsigned N = O.Minimal ? 16 : CorpusSize;
    for (unsigned I = 0; I < N; ++I) {
      fuzz::GeneratedProgram G =
          fuzz::generateProgram(fuzz::programSeed(mixSeed(O.Seed, 7), I), GO);
      if (!G.Error.empty()) {
        ++GeneratorErrors; // A known generator defect; counted as failed.
        continue;
      }
      Corpus.push_back({G.Name, std::move(G.Asm), nullptr});
    }
    seededShuffle(Corpus, mixSeed(O.Seed, 8));
  });
  for (unsigned I = 0; I < GeneratorErrors; ++I)
    R.check(false, "fuzz::generateProgram emitted a program that fails "
                   "verification");

  std::vector<std::string> FirstReports(Corpus.size());
  std::vector<bool> Seen(Corpus.size());
  /// Golden runs of the bundled programs, checked after timing.
  std::vector<std::shared_ptr<const Trace>> BundledGolden(Corpus.size());
  CorpusPhase Plain, Traced;
  runPasses(O, Plain, Traced, [&](CorpusPhase &Ph, bool) {
    size_t First = Ph.LatencyMs.size();
    for (size_t K = 0; K < Corpus.size(); ++K) {
      const CorpusEntry &E = Corpus[K];
      uint64_t Item = Ph.Passes * Corpus.size() + K;
      std::string Error, Report;
      std::shared_ptr<const Trace> Golden;
      auto P0 = Clock::now();
      {
        Span Root("program", Item);
        Report = pipeline(E, Item, Error, Golden);
        if (E.Bundled && !Seen[K])
          BundledGolden[K] = Golden;
        Golden.reset(); // Tear the session down inside the sample.
      }
      Ph.LatencyMs.push_back(secondsSince(P0) * 1e3);
      if (!Seen[K]) {
        Seen[K] = true;
        R.check(Error.empty(), E.Name + ": " + Error);
        FirstReports[K] = Report;
      } else {
        R.check(Report == FirstReports[K],
                E.Name + ": report differs between passes");
      }
    }
    Ph.PassP50Ms.push_back(median({Ph.LatencyMs.begin() + First,
                                   Ph.LatencyMs.end()}));
    return double(Corpus.size());
  });
  const CorpusPhase &Main = O.Trace ? Traced : Plain;
  if (O.Trace && !O.TraceOut.empty() && !recorder().writeFile(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());

  // Outside the timed region: the bundled programs' golden outputs
  // against their C++ reference models.
  Digest D;
  for (size_t K = 0; K < Corpus.size(); ++K) {
    D.add(FirstReports[K]);
    const Workload *W = Corpus[K].Bundled;
    if (!W || !BundledGolden[K])
      continue;
    const Trace &G = *BundledGolden[K];
    R.check(G.outputValues() == W->ExpectedOutputs &&
                (!W->CheckReturn ||
                 (G.HasReturnValue && G.ReturnValue == W->ExpectedReturn)),
            W->Name + ": golden outputs differ from the reference model");
  }
  R.ReportDigest = D.hex();

  size_t Programs = Main.LatencyMs.size();
  // Wall-clock figures, for reading: the p50 is the median over passes,
  // which a short stall of the shared host cannot move; each pass has
  // ~2000 samples, so the p99 over all of them has well over 10 beyond it.
  std::printf("corpus %zu programs (%zu bundled), passes %u, samples %zu, "
              "wall %.3f s, cpu %.3f s, programs/s %.1f, p50 %.4f ms, "
              "p99 %.4f ms\n",
              Corpus.size(), allWorkloads().size(), Main.Passes, Programs,
              Main.WallS, Main.CpuS, median(Main.PassRates),
              median(Main.PassP50Ms), percentile(Main.LatencyMs, 99));
  if (!O.Trace) {
    addEndToEnd(R, Setup, Main.Items, Main.CpuS);
    return R;
  }
  double LayerS = addLayerSelfTimes(
      R,
      {"ir.parse", "ir.verify", "sim.golden", "analysis.liveness",
       "analysis.usedef", "analysis.bitvalues", "core.bec",
       "core.trace_metrics", "sched.schedule", "api.render"},
      double(Programs));
  addTraceOverhead(R, LayerS, Main.WallS, median(Main.PassWallS),
                   median(Plain.PassWallS));
  return R;
}
