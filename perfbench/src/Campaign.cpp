//===- perfbench/src/Campaign.cpp - The two campaign workloads ------------===//
///
/// \file
/// The two campaign workloads: campaign-bundled (the default `bec campaign`
/// pipeline) and campaign-sampled-exhaustive (the exhaustive plan, sampled)
/// on a cold session for each of the eight bundled programs.
/// perfbench/baseline.json describes their inputs. Outside the timed
/// region a seeded sample of each campaign's runs is re-executed from
/// cycle 0 with simulateWithInjection, which shares no checkpoint, fork or
/// memo code with the engine, and classified by the benchmark itself.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Queries.h"
#include "api/Serialize.h"
#include "fi/CampaignPlan.h"
#include "fi/Engine.h"
#include "ir/AsmParser.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace bec;
using namespace perfbench;

namespace {

/// Runs of the exhaustive plan sampled per program (the issue's sizing:
/// about 2.3 s per pass over the eight programs on a 4-core host).
constexpr uint64_t ExhaustiveSample = 20000;
/// Planned runs per program re-executed from cycle 0 by the checker.
constexpr unsigned VerdictChecks = 32;
/// Repetitions of the set-up, whose median is setup_s.
constexpr unsigned SetupRepeats = 9;

/// The benchmark's own classification of a from-zero run against the
/// golden run: the paper's definitions, in the order the engine reports
/// them (identical trace first, then how it ended, then what it output).
FaultEffect classify(const Trace &T, const Trace &Golden) {
  if (T.TraceHash == Golden.TraceHash)
    return FaultEffect::Masked;
  if (T.End == Outcome::Trap)
    return FaultEffect::Trap;
  if (T.End == Outcome::Hang)
    return FaultEffect::Hang;
  if (T.ObservableHash == Golden.ObservableHash)
    return FaultEffect::Benign;
  return FaultEffect::SDC;
}

/// One program's pass through the pipeline, kept for the checks.
struct ProgramRun {
  std::string Error;
  std::shared_ptr<const Trace> Golden;
  std::shared_ptr<const Program> Prog;
  CampaignPlan Plan;
  CampaignResult Campaign;
  std::string Report;
};

/// Accumulated figures of one program over a phase's passes.
struct Row {
  uint64_t Runs = 0;
  uint64_t Spliced = 0;
  uint64_t Cycles = 0;
  uint64_t Restores = 0;
  uint64_t Rebuilds = 0;
  uint64_t Checkpoints = 0;
  uint64_t CheckpointBytes = 0;
  double EngineS = 0;
  double ProfileRunUs = 0;
  double ProfileRebuildUs = 0;
  double ProfileRestoreUs = 0;
  /// Runs per second of the program's pipeline, one entry per pass.
  std::vector<double> Rates;
};

struct CampaignPhase : Phase {
  std::map<std::string, Row> Rows; ///< Keyed by program name.
};

class CampaignBench {
public:
  CampaignBench(const Options &O, bool Exhaustive)
      : O(O), Exhaustive(Exhaustive) {}

  Result run();

private:
  ProgramRun pipeline(const Workload &W, size_t Canon, uint64_t Item,
                      bool Profile, bool Keep, Row &Into);
  /// Runs every program once into \p Ph, with spans when \p Traced, and
  /// returns the FI runs done. The first pass is kept in First for the
  /// checks; every later one must succeed and render the same reports.
  uint64_t runPass(CampaignPhase &Ph, bool Traced, Result &R);
  void checkOutcomes(Result &R);

  PlanOptions planFor(size_t Canon) const {
    PlanOptions PO;
    if (Exhaustive) {
      PO.Kind = PlanKind::Exhaustive;
      PO.SampleSize = O.Minimal ? 500 : ExhaustiveSample;
      PO.SampleSeed = mixSeed(O.Seed, 100 + Canon);
    }
    if (O.Minimal && !Exhaustive)
      PO.MaxCycles = 64;
    return PO;
  }

  const Options &O;
  bool Exhaustive;
  std::vector<ProgramRun> First;
  /// Canonical indices of allWorkloads() in this seed's execution order.
  std::vector<size_t> Order;
};

ProgramRun CampaignBench::pipeline(const Workload &W, size_t Canon,
                                   uint64_t Item, bool Profile, bool Keep,
                                   Row &Into) {
  ProgramRun Out;
  std::optional<Program> Parsed =
      parseAndVerify(W.Asm, W.Name, Item, Out.Error);
  if (!Parsed)
    return Out;
  AnalysisSession Session; // Cold: nothing is shared between programs.
  CachedProgramPtr P = Session.intern(std::move(*Parsed));
  Analyzed A = analyzeLayers(Session, P, Item);
  Out.Golden = A.Golden;
  PlanOptions PO = planFor(Canon);
  {
    Span S("fi.plan", Item);
    Out.Plan = CampaignPlan::build(*A.Bec, *Out.Golden, PO);
  }
  CampaignExecOptions Exec;
  Exec.Threads = 1;
  Exec.CollectProfile = Profile;
  auto Cmd = std::make_shared<CampaignCmdResult>();
  Cmd->Instrs = P->program().size();
  Cmd->Cycles = Out.Golden->Cycles;
  auto E0 = Clock::now();
  {
    Span S("fi.engine", Item);
    Cmd->Campaign = runCampaign(P->program(), *Out.Golden, Out.Plan, Exec);
  }
  double EngineS = secondsSince(E0);
  {
    Span S("api.render", Item);
    std::string Name = W.Name;
    std::shared_ptr<const CampaignCmdResult> C = Cmd;
    Out.Report = renderCampaignJson({&Name, 1}, {&C, 1}, PO.Kind);
  }
  const CampaignResult &C = Cmd->Campaign;
  Out.Error = C.Error;
  Into.EngineS += EngineS;
  Into.Runs += C.Runs;
  Into.Spliced += C.SplicedRuns;
  Into.Cycles += C.SimulatedCycles;
  Into.Restores += C.CheckpointRestores;
  Into.Rebuilds += C.SnapshotRebuilds;
  Into.Checkpoints += C.CheckpointsCreated;
  Into.CheckpointBytes += C.CheckpointBytes;
  for (const WorkerPhaseProfile &WP : C.Profile.Workers) {
    Into.ProfileRunUs += WP.RunUs;
    Into.ProfileRebuildUs += WP.RebuildUs;
    Into.ProfileRestoreUs += WP.RestoreUs;
  }
  if (Keep)
    Out.Campaign = std::move(Cmd->Campaign);
  Out.Prog = std::shared_ptr<const Program>(P, &P->program());
  return Out;
}

uint64_t CampaignBench::runPass(CampaignPhase &Ph, bool Traced, Result &R) {
  const std::vector<Workload> &All = allWorkloads();
  bool Keep = First.empty();
  uint64_t PassRuns = 0;
  for (size_t K = 0; K < Order.size(); ++K) {
    const Workload &W = All[Order[K]];
    uint64_t Item = Ph.Passes * Order.size() + K;
    Row &Into = Ph.Rows[W.Name];
    auto P0 = Clock::now();
    uint64_t Runs0 = Into.Runs;
    std::string Error, Report;
    {
      // The root span and the wall time include tearing the cold session
      // down, which the CLI pays too.
      Span Root("program", Item);
      ProgramRun Out = pipeline(W, Order[K], Item, Traced, Keep, Into);
      if (Keep) {
        First.push_back(std::move(Out));
      } else {
        Error = std::move(Out.Error);
        Report = std::move(Out.Report);
      }
    }
    Into.Rates.push_back((Into.Runs - Runs0) / secondsSince(P0));
    PassRuns += Into.Runs - Runs0;
    if (Keep)
      continue; // checkOutcomes checks the first pass.
    R.check(Error.empty(), W.Name + ": " + Error);
    R.check(stripSeconds(Report) == stripSeconds(First[K].Report),
            W.Name + ": report differs between passes");
  }
  return PassRuns;
}

void CampaignBench::checkOutcomes(Result &R) {
  const std::vector<Workload> &All = allWorkloads();
  std::map<std::string, std::string> Reports;
  bool Flip = O.FlipVerdict;
  for (size_t K = 0; K < First.size(); ++K) {
    const ProgramRun &Out = First[K];
    const Workload &W = All[Order[K]];
    R.check(Out.Error.empty(), W.Name + ": " + Out.Error);
    if (!Out.Error.empty())
      continue;
    const Trace &G = *Out.Golden;
    bool GoldenOk = G.End == Outcome::Finished &&
                    G.outputValues() == W.ExpectedOutputs &&
                    (!W.CheckReturn || (G.HasReturnValue &&
                                        G.ReturnValue == W.ExpectedReturn));
    R.check(GoldenOk, W.Name + ": golden outputs differ from the reference "
                               "model");
    Reports[W.Name] = stripSeconds(Out.Report);

    const std::vector<PlannedRun> &Runs = Out.Plan.runs();
    if (Runs.empty() || Out.Campaign.Effects.size() != Runs.size()) {
      R.check(Runs.empty(), W.Name + ": engine returned no verdicts");
      continue;
    }
    RunOptions RO;
    RO.Record = false;
    // The engine's hang budget for injected runs (fi/Engine.cpp).
    RO.MaxCycles = G.Cycles * 16 + 4096;
    Xoshiro256 Rng(mixSeed(O.Seed, 1000 + Order[K]));
    unsigned Checks = O.Minimal ? 8 : VerdictChecks;
    for (unsigned I = 0; I < Checks; ++I) {
      size_t Idx = Rng.below(Runs.size());
      const PlannedRun &PR = Runs[Idx];
      Trace T = simulateWithInjection(
          *Out.Prog, Injection{PR.AfterCycle, PR.R, PR.Bit}, RO);
      FaultEffect Engine = Out.Campaign.Effects[Idx];
      if (Flip) {
        Engine = Engine == FaultEffect::Masked ? FaultEffect::SDC
                                               : FaultEffect::Masked;
        Flip = false;
      }
      R.check(classify(T, G) == Engine,
              W.Name + ": engine verdict differs from a from-zero replay");
    }
  }
  Digest D;
  for (auto &[Name, Report] : Reports)
    D.add(Report);
  R.ReportDigest = D.hex();
}

Result CampaignBench::run() {
  Result R;
  const std::vector<Workload> &All = allWorkloads();
  double Setup = timedSetup(SetupRepeats, [&] {
    // Inputs: the eight programs in the seed's order. Warm-up: one small
    // sampled campaign through the same pipeline so lazy initialisation
    // is over before timing.
    Order.resize(All.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    seededShuffle(Order, mixSeed(O.Seed, 0));
    AsmParseResult P = parseAsm(All.front().Asm, All.front().Name);
    AnalysisSession S;
    CachedProgramPtr CP = S.intern(std::move(*P.Prog));
    CampaignQuery::Options CO;
    CO.Plan = PlanKind::Exhaustive;
    CO.SampleSize = 2000;
    S.get<CampaignQuery>(CP, CO);
  });

  CampaignPhase Plain, Traced;
  runPasses(O, Plain, Traced, [&](CampaignPhase &Ph, bool On) {
    return double(runPass(Ph, On, R));
  });
  const CampaignPhase &Main = O.Trace ? Traced : Plain;
  if (O.Trace && !O.TraceOut.empty() && !recorder().writeFile(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
  checkOutcomes(R);

  // Per-program rows, in the paper's table order.
  std::printf("%-10s %12s %12s %14s %8s\n", "program", "runs/s", "engine_ms",
              "sim_cycles", "splice");
  Row Total;
  std::vector<double> PerProgramRate;
  for (const Workload &W : All) {
    const Row &Rw = Main.Rows.at(W.Name);
    double Rate = median(Rw.Rates);
    double Splice = Rw.Runs ? double(Rw.Spliced) / Rw.Runs : 0;
    std::printf("%-10s %12.1f %12.2f %14.0f %8.3f\n", W.Name.c_str(), Rate,
                Rw.EngineS * 1e3 / Main.Passes,
                double(Rw.Cycles) / Main.Passes, Splice);
    PerProgramRate.push_back(Rate);
    Total.Runs += Rw.Runs;
    Total.Spliced += Rw.Spliced;
    Total.Cycles += Rw.Cycles;
    Total.Restores += Rw.Restores;
    Total.Rebuilds += Rw.Rebuilds;
    Total.Checkpoints += Rw.Checkpoints;
    Total.CheckpointBytes += Rw.CheckpointBytes;
    Total.EngineS += Rw.EngineS;
    Total.ProfileRunUs += Rw.ProfileRunUs;
    Total.ProfileRebuildUs += Rw.ProfileRebuildUs;
    Total.ProfileRestoreUs += Rw.ProfileRestoreUs;
  }
  std::printf("passes %u, wall %.3f s, cpu %.3f s, runs/s geomean %.1f, "
              "per pass:",
              Main.Passes, Main.WallS, Main.CpuS, geomean(PerProgramRate));
  for (double Rate : Main.PassRates)
    std::printf(" %.1f", Rate);
  std::printf("\n");

  if (!O.Trace) {
    addEndToEnd(R, Setup, Main.Items, Main.CpuS);
    return R;
  }

  // Per-layer figures of the traced phase, per pass over the programs.
  double Passes = Main.Passes;
  double LayerS = addLayerSelfTimes(
      R,
      {"ir.parse", "ir.verify", "sim.golden", "analysis.liveness",
       "analysis.usedef", "analysis.bitvalues", "core.bec", "fi.plan",
       "fi.engine", "api.render"},
      Passes);
  addTraceOverhead(R, LayerS, Main.WallS, median(Main.PassWallS),
                   median(Plain.PassWallS));
  R.add("sim.cycles", Total.Cycles / Passes, "count");
  R.add("sim.cycles_per_run", double(Total.Cycles) / Total.Runs, "count");
  R.add("sim.ns_per_cycle", Total.EngineS * 1e9 / Total.Cycles, "ns");
  R.add("fi.runs_per_s_geomean", geomean(PerProgramRate), "1/s");
  R.add("fi.runs", Total.Runs / Passes, "count");
  R.add("fi.spliced_runs", Total.Spliced / Passes, "count");
  R.add("fi.splice_ratio", double(Total.Spliced) / Total.Runs, "ratio");
  R.add("fi.restores", Total.Restores / Passes, "count");
  R.add("fi.rebuilds", Total.Rebuilds / Passes, "count");
  R.add("fi.checkpoints", Total.Checkpoints / Passes, "count");
  R.add("fi.checkpoint_bytes", Total.CheckpointBytes / Passes, "bytes");
  R.add("fi.engine.run_ms", Total.ProfileRunUs / 1e3 / Passes, "ms");
  R.add("fi.engine.rebuild_ms", Total.ProfileRebuildUs / 1e3 / Passes, "ms");
  R.add("fi.engine.restore_ms", Total.ProfileRestoreUs / 1e3 / Passes, "ms");
  for (const Workload &W : All) {
    const Row &Rw = Main.Rows.at(W.Name);
    R.add("fi.engine_ms." + W.Name, Rw.EngineS * 1e3 / Passes, "ms");
    R.add("sim.cycles." + W.Name, Rw.Cycles / Passes, "count");
    R.add("fi.splice_ratio." + W.Name,
          Rw.Runs ? double(Rw.Spliced) / Rw.Runs : 0, "ratio");
    R.add("fi.runs_per_s." + W.Name, median(Rw.Rates), "1/s");
  }
  return R;
}

} // namespace

Result perfbench::runCampaignWorkload(const Options &O, bool Exhaustive) {
  return CampaignBench(O, Exhaustive).run();
}
