//===- tests/DriverTest.cpp - In-process tests of the `bec` CLI -----------===//

#include "Driver.h"
#include "TempPath.h"

#include "core/BECAnalysis.h"
#include "core/Metrics.h"
#include "sim/Interpreter.h"
#include "support/JsonParse.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace bec;
using bec::tool::runDriver;

namespace {

/// Runs the driver in-process and captures stdout/stderr text.
struct DriverRun {
  int Status;
  std::string Out;
  std::string Err;
};

DriverRun run(std::vector<std::string> Args) {
  std::ostringstream Out, Err;
  int Status = runDriver(Args, Out, Err);
  return {Status, Out.str(), Err.str()};
}

TEST(Driver, AnalyzeBitcountMatchesDirectPipeline) {
  DriverRun R = run({"analyze", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("bitcount"), std::string::npos);
  EXPECT_NE(R.Out.find("Fault space"), std::string::npos);
  EXPECT_NE(R.Out.find("Masked"), std::string::npos);

  // The table must carry the same numbers the library computes directly.
  Program Prog = loadWorkload(*findWorkload("bitcount"));
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  FaultInjectionCounts C = countFaultInjectionRuns(A, Golden.Executed);
  EXPECT_NE(R.Out.find(Table::withSeparators(C.TotalFaultSpace)),
            std::string::npos);
  EXPECT_NE(R.Out.find(Table::withSeparators(C.BitLevelRuns)),
            std::string::npos);
  EXPECT_NE(R.Out.find(Table::withSeparators(
                computeVulnerability(A, Golden.Executed))),
            std::string::npos);
}

TEST(Driver, AnalyzeIsCaseInsensitiveOnWorkloadNames) {
  DriverRun R = run({"analyze", "--workload", "crc32"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("CRC32"), std::string::npos);
}

TEST(Driver, AnalyzeAllWorkloadsWithJobs) {
  DriverRun R = run({"analyze", "--all", "--jobs", "4"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  // One row per bundled workload, in registry order.
  size_t Pos = 0;
  for (const Workload &W : allWorkloads()) {
    size_t Found = R.Out.find(W.Name, Pos);
    EXPECT_NE(Found, std::string::npos) << "missing row for " << W.Name;
    Pos = Found;
  }
}

TEST(Driver, CampaignBitcountBitLevelPlan) {
  DriverRun R = run({"campaign", "--workload", "bitcount", "--plan", "bit"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("bit-level"), std::string::npos);
  EXPECT_NE(R.Out.find("Runs"), std::string::npos);
  EXPECT_NE(R.Out.find("SDC"), std::string::npos);
  // The per-class breakdown: rate columns next to the raw counts.
  EXPECT_NE(R.Out.find("SDC rate"), std::string::npos);
  EXPECT_NE(R.Out.find("Trap rate"), std::string::npos);
}

/// The campaign's wall-clock column is the one measured (not computed)
/// value; mask it before comparing two runs' reports.
std::string maskCampaignSeconds(const std::string &S) {
  std::string Out;
  size_t Pos = 0, Start;
  while ((Start = S.find_first_of("0123456789", Pos)) != std::string::npos) {
    Out.append(S, Pos, Start - Pos);
    size_t TokEnd = S.find_first_not_of("0123456789.", Start);
    size_t End = TokEnd == std::string::npos ? S.size() : TokEnd;
    // A x.yz token at end of line is the Seconds cell.
    if (TokEnd == S.find('\n', Start) && S.find('.', Start) < End)
      Out += '#';
    else
      Out.append(S, Start, End - Start);
    Pos = End;
  }
  return Out.append(S, Pos);
}

TEST(Driver, CampaignCheckpointResumeReportIsByteIdentical) {
  std::string Path = test::tempPath("driver_campaign_ck.jsonl");
  std::remove(Path.c_str());
  std::vector<std::string> Base = {"campaign",     "--workload",
                                   "bitcount",     "--max-cycles",
                                   "120",          "--checkpoint",
                                   Path};
  DriverRun Full = run(Base);
  EXPECT_EQ(Full.Status, tool::ExitSuccess) << Full.Err;

  std::vector<std::string> ResumeCmd = Base;
  ResumeCmd.push_back("--resume");
  DriverRun Resumed = run(ResumeCmd);
  EXPECT_EQ(Resumed.Status, tool::ExitSuccess) << Resumed.Err;
  EXPECT_EQ(maskCampaignSeconds(Full.Out), maskCampaignSeconds(Resumed.Out));
  EXPECT_NE(Resumed.Err.find("resumed"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Driver, CampaignSampledReportsConfidenceIntervals) {
  DriverRun R = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--sample", "300", "--seed", "9"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("sampled 300 of"), std::string::npos);
  EXPECT_NE(R.Out.find("95% CI"), std::string::npos);

  DriverRun J = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--sample", "300", "--seed", "9", "--format",
                     "json"});
  EXPECT_EQ(J.Status, tool::ExitSuccess) << J.Err;
  EXPECT_NE(J.Out.find("\"sample\":"), std::string::npos);
  EXPECT_NE(J.Out.find("\"ci95\":"), std::string::npos);
  EXPECT_NE(J.Out.find("\"rates\":"), std::string::npos);
}

TEST(Driver, CampaignProgressNarratesShards) {
  DriverRun R = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--threads", "2", "--progress"});
  EXPECT_EQ(R.Status, tool::ExitSuccess);
  EXPECT_NE(R.Err.find("bec: campaign: bitcount:"), std::string::npos);
  EXPECT_NE(R.Err.find("shards"), std::string::npos);
}

TEST(Driver, CampaignEngineUsageErrors) {
  // Campaign-engine flags belong to campaign (or client campaign calls).
  EXPECT_EQ(run({"analyze", "--sample", "10"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"report", "--progress"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--checkpoint", "x.jsonl"}).Status,
            tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--sample", "many"}).Status, tool::ExitUsage);
  // Engine flags on a non-campaign client method would silently run a
  // different request than asked.
  EXPECT_EQ(run({"client", "analyze", "bitcount", "--threads", "2"}).Status,
            tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--shard-size", "0"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--resume"}).Status, tool::ExitUsage);
  // One checkpoint file describes one campaign.
  EXPECT_EQ(run({"campaign", "--all", "--checkpoint", "x.jsonl"}).Status,
            tool::ExitUsage);
  // Checkpoints are local state; the server cannot write them.
  EXPECT_EQ(run({"campaign", "--workload", "bitcount", "--checkpoint",
                 "x.jsonl", "--remote", "127.0.0.1:1"})
                .Status,
            tool::ExitUsage);
}

TEST(Driver, ScheduleBitcountReportsAllPolicies) {
  DriverRun R = run({"schedule", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("Source vuln"), std::string::npos);
  EXPECT_NE(R.Out.find("Best vuln"), std::string::npos);
  EXPECT_NE(R.Out.find("Worst vuln"), std::string::npos);
}

TEST(Driver, ReportBitcountIsSound) {
  DriverRun R = run({"report", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("sound"), std::string::npos);
  EXPECT_EQ(R.Out.find("UNSOUND"), std::string::npos);
}

TEST(Driver, AnalyzeExternalAsmFile) {
  // Round-trip: dump a bundled workload to disk, analyze it as a file.
  std::string Path = test::tempPath("driver_bitcount.s");
  {
    std::ofstream OutFile(Path);
    OutFile << loadWorkload(*findWorkload("bitcount")).toString();
  }
  DriverRun R = run({"analyze", "--asm", Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find(Path), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Driver, UsageErrors) {
  EXPECT_EQ(run({}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"frobnicate"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--workload"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--bogus-flag"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--emit", "x.s"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--jobs", "many"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--max-cycles", "10O"}).Status, tool::ExitUsage);
  // --emit needs exactly one target; the default selection is all of them.
  EXPECT_EQ(run({"schedule", "--emit", "x.s"}).Status, tool::ExitUsage);
  // The queue depth is serve's alone; becd has one engine and no
  // option to pick another.
  DriverRun Queue = run({"analyze", "--queue-depth", "4"});
  EXPECT_EQ(Queue.Status, tool::ExitUsage);
  EXPECT_NE(Queue.Err.find("--queue-depth is only valid with serve"),
            std::string::npos);
  EXPECT_EQ(run({"serve", "--queue-depth", "2000000"}).Status,
            tool::ExitUsage);
  EXPECT_EQ(run({"serve", "--engine", "threads"}).Status, tool::ExitUsage);
  // A flag given to a subcommand that never reads it is refused, naming
  // the flag.
  for (std::vector<std::string> Args :
       {std::vector<std::string>{"analyze", "--plan", "value"},
        {"analyze", "--sweep", "5,10"},
        {"analyze", "--policy", "worst"},
        {"campaign", "--budget", "5"},
        {"stats", "--max-cycles", "3"}}) {
    DriverRun R = run(Args);
    EXPECT_EQ(R.Status, tool::ExitUsage) << Args[0] << " " << Args[1];
    EXPECT_NE(R.Err.find(Args[1] + " is only valid with"), std::string::npos)
        << R.Err;
  }
  // `bec client <method>` takes the flags its subcommand sends as params:
  // this parses, then fails to connect.
  EXPECT_EQ(run({"client", "campaign", "bitcount", "--plan", "value",
                 "--sample", "10", "--remote", "127.0.0.1:1"})
                .Status,
            tool::ExitBadInput);

  DriverRun Unknown = run({"analyze", "--workload", "nonesuch"});
  EXPECT_EQ(Unknown.Status, tool::ExitBadInput);
  EXPECT_NE(Unknown.Err.find("nonesuch"), std::string::npos);

  EXPECT_EQ(run({"analyze", "--asm", "/nonexistent/x.s"}).Status,
            tool::ExitBadInput);
}

/// Reads a file into a string (empty when missing).
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(Driver, TraceOutWritesABalancedChromeTraceAndSameReport) {
  std::string Path = test::tempPath("driver_trace.json");
  std::remove(Path.c_str());

  DriverRun Plain = run({"analyze", "--workload", "bitcount"});
  ASSERT_EQ(Plain.Status, tool::ExitSuccess) << Plain.Err;
  DriverRun Traced =
      run({"analyze", "--workload", "bitcount", "--trace-out=" + Path});
  ASSERT_EQ(Traced.Status, tool::ExitSuccess) << Traced.Err;
  // Tracing never changes the printed report.
  EXPECT_EQ(Plain.Out, Traced.Out);

  std::string Doc = slurp(Path);
  ASSERT_FALSE(Doc.empty());
  std::string JsonErr;
  std::optional<JsonValue> V = parseJson(Doc, &JsonErr);
  ASSERT_TRUE(V.has_value()) << JsonErr;
  const std::vector<JsonValue> *Events = V->member("traceEvents")->asArray();
  ASSERT_NE(Events, nullptr);
  ASSERT_FALSE(Events->empty());

  // Balanced, properly nested B/E per thread; the root span wraps the
  // subcommand; session queries appear under deterministic names.
  std::map<uint64_t, std::vector<std::string>> Stacks;
  std::set<std::string> Names;
  for (const JsonValue &E : *Events) {
    const std::string &Ph = *E.memberString("ph");
    uint64_t Tid = *E.memberU64("tid");
    const std::string &Name = *E.memberString("name");
    if (Ph == "B") {
      Stacks[Tid].push_back(Name);
      Names.insert(Name);
    } else if (Ph == "E") {
      ASSERT_FALSE(Stacks[Tid].empty()) << Name;
      EXPECT_EQ(Stacks[Tid].back(), Name);
      Stacks[Tid].pop_back();
    }
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unbalanced spans on tid " << Tid;
  EXPECT_TRUE(Names.count("bec:analyze"));
  EXPECT_TRUE(Names.count("query:cmd.analyze"));

  // Span names are deterministic run to run (timestamps are not).
  std::string Path2 = test::tempPath("driver_trace2.json");
  std::remove(Path2.c_str());
  DriverRun Again =
      run({"analyze", "--workload", "bitcount", "--trace-out", Path2});
  ASSERT_EQ(Again.Status, tool::ExitSuccess) << Again.Err;
  std::optional<JsonValue> V2 = parseJson(slurp(Path2));
  ASSERT_TRUE(V2.has_value());
  std::set<std::string> Names2;
  for (const JsonValue &E : *V2->member("traceEvents")->asArray())
    if (*E.memberString("ph") == "B")
      Names2.insert(*E.memberString("name"));
  EXPECT_EQ(Names, Names2);

  std::remove(Path.c_str());
  std::remove(Path2.c_str());
}

TEST(Driver, TraceOutCoversTheEngineWorkers) {
  std::string Path = test::tempPath("driver_trace_engine.json");
  std::remove(Path.c_str());
  DriverRun R = run({"campaign", "--workload", "bitcount", "--max-cycles",
                     "120", "--trace-out", Path});
  ASSERT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  std::optional<JsonValue> V = parseJson(slurp(Path));
  ASSERT_TRUE(V.has_value());
  // Per-worker spans carry the scaling story: runs, steals, snapshot
  // rebuilds and idle time as closing args.
  bool SawWorker = false, SawShard = false;
  for (const JsonValue &E : *V->member("traceEvents")->asArray()) {
    const std::string &Name = *E.memberString("name");
    SawShard |= Name == "fi.shard";
    if (Name.rfind("fi.worker-", 0) != 0 || *E.memberString("ph") != "E")
      continue;
    SawWorker = true;
    const JsonValue *Args = E.member("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_NE(Args->member("runs"), nullptr);
    EXPECT_NE(Args->member("steals"), nullptr);
    EXPECT_NE(Args->member("snapshot_rebuilds"), nullptr);
    EXPECT_NE(Args->member("idle_us"), nullptr);
  }
  EXPECT_TRUE(SawWorker);
  EXPECT_TRUE(SawShard);
  std::remove(Path.c_str());
}

TEST(Driver, StatsSubcommandAndObservabilityUsageGates) {
  // Local stats: always exits 0; after the driver runs above, this
  // process's registry has session metrics to print.
  ASSERT_EQ(run({"analyze", "--workload", "bitcount"}).Status,
            tool::ExitSuccess);
  DriverRun Local = run({"stats"});
  EXPECT_EQ(Local.Status, tool::ExitSuccess) << Local.Err;
  EXPECT_NE(Local.Out.find("session.query.miss"), std::string::npos);

  // --metrics switches to the Prometheus exposition.
  DriverRun Prom = run({"stats", "--metrics"});
  EXPECT_EQ(Prom.Status, tool::ExitSuccess) << Prom.Err;
  EXPECT_NE(Prom.Out.find("# TYPE bec_session_query_miss_total counter"),
            std::string::npos);

  // The observability flags are gated to the subcommands they modify.
  EXPECT_EQ(run({"analyze", "--watch", "5"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--metrics"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"stats", "--watch"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"stats", "--watch", "0"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"stats", "--workload", "bitcount"}).Status,
            tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--trace-out"}).Status, tool::ExitUsage);
  // Boolean flags refuse --flag=value.
  EXPECT_EQ(run({"stats", "--metrics=yes"}).Status, tool::ExitUsage);
  // Unwritable trace path: the subcommand runs, the trace write fails.
  EXPECT_EQ(run({"analyze", "--workload", "bitcount",
                 "--trace-out=/nonexistent/dir/t.json"})
                .Status,
            tool::ExitBadInput);
}

TEST(Driver, DuplicateTargetSelectionsCollapse) {
  DriverRun R = run({"analyze", "--workload", "bitcount", "--workload",
                     "BITCOUNT", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  size_t First = R.Out.find("bitcount");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(R.Out.find("bitcount", First + 1), std::string::npos)
      << "duplicate selections must produce one row:\n"
      << R.Out;
}

TEST(Driver, ScheduleEmitWritesParseableAssembly) {
  std::string Path = test::tempPath("driver_sched.s");
  DriverRun R =
      run({"schedule", "--workload", "bitcount", "--emit", Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  DriverRun Re = run({"analyze", "--asm", Path});
  EXPECT_EQ(Re.Status, tool::ExitSuccess) << Re.Err;
  std::remove(Path.c_str());
}

TEST(Driver, HardenReportsValidatedParetoPoints) {
  DriverRun R = run({"harden", "--workload", "bitcount"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("Residual vuln"), std::string::npos);
  EXPECT_NE(R.Out.find("ok"), std::string::npos);
  EXPECT_EQ(R.Out.find("FAIL"), std::string::npos) << R.Out;
}

TEST(Driver, HardenSweepEmitsOneRowPerBudget) {
  DriverRun R =
      run({"harden", "--workload", "crc32", "--sweep", "0,10"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("0.00%"), std::string::npos);
  EXPECT_NE(R.Out.find("10.00%"), std::string::npos);
  // Two data rows: header + separator + 2 rows.
  EXPECT_EQ(std::count(R.Out.begin(), R.Out.end(), '\n'), 4);
}

TEST(Driver, HardenEmitWritesParseableAssembly) {
  std::string Path = test::tempPath("driver_hardened.s");
  DriverRun R = run({"harden", "--workload", "bitcount", "--emit", Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  DriverRun Re = run({"analyze", "--asm", Path});
  EXPECT_EQ(Re.Status, tool::ExitSuccess) << Re.Err;
  std::remove(Path.c_str());
}

TEST(Driver, JsonOutputIsWellFormedAndComplete) {
  // Every subcommand emits through the shared api/Serialize.h serializer.
  for (const char *Cmd :
       {"analyze", "campaign", "schedule", "harden", "report"}) {
    DriverRun R =
        run({Cmd, "--workload", "bitcount", "--format", "json"});
    EXPECT_EQ(R.Status, tool::ExitSuccess) << Cmd << ": " << R.Err;
    ASSERT_FALSE(R.Out.empty());
    EXPECT_EQ(R.Out.front(), '{') << Cmd;
    EXPECT_EQ(R.Out[R.Out.size() - 2], '}') << Cmd; // Trailing newline.
    EXPECT_NE(R.Out.find("\"command\":\"" + std::string(Cmd) + "\""),
              std::string::npos);
    EXPECT_NE(R.Out.find("\"name\":\"bitcount\""), std::string::npos);
  }
  DriverRun A = run({"analyze", "--workload", "bitcount", "--format",
                     "json"});
  EXPECT_NE(A.Out.find("\"vulnerability\":"), std::string::npos);
  DriverRun C = run({"campaign", "--workload", "bitcount", "--format",
                     "json"});
  EXPECT_NE(C.Out.find("\"plan\":\"bit-level\""), std::string::npos);
  EXPECT_NE(C.Out.find("\"effects\":"), std::string::npos);
  DriverRun Sch = run({"schedule", "--workload", "bitcount", "--format",
                       "json"});
  EXPECT_NE(Sch.Out.find("\"source_vulnerability\":"), std::string::npos);
  EXPECT_NE(Sch.Out.find("\"best_vs_source\":"), std::string::npos);
  DriverRun H = run({"harden", "--workload", "bitcount", "--format",
                     "json"});
  EXPECT_NE(H.Out.find("\"residual_vulnerability\":"), std::string::npos);
  EXPECT_NE(H.Out.find("\"ok\":true"), std::string::npos);
  DriverRun Rep = run({"report", "--workload", "bitcount", "--format",
                       "json"});
  EXPECT_EQ(Rep.Status, tool::ExitSuccess) << Rep.Err;
  EXPECT_NE(Rep.Out.find("\"sound\":true"), std::string::npos);
}

TEST(Driver, HardenAndFormatUsageErrors) {
  EXPECT_EQ(run({"harden", "--budget", "nope"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--budget", "-3"}).Status, tool::ExitUsage);
  // strtod accepts these spellings; the budget gate must not.
  EXPECT_EQ(run({"harden", "--budget", "nan"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--budget", "inf"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--sweep", "5,x"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"analyze", "--format", "yaml"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--sweep", "5,10", "--emit", "x.s"}).Status,
            tool::ExitUsage);
}

TEST(Driver, FuzzReportIsDeterministicAndClean) {
  std::vector<std::string> Args = {"fuzz", "--count", "4", "--seed", "3",
                                   "--max-cycles", "24"};
  DriverRun A = run(Args);
  EXPECT_EQ(A.Status, tool::ExitSuccess) << A.Err;
  EXPECT_NE(A.Out.find("Fuzz corpus: seed 3, 4 programs"),
            std::string::npos);
  EXPECT_NE(A.Out.find("Mismatches"), std::string::npos);
  EXPECT_NE(A.Out.find("Idiom coverage"), std::string::npos);

  // Same seed, more threads: byte-identical modulo the Seconds cell.
  std::vector<std::string> Threaded = Args;
  Threaded.insert(Threaded.end(), {"--threads", "4"});
  DriverRun B = run(Threaded);
  EXPECT_EQ(B.Status, tool::ExitSuccess) << B.Err;
  EXPECT_EQ(maskCampaignSeconds(A.Out), maskCampaignSeconds(B.Out));
}

TEST(Driver, FuzzJsonReportsTheCampaign) {
  DriverRun R = run({"fuzz", "--count", "3", "--seed", "3", "--max-cycles",
                     "24", "--format", "json"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("\"fuzz\":{"), std::string::npos);
  EXPECT_NE(R.Out.find("\"programs\":3"), std::string::npos);
  EXPECT_NE(R.Out.find("\"mismatches\":[]"), std::string::npos);
}

TEST(Driver, FuzzCheckpointResumeReportIsByteIdentical) {
  std::string Path = test::tempPath("driver_fuzz_ck.jsonl");
  std::remove(Path.c_str());
  std::vector<std::string> Base = {"fuzz", "--count", "4", "--seed", "3",
                                   "--max-cycles", "24", "--checkpoint",
                                   Path};
  DriverRun Full = run(Base);
  EXPECT_EQ(Full.Status, tool::ExitSuccess) << Full.Err;

  std::vector<std::string> ResumeCmd = Base;
  ResumeCmd.push_back("--resume");
  DriverRun Resumed = run(ResumeCmd);
  EXPECT_EQ(Resumed.Status, tool::ExitSuccess) << Resumed.Err;
  EXPECT_EQ(maskCampaignSeconds(Full.Out), maskCampaignSeconds(Resumed.Out));
  EXPECT_NE(Resumed.Err.find("resumed 4 of 4"), std::string::npos)
      << Resumed.Err;
  std::remove(Path.c_str());
}

TEST(Driver, FuzzBudgetBoundsTheCorpus) {
  DriverRun R = run({"fuzz", "--count", "8", "--seed", "3", "--max-cycles",
                     "24", "--budget", "30000"});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Out.find("beyond --budget"), std::string::npos);
}

TEST(Driver, FuzzUsageErrors) {
  // The fuzzer takes no targets and runs locally.
  EXPECT_EQ(run({"fuzz", "--workload", "bitcount"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--all"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--remote", "h:1"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--count", "0"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--budget", "5.5"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"fuzz", "--sample", "5"}).Status, tool::ExitUsage);
  // Fuzz-only flags stay fuzz-only.
  EXPECT_EQ(run({"analyze", "--count", "3"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"campaign", "--bank", "d"}).Status, tool::ExitUsage);
  EXPECT_EQ(run({"harden", "--emit-corpus", "d"}).Status, tool::ExitUsage);
}

TEST(Driver, EveryFlagInTheHelpIsRecognized) {
  std::string Help = run({"--help"}).Out;
  std::set<std::string> Flags;
  for (size_t P = Help.find("--"); P != std::string::npos;
       P = Help.find("--", P + 2))
    Flags.insert(Help.substr(
        P, Help.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", P + 2) - P));
  EXPECT_GT(Flags.size(), 30u);
  for (const std::string &Flag : Flags) {
    // `Flag=` keeps the flag from taking the next argument as its value;
    // the unknown option after it ends every parse that got that far.
    DriverRun R = run({"analyze", Flag + "=", "--no-such-flag"});
    bool Recognized = R.Err.find("unknown option '" + Flag + "'") ==
                      std::string::npos;
    // --help and --version also work in the subcommand position.
    EXPECT_TRUE(Recognized || run({Flag}).Status == tool::ExitSuccess)
        << Flag;
  }
}

TEST(Driver, HelpAndListWorkloads) {
  DriverRun Help = run({"--help"});
  EXPECT_EQ(Help.Status, tool::ExitSuccess);
  EXPECT_NE(Help.Out.find("usage: bec"), std::string::npos);

  DriverRun List = run({"analyze", "--list-workloads"});
  EXPECT_EQ(List.Status, tool::ExitSuccess);
  for (const Workload &W : allWorkloads())
    EXPECT_NE(List.Out.find(W.Name), std::string::npos);
}

} // namespace
