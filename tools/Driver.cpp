//===- tools/Driver.cpp - The `bec` pipeline driver ------------------------===//
//
// The driver is a thin shell over api/Api.h: it parses the command line,
// loads targets into an AnalysisSession, fans the per-target subcommand
// queries out on a thread pool (Session::evaluateAll), and renders the
// result objects through the shared api/Serialize.h serializer (tables or
// JSON). All pipeline logic lives behind the session.
//
// With `--remote host:port` the analysis subcommands offload to a becd
// server (src/serve/) instead: local argument parsing, remote execution
// against the server's shared session pool, byte-identical output. `bec
// serve` runs that server; `bec client` speaks the raw method table.
//
//===----------------------------------------------------------------------===//

#include "Driver.h"

#include "api/Api.h"
#include "fuzz/Fuzzer.h"
#include "net/EventLoop.h"
#include "net/Gateway.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/SpanRing.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>

using namespace bec;
using namespace bec::tool;

namespace {

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//
//
// Two tables describe the whole command line: Commands (the subcommands
// and the becd methods that mirror them) and Flags (every option). The
// parse loop, the "Target selection" and "Options" sections of the usage
// text, the "only valid with" gates and the params a remote subcommand
// sends are all generated from them, so the four cannot drift apart.

enum class Command { Analyze, Campaign, Schedule, Harden, Report, Fuzz,
                     Serve, Gateway, Client, Stats };

/// One subcommand. The five analysis pipelines also name the becd method
/// that runs them remotely; `bec client <method>` mirrors that command.
struct CommandSpec {
  Command Cmd;
  const char *Name;
  const char *Method = nullptr;       ///< Unary becd method; null = local.
  const char *StreamMethod = nullptr; ///< Streaming variant, if any.
};

/// Indexed by Command.
const CommandSpec Commands[] = {
    {Command::Analyze, "analyze", "analyze"},
    {Command::Campaign, "campaign", "campaign", "campaign/run"},
    {Command::Schedule, "schedule", "schedule"},
    {Command::Harden, "harden", "harden"},
    {Command::Report, "report", "report"},
    {Command::Fuzz, "fuzz"},
    {Command::Serve, "serve"},
    {Command::Gateway, "gateway"},
    {Command::Client, "client"},
    {Command::Stats, "stats"},
};

/// The subcommand a `bec client` method mirrors, or null.
const CommandSpec *mirroredCommand(std::string_view Method) {
  for (const CommandSpec &C : Commands)
    if (C.Method && (Method == C.Method ||
                     (C.StreamMethod && Method == C.StreamMethod)))
      return &C;
  return nullptr;
}

/// A set of commands, one bit per Command.
using CommandSet = unsigned;

template <class... Cs> constexpr CommandSet in(Cs... C) {
  return ((1u << unsigned(C)) | ...);
}

constexpr CommandSet Pipelines =
    in(Command::Analyze, Command::Campaign, Command::Schedule,
       Command::Harden, Command::Report);
constexpr CommandSet Daemons = in(Command::Serve, Command::Gateway);
constexpr CommandSet AllCommands = (1u << std::size(Commands)) - 1;

/// "serve", "serve or gateway", "campaign, report or fuzz".
std::string commandList(CommandSet Set) {
  std::string Out;
  for (const CommandSpec &C : Commands)
    if (Set & in(C.Cmd)) {
      Set &= ~in(C.Cmd); // Empty after the last name.
      Out += Out.empty() ? "" : Set ? ", " : " or ";
      Out += C.Name;
    }
  return Out;
}

struct DriverOptions;

/// One command-line flag.
struct FlagSpec {
  const char *Name;
  /// Usage metavariable. Empty: the flag takes no value; "[=...]": the
  /// value is optional and only given after '='; otherwise the value is
  /// required, as `--flag value` or `--flag=value`.
  const char *Meta;
  /// Exactly the commands whose code reads the flag's field; giving it
  /// to any other command is a usage error.
  CommandSet Cmds;
  const char *Want; ///< What a malformed value should have been.
  /// Applies the value; false when it is malformed. Null for
  /// --list-workloads, which the parser acts on.
  bool (*Apply)(DriverOptions &, const std::string &);
  const char *Help; ///< Usage text, '\n'-separated lines.
  const char *Param = nullptr; ///< The becd param it becomes; null = local.
  void (*Write)(JsonWriter &, const DriverOptions &) = nullptr; ///< Its value.
};

struct DriverOptions {
  Command Cmd = Command::Analyze;
  /// The flags given on the command line, in first-seen order.
  std::vector<const FlagSpec *> Given;
  std::vector<std::string> WorkloadNames;
  std::vector<std::string> AsmFiles;
  bool AllWorkloads = false;
  unsigned Jobs = 1;
  PlanKind Plan = PlanKind::BitLevel;
  /// campaign: sampling, engine parallelism, checkpointing, progress.
  uint64_t SampleSize = 0;
  uint64_t SampleSeed = 1;
  unsigned CampaignThreads = 1;
  uint64_t ShardSize = 0;
  bool PrefixCheckpoint = true;
  uint64_t CheckpointEveryK = 0;
  std::string CheckpointPath;
  bool Resume = false;
  bool Progress = false;
  SchedulePolicy EmitPolicy = SchedulePolicy::BestReliability;
  std::string EmitPath;
  uint64_t MaxCycles = 0;
  /// harden: budgets to evaluate (one entry unless --sweep is given).
  std::vector<double> Budgets = {10.0};
  /// fuzz: corpus size, exhaustive-run budget, reproducer bank,
  /// corpus-emission directory.
  uint64_t FuzzCount = 100;
  uint64_t FuzzBudget = 0;
  std::string BankDir;
  std::string EmitCorpusDir;
  bool Json = false; ///< --format json
  /// --remote: offload to a becd server.
  std::string RemoteHost = "127.0.0.1";
  uint16_t RemotePort = serve::DefaultPort;
  /// serve/gateway options.
  std::string ServeHost = "127.0.0.1";
  uint16_t ServePort = serve::DefaultPort;
  std::string PortFile;
  std::optional<size_t> QueueDepth; ///< Unset: the server's default.
  std::vector<std::string> GatewayBackends;
  unsigned HealthIntervalSec = 2;
  /// serve/gateway structured logging; level Off keeps it disabled.
  obs::LogLevel LogLevel = obs::LogLevel::Off;
  obs::LogFormat LogFmt = obs::LogFormat::Jsonl;
  std::string LogFilePath;
  /// client: method name followed by its positional arguments.
  std::vector<std::string> ClientArgs;
  /// --trace-out: write a Chrome trace of this invocation to FILE.
  std::string TraceOutPath;
  /// campaign --profile: write the engine scaling profile to FILE.
  std::string ProfilePath;
  /// stats options.
  uint64_t WatchSeconds = 0;
  bool StatsMetrics = false;

  bool given(std::string_view Flag) const {
    return std::any_of(Given.begin(), Given.end(),
                       [&](const FlagSpec *F) { return Flag == F->Name; });
  }
};

/// Parses "host:port" (the --remote spelling). False on bad input.
bool parseHostPort(const std::string &S, std::string &Host, uint16_t &Port) {
  size_t Colon = S.rfind(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 >= S.size())
    return false;
  char *End = nullptr;
  unsigned long P = std::strtoul(S.c_str() + Colon + 1, &End, 10);
  if (End != S.c_str() + S.size() || P == 0 || P > 65535)
    return false;
  Host = S.substr(0, Colon);
  Port = static_cast<uint16_t>(P);
  return true;
}

/// Parses a full-string unsigned decimal; nullopt on any trailing garbage.
std::optional<uint64_t> parseUnsigned(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  char *End = nullptr;
  uint64_t V = std::strtoull(S.c_str(), &End, 10);
  if (End != S.c_str() + S.size())
    return std::nullopt;
  return V;
}

/// Parses a full-string non-negative finite decimal (strtod's "nan"/"inf"
/// spellings would silently disable the budget gate).
std::optional<double> parseBudget(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size() || !std::isfinite(V) || V < 0)
    return std::nullopt;
  return V;
}

/// The spellings of the enum-valued flags; parsing is case-insensitive.
const std::pair<const char *, PlanKind> PlanNames[] = {
    {"exhaustive", PlanKind::Exhaustive}, {"value", PlanKind::ValueLevel},
    {"bit", PlanKind::BitLevel}};
/// In ScheduleCmdResult::PolicyAsm order.
const std::pair<const char *, SchedulePolicy> PolicyNames[] = {
    {"source", SchedulePolicy::SourceOrder},
    {"best", SchedulePolicy::BestReliability},
    {"worst", SchedulePolicy::WorstReliability}};
const std::pair<const char *, bool> FormatNames[] = {{"text", false},
                                                     {"json", true}};

/// The index of \p V in \p Names.
template <class T, size_t N>
size_t choiceIndex(const std::pair<const char *, T> (&Names)[N], T V) {
  size_t I = 0;
  while (I + 1 < N && Names[I].second != V)
    ++I;
  return I;
}

/// Stores a flag into field \p F by the field's type: a flag without a
/// value sets a bool, a string takes the value, a list appends it, and a
/// number must be a decimal in [Lo, Hi].
template <auto F, uint64_t Lo = 0, uint64_t Hi = UINT64_MAX>
bool set(DriverOptions &O, const std::string &V) {
  auto &Field = O.*F;
  using T = std::remove_reference_t<decltype(Field)>;
  if constexpr (std::is_same_v<T, bool>) {
    Field = true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    Field = V;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    Field.push_back(V);
  } else {
    std::optional<uint64_t> N = parseUnsigned(V);
    if (!N || *N < Lo || *N > Hi)
      return false;
    Field = static_cast<T>(*N);
  }
  return true;
}

/// Stores what \p Parse (returning an optional) makes of the value.
template <auto F, auto Parse>
bool setParsed(DriverOptions &O, const std::string &V) {
  auto P = Parse(V);
  O.*F = P.value_or(O.*F);
  return P.has_value();
}

/// Stores the value spelled \p V in \p Names into field \p F.
template <auto F, const auto &Names>
bool choose(DriverOptions &O, const std::string &V) {
  for (const auto &[Name, Value] : Names)
    if (toLowerAscii(V) == Name) {
      O.*F = Value;
      return true;
    }
  return false;
}

template <auto F> void write(JsonWriter &W, const DriverOptions &O) {
  W.value(O.*F);
}

template <auto F, const auto &Names>
void writeName(JsonWriter &W, const DriverOptions &O) {
  W.value(Names[choiceIndex(Names, O.*F)].first);
}

void writeBudgets(JsonWriter &W, const DriverOptions &O) {
  W.beginArray();
  for (double B : O.Budgets)
    W.value(B);
  W.endArray();
}

/// Splits \p V at commas, feeding each item to \p Add; false if an item
/// is rejected or there is none.
template <class AddFn> bool eachItem(const std::string &V, AddFn Add) {
  std::string Item;
  std::stringstream Stream(V);
  bool Any = false;
  while (std::getline(Stream, Item, ','))
    if (!(Any = Add(Item)))
      return false;
  return Any;
}

using Opt = DriverOptions;

/// Every flag, in usage order; the first NumTargetFlags rows form the
/// "Target selection" section, the rest "Options".
const FlagSpec Flags[] = {
    {"--workload", "NAME", Pipelines, "", set<&Opt::WorkloadNames>,
     "Add one bundled workload (case-insensitive; repeatable)."},
    {"--asm", "FILE", Pipelines, "", set<&Opt::AsmFiles>,
     "Add an external assembly file in the bec dialect."},
    {"--all", "", Pipelines, "", set<&Opt::AllWorkloads>,
     "Add every bundled workload."},
    {"--list-workloads", "", AllCommands, "", nullptr,
     "Print the bundled workload names and exit."},

    // CPU pools clamp --jobs to the core count at their use sites.
    {"--jobs", "N", Pipelines | Daemons, "a number", set<&Opt::Jobs>,
     "Evaluate independent targets on N pool threads\n"
     "(default 1; 0 = hardware concurrency).\n"
     "serve/gateway: request worker threads of the event\n"
     "loop (default: one per core for serve, 8 for gateway).",
     "jobs",
     [](JsonWriter &W, const Opt &O) { W.value(std::min(O.Jobs, 1u << 16)); }},
    {"--plan", "KIND", in(Command::Campaign), "exhaustive | value | bit",
     choose<&Opt::Plan, PlanNames>,
     "campaign plan: exhaustive | value | bit (default bit).", "plan",
     writeName<&Opt::Plan, PlanNames>},
    {"--sample", "N", in(Command::Campaign), "a number", set<&Opt::SampleSize>,
     "campaign: execute a stratified sample of N runs of\n"
     "the planned fault space and report 95% confidence\n"
     "intervals on the effect rates (0 = run everything;\n"
     "default 0).",
     "sample", write<&Opt::SampleSize>},
    {"--seed", "S", in(Command::Campaign, Command::Fuzz), "a number",
     set<&Opt::SampleSeed>,
     "campaign: PRNG seed of --sample (default 1; same\n"
     "plan + same seed = same sample).\n"
     "fuzz: the corpus seed — same seed + same options =\n"
     "byte-identical corpus and report.",
     "seed", write<&Opt::SampleSeed>},
    {"--threads", "N", in(Command::Campaign, Command::Fuzz), "a small number",
     set<&Opt::CampaignThreads, 0, 1u << 16>,
     "campaign: worker threads of the sharded injection\n"
     "engine, per target (default 1; 0 = hardware\n"
     "concurrency). Never changes the report.\n"
     "fuzz: oracle workers, same guarantee.",
     "threads", write<&Opt::CampaignThreads>},
    {"--shard-size", "N", in(Command::Campaign), "a positive number",
     set<&Opt::ShardSize, 1>,
     "campaign: runs per engine shard (default: picked\n"
     "from the plan size). Checkpoints record it.",
     "shard_size", write<&Opt::ShardSize>},
    {"--prefix-checkpoint", "[=K|=off]", in(Command::Campaign),
     "'off' or a positive cycle period",
     [](Opt &O, const std::string &V) {
       // Bare: on with the auto-tuned period.
       O.PrefixCheckpoint = toLowerAscii(V) != "off";
       O.CheckpointEveryK = 0;
       return V.empty() || !O.PrefixCheckpoint ||
              set<&Opt::CheckpointEveryK, 1>(O, V);
     },
     "campaign: fork runs from periodic golden snapshots\n"
     "and splice reconverged suffixes (default: on, period\n"
     "auto-tuned; =K snapshots every K cycles; =off\n"
     "replays every suffix). Never changes the report.",
     "prefix_checkpoint",
     [](JsonWriter &W, const Opt &O) {
       W.value(O.PrefixCheckpoint);
       if (O.CheckpointEveryK)
         W.key("checkpoint_every_k").value(O.CheckpointEveryK);
     }},
    {"--checkpoint", "FILE", in(Command::Campaign, Command::Fuzz), "",
     set<&Opt::CheckpointPath>,
     "campaign: stream per-shard result batches to FILE\n"
     "(JSONL) so an interrupted campaign can be resumed.\n"
     "Requires exactly one selected target; local only.\n"
     "fuzz: per-program result records, same conventions."},
    {"--resume", "", in(Command::Campaign, Command::Fuzz), "",
     set<&Opt::Resume>,
     "campaign: load completed shards from --checkpoint\n"
     "and execute only the remainder. The final report is\n"
     "byte-identical to an uninterrupted run.\n"
     "fuzz: skip programs the checkpoint already settled."},
    {"--progress", "", in(Command::Campaign, Command::Fuzz), "",
     set<&Opt::Progress>,
     "campaign: print shard progress to stderr while the\n"
     "engine runs (works with --remote via the streaming\n"
     "campaign/run method).\n"
     "fuzz: print per-program progress to stderr.",
     "progress", write<&Opt::Progress>},
    {"--count", "N", in(Command::Fuzz), "a positive number",
     set<&Opt::FuzzCount, 1>,
     "fuzz: number of generated programs (default 100)."},
    {"--bank", "DIR", in(Command::Fuzz), "", set<&Opt::BankDir>,
     "fuzz: write minimized reproducers of mismatching\n"
     "programs into DIR as repro_<seed>.s files."},
    {"--emit-corpus", "DIR", in(Command::Fuzz), "", set<&Opt::EmitCorpusDir>,
     "fuzz: write the selected corpus into DIR as\n"
     "seed_<seed>.s files and exit without running any\n"
     "oracle (regenerates tests/corpus/)."},
    {"--policy", "KIND", in(Command::Schedule), "best | worst | source",
     choose<&Opt::EmitPolicy, PolicyNames>,
     "schedule policy for --emit: best | worst | source\n"
     "(default best)."},
    {"--emit", "FILE", in(Command::Schedule, Command::Harden), "",
     set<&Opt::EmitPath>,
     "schedule: write the scheduled program of the single\n"
     "selected target to FILE as assembly.\n"
     "harden: write the hardened program instead."},
    {"--budget", "P", in(Command::Harden, Command::Fuzz),
     "a non-negative number (fuzz: a whole number of runs)",
     [](Opt &O, const std::string &V) {
       // The subcommand is parsed before any flag, so --budget can mean
       // two things: harden's percentage and fuzz's run count.
       if (O.Cmd == Command::Fuzz)
         return set<&Opt::FuzzBudget>(O, V);
       std::optional<double> B = parseBudget(V);
       O.Budgets = {B.value_or(0)};
       return B.has_value();
     },
     "harden: max extra dynamic instructions in percent\n"
     "of the baseline run (default 10).\n"
     "fuzz: cap on the cumulative exhaustive fault-space\n"
     "size of the corpus; programs are kept in index\n"
     "order until the budget is spent (0 = unlimited;\n"
     "the CI smoke job bounds its cost this way).",
     "budgets", writeBudgets},
    {"--sweep", "A,B,..", in(Command::Harden), "comma-separated budgets",
     [](Opt &O, const std::string &V) {
       O.Budgets.clear();
       return eachItem(V, [&](const std::string &Item) {
         std::optional<double> B = parseBudget(Item);
         O.Budgets.push_back(B.value_or(0));
         return B.has_value();
       });
     },
     "harden only: evaluate several budgets per target and\n"
     "print the full cost-vs-vulnerability table.",
     "budgets", writeBudgets},
    {"--format", "KIND", Pipelines | in(Command::Fuzz), "text | json",
     choose<&Opt::Json, FormatNames>,
     "output format of analyze, campaign, schedule,\n"
     "harden, report and fuzz: text | json (default\n"
     "text).",
     "format", writeName<&Opt::Json, FormatNames>},
    {"--max-cycles", "N", in(Command::Campaign, Command::Report, Command::Fuzz),
     "a number", set<&Opt::MaxCycles>,
     "Truncate campaign/validation windows to N cycles\n"
     "(0 = whole trace; default 0). fuzz: the oracle\n"
     "injection window (0 keeps the default of 48).",
     "max_cycles", write<&Opt::MaxCycles>},
    {"--remote", "H:P", Pipelines | in(Command::Client, Command::Stats),
     "host:port",
     [](Opt &O, const std::string &V) {
       return parseHostPort(V, O.RemoteHost, O.RemotePort);
     },
     "Run this subcommand on a becd server instead of\n"
     "in-process (output is byte-identical). Also selects\n"
     "the server for `bec client` and `bec stats`\n"
     "(default 127.0.0.1:4690)."},
    {"--trace-out", "FILE", AllCommands, "", set<&Opt::TraceOutPath>,
     "Write a Chrome trace_event JSON file covering this\n"
     "invocation (load in Perfetto or chrome://tracing):\n"
     "session query evaluation, engine workers (runs,\n"
     "steals, snapshot rebuilds, idle time), serve request\n"
     "handling, fuzz oracle stages. Combined with --remote\n"
     "(or `bec client`) the request carries a distributed\n"
     "trace context; the servers' spans are collected via\n"
     "trace/dump and stitched into the same file, so one\n"
     "timeline shows client -> gateway -> backend\n"
     "(failover retries included). Valid with every\n"
     "subcommand; never changes the printed output."},
    {"--profile", "FILE", in(Command::Campaign), "", set<&Opt::ProfilePath>,
     "campaign: write the engine scaling profile to FILE\n"
     "as JSON — per-worker wall-time split into run /\n"
     "snapshot-rebuild / steal / idle phases, per-shard\n"
     "records, and a machine-readable bottleneck\n"
     "diagnosis. Requires exactly one selected target;\n"
     "local only (profiles this process's engine). Never\n"
     "changes the report."},
    {"--watch", "SEC", in(Command::Stats), "seconds in 1..86400",
     set<&Opt::WatchSeconds, 1, 86400>,
     "stats: re-print every SEC seconds until interrupted.\n"
     "With --remote, iterations after the first print\n"
     "per-interval deltas (req/s, errors/s, window cache\n"
     "hit rate) instead of repeating cumulative totals."},
    {"--metrics", "", in(Command::Stats), "", set<&Opt::StatsMetrics>,
     "stats: print the raw Prometheus text exposition\n"
     "instead of the human table (the scrape format the\n"
     "becd `metrics` method returns)."},
    {"--host", "ADDR", Daemons, "", set<&Opt::ServeHost>,
     "serve/gateway: bind address (default 127.0.0.1)."},
    {"--port", "N", Daemons, "a number in 0..65535",
     set<&Opt::ServePort, 0, 65535>,
     "serve/gateway: TCP port; 0 picks an ephemeral port\n"
     "(default 4690)."},
    {"--port-file", "FILE", Daemons, "", set<&Opt::PortFile>,
     "serve/gateway: write the bound port to FILE once\n"
     "listening (for scripts using --port 0)."},
    {"--queue-depth", "N", in(Command::Serve), "a number in 0..1048576",
     set<&Opt::QueueDepth, 0, 1u << 20>,
     "serve: admitted requests that may wait for a worker\n"
     "before the next is answered with error 105\n"
     "`overloaded` (default 256)."},
    {"--backends", "LIST", in(Command::Gateway),
     "comma-separated host:port entries",
     [](Opt &O, const std::string &V) {
       return eachItem(V, [&](const std::string &Item) {
         std::string Host;
         uint16_t Port = 0;
         O.GatewayBackends.push_back(Item);
         return parseHostPort(Item, Host, Port);
       });
     },
     "gateway only (required): comma-separated becd\n"
     "backends, host:port each."},
    {"--health-interval", "SEC", in(Command::Gateway), "seconds in 1..3600",
     set<&Opt::HealthIntervalSec, 1, 3600>,
     "gateway: seconds between per-backend `version`\n"
     "health probes (default 2)."},
    {"--log-level", "LVL", Daemons, "debug | info | warn | error | off",
     setParsed<&Opt::LogLevel, obs::parseLogLevel>,
     "serve/gateway: structured-log verbosity, one of\n"
     "debug | info | warn | error | off (default off —\n"
     "logging is disabled unless this is given). The\n"
     "running daemon's level can be changed later with\n"
     "the log/level method."},
    {"--log-file", "FILE", Daemons, "", set<&Opt::LogFilePath>,
     "serve/gateway: append log lines to FILE instead of\n"
     "stderr."},
    {"--log-format", "KIND", Daemons, "jsonl | logfmt",
     setParsed<&Opt::LogFmt, obs::parseLogFormat>,
     "serve/gateway: log line shape, jsonl (default) or\n"
     "logfmt."},
};
constexpr size_t NumTargetFlags = 4;

const char *const SubcommandText = R"(usage: bec <subcommand> [options]

Subcommands:
  analyze    Static fault-space metrics per target (Table III shape).
  campaign   Plan and execute a fault-injection campaign per target.
  schedule   Vulnerability-aware list scheduling; vulnerability per policy.
  harden     BEC-guided selective hardening under a dynamic-instruction
             budget; per target the reached cost/vulnerability Pareto
             point plus closed-loop validation. Exits 3 if any hardened
             program fails validation.
  report     Full pipeline: metrics + bit-level campaign + soundness
             validation. Exits 3 if any target validates unsound.
  fuzz       Differential soundness fuzzing: generate a seeded corpus of
             verifier-legal programs and cross-check the BEC-pruned
             campaign against exhaustive injection, plus print/parse
             round-trip, fate-validation, engine-determinism, harden and
             session oracles. Mismatching programs are delta-debugged to
             1-minimal reproducers. Takes no targets; local only.
             Exits 3 on any mismatch.
  serve      Run the becd analysis server: a shared, cached session pool
             behind a newline-delimited JSON-RPC protocol over TCP,
             served by a poll() event loop with a bounded worker pool
             (connections decoupled from threads, pipelining, typed
             overload errors).
  gateway    Front N becd backends behind one becd-indistinguishable
             endpoint: requests route by consistent hashing of their
             program name, so each backend's session cache holds a
             stable shard of the program space. Health-checks, drains
             (gateway/drain) and fails over between backends; `stats
             --remote` through it aggregates every backend.
  client     Speak the becd method table directly:
               bec client [--remote H:P] <method> [targets...] [options]
             Methods: version stats metrics shutdown counts intern
             analyze campaign campaign/run schedule harden report,
             trace/dump [trace-id], log/level [level].
             Against a gateway also: gateway/backends,
             gateway/drain H:P, gateway/undrain H:P.
  stats      Print this process's observability metrics, or — with
             --remote H:P — a live becd server's counters, per-method
             latency percentiles, cache hit rates and gauges.
  version    Print the API version and build type (also: --version).
)";

/// The full --help text: the subcommand list, then the flag table.
const std::string &usageText() {
  static const std::string Text = [] {
    const std::string Indent(20, ' '); // The help column.
    std::string Out = SubcommandText;
    Out += "\nTarget selection (default: all bundled workloads):\n";
    for (size_t I = 0; I < std::size(Flags); ++I) {
      const FlagSpec &F = Flags[I];
      if (I == NumTargetFlags)
        Out += "\nOptions:\n";
      std::string Head = std::string("  ") + F.Name;
      if (*F.Meta && *F.Meta != '[')
        Head += ' ';
      Head += F.Meta;
      if (Head.size() < Indent.size())
        Head.resize(Indent.size(), ' ');
      else
        Head += "\n" + Indent;
      Out += Head;
      for (const char *C = F.Help; *C; ++C) {
        Out += *C;
        if (*C == '\n')
          Out += Indent;
      }
      Out += "\n";
    }
    Out += "  -h, --help        Print this help and exit.\n\n"
           "Exit codes: 0 success, 1 usage error, 2 bad input, 3 unsound "
           "validation.\n";
    return Out;
  }();
  return Text;
}

int parseArgs(const std::vector<std::string> &Args, DriverOptions &Opts,
              std::ostream &Out, std::ostream &Err) {
  if (Args.empty()) {
    Err << usageText();
    return ExitUsage;
  }
  size_t I = 0;
  std::string Sub = Args[I++];
  if (Sub == "-h" || Sub == "--help") {
    Out << usageText();
    return -1; // Sentinel: handled, exit 0.
  }
  if (Sub == "version" || Sub == "--version") {
    Out << "bec " << BEC_API_VERSION_STRING << " (" << buildType()
        << ", protocol " << serve::ProtocolVersion << ")\n";
    return -1;
  }
  const CommandSpec *Cmd = nullptr;
  for (const CommandSpec &C : Commands)
    if (Sub == C.Name)
      Cmd = &C;
  if (!Cmd) {
    Err << "bec: unknown subcommand '" << Sub << "'\n" << usageText();
    return ExitUsage;
  }
  Opts.Cmd = Cmd->Cmd;

  while (I < Args.size()) {
    std::string Arg = Args[I++];
    // Both `--flag value` and `--flag=value` are accepted.
    std::optional<std::string> Inline;
    size_t Eq = Arg.find('=');
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-' &&
        Eq != std::string::npos) {
      Inline = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    }
    if (Arg == "-h" || Arg == "--help") {
      Out << usageText();
      return -1;
    }
    const FlagSpec *F = nullptr;
    for (const FlagSpec &Row : Flags)
      if (Arg == Row.Name)
        F = &Row;
    if (!F && Opts.Cmd == Command::Client && !Arg.empty() && Arg[0] != '-') {
      // Client grammar: the method, then its positional target names.
      Opts.ClientArgs.push_back(Arg);
      continue;
    }
    if (!F) {
      Err << "bec: unknown option '" << Arg << "'\n" << usageText();
      return ExitUsage;
    }
    if (!F->Apply) { // --list-workloads
      for (const Workload &W : allWorkloads())
        Out << W.Name << "\n";
      return -1;
    }
    bool Required = *F->Meta && *F->Meta != '[';
    if (Inline && !*F->Meta) {
      Err << "bec: " << Arg << " takes no value\n";
      return ExitUsage;
    }
    if (!Inline && Required && I == Args.size()) {
      Err << "bec: " << Arg << " requires a value\n";
      return ExitUsage;
    }
    std::string V = Inline ? *Inline : Required ? Args[I++] : "";
    if (!F->Apply(Opts, V)) {
      Err << "bec: " << Arg << " wants " << F->Want << ", got '" << V
          << "'\n";
      return ExitUsage;
    }
    if (!Opts.given(F->Name))
      Opts.Given.push_back(F);
  }

  // A flag given to a command that never reads it is a usage error.
  // `bec client <method>` also takes the flags its mirrored subcommand
  // sends as params.
  const CommandSpec *Mirror =
      Opts.Cmd == Command::Client && !Opts.ClientArgs.empty()
          ? mirroredCommand(Opts.ClientArgs[0])
          : nullptr;
  for (const FlagSpec *F : Opts.Given)
    if (!(F->Cmds & in(Opts.Cmd)) &&
        !(Mirror && F->Param && (F->Cmds & in(Mirror->Cmd)))) {
      Err << "bec: " << F->Name << " is only valid with "
          << commandList(F->Cmds)
          << (Mirror ? "; bec client does not send it\n" : "\n");
      return ExitUsage;
    }

  // Rules that relate two flags, or a flag and a command.
  if (Opts.Resume && Opts.CheckpointPath.empty()) {
    Err << "bec: --resume requires --checkpoint FILE\n";
    return ExitUsage;
  }
  // A checkpoint or profile describes this process's engine; a remote
  // campaign runs the server's (and a local resume would re-run it all).
  for (const char *Flag : {"--checkpoint", "--profile"})
    if (Opts.given(Flag) && Opts.given("--remote")) {
      Err << "bec: " << Flag << " is local only; drop --remote\n";
      return ExitUsage;
    }
  if (Opts.Cmd == Command::Harden && !Opts.EmitPath.empty() &&
      Opts.Budgets.size() != 1) {
    Err << "bec: harden --emit requires a single --budget\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Gateway && Opts.GatewayBackends.empty()) {
    Err << "bec: gateway requires --backends H:P[,H:P...]\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Client && Opts.ClientArgs.empty()) {
    Err << "bec: client needs a method, e.g. `bec client analyze bitcount`\n";
    return ExitUsage;
  }
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// Target loading
//===----------------------------------------------------------------------===//

/// The selected targets in report order, named as the local session and
/// a remote request both name them: deduped canonical workload names
/// (every bundled one with --all or when nothing is selected), then the
/// external asm file paths. \p NumWorkloads counts the former. Dedupe
/// matters: --all plus an explicit --workload (or a repeated name in any
/// casing) would otherwise run and report the same target twice.
int selectTargets(const DriverOptions &Opts, std::vector<std::string> &Targets,
                  size_t &NumWorkloads, std::ostream &Err) {
  auto Add = [&](const std::string &Name) {
    if (std::find(Targets.begin(), Targets.end(), Name) == Targets.end())
      Targets.push_back(Name);
  };
  bool Selected = Opts.AllWorkloads || !Opts.WorkloadNames.empty() ||
                  !Opts.AsmFiles.empty();
  if (Opts.AllWorkloads || !Selected)
    for (const Workload &W : allWorkloads())
      Add(W.Name);
  for (const std::string &Name : Opts.WorkloadNames) {
    const Workload *W = findWorkloadAnyCase(Name);
    if (!W) {
      Err << "bec: unknown workload '" << Name
          << "'; --list-workloads prints the bundled names\n";
      return ExitBadInput;
    }
    Add(W->Name);
  }
  NumWorkloads = Targets.size();
  for (const std::string &Path : Opts.AsmFiles)
    Add(Path);
  return ExitSuccess;
}

int collectTargets(const DriverOptions &Opts, AnalysisSession &S,
                   std::ostream &Err) {
  std::vector<std::string> Targets;
  size_t NumWorkloads = 0;
  if (int Status = selectTargets(Opts, Targets, NumWorkloads, Err))
    return Status;
  for (size_t I = 0; I < Targets.size(); ++I) {
    std::string Error;
    if (I < NumWorkloads) {
      S.addProgram(Targets[I], loadWorkload(*findWorkload(Targets[I])));
    } else if (!S.addAsmFile(Targets[I], Error)) {
      Err << "bec: " << Error << "\n";
      return ExitBadInput;
    }
  }
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// Shared epilogue
//===----------------------------------------------------------------------===//

template <class R> using ResultVec = std::vector<std::shared_ptr<const R>>;

std::vector<std::string> targetNames(const AnalysisSession &S) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < S.numTargets(); ++I)
    Names.push_back(S.name(I));
  return Names;
}

/// Reports per-target errors; ExitBadInput if any target failed.
template <class R>
int reportErrors(const AnalysisSession &S, const ResultVec<R> &Results,
                 std::ostream &Err) {
  int Status = ExitSuccess;
  for (size_t I = 0; I < Results.size(); ++I)
    if (!Results[I]->Error.empty()) {
      Err << "bec: " << S.name(I) << ": " << Results[I]->Error << "\n";
      Status = ExitBadInput;
    }
  return Status;
}

/// One --progress line, shared verbatim by the local engine callback and
/// the remote campaign/run progress-frame printer. The base counts are
/// followed by live engine telemetry (throughput from the monotonic
/// clock, ETA, and the steal/rebuild counts that explain flat thread
/// scaling); the telemetry block is omitted when the frame carries none
/// (an older remote server).
std::string progressLine(const std::string &Target, uint64_t ShardsDone,
                         uint64_t Shards, uint64_t RunsDone, uint64_t Runs,
                         uint64_t ExecutedRuns, double ElapsedSeconds,
                         uint64_t Steals, uint64_t Rebuilds) {
  std::string Line = "bec: campaign: " + Target + ": " +
                     std::to_string(ShardsDone) + "/" +
                     std::to_string(Shards) + " shards, " +
                     std::to_string(RunsDone) + "/" + std::to_string(Runs) +
                     " runs";
  if (ElapsedSeconds > 0 && ExecutedRuns) {
    double Rate = double(ExecutedRuns) / ElapsedSeconds;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " | %.0f runs/s, %.1fs elapsed", Rate,
                  ElapsedSeconds);
    Line += Buf;
    if (Runs > RunsDone && Rate > 0) {
      std::snprintf(Buf, sizeof(Buf), ", eta %.1fs",
                    double(Runs - RunsDone) / Rate);
      Line += Buf;
    }
    Line += ", " + std::to_string(Steals) + " steals, " +
            std::to_string(Rebuilds) + " rebuilds";
  }
  return Line + "\n";
}

int emitAssembly(const std::string &Asm, const DriverOptions &Opts,
                 std::ostream &Err) {
  std::ofstream OutFile(Opts.EmitPath);
  if (!OutFile) {
    Err << "bec: cannot write '" << Opts.EmitPath << "'\n";
    return ExitBadInput;
  }
  OutFile << Asm;
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// bec fuzz
//===----------------------------------------------------------------------===//

/// Program seeds render as fixed-width hex everywhere (reports, banked
/// reproducer names, checkpoints) so they can be grepped across all
/// three.
std::string seedHex(uint64_t Seed) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Seed));
  return Buf;
}

std::string renderFuzzText(const fuzz::FuzzResult &R, uint64_t Seed) {
  std::string Out = "Fuzz corpus: seed " + std::to_string(Seed) + ", " +
                    std::to_string(R.Programs) + " programs";
  if (R.SkippedByBudget)
    Out += " (" + std::to_string(R.SkippedByBudget) + " beyond --budget)";
  if (R.Interrupted)
    Out += " [interrupted]";
  Out += "\n";

  Table Tbl({"Programs", "Exhaustive", "Pruned", "Masked", "Benign", "SDC",
             "Trap", "Hang", "Mismatches", "Seconds"});
  Tbl.row()
      .cell(R.Programs)
      .cell(R.ExhaustiveRuns)
      .cell(R.PrunedRuns)
      .cell(R.PrunedEffects[size_t(FaultEffect::Masked)])
      .cell(R.PrunedEffects[size_t(FaultEffect::Benign)])
      .cell(R.PrunedEffects[size_t(FaultEffect::SDC)])
      .cell(R.PrunedEffects[size_t(FaultEffect::Trap)])
      .cell(R.PrunedEffects[size_t(FaultEffect::Hang)])
      .cell(uint64_t(R.Mismatches.size()))
      .cell(R.Seconds, 2);
  Out += Tbl.render();

  Out += "Idiom coverage:";
  for (size_t I = 0; I < fuzz::NumIdioms; ++I)
    Out += std::string(" ") + fuzz::idiomName(fuzz::Idiom(I)) + " " +
           std::to_string(R.IdiomCount[I]);
  Out += "\n";

  for (const fuzz::FuzzMismatch &M : R.Mismatches) {
    Out += "mismatch: program " + std::to_string(M.Index) + " (seed " +
           seedHex(M.Seed) + "): [" + M.Oracle + "] " + M.Detail + "\n";
    if (!M.BankedPath.empty())
      Out += "  reproducer: " + M.BankedPath + "\n";
  }
  return Out;
}

std::string renderFuzzJson(const fuzz::FuzzResult &R, uint64_t Seed) {
  JsonWriter W;
  W.beginObject();
  W.key("fuzz").beginObject();
  W.key("seed").value(Seed);
  W.key("programs").value(R.Programs);
  W.key("skipped_by_budget").value(R.SkippedByBudget);
  W.key("executed").value(R.Executed);
  W.key("resumed").value(R.Resumed);
  W.key("interrupted").value(R.Interrupted);
  W.key("exhaustive_runs").value(R.ExhaustiveRuns);
  W.key("pruned_runs").value(R.PrunedRuns);
  W.key("pruned_effects").beginObject();
  for (size_t I = 0; I < NumFaultEffects; ++I)
    W.key(toLowerAscii(faultEffectName(FaultEffect(I))))
        .value(R.PrunedEffects[I]);
  W.endObject();
  W.key("idioms").beginObject();
  for (size_t I = 0; I < fuzz::NumIdioms; ++I)
    W.key(fuzz::idiomName(fuzz::Idiom(I))).value(R.IdiomCount[I]);
  W.endObject();
  W.key("mismatches").beginArray();
  for (const fuzz::FuzzMismatch &M : R.Mismatches) {
    W.beginObject();
    W.key("program").value(M.Index);
    W.key("seed").value(seedHex(M.Seed));
    W.key("oracle").value(M.Oracle);
    W.key("detail").value(M.Detail);
    W.key("num_mismatches").value(M.NumMismatches);
    if (!M.BankedPath.empty())
      W.key("reproducer").value(M.BankedPath);
    W.endObject();
  }
  W.endArray();
  W.key("seconds").value(R.Seconds);
  W.endObject();
  W.endObject();
  std::string Out = W.take();
  Out += "\n";
  return Out;
}

/// `bec fuzz`: run (or emit) the differential fuzzing corpus.
int runFuzzCommand(const DriverOptions &Opts, std::ostream &Out,
                   std::ostream &Err) {
  fuzz::FuzzOptions FO;
  FO.Seed = Opts.SampleSeed;
  FO.Count = Opts.FuzzCount;
  FO.Budget = Opts.FuzzBudget;
  FO.Threads = ThreadPool::clampJobs(Opts.CampaignThreads);
  FO.CheckpointPath = Opts.CheckpointPath;
  FO.Resume = Opts.Resume;
  FO.BankDir = Opts.BankDir;
  if (Opts.MaxCycles)
    FO.Oracle.MaxCycles = Opts.MaxCycles;

  if (!Opts.EmitCorpusDir.empty()) {
    std::string Error = fuzz::emitCorpus(FO, Opts.EmitCorpusDir);
    if (!Error.empty()) {
      Err << "bec: fuzz: " << Error << "\n";
      return ExitBadInput;
    }
    Out << "bec: fuzz: corpus written to '" << Opts.EmitCorpusDir << "'\n";
    return ExitSuccess;
  }

  if (Opts.Progress)
    FO.OnProgress = [&Err](const fuzz::FuzzProgress &P) {
      // Called under the fuzzer's aggregation lock; no extra mutex.
      Err << "bec: fuzz: " << P.Done << "/" << P.Total << " programs, "
          << P.Mismatches << " mismatches\n";
    };

  fuzz::FuzzResult R = fuzz::runFuzz(FO);
  if (!R.Error.empty()) {
    Err << "bec: fuzz: " << R.Error << "\n";
    return ExitBadInput;
  }
  Out << (Opts.Json ? renderFuzzJson(R, FO.Seed) : renderFuzzText(R, FO.Seed));
  if (Opts.Resume)
    Err << "bec: fuzz: resumed " << R.Resumed << " of " << R.Programs
        << " programs from '" << Opts.CheckpointPath << "'\n";
  return R.Mismatches.empty() ? ExitSuccess : ExitUnsound;
}

//===----------------------------------------------------------------------===//
// becd: serve, client, --remote
//===----------------------------------------------------------------------===//

/// Serializes the params of one subcommand method: \p Targets (empty =
/// the server's default, all workloads) plus every given flag that
/// travels as a param. A flag left out takes the server's default, which
/// is the driver's. (`bec client` never has --emit: it sends no param.)
std::string subcommandParams(Command Which, const DriverOptions &Opts,
                             const std::vector<std::string> &Targets) {
  JsonWriter W;
  W.beginObject();
  if (!Targets.empty()) {
    W.key("targets").beginArray();
    for (const std::string &T : Targets)
      W.value(T);
    W.endArray();
  }
  std::vector<std::string_view> Written; // --budget and --sweep share one.
  for (const FlagSpec *F : Opts.Given)
    if (F->Param && std::find(Written.begin(), Written.end(), F->Param) ==
                        Written.end()) {
      Written.push_back(F->Param);
      F->Write(W.key(F->Param), Opts);
    }
  if (!Opts.EmitPath.empty() && Which == Command::Schedule)
    W.key("emit").value(
        PolicyNames[choiceIndex(PolicyNames, Opts.EmitPolicy)].first);
  else if (!Opts.EmitPath.empty())
    W.key("emit").value(true);
  W.endObject();
  return W.take();
}

/// Prints a server error reply as CLI diagnostics (expanding structured
/// assembler diagnostics the way the local path prints them).
void reportReplyError(const serve::Reply &R, const std::string &AsmPath,
                      std::ostream &Err) {
  if (R.Code == serve::ErrorCode::BadAsm) {
    if (const JsonValue *Diags = R.ErrorData.member("diags")) {
      // Mirrors AnalysisSession::addAsmFile's local diagnostic shape.
      Err << "bec: " << AsmPath << " failed to assemble:\n";
      if (const auto *Arr = Diags->asArray())
        for (const JsonValue &D : *Arr) {
          uint64_t Line = D.memberU64("line").value_or(0);
          uint64_t Col = D.memberU64("col").value_or(0);
          const std::string *Msg = D.memberString("message");
          Err << "line " << Line;
          if (Col != 0)
            Err << ", col " << Col;
          Err << ": " << (Msg ? *Msg : std::string()) << "\n";
        }
      // The local path prints "bec: <error>\n" where the error itself
      // ends in a newline; keep the trailing blank line identical.
      Err << "\n";
      return;
    }
  }
  Err << "bec: " << R.errorText() << "\n";
}

/// Reads \p Path into `intern` method params ({"name","asm"}); nullopt
/// with a diagnostic when the file cannot be read.
std::optional<std::string> internParamsForFile(const std::string &Path,
                                               std::ostream &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err << "bec: cannot open '" << Path << "'\n";
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  JsonWriter P;
  P.beginObject();
  P.key("name").value(Path);
  P.key("asm").value(Buf.str());
  P.endObject();
  return P.take();
}

/// Pools \p Path on the server under its path name.
int internAsmFile(serve::Client &C, const std::string &Path,
                  std::ostream &Err) {
  std::optional<std::string> Params = internParamsForFile(Path, Err);
  if (!Params)
    return ExitBadInput;
  serve::Reply R = C.call("intern", *Params);
  if (!R.Ok) {
    reportReplyError(R, Path, Err);
    return ExitBadInput;
  }
  return ExitSuccess;
}

/// Executes one already-parsed subcommand method reply: print output and
/// diagnostics, honor --emit, adopt the server's exit code.
int consumeSubcommandReply(const serve::Reply &R, const DriverOptions &Opts,
                           std::ostream &Out, std::ostream &Err) {
  const std::string *Output = R.Result.memberString("output");
  std::optional<uint64_t> Exit = R.Result.memberU64("exit");
  if (!Output || !Exit || *Exit > ExitUnsound) {
    Err << "bec: malformed result from server\n";
    return ExitBadInput;
  }
  Out << *Output;
  if (const std::string *Diag = R.Result.memberString("diag"))
    Err << *Diag;
  int Status = static_cast<int>(*Exit);
  if (Status == ExitSuccess && !Opts.EmitPath.empty()) {
    const std::string *Emit = R.Result.memberString("emit");
    if (!Emit) {
      Err << "bec: server returned no emitted assembly\n";
      return ExitBadInput;
    }
    Status = emitAssembly(*Emit, Opts, Err);
  }
  return Status;
}

/// Prints one campaign/run progress frame exactly as the local engine's
/// --progress callback would have.
void printProgress(const JsonValue &P, std::ostream &Err) {
  const std::string *Target = P.memberString("target");
  double Elapsed = 0;
  if (const JsonValue *E = P.member("elapsed_s"))
    Elapsed = E->asDouble().value_or(0);
  Err << progressLine(Target ? *Target : std::string("?"),
                      P.memberU64("shards_done").value_or(0),
                      P.memberU64("shards").value_or(0),
                      P.memberU64("runs_done").value_or(0),
                      P.memberU64("runs").value_or(0),
                      P.memberU64("executed_runs").value_or(0), Elapsed,
                      P.memberU64("steals").value_or(0),
                      P.memberU64("snapshot_rebuilds").value_or(0));
}

//===----------------------------------------------------------------------===//
// Distributed tracing (--trace-out with --remote / client)
//===----------------------------------------------------------------------===//

/// One span fetched from a server's trace/dump ring, tagged with the
/// process label the dump gave it ("becd", "gateway", or a backend's
/// host:port when the gateway merged its backends' rings).
struct RemoteSpan {
  std::string Process;
  std::string Name;
  std::string TraceId;
  std::string SpanId;
  std::string ParentSpan;
  std::string ArgsJson; ///< Pre-rendered {"k":v,...}; empty = none.
  uint64_t StartUs = 0; ///< Wall clock, epoch microseconds.
  uint64_t DurUs = 0;
  uint64_t Tid = 0;
};

/// Distributed-trace state of one invocation. Armed (non-empty TraceId)
/// when --trace-out combines with a remote command: the remote runners
/// inject the context into every request and collect the servers' spans
/// afterwards; runDriver stitches them into the written trace file.
struct DistTrace {
  std::string TraceId;    ///< 32 hex chars; names the whole request tree.
  std::string RootSpanId; ///< The local root span, parent of every hop.
  uint64_t WallBaseUs = 0; ///< Wall clock at traceBegin (epoch us).
  std::vector<RemoteSpan> Spans;

  bool armed() const { return !TraceId.empty(); }
};

uint64_t wallNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Connects to the --remote server. Under an armed distributed trace
/// every frame of the exchange carries the trace context, parented at
/// the root span.
std::optional<serve::Client> connectRemote(const DriverOptions &Opts,
                                           const DistTrace *DT,
                                           std::ostream &Err) {
  std::string ConnErr;
  std::optional<serve::Client> C =
      serve::Client::connect(Opts.RemoteHost, Opts.RemotePort, ConnErr);
  if (!C)
    Err << "bec: " << ConnErr << "\n";
  else if (DT && DT->armed())
    C->setTrace({DT->TraceId, DT->RootSpanId});
  return C;
}

/// Best-effort fetch of the server's spans of an armed trace (a gateway
/// merges its backends' rings into the same reply). Failures are
/// swallowed: a server without trace/dump still served the command, it
/// just contributes no spans to the stitched file.
void collectRemoteSpans(serve::Client &C, DistTrace *DT) {
  if (!DT || !DT->armed())
    return;
  // The dump request itself must not land in the ring as this trace's.
  C.setTrace({});
  JsonWriter W;
  W.beginObject();
  W.key("trace_id").value(DT->TraceId);
  W.endObject();
  serve::Reply R = C.call("trace/dump", W.take());
  if (!R.Ok)
    return;
  const JsonValue *Spans = R.Result.member("spans");
  const std::vector<JsonValue> *Arr = Spans ? Spans->asArray() : nullptr;
  if (!Arr)
    return;
  for (const JsonValue &V : *Arr) {
    auto Str = [&](const char *Key) {
      const std::string *M = V.memberString(Key);
      return M ? *M : std::string();
    };
    RemoteSpan S;
    S.Name = Str("name");
    S.TraceId = Str("trace_id");
    S.SpanId = Str("span_id");
    S.ParentSpan = Str("parent_span");
    S.Process = Str("process");
    S.StartUs = V.memberU64("start_us").value_or(0);
    S.DurUs = V.memberU64("dur_us").value_or(0);
    S.Tid = V.memberU64("tid").value_or(0);
    if (const JsonValue *A = V.member("args"))
      S.ArgsJson = A->toJson();
    if (S.Name.empty() || S.SpanId.empty())
      continue;
    if (S.Process.empty())
      S.Process = "server";
    DT->Spans.push_back(std::move(S));
  }
}

/// Splices the collected remote spans into \p Doc (a rendered Chrome
/// trace document, which always ends "]}\n") as B/E event pairs: one
/// synthetic pid per remote process (the local process is pid 1),
/// labeled with a process_name metadata event, timestamps re-based from
/// wall clock onto the local trace clock via WallBaseUs. The result is
/// one Perfetto-loadable timeline showing client -> gateway -> backend,
/// with each event's args carrying its span identity for tree checks.
void spliceRemoteSpans(std::string &Doc, const DistTrace &DT) {
  if (DT.Spans.empty())
    return;
  size_t Close = Doc.rfind("]}");
  if (Close == std::string::npos)
    return;
  bool NeedComma = Close > 0 && Doc[Close - 1] != '[';

  std::string Ins;
  auto Push = [&](const std::string &Obj) {
    if (NeedComma)
      Ins += ',';
    NeedComma = true;
    Ins += Obj;
  };
  // Process label -> synthetic pid (index + 2; the local tracer is 1).
  std::vector<std::string> Pids;
  auto PidOf = [&](const std::string &Process) {
    for (size_t I = 0; I < Pids.size(); ++I)
      if (Pids[I] == Process)
        return static_cast<uint64_t>(I + 2);
    Pids.push_back(Process);
    uint64_t Pid = Pids.size() + 1;
    JsonWriter MW;
    MW.beginObject();
    MW.key("name").value("process_name");
    MW.key("ph").value("M");
    MW.key("pid").value(Pid);
    MW.key("tid").value(uint64_t(0));
    MW.key("args").beginObject();
    MW.key("name").value(Process);
    MW.endObject();
    MW.endObject();
    Push(MW.take());
    return Pid;
  };

  for (const RemoteSpan &S : DT.Spans) {
    uint64_t Pid = PidOf(S.Process);
    uint64_t Ts = S.StartUs >= DT.WallBaseUs ? S.StartUs - DT.WallBaseUs : 0;

    // The span's identity rides on the B event's args, merged after any
    // args the server recorded (same pre-rendered-splice idiom as the
    // local tracer).
    JsonWriter AW;
    AW.beginObject();
    AW.key("trace_id").value(S.TraceId);
    AW.key("span_id").value(S.SpanId);
    if (!S.ParentSpan.empty())
      AW.key("parent_span").value(S.ParentSpan);
    AW.endObject();
    std::string Args = AW.take();
    if (S.ArgsJson.size() > 2) {
      std::string Merged = S.ArgsJson;
      Merged.back() = ',';
      Merged.append(Args, 1, std::string::npos);
      Args = std::move(Merged);
    }

    JsonWriter BW;
    BW.beginObject();
    BW.key("name").value(S.Name);
    BW.key("cat").value("bec");
    BW.key("ph").value("B");
    BW.key("ts").value(Ts);
    BW.key("pid").value(Pid);
    BW.key("tid").value(S.Tid);
    BW.endObject();
    std::string BObj = BW.take();
    BObj.pop_back();
    BObj += ",\"args\":";
    BObj += Args;
    BObj += '}';
    Push(BObj);

    JsonWriter EW;
    EW.beginObject();
    EW.key("name").value(S.Name);
    EW.key("cat").value("bec");
    EW.key("ph").value("E");
    EW.key("ts").value(Ts + S.DurUs);
    EW.key("pid").value(Pid);
    EW.key("tid").value(S.Tid);
    EW.endObject();
    Push(EW.take());
  }
  Doc.insert(Close, Ins);
}

/// `bec <subcommand> --remote host:port`: transparent offload.
int runRemote(const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
              std::ostream &Err) {
  std::vector<std::string> Targets;
  size_t NumWorkloads = 0;
  if (int Status = selectTargets(Opts, Targets, NumWorkloads, Err))
    return Status;
  if (!Opts.EmitPath.empty() && Targets.size() != 1) {
    Err << "bec: --emit requires exactly one selected target\n";
    return ExitUsage;
  }

  std::optional<serve::Client> C = connectRemote(Opts, DT, Err);
  if (!C)
    return ExitBadInput;
  for (const std::string &Path : Opts.AsmFiles)
    if (int Status = internAsmFile(*C, Path, Err))
      return Status;

  std::string Params = subcommandParams(Opts.Cmd, Opts, Targets);
  // Campaigns offload through the streaming method so a long remote run
  // narrates itself; without --progress no frames are sent and the
  // exchange is byte-for-byte the unary `campaign` method's.
  const CommandSpec &Spec = Commands[size_t(Opts.Cmd)];
  serve::Reply R =
      Spec.StreamMethod
          ? C->callStreaming(Spec.StreamMethod, Params,
                             [&](const JsonValue &P) { printProgress(P, Err); })
          : C->call(Spec.Method, Params);
  // Collect the servers' spans whether or not the command succeeded —
  // a failed hop's spans are exactly what the trace is for.
  collectRemoteSpans(*C, DT);
  if (!R.Ok) {
    Err << "bec: " << R.errorText() << "\n";
    return ExitBadInput;
  }
  return consumeSubcommandReply(R, Opts, Out, Err);
}

/// Publishes the bound port for scripts using --port 0. Write-then-rename
/// so pollers never observe a partial file.
int writePortFile(const std::string &Path, uint16_t Port, std::ostream &Err) {
  if (Path.empty())
    return ExitSuccess;
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream PF(Tmp);
    if (!PF) {
      Err << "bec: cannot write '" << Path << "'\n";
      return ExitBadInput;
    }
    PF << Port << "\n";
  }
  std::rename(Tmp.c_str(), Path.c_str());
  return ExitSuccess;
}

/// Applies --log-level/--log-file/--log-format and labels this process's
/// span ring before a daemon starts serving. The label is what the
/// daemon's trace/dump spans carry as their "process" member.
int applyDaemonObsOptions(const DriverOptions &Opts, const char *Process,
                          std::ostream &Err) {
  obs::setSpanRingProcess(Process);
  obs::setLogFormat(Opts.LogFmt);
  if (!Opts.LogFilePath.empty()) {
    std::string LogErr;
    if (!obs::openLogFile(Opts.LogFilePath, LogErr)) {
      Err << "bec: " << LogErr << "\n";
      return ExitBadInput;
    }
  }
  obs::setLogLevel(Opts.LogLevel);
  return ExitSuccess;
}

/// `bec serve`: run the becd server on the net/ event loop until a
/// shutdown request.
int runServe(const DriverOptions &Opts, std::ostream &Out,
             std::ostream &Err) {
  if (int Status = applyDaemonObsOptions(Opts, "becd", Err))
    return Status;
  serve::Service Svc;
  net::EventServer::Options EO;
  EO.Host = Opts.ServeHost;
  EO.Port = Opts.ServePort;
  // --jobs sizes the worker pool executing requests (0 = one per core);
  // connections are not bounded by it.
  EO.Workers = Opts.given("--jobs") ? Opts.Jobs : 0;
  if (Opts.QueueDepth)
    EO.QueueDepth = *Opts.QueueDepth;
  net::EventServer Srv(
      [&Svc](std::string_view Line, const net::FrameSink &Sink) {
        return Svc.handleFrameStreaming(Line, Sink);
      },
      Svc.handshakeFrame(), EO);
  Srv.setDrainCheck([&Svc] { return Svc.isShuttingDown(); });
  Srv.setAcceptCallback([&Svc] { Svc.noteConnection(); });
  std::string BindErr;
  if (!Srv.start(BindErr)) {
    Err << "bec: serve: " << BindErr << "\n";
    return ExitBadInput;
  }
  Out << "becd listening on " << EO.Host << ":" << Srv.port() << " (api "
      << BEC_API_VERSION_STRING << ", protocol " << serve::ProtocolVersion
      << ")\n";
  Out.flush();
  if (int Status = writePortFile(Opts.PortFile, Srv.port(), Err))
    return Status;
  Srv.run();
  Out << "becd: shut down\n";
  return ExitSuccess;
}

/// `bec gateway`: front N becd backends behind one becd-compatible
/// endpoint on the event-loop core; see net/Gateway.h.
int runGateway(const DriverOptions &Opts, std::ostream &Out,
               std::ostream &Err) {
  if (int Status = applyDaemonObsOptions(Opts, "gateway", Err))
    return Status;
  net::Gateway::Options GO;
  GO.Backends = Opts.GatewayBackends;
  GO.HealthIntervalMs = Opts.HealthIntervalSec * 1000;
  net::Gateway GW(GO);
  std::string GwErr;
  if (!GW.start(GwErr)) {
    Err << "bec: gateway: " << GwErr << "\n";
    return ExitBadInput;
  }

  net::EventServer::Options EO;
  EO.Host = Opts.ServeHost;
  EO.Port = Opts.ServePort;
  // Gateway workers block on upstream becds (I/O-bound), so default a
  // small fixed pool rather than one per core.
  EO.Workers = Opts.given("--jobs") ? Opts.Jobs : 8;
  net::EventServer Srv(
      [&GW](std::string_view Line, const net::FrameSink &Sink) {
        return GW.handleFrame(Line, Sink);
      },
      GW.handshakeFrame(), EO);
  Srv.setDrainCheck([&GW] { return GW.isDraining(); });
  std::string BindErr;
  if (!Srv.start(BindErr)) {
    Err << "bec: gateway: " << BindErr << "\n";
    return ExitBadInput;
  }
  Out << "bec gateway listening on " << EO.Host << ":" << Srv.port()
      << " (api " << BEC_API_VERSION_STRING << ", protocol "
      << serve::ProtocolVersion << ") -> " << GW.backendCount()
      << " backends\n";
  Out.flush();
  if (int Status = writePortFile(Opts.PortFile, Srv.port(), Err))
    return Status;
  Srv.run();
  GW.stop();
  Out << "gateway: shut down\n";
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// bec stats
//===----------------------------------------------------------------------===//

/// Renders a becd `stats` reply as the human-facing summary table. A
/// gateway's aggregated reply carries a "gateway" member with per-backend
/// health, rendered first; the shared counter/latency shape follows.
std::string renderRemoteStatsText(const JsonValue &R) {
  std::string Out;
  if (const JsonValue *G = R.member("gateway")) {
    const std::vector<JsonValue> *Backends =
        G->member("backends") ? G->member("backends")->asArray() : nullptr;
    size_t Total = 0, Healthy = 0;
    std::string Lines;
    auto MemberBool = [](const JsonValue &V, std::string_view Key) {
      const JsonValue *M = V.member(Key);
      return M && M->asBool().value_or(false);
    };
    if (Backends)
      for (const JsonValue &B : *Backends) {
        ++Total;
        bool Up = MemberBool(B, "healthy");
        bool Drain = MemberBool(B, "draining");
        if (Up && !Drain)
          ++Healthy;
        const std::string *Addr = B.memberString("address");
        Lines += "  " + (Addr ? *Addr : std::string("?")) + " " +
                 (Drain ? "draining" : Up ? "healthy" : "unhealthy") +
                 ", forwarded " +
                 std::to_string(B.memberU64("forwarded").value_or(0)) +
                 ", failovers " +
                 std::to_string(B.memberU64("failovers").value_or(0)) + "\n";
      }
    Out += "gateway: " + std::to_string(Healthy) + "/" +
           std::to_string(Total) + " backends in routing\n" + Lines;
  }
  Out += "becd: " +
                    std::to_string(R.memberU64("connections").value_or(0)) +
                    " connections, " +
                    std::to_string(R.memberU64("requests").value_or(0)) +
                    " requests, " +
                    std::to_string(R.memberU64("errors").value_or(0)) +
                    " errors, " +
                    std::to_string(R.memberU64("programs").value_or(0)) +
                    " programs\n";
  if (const JsonValue *S = R.member("session")) {
    uint64_t Hits = S->memberU64("hits").value_or(0);
    uint64_t Misses = S->memberU64("misses").value_or(0);
    Out += "session: " + std::to_string(Hits) + " hits, " +
           std::to_string(Misses) + " misses";
    if (Hits + Misses)
      Out += " (hit rate " +
             Table::percent(double(Hits) / double(Hits + Misses)) + ")";
    Out += ", " + std::to_string(S->memberU64("interned").value_or(0)) +
           " interned, " +
           std::to_string(S->memberU64("shards").value_or(0)) + " shards\n";
  }

  const JsonValue *Methods = R.member("methods");
  const JsonValue *Latency = R.member("latency");
  if (Methods && !Methods->objectMembers().empty()) {
    Table Tbl({"Method", "Count", "p50 (us)", "p99 (us)", "Mean (us)"});
    for (const auto &[Method, Count] : Methods->objectMembers()) {
      Tbl.row().cell(Method).cell(Count.asU64().value_or(0));
      const JsonValue *L = Latency ? Latency->member(Method) : nullptr;
      if (L) {
        Tbl.cell(L->memberU64("p50_us").value_or(0));
        Tbl.cell(L->memberU64("p99_us").value_or(0));
        double Mean = 0;
        if (const JsonValue *M = L->member("mean_us"))
          Mean = M->asDouble().value_or(0);
        Tbl.cell(Mean, 1);
      } else {
        Tbl.cell("-").cell("-").cell("-");
      }
    }
    Out += Tbl.render();
  }

  if (const JsonValue *Gauges = R.member("gauges"))
    if (!Gauges->objectMembers().empty()) {
      Out += "gauges:";
      for (const auto &[Name, V] : Gauges->objectMembers())
        Out += " " + Name + "=" + std::to_string(V.asI64().value_or(0));
      Out += "\n";
    }
  return Out;
}

/// Renders this process's own registry (the no---remote mode; mostly
/// interesting after library code ran in-process, and the debug surface
/// for the metric catalog itself).
std::string renderLocalStatsText(const obs::MetricsSnapshot &Snap) {
  if (Snap.Metrics.empty())
    return "bec: stats: no metrics recorded in this process (build with "
           "observability enabled and run a subcommand; --remote H:P reads "
           "a live becd server)\n";
  Table Tbl({"Metric", "Kind", "Value", "p50 (us)", "p99 (us)"});
  for (const obs::MetricValue &M : Snap.Metrics) {
    switch (M.Kind) {
    case obs::MetricKind::Counter:
      Tbl.row().cell(M.Name).cell("counter").cell(M.Value).cell("-").cell(
          "-");
      break;
    case obs::MetricKind::Gauge:
      Tbl.row().cell(M.Name).cell("gauge").cell(
          std::to_string(M.GaugeValue));
      Tbl.cell("-").cell("-");
      break;
    case obs::MetricKind::Histogram:
      Tbl.row().cell(M.Name).cell("histogram").cell(M.Hist.Count);
      Tbl.cell(M.Hist.quantileUs(0.50)).cell(M.Hist.quantileUs(0.99));
      break;
    }
  }
  return Tbl.render();
}

/// Counters sampled from one remote stats reply, kept across --watch
/// iterations so later polls can print deltas instead of re-dumping the
/// cumulative table.
struct StatsSample {
  bool Valid = false;
  uint64_t Requests = 0;
  uint64_t Errors = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

StatsSample sampleRemoteStats(const JsonValue &R) {
  StatsSample S;
  S.Valid = true;
  S.Requests = R.memberU64("requests").value_or(0);
  S.Errors = R.memberU64("errors").value_or(0);
  if (const JsonValue *Sess = R.member("session")) {
    S.Hits = Sess->memberU64("hits").value_or(0);
    S.Misses = Sess->memberU64("misses").value_or(0);
  }
  return S;
}

/// One --watch interval as rates: what changed in the last \p Sec
/// seconds. Counters are monotone, so plain differences are safe.
std::string renderStatsDelta(const StatsSample &Prev, const StatsSample &Cur,
                             uint64_t Sec) {
  uint64_t DReq = Cur.Requests - Prev.Requests;
  uint64_t DErr = Cur.Errors - Prev.Errors;
  uint64_t DHits = Cur.Hits - Prev.Hits;
  uint64_t DMiss = Cur.Misses - Prev.Misses;
  char Rate[32];
  std::snprintf(Rate, sizeof(Rate), "%.1f",
                double(DReq) / double(Sec ? Sec : 1));
  std::string Out = "+" + std::to_string(DReq) + " requests (" + Rate +
                    "/s), +" + std::to_string(DErr) + " errors";
  if (DHits + DMiss)
    Out += ", window hit rate " +
           Table::percent(double(DHits) / double(DHits + DMiss)) + " (" +
           std::to_string(DHits) + " hits, " + std::to_string(DMiss) +
           " misses)";
  return Out + "\n";
}

/// One `bec stats` poll (one iteration of --watch).
int statsOnce(const DriverOptions &Opts, StatsSample &Prev, std::ostream &Out,
              std::ostream &Err) {
  if (!Opts.given("--remote")) {
    obs::MetricsSnapshot Snap = obs::snapshotMetrics();
    Out << (Opts.StatsMetrics ? obs::renderPrometheus(Snap)
                              : renderLocalStatsText(Snap));
    return ExitSuccess;
  }
  std::optional<serve::Client> C = connectRemote(Opts, nullptr, Err);
  if (!C)
    return ExitBadInput;
  serve::Reply R = C->call(Opts.StatsMetrics ? "metrics" : "stats");
  if (!R.Ok) {
    Err << "bec: " << R.errorText() << "\n";
    return ExitBadInput;
  }
  if (Opts.StatsMetrics) {
    const std::string *Text = R.Result.memberString("text");
    if (!Text) {
      Err << "bec: malformed metrics reply from server\n";
      return ExitBadInput;
    }
    Out << *Text;
    return ExitSuccess;
  }
  // --watch: the first poll prints the full cumulative table (the
  // baseline); every later poll prints one per-interval delta line.
  StatsSample Cur = sampleRemoteStats(R.Result);
  if (Opts.WatchSeconds && Prev.Valid)
    Out << renderStatsDelta(Prev, Cur, Opts.WatchSeconds);
  else
    Out << renderRemoteStatsText(R.Result);
  Prev = Cur;
  return ExitSuccess;
}

/// `bec stats [--remote H:P] [--metrics] [--watch SEC]`.
int runStats(const DriverOptions &Opts, std::ostream &Out,
             std::ostream &Err) {
  StatsSample Prev;
  for (;;) {
    if (int Status = statsOnce(Opts, Prev, Out, Err))
      return Status;
    if (!Opts.WatchSeconds)
      return ExitSuccess;
    Out.flush();
    std::this_thread::sleep_for(std::chrono::seconds(Opts.WatchSeconds));
  }
}

/// `bec client <method> ...`: one raw method call.
int runClient(const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
              std::ostream &Err) {
  const std::string &Method = Opts.ClientArgs[0];
  std::vector<std::string> Positional(Opts.ClientArgs.begin() + 1,
                                      Opts.ClientArgs.end());

  // Build params before connecting so usage errors stay local.
  std::string Params;
  const CommandSpec *Sub = mirroredCommand(Method);
  std::string AsmPath;
  if (Sub) {
    Params = subcommandParams(Sub->Cmd, Opts, Positional);
  } else if (Method == "version" || Method == "stats" ||
             Method == "metrics" || Method == "shutdown" ||
             Method == "gateway/backends") {
    if (!Positional.empty()) {
      Err << "bec: client " << Method << " takes no arguments\n";
      return ExitUsage;
    }
  } else if (Method == "gateway/drain" || Method == "gateway/undrain") {
    if (Positional.size() != 1) {
      Err << "bec: client " << Method
          << " needs exactly one backend host:port\n";
      return ExitUsage;
    }
    JsonWriter W;
    W.beginObject();
    W.key("backend").value(Positional[0]);
    W.endObject();
    Params = W.take();
  } else if (Method == "trace/dump") {
    if (Positional.size() > 1) {
      Err << "bec: client trace/dump takes at most one trace id\n";
      return ExitUsage;
    }
    if (Positional.size() == 1) {
      JsonWriter W;
      W.beginObject();
      W.key("trace_id").value(Positional[0]);
      W.endObject();
      Params = W.take();
    }
  } else if (Method == "log/level") {
    if (Positional.size() > 1) {
      Err << "bec: client log/level takes at most one level "
             "(debug | info | warn | error | off)\n";
      return ExitUsage;
    }
    if (Positional.size() == 1) {
      JsonWriter W;
      W.beginObject();
      W.key("level").value(Positional[0]);
      W.endObject();
      Params = W.take();
    }
  } else if (Method == "counts") {
    if (Positional.size() != 1) {
      Err << "bec: client counts needs exactly one target\n";
      return ExitUsage;
    }
    JsonWriter W;
    W.beginObject();
    W.key("target").value(Positional[0]);
    W.endObject();
    Params = W.take();
  } else if (Method == "intern") {
    if (Positional.size() != 1) {
      Err << "bec: client intern needs exactly one assembly file\n";
      return ExitUsage;
    }
    AsmPath = Positional[0];
    std::optional<std::string> InternParams =
        internParamsForFile(AsmPath, Err);
    if (!InternParams)
      return ExitBadInput;
    Params = *InternParams;
  } else {
    Err << "bec: unknown client method '" << Method << "'\n";
    return ExitUsage;
  }

  std::optional<serve::Client> C = connectRemote(Opts, DT, Err);
  if (!C)
    return ExitBadInput;
  serve::Reply R =
      Method == "campaign/run"
          ? C->callStreaming(Method, Params,
                             [&](const JsonValue &P) { printProgress(P, Err); })
          : C->call(Method, Params);
  if (Method != "shutdown")
    collectRemoteSpans(*C, DT);
  if (!R.Ok) {
    reportReplyError(R, AsmPath, Err);
    return ExitBadInput;
  }
  if (Sub)
    return consumeSubcommandReply(R, Opts, Out, Err);
  Out << R.Result.toJson() << "\n";
  return ExitSuccess;
}

/// Everything after argument parsing: subcommand dispatch. Split out so
/// runDriver can scope the root trace span around exactly this.
int runParsed(const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
              std::ostream &Err) {
  if (Opts.Cmd == Command::Serve)
    return runServe(Opts, Out, Err);
  if (Opts.Cmd == Command::Gateway)
    return runGateway(Opts, Out, Err);
  if (Opts.Cmd == Command::Client)
    return runClient(Opts, DT, Out, Err);
  if (Opts.Cmd == Command::Fuzz)
    return runFuzzCommand(Opts, Out, Err);
  // stats handles --remote itself (it is the one subcommand whose remote
  // form is not a mirrored server method call over targets).
  if (Opts.Cmd == Command::Stats)
    return runStats(Opts, Out, Err);
  if (Opts.given("--remote"))
    return runRemote(Opts, DT, Out, Err);

  AnalysisSession S;
  if (int Status = collectTargets(Opts, S, Err))
    return Status;
  // One emitted program, checkpoint file or profile describes one target.
  for (const char *Flag : {"--emit", "--checkpoint", "--profile"})
    if (Opts.given(Flag) && S.numTargets() != 1) {
      Err << "bec: " << Flag << " requires exactly one selected target\n";
      return ExitUsage;
    }

  std::vector<std::string> Names = targetNames(S);
  ThreadPool Pool(ThreadPool::clampJobs(Opts.Jobs));
  int Status = ExitSuccess;

  switch (Opts.Cmd) {
  case Command::Analyze: {
    auto Results = S.evaluateAll<AnalyzeQuery>({}, Pool);
    Out << (Opts.Json ? renderAnalyzeJson(Names, Results)
                      : renderAnalyzeText(Names, Results));
    Status = reportErrors(S, Results, Err);
    break;
  }
  case Command::Campaign: {
    CampaignCmdQuery::Options Base;
    Base.Plan = Opts.Plan;
    Base.MaxCycles = Opts.MaxCycles;
    Base.SampleSize = Opts.SampleSize;
    Base.SampleSeed = Opts.SampleSeed;
    Base.PrefixCheckpoint = Opts.PrefixCheckpoint;
    Base.CheckpointEveryK = Opts.CheckpointEveryK;
    Base.Exec.Threads = ThreadPool::clampJobs(Opts.CampaignThreads);
    Base.Exec.ShardSize = Opts.ShardSize;
    Base.Exec.CheckpointPath = Opts.CheckpointPath;
    Base.Exec.Resume = Opts.Resume;
    Base.Exec.CollectProfile = !Opts.ProfilePath.empty();
    // Per-target options (identical fingerprints, so the cache shape
    // matches evaluateAll): only the progress callback differs, needing
    // the target's name.
    std::vector<std::shared_ptr<const CampaignCmdResult>> Results(
        S.numTargets());
    std::mutex ProgressMutex;
    for (size_t I = 0; I < S.numTargets(); ++I)
      Pool.submit([&, I] {
        CampaignCmdQuery::Options O = Base;
        if (Opts.Progress) {
          std::string Target = S.name(I);
          O.Exec.OnProgress = throttledProgress(
              [&Err, &ProgressMutex, Target](const CampaignProgress &P) {
                std::lock_guard<std::mutex> Lock(ProgressMutex);
                Err << progressLine(Target, P.ShardsDone, P.TotalShards,
                                    P.RunsDone, P.TotalRuns, P.ExecutedRuns,
                                    P.ElapsedSeconds, P.Steals,
                                    P.SnapshotRebuilds);
              });
        }
        Results[I] =
            S.get<CampaignCmdQuery>(static_cast<AnalysisSession::TargetId>(I),
                                    O);
      });
    Pool.wait();
    Out << (Opts.Json ? renderCampaignJson(Names, Results, Opts.Plan)
                      : renderCampaignText(Names, Results, Opts.Plan));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess && Opts.Resume)
      Err << "bec: campaign: resumed " << Results[0]->Campaign.ResumedShards
          << " of " << Results[0]->Campaign.Shards << " shards from '"
          << Opts.CheckpointPath << "'\n";
    if (Status == ExitSuccess && !Opts.ProfilePath.empty()) {
      std::ofstream PF(Opts.ProfilePath, std::ios::binary);
      if (PF)
        PF << renderCampaignProfileJson(Results[0]->Campaign.Profile);
      if (!PF) {
        Err << "bec: cannot write profile file '" << Opts.ProfilePath
            << "'\n";
        Status = ExitBadInput;
      }
    }
    break;
  }
  case Command::Schedule: {
    auto Results = S.evaluateAll<ScheduleCmdQuery>({}, Pool);
    Out << (Opts.Json ? renderScheduleJson(Names, Results)
                      : renderScheduleText(Names, Results));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess && !Opts.EmitPath.empty()) {
      Status = emitAssembly(
          Results[0]->PolicyAsm[choiceIndex(PolicyNames, Opts.EmitPolicy)],
          Opts, Err);
    }
    break;
  }
  case Command::Harden: {
    HardenCmdQuery::Options HO;
    HO.Budgets = Opts.Budgets;
    auto Results = S.evaluateAll<HardenCmdQuery>(HO, Pool);
    Out << (Opts.Json ? renderHardenJson(Names, Results, Opts.Budgets)
                      : renderHardenText(Names, Results, Opts.Budgets));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess)
      for (size_t I = 0; I < Results.size(); ++I)
        for (const HardenPoint &P : Results[I]->Points)
          if (!P.Check.ok()) {
            Err << "bec: " << S.name(I)
                << ": hardened program failed validation\n";
            Status = ExitUnsound;
          }
    if (Status == ExitSuccess && !Opts.EmitPath.empty())
      Status = emitAssembly(Results[0]->Points[0].Harden.HP.Prog.toString(),
                            Opts, Err);
    break;
  }
  case Command::Report: {
    auto Results = S.evaluateAll<ReportCmdQuery>({Opts.MaxCycles}, Pool);
    Out << (Opts.Json ? renderReportJson(Names, Results)
                      : renderReportText(Names, Results));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess)
      for (const auto &R : Results)
        if (!R->Validation.sound())
          Status = ExitUnsound;
    break;
  }
  default:
    break; // Dispatched before target loading.
  }
  return Status;
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

int bec::tool::runDriver(const std::vector<std::string> &Args,
                         std::ostream &Out, std::ostream &Err) {
  DriverOptions Opts;
  int ParseStatus = parseArgs(Args, Opts, Out, Err);
  if (ParseStatus == -1)
    return ExitSuccess; // --help / --list-workloads.
  if (ParseStatus != ExitSuccess)
    return ParseStatus;

  // --trace-out against a server arms distributed tracing: a fresh
  // 128-bit trace id plus the local root span's id travel in every
  // request envelope, and the servers' spans come back via trace/dump.
  DistTrace DT;
  if (!Opts.TraceOutPath.empty() &&
      (Opts.given("--remote") || Opts.Cmd == Command::Client)) {
    DT.TraceId = obs::newTraceId128();
    DT.RootSpanId = obs::newSpanId64();
  }
  if (!Opts.TraceOutPath.empty()) {
    obs::traceBegin();
    // Remote spans carry wall-clock starts; this is the base that maps
    // them onto the local trace clock (which starts at 0 here).
    DT.WallBaseUs = wallNowUs();
  }
  int Status;
  {
    obs::Span Root(obs::traceActive()
                       ? std::string("bec:") + Commands[size_t(Opts.Cmd)].Name
                       : std::string());
    if (DT.armed() && obs::traceActive()) {
      Root.argStr("trace_id", DT.TraceId);
      Root.argStr("span_id", DT.RootSpanId);
    }
    Status = runParsed(Opts, &DT, Out, Err);
  }
  if (!Opts.TraceOutPath.empty()) {
    std::string Doc = obs::traceEnd();
    spliceRemoteSpans(Doc, DT);
    std::ofstream TraceFile(Opts.TraceOutPath, std::ios::binary);
    bool Wrote = static_cast<bool>(TraceFile);
    if (Wrote) {
      TraceFile << Doc;
      TraceFile.flush();
      Wrote = static_cast<bool>(TraceFile);
    }
    if (!Wrote) {
      Err << "bec: cannot write trace file '" << Opts.TraceOutPath << "'\n";
      if (Status == ExitSuccess)
        Status = ExitBadInput;
    }
  }
  return Status;
}
