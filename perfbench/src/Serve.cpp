//===- perfbench/src/Serve.cpp - The serve-mixed workload -----------------===//
///
/// \file
/// The serve-mixed workload: becd on the event loop (net::EventServer
/// around serve::Service) at an ephemeral loopback port, driven by a closed
/// loop of client connections from this process. perfbench/baseline.json
/// describes the request mix and the server's state. Replies are checked
/// against the same renderers run locally.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Queries.h"
#include "api/Serialize.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "net/EventLoop.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Service.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

using namespace bec;
using namespace perfbench;

namespace {

/// Runs per sampled campaign/run request.
constexpr uint64_t CampaignSample = 200;
/// Each client repeats a cycle of this many draws of each kind, in an order
/// shuffled from the seed per cycle, so every window sees the same mix:
/// warm analyze, intern + cold analyze, campaign/run.
constexpr unsigned CycleWarm = 40;
constexpr unsigned CycleFresh = 2;
constexpr unsigned CycleCampaign = 1;
/// Repetitions of the set-up, whose median is setup_s.
constexpr unsigned SetupRepeats = 5;
/// Fresh programs are interned under this many names, reused in turn (a
/// re-intern rebinds the name), so the daemon's name table stays bounded.
constexpr size_t FreshNames = 1024;
/// Replies of each kind kept for the after-run comparison with a local
/// computation.
constexpr size_t KeptColdReplies = 64;
constexpr size_t KeptCampaignReplies = 16;

enum Kind : unsigned {
  AnalyzeWarm,
  Intern,
  AnalyzeCold,
  CampaignRun,
  NumKinds
};
const char *const KindSpan[NumKinds] = {"serve.analyze_warm", "serve.intern",
                                        "serve.analyze_cold",
                                        "serve.campaign_run"};

struct Fresh {
  std::string Name;
  std::string Asm;
};

/// What one client saw.
struct ClientLog {
  std::vector<double> LatencyMs[NumKinds];
  /// Latency of each request completed in each one-second window of the
  /// timed loop.
  std::vector<std::vector<double>> WindowMs;
  uint64_t Requests = 0;
  uint64_t Rejected = 0;
  std::vector<std::string> Errors;
  /// (fresh index, analyze output) and (fresh index, seed, output).
  std::vector<std::pair<size_t, std::string>> Cold;
  std::vector<std::tuple<size_t, uint64_t, std::string>> Campaigns;
};

std::string targetsParams(const std::string &Name) {
  JsonWriter W;
  W.beginObject();
  W.key("targets").beginArray().value(Name).endArray();
  W.key("format").value("json");
  W.endObject();
  return W.take();
}

std::string campaignParams(const std::string &Name, uint64_t Seed) {
  JsonWriter W;
  W.beginObject();
  W.key("targets").beginArray().value(Name).endArray();
  W.key("format").value("json");
  W.key("plan").value("bit");
  W.key("sample").value(CampaignSample);
  W.key("seed").value(Seed);
  W.key("threads").value(uint64_t(1));
  W.key("progress").value(true);
  W.endObject();
  return W.take();
}

std::string internParams(const Fresh &F) {
  JsonWriter W;
  W.beginObject();
  W.key("name").value(F.Name);
  W.key("asm").value(F.Asm);
  W.endObject();
  return W.take();
}

/// The rendered document of a subcommand reply, or nullopt with \p Why set.
std::optional<std::string> outputOf(const serve::Reply &R, std::string &Why) {
  if (!R.Ok) {
    Why = R.errorText();
    return std::nullopt;
  }
  std::optional<uint64_t> Exit = R.Result.memberU64("exit");
  const std::string *Out = R.Result.memberString("output");
  if (!Exit || *Exit != 0 || !Out) {
    Why = "reply without a zero exit and an output";
    return std::nullopt;
  }
  return *Out;
}

/// The rendered analyze document of \p Asm computed locally.
std::string localAnalyze(const std::string &Name, std::string_view Asm) {
  AsmParseResult P = parseAsm(Asm, Name);
  if (!P.succeeded())
    return "local parse failed";
  AnalysisSession S;
  std::shared_ptr<const AnalyzeResult> A =
      S.get<AnalyzeQuery>(S.intern(std::move(*P.Prog)));
  return renderAnalyzeJson({&Name, 1}, {&A, 1});
}

/// The rendered sampled campaign of \p Asm computed locally.
std::string localCampaign(const std::string &Name, std::string_view Asm,
                          uint64_t Seed) {
  AsmParseResult P = parseAsm(Asm, Name);
  if (!P.succeeded())
    return "local parse failed";
  AnalysisSession S;
  CampaignCmdQuery::Options CO;
  CO.SampleSize = CampaignSample;
  CO.SampleSeed = Seed;
  std::shared_ptr<const CampaignCmdResult> C =
      S.get<CampaignCmdQuery>(S.intern(std::move(*P.Prog)), CO);
  return renderCampaignJson({&Name, 1}, {&C, 1}, PlanKind::BitLevel);
}

/// One sum/count pair of a histogram in the `metrics` exposition.
struct HistSum {
  double SumUs = 0;
  double Count = 0;
};

HistSum histogramOf(const std::string &Text, const std::string &Family) {
  HistSum H;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind(Family + "_sum ", 0) == 0)
      H.SumUs = std::stod(Line.substr(Family.size() + 5));
    else if (Line.rfind(Family + "_count ", 0) == 0)
      H.Count = std::stod(Line.substr(Family.size() + 7));
  }
  return H;
}

/// The server's own view, read over its public RPCs.
struct ServerView {
  double Hits = 0;
  double Misses = 0;
  HistSum DispatchWait;
};

class ServeBench {
public:
  explicit ServeBench(const Options &O) : O(O) {}
  ~ServeBench() { stop(); }

  Result run();

private:
  void start(Result &R);
  void stop();
  ServerView view(serve::Client &C);
  /// Fresh program \p F of this seed's sequence (generated on demand past
  /// the set-up's pool, outside any request timing).
  Fresh fresh(size_t F) const;
  /// Interns and analyzes the first Prefill fresh programs. The requests go
  /// to the service in-process, one at a time: set-up prepares the daemon's
  /// state, and a single thread with no socket hops times it steadily.
  void fillPool(Result &R);
  void clientLoop(unsigned Index, Clock::time_point Start,
                  Clock::time_point Deadline, ClientLog &Log);
  struct Measured {
    double WallS = 0;
    double CpuS = 0; ///< Of the whole process: server and clients.
    std::vector<ClientLog> Logs;
    /// Requests completed per window, over all clients, and their p50.
    std::vector<double> Windows;
    std::vector<double> WindowP50Ms;
    ServerView Before, After;
  };
  Measured measure();

  const Options &O;
  /// Length of the throughput windows (whole runs below one second).
  double WindowS = 1;
  unsigned NumClients = 1;
  std::unique_ptr<serve::Service> Svc;
  std::unique_ptr<net::EventServer> Srv;
  std::thread Loop;
  std::vector<serve::Client> Clients;
  std::vector<Fresh> Pool;
  /// Fresh programs below this index fill the pool during set-up.
  size_t Prefill = 0;
  std::atomic<size_t> NextFresh{0};
  /// Warm analyze document of each bundled program, by registry index.
  std::vector<std::string> WarmExpected;
  Digest SetupDigest;
};

void ServeBench::start(Result &R) {
  stop();
  Svc = std::make_unique<serve::Service>();
  net::EventServer::Options EO;
  EO.Port = 0;
  Srv = std::make_unique<net::EventServer>(
      [S = Svc.get()](std::string_view Line, const net::FrameSink &Sink) {
        return S->handleFrameStreaming(Line, Sink);
      },
      Svc->handshakeFrame(), EO);
  Srv->setDrainCheck([S = Svc.get()] { return S->isShuttingDown(); });
  Srv->setAcceptCallback([S = Svc.get()] { S->noteConnection(); });
  std::string Err;
  if (!Srv->start(Err)) {
    R.check(false, "cannot start the server: " + Err);
    Srv.reset();
    return;
  }
  Loop = std::thread([this] { Srv->run(); });
  for (unsigned I = 0; I < NumClients; ++I) {
    std::optional<serve::Client> C =
        serve::Client::connect("127.0.0.1", Srv->port(), Err);
    if (!C) {
      R.check(false, "cannot connect: " + Err);
      return;
    }
    Clients.push_back(std::move(*C));
  }
}

void ServeBench::stop() {
  Clients.clear();
  if (Srv) {
    Srv->requestStop();
    Loop.join();
    Srv.reset();
  }
  Svc.reset();
}

ServerView ServeBench::view(serve::Client &C) {
  ServerView V;
  serve::Reply S = C.call("stats");
  if (const JsonValue *Session = S.Result.member("session")) {
    V.Hits = double(Session->memberU64("hits").value_or(0));
    V.Misses = double(Session->memberU64("misses").value_or(0));
  }
  serve::Reply M = C.call("metrics");
  if (const std::string *Text = M.Result.memberString("text"))
    V.DispatchWait = histogramOf(*Text, "bec_net_loop_dispatch_wait_us");
  return V;
}

Fresh ServeBench::fresh(size_t F) const {
  if (F < Pool.size())
    return Pool[F];
  fuzz::GeneratedProgram G =
      fuzz::generateProgram(fuzz::programSeed(mixSeed(O.Seed, 9), F));
  return {"fresh-" + std::to_string(F % FreshNames),
          G.Error.empty() ? std::move(G.Asm) : "# " + G.Error};
}

void ServeBench::fillPool(Result &R) {
  uint64_t Failures = 0;
  auto Call = [&](std::string_view Method, const std::string &Params) {
    std::string Err;
    std::optional<serve::Response> Reply = serve::parseResponseFrame(
        Svc->handleFrame(serve::makeRequestFrame(1, Method, Params)), Err);
    if (!Reply || Reply->IsError)
      ++Failures;
  };
  for (size_t F = 0; F < Prefill; ++F) {
    Call("intern", internParams(Pool[F]));
    Call("analyze", targetsParams(Pool[F].Name));
  }
  if (Failures)
    R.fail("filling the session pool: " + std::to_string(Failures) +
           " failed requests");
}

void ServeBench::clientLoop(unsigned Index, Clock::time_point Start,
                            Clock::time_point Deadline, ClientLog &Log) {
  serve::Client &C = Clients[Index];
  const std::vector<Workload> &All = allWorkloads();
  Xoshiro256 Rng(mixSeed(O.Seed, 200 + Index));
  uint64_t Item = uint64_t(Index) << 40;
  auto Call = [&](Kind K, std::string_view Method, const std::string &Params,
                  bool Streaming) {
    Span Sp(KindSpan[K], Item++);
    auto T0 = Clock::now();
    serve::Reply R = Streaming ? C.callStreaming(Method, Params, nullptr)
                               : C.call(Method, Params);
    double Ms = secondsSince(T0) * 1e3;
    Log.LatencyMs[K].push_back(Ms);
    ++Log.Requests;
    size_t Window = size_t(secondsSince(Start) / WindowS);
    if (Window >= Log.WindowMs.size())
      Log.WindowMs.resize(Window + 1);
    Log.WindowMs[Window].push_back(Ms);
    if (!R.Ok && (R.Code == serve::ErrorCode::Overloaded ||
                  R.Code == serve::ErrorCode::Draining))
      ++Log.Rejected;
    return R;
  };
  std::optional<size_t> Latest; // The client's latest fresh program.
  size_t Warm = Index;           // Warm draws visit the programs in turn.
  std::vector<Kind> Cycle;
  Cycle.insert(Cycle.end(), CycleWarm, AnalyzeWarm);
  Cycle.insert(Cycle.end(), CycleFresh, Intern);
  Cycle.insert(Cycle.end(), CycleCampaign, CampaignRun);
  for (size_t Next = 0; Clock::now() < Deadline; ++Next) {
    if (Next % Cycle.size() == 0)
      seededShuffle(Cycle, Rng.next());
    Kind Draw = Cycle[Next % Cycle.size()];
    std::string Why;
    if (Draw == CampaignRun && !Latest)
      Draw = Intern; // Nothing interned yet: intern first.
    if (Draw == AnalyzeWarm) {
      size_t W = Warm++ % All.size();
      serve::Reply R = Call(AnalyzeWarm, "analyze", targetsParams(All[W].Name),
                            false);
      std::optional<std::string> Out = outputOf(R, Why);
      if (!Out)
        Log.Errors.push_back("warm analyze: " + Why);
      else if (*Out != WarmExpected[W])
        Log.Errors.push_back("warm analyze: reply differs from local render");
    } else if (Draw == Intern) {
      size_t F = NextFresh.fetch_add(1);
      Fresh P = fresh(F);
      serve::Reply I = Call(Intern, "intern", internParams(P), false);
      if (!I.Ok) {
        Log.Errors.push_back("intern: " + I.errorText());
        continue;
      }
      serve::Reply R =
          Call(AnalyzeCold, "analyze", targetsParams(P.Name), false);
      std::optional<std::string> Out = outputOf(R, Why);
      if (!Out)
        Log.Errors.push_back("cold analyze: " + Why);
      else if (Log.Cold.size() < KeptColdReplies)
        Log.Cold.emplace_back(F, std::move(*Out));
      Latest = F;
    } else {
      uint64_t Seed = Rng.next() >> 11;
      serve::Reply R = Call(CampaignRun, "campaign/run",
                            campaignParams(fresh(*Latest).Name, Seed), true);
      std::optional<std::string> Out = outputOf(R, Why);
      if (!Out)
        Log.Errors.push_back("campaign/run: " + Why);
      else if (Log.Campaigns.size() < KeptCampaignReplies)
        Log.Campaigns.emplace_back(*Latest, Seed, std::move(*Out));
    }
  }
}

ServeBench::Measured ServeBench::measure() {
  Measured Ph;
  Ph.Before = view(Clients.front());
  Ph.Logs.resize(NumClients);
  // A traced run lasts twice as long and records spans in every odd
  // window only, so a drift of the shared host's speed hits traced and
  // untraced windows alike.
  unsigned NumWindows =
      unsigned(std::ceil(O.Seconds / WindowS)) * (O.Trace ? 2 : 1);
  auto T0 = Clock::now();
  auto At = [&](double S) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(S));
  };
  auto Deadline = At(NumWindows * WindowS);
  double C0 = cpuSeconds();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumClients; ++I)
    Threads.emplace_back([this, I, T0, Deadline, &Ph] {
      clientLoop(I, T0, Deadline, Ph.Logs[I]);
    });
  if (O.Trace)
    for (unsigned W = 0; W < NumWindows; ++W) {
      std::this_thread::sleep_until(At(W * WindowS));
      recorder().enable(W % 2 == 1);
    }
  for (std::thread &T : Threads)
    T.join();
  recorder().enable(false);
  Ph.WallS = secondsSince(T0);
  Ph.CpuS = cpuSeconds() - C0;
  for (unsigned W = 0; W < NumWindows; ++W) {
    std::vector<double> Ms;
    for (const ClientLog &L : Ph.Logs)
      if (W < L.WindowMs.size())
        Ms.insert(Ms.end(), L.WindowMs[W].begin(), L.WindowMs[W].end());
    Ph.Windows.push_back(double(Ms.size()));
    Ph.WindowP50Ms.push_back(median(Ms));
  }
  Ph.After = view(Clients.front());
  return Ph;
}

Result ServeBench::run() {
  Result R;
  NumClients = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  WindowS = std::min(1.0, O.Seconds);
  const std::vector<Workload> &All = allWorkloads();
  double Setup = timedSetup(SetupRepeats, [&] {
    // A fresh server, its client connections, the session pool filled to
    // capacity with fresh programs, and the warm cache every warm analyze
    // hits. Its size depends on neither --seconds nor --trace.
    start(R);
    if (Clients.size() != NumClients)
      return;
    Pool.clear();
    Prefill = O.Minimal ? 64 : AnalysisSession::Config().MaxInternedShards;
    NextFresh = Prefill;
    for (size_t I = 0; I < Prefill; ++I)
      Pool.push_back(fresh(I));
    fillPool(R);
    WarmExpected.clear();
    SetupDigest = Digest();
    for (const Workload &W : All) {
      serve::Reply Reply =
          Clients.front().call("analyze", targetsParams(W.Name));
      std::string Why;
      WarmExpected.push_back(outputOf(Reply, Why).value_or(Why));
      SetupDigest.add(WarmExpected.back());
    }
  });
  if (Clients.size() != NumClients)
    return R;
  for (size_t W = 0; W < All.size(); ++W)
    R.check(WarmExpected[W] == localAnalyze(All[W].Name, All[W].Asm),
            All[W].Name + ": analyze reply differs from local render");

  Measured Ph = measure();
  if (O.Trace && !O.TraceOut.empty() && !recorder().writeFile(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());

  // Outside the timed region: every request counts as one operation; kept
  // cold analyze and campaign replies are recomputed locally.
  std::vector<double> AllMs, PerKind[NumKinds];
  uint64_t Requests = 0, Rejected = 0;
  for (const ClientLog &L : Ph.Logs) {
    R.Attempted += L.Requests;
    for (const std::string &E : L.Errors)
      R.fail(E);
    for (auto &[F, Out] : L.Cold) {
      Fresh P = fresh(F);
      R.check(Out == localAnalyze(P.Name, P.Asm),
              "cold analyze: reply differs from local render");
    }
    for (auto &[F, Seed, Out] : L.Campaigns) {
      Fresh P = fresh(F);
      R.check(stripSeconds(Out) ==
                  stripSeconds(localCampaign(P.Name, P.Asm, Seed)),
              "campaign/run: reply differs from local render");
    }
    Requests += L.Requests;
    Rejected += L.Rejected;
    for (unsigned K = 0; K < NumKinds; ++K) {
      PerKind[K].insert(PerKind[K].end(), L.LatencyMs[K].begin(),
                        L.LatencyMs[K].end());
      AllMs.insert(AllMs.end(), L.LatencyMs[K].begin(), L.LatencyMs[K].end());
    }
  }

  // The digest covers what every run of a seed computes identically: the
  // warm documents and a fixed batch after the timed loop.
  Digest D = SetupDigest;
  for (size_t F = 0; F < std::min<size_t>(4, Prefill); ++F) {
    serve::Reply I = Clients.front().call("intern", internParams(Pool[F]));
    serve::Reply A =
        Clients.front().call("analyze", targetsParams(Pool[F].Name));
    std::string Why;
    D.add(outputOf(A, Why).value_or(Why));
  }
  serve::Reply C = Clients.front().call(
      "campaign/run", campaignParams(All.front().Name, mixSeed(O.Seed, 300)));
  std::string Why;
  D.add(stripSeconds(outputOf(C, Why).value_or(Why)));
  R.ReportDigest = D.hex();
  stop();

  std::printf("%-20s %10s %8s %10s\n", "request", "count", "share",
              "p50_ms");
  for (unsigned K = 0; K < NumKinds; ++K)
    std::printf("%-20s %10zu %8.3f %10.3f\n", KindSpan[K], PerKind[K].size(),
                double(PerKind[K].size()) / std::max<size_t>(AllMs.size(), 1),
                median(PerKind[K]));
  // Wall-clock figures, for reading: throughput and p50 are medians over
  // the windows, which a short stall of the shared host cannot move.
  std::printf("clients %u, requests %llu, wall %.3f s, cpu %.3f s, rejected "
              "%llu, requests/s %.1f, p50 %.4f ms, p99 %.3f ms\n",
              NumClients, static_cast<unsigned long long>(Requests),
              Ph.WallS, Ph.CpuS, static_cast<unsigned long long>(Rejected),
              median(Ph.Windows) / WindowS, median(Ph.WindowP50Ms),
              percentile(AllMs, 99));
  if (!O.Trace) {
    addEndToEnd(R, Setup, double(Requests), Ph.CpuS);
    return R;
  }
  for (unsigned K = 0; K < NumKinds; ++K)
    R.add(std::string(KindSpan[K]) + "_ms", median(PerKind[K]), "ms");
  HistSum W0 = Ph.Before.DispatchWait, W1 = Ph.After.DispatchWait;
  double Waits = W1.Count - W0.Count;
  R.add("serve.queue_wait_ms",
        Waits > 0 ? (W1.SumUs - W0.SumUs) / Waits / 1e3 : 0, "ms");
  R.add("net.rejected", double(Rejected), "count");
  double Hits = Ph.After.Hits - Ph.Before.Hits;
  double Misses = Ph.After.Misses - Ph.Before.Misses;
  R.add("api.session_hit_ratio", Hits / (Hits + Misses), "ratio");
  double CallS = 0;
  for (auto &[Name, Ns] : recorder().selfTimes())
    CallS += Ns / 1e9;
  std::vector<double> Untraced, Traced;
  for (size_t W = 0; W < Ph.Windows.size(); ++W)
    (W % 2 ? Traced : Untraced).push_back(Ph.Windows[W]);
  addTraceOverhead(R, CallS, Traced.size() * WindowS * NumClients,
                   1 / median(Traced), 1 / median(Untraced));
  return R;
}

} // namespace

Result perfbench::runServeWorkload(const Options &O) {
  return ServeBench(O).run();
}
