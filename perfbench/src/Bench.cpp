//===- perfbench/src/Bench.cpp - Shared harness pieces --------------------===//

#include "Bench.h"

#include "api/Queries.h"
#include "ir/AsmParser.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <regex>
#include <sys/resource.h>
#include <time.h>

using namespace perfbench;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

thread_local std::vector<int64_t> OpenSpans;

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Index = Next.fetch_add(1);
  return Index;
}

std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() && std::isfinite(V) ? std::string(Buf, End)
                                               : std::string("0");
}

std::string quoted(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

SpanRecorder &perfbench::recorder() {
  static SpanRecorder R;
  return R;
}

int64_t SpanRecorder::open(const char *Name, uint64_t Item) {
  int64_t Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  int64_t Index;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Index = static_cast<int64_t>(Spans.size());
    Spans.push_back({Name, Item, Parent, nowNs(), 0, threadIndex()});
  }
  OpenSpans.push_back(Index);
  return Index;
}

void SpanRecorder::close(int64_t Index) {
  int64_t End = nowNs();
  OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Index].EndNs = End;
}

std::vector<std::pair<std::string, int64_t>> SpanRecorder::selfTimes() const {
  std::vector<int64_t> Children(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, int64_t> ByName;
  for (size_t I = 0; I < Spans.size(); ++I)
    ByName[Spans[I].Name] += Spans[I].EndNs - Spans[I].StartNs - Children[I];
  return {ByName.begin(), ByName.end()};
}

bool SpanRecorder::writeFile(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"spans\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    Out << (I ? ",\n" : "") << "{\"id\":" << I << ",\"name\":" << quoted(S.Name)
        << ",\"item\":" << S.Item << ",\"parent\":" << S.Parent
        << ",\"thread\":" << S.Thread
        << ",\"start_us\":" << number((S.StartNs - Base) / 1e3)
        << ",\"end_us\":" << number((S.EndNs - Base) / 1e3) << "}";
  }
  Out << "\n]}\n";
  return bool(Out);
}

void Result::fail(const std::string &What) {
  ++Failed;
  if (std::find(Problems.begin(), Problems.end(), What) == Problems.end())
    Problems.push_back(What);
}

std::string Result::json() const {
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"digest\": " + quoted(ReportDigest);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += (I ? ", " : "") + quoted(Metrics[I].Name) +
           ": {\"value\": " + number(Metrics[I].Value) +
           ", \"unit\": " + quoted(Metrics[I].Unit) + "}";
  return Out + "}}";
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / V.size());
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

void Digest::add(std::string_view S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string perfbench::stripSeconds(std::string_view Json) {
  static const std::regex Seconds("\"seconds\":[-0-9.eE+]+");
  return std::regex_replace(std::string(Json), Seconds, "\"seconds\":0");
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double perfbench::cpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + T.tv_nsec / 1e9;
}

void perfbench::addEndToEnd(Result &R, double SetupS, double Ops,
                            double CpuS) {
  R.add("setup_s", SetupS, "s");
  R.add("ops_per_cpu_s", Ops / CpuS, "1/s");
  R.add("peak_rss_mb", peakRssMb(), "MB");
}

double perfbench::addLayerSelfTimes(Result &R,
                                    const std::vector<std::string> &Layers,
                                    double Items) {
  std::map<std::string, int64_t> Self;
  for (auto &[Name, Ns] : recorder().selfTimes())
    Self[Name] = Ns;
  double LayerS = 0;
  for (const std::string &L : Layers) {
    LayerS += Self[L] / 1e9;
    R.add(L + "_ms", Self[L] / 1e6 / Items, "ms");
  }
  return LayerS;
}

void perfbench::addTraceOverhead(Result &R, double LayerS, double TracedBusyS,
                                 double TracedPerItemS,
                                 double UntracedPerItemS) {
  R.add("trace.overhead_pct", (TracedPerItemS / UntracedPerItemS - 1) * 100,
        "%");
  R.add("trace.layer_share_pct", LayerS / TracedBusyS * 100, "%");
}

std::optional<bec::Program> perfbench::parseAndVerify(std::string_view Asm,
                                                      const std::string &Name,
                                                      uint64_t Item,
                                                      std::string &Error) {
  bec::AsmParseResult Parsed = [&] {
    Span S("ir.parse", Item);
    return bec::parseAsm(Asm, Name);
  }();
  if (!Parsed.succeeded()) {
    Error = "parse failed: " + Parsed.diagText();
    return std::nullopt;
  }
  Span S("ir.verify", Item);
  std::vector<std::string> Errs = bec::verifyProgram(*Parsed.Prog);
  if (!Errs.empty()) {
    Error = "verify failed: " + Errs.front();
    return std::nullopt;
  }
  return std::move(Parsed.Prog);
}

Analyzed perfbench::analyzeLayers(bec::AnalysisSession &S,
                                  const bec::CachedProgramPtr &P,
                                  uint64_t Item) {
  using namespace bec;
  Analyzed A;
  {
    Span Sp("sim.golden", Item);
    A.Golden = S.get<TraceQuery>(P);
  }
  {
    Span Sp("analysis.liveness", Item);
    S.get<LivenessQuery>(P);
  }
  {
    Span Sp("analysis.usedef", Item);
    S.get<UseDefQuery>(P);
  }
  {
    Span Sp("analysis.bitvalues", Item);
    S.get<BitValuesQuery>(P);
  }
  Span Sp("core.bec", Item);
  A.Bec = S.get<BECQuery>(P);
  return A;
}
