//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
///
/// \file
/// perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
///           [--trace-out FILE] [--minimal] [--flip-verdict]
///
/// Runs one workload and prints its rows, then one JSON line with the
/// checked operation counts, the report digest and the metrics: the
/// end-to-end metrics untraced (--trace 0), the per-layer metrics from a
/// traced phase plus the tracing overhead (--trace 1). perfbench/run.py
/// builds this program and turns that line into the benchmark result.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::stoull(Value());
    else if (A == "--seconds")
      O.Seconds = std::stod(Value());
    else if (A == "--trace")
      O.Trace = Value() == "1";
    else if (A == "--trace-out")
      O.TraceOut = Value();
    else if (A == "--minimal")
      O.Minimal = true;
    else if (A == "--flip-verdict")
      O.FlipVerdict = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", A.c_str());
      return 2;
    }
  }

  Result R;
  if (O.Workload == "campaign-bundled")
    R = runCampaignWorkload(O, /*Exhaustive=*/false);
  else if (O.Workload == "campaign-sampled-exhaustive")
    R = runCampaignWorkload(O, /*Exhaustive=*/true);
  else if (O.Workload == "analyze-corpus")
    R = runAnalyzeWorkload(O);
  else if (O.Workload == "serve-mixed")
    R = runServeWorkload(O);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", P.c_str());
  std::printf("%s\n", R.json().c_str());
  return 0;
}
