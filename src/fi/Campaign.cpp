//===- fi/Campaign.cpp - Campaign vocabulary and fault-space enumeration --===//
//
// Execution lives in fi/Engine.cpp (the sharded, resumable executor);
// sampling and fingerprints in fi/CampaignPlan.cpp. This file keeps the
// shared vocabulary and the three raw plan enumerations.
//
//===----------------------------------------------------------------------===//

#include "fi/Campaign.h"

#include "support/Debug.h"

#include <algorithm>

using namespace bec;

const char *bec::faultEffectName(FaultEffect E) {
  switch (E) {
  case FaultEffect::Masked:
    return "masked";
  case FaultEffect::Benign:
    return "benign";
  case FaultEffect::SDC:
    return "sdc";
  case FaultEffect::Trap:
    return "trap";
  case FaultEffect::Hang:
    return "hang";
  }
  bec_unreachable("invalid fault effect");
}

PlannedRun bec::exhaustiveRun(uint64_t Index, unsigned Width) {
  uint64_t PerCycle = uint64_t(NumRegs) * Width;
  return {Index / PerCycle, static_cast<Reg>(Index / Width % NumRegs),
          static_cast<uint8_t>(Index % Width), 0, -1};
}

std::vector<PlannedRun> bec::planCampaign(const BECAnalysis &A,
                                          const Trace &Golden, PlanKind Kind,
                                          uint64_t MaxCycles) {
  const Program &Prog = A.program();
  const FaultSpace &FS = A.space();
  unsigned W = Prog.Width;
  uint64_t Limit = MaxCycles ? std::min<uint64_t>(MaxCycles, Golden.Cycles)
                             : Golden.Cycles;
  std::vector<PlannedRun> Plan;

  if (Kind == PlanKind::Exhaustive) {
    uint64_t N = exhaustivePopulation(Limit, W);
    Plan.reserve(N);
    for (uint64_t I = 0; I < N; ++I)
      Plan.push_back(exhaustiveRun(I, W));
    return Plan;
  }

  // Segment-based plans: walk the golden trace; a segment of register V
  // opens after the cycle that accesses V.
  int64_t SegmentId = 0;
  for (uint64_t C = 0; C < Limit; ++C) {
    uint32_t P = Golden.Executed[C];
    const Instruction &I = Prog.instr(P);
    if (isHalt(I.Op))
      break;
    auto [ApBegin, ApEnd] = FS.pointsOfInstr(P);
    for (uint32_t Ap = ApBegin; Ap < ApEnd; ++Ap) {
      const auto &Summary = A.summary(Ap);
      Reg V = FS.point(Ap).R;
      ++SegmentId;
      if (!Summary.LiveAfter)
        continue;
      if (Kind == PlanKind::ValueLevel) {
        for (unsigned B = 0; B < W; ++B)
          Plan.push_back({C + 1, V, static_cast<uint8_t>(B),
                          A.classOf(FS.faultIndex(Ap, B)), SegmentId});
        continue;
      }
      // BitLevel: one representative bit per non-masked class.
      uint64_t Seen = 0; // bit mask of already-planned bits via class
      for (unsigned B = 0; B < W; ++B) {
        if (Summary.MaskedMask & (uint64_t(1) << B))
          continue;
        uint32_t Rep = A.classOf(FS.faultIndex(Ap, B));
        bool Dup = false;
        for (unsigned B2 = 0; B2 < B; ++B2)
          if ((Seen >> B2) & 1) {
            if (A.classOf(FS.faultIndex(Ap, B2)) == Rep) {
              Dup = true;
              break;
            }
          }
        if (Dup)
          continue;
        Seen |= uint64_t(1) << B;
        Plan.push_back({C + 1, V, static_cast<uint8_t>(B), Rep, SegmentId});
      }
    }
  }
  return Plan;
}
