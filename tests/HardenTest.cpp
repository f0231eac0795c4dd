//===- tests/HardenTest.cpp - Selective hardening subsystem tests ---------===//
///
/// \file
/// End-to-end and unit coverage of src/harden/: the vulnerability ranking
/// decomposition, the three protection transforms, the budgeted selector,
/// and — the subsystem's contract — that `bec harden` style hardening of
/// every bundled workload at a 10% budget yields a verifier-clean program
/// with bit-identical observable output and strictly lower residual
/// vulnerability, with every fault-injection probe into a protected
/// window detected.
///
//===----------------------------------------------------------------------===//

#include "core/Metrics.h"
#include "harden/Harden.h"
#include "harden/VulnerabilityRank.h"
#include "ir/AsmParser.h"
#include "ir/Verifier.h"
#include "sim/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace bec;

namespace {

//===----------------------------------------------------------------------===//
// VulnerabilityRank
//===----------------------------------------------------------------------===//

TEST(VulnerabilityRankTest, DecomposesVulnerabilityExactly) {
  for (const Workload &W : allWorkloads()) {
    Program Prog = loadWorkload(W);
    BECAnalysis A = BECAnalysis::run(Prog);
    Trace Golden = simulate(Prog);
    VulnerabilityRank Rank = VulnerabilityRank::run(A, Golden.Executed);
    EXPECT_EQ(Rank.total(), computeVulnerability(A, Golden.Executed))
        << W.Name;
    // Per-register and per-instruction attributions are both complete
    // decompositions of the same total.
    uint64_t RegSum = 0, InstrSum = 0;
    for (Reg R = 0; R < NumRegs; ++R)
      RegSum += Rank.regScore(R);
    for (uint32_t P = 0; P < Prog.size(); ++P)
      InstrSum += Rank.instrScore(P);
    EXPECT_EQ(RegSum, Rank.total()) << W.Name;
    EXPECT_EQ(InstrSum, Rank.total()) << W.Name;
  }
}

TEST(VulnerabilityRankTest, RankedDefsAreSortedByScore) {
  Program Prog = loadWorkload(*findWorkload("bitcount"));
  BECAnalysis A = BECAnalysis::run(Prog);
  Trace Golden = simulate(Prog);
  VulnerabilityRank Rank = VulnerabilityRank::run(A, Golden.Executed);
  std::vector<uint32_t> Order = Rank.rankedDefs();
  ASSERT_FALSE(Order.empty());
  for (size_t I = 1; I < Order.size(); ++I)
    EXPECT_GE(Rank.defScore(Order[I - 1]), Rank.defScore(Order[I]));
}

//===----------------------------------------------------------------------===//
// IR transform utility
//===----------------------------------------------------------------------===//

TEST(InsertInstructionsTest, RemapsTargetsAndEntry) {
  Program Prog = parseAsmOrDie(R"(
.width 32
main:
  li t0, 3
loop:
  addi t0, t0, -1
  bne t0, zero, loop
  ret
)",
                               "insert-test");
  ASSERT_TRUE(verifyProgram(Prog).empty());
  Trace Before = simulate(Prog);

  // Insert a NOP before the loop header (index 1): the back edge must
  // follow it onto the inserted instruction.
  Instruction Nop;
  Nop.Op = Opcode::NOP;
  Prog.insertInstructions(1, {&Nop, 1});
  Prog.buildCFG();
  ASSERT_TRUE(verifyProgram(Prog).empty());
  EXPECT_EQ(Prog.instr(1).Op, Opcode::NOP);
  EXPECT_EQ(Prog.instr(3).Op, Opcode::BNE);
  // Branch to old index 1 now lands on the NOP at index 1 (runs the
  // inserted code first).
  EXPECT_EQ(Prog.instr(3).Target, 1);

  Trace After = simulate(Prog);
  EXPECT_EQ(After.End, Outcome::Finished);
  EXPECT_EQ(After.ObservableHash, Before.ObservableHash);
  // 3 loop iterations execute the NOP 3 times.
  EXPECT_EQ(After.Cycles, Before.Cycles + 3);

  // Entry shifts when the insertion happens before it.
  Program Entry = parseAsmOrDie(R"(
.width 32
main:
  li a0, 7
  ret
)",
                                "entry-test");
  Entry.insertInstructions(0, {&Nop, 1});
  Entry.buildCFG();
  Trace T = simulate(Entry);
  EXPECT_EQ(T.ReturnValue, 7u);
}

//===----------------------------------------------------------------------===//
// Window duplication
//===----------------------------------------------------------------------===//

const char *StraightLineAsm = R"(
.width 32
main:
  li t0, 5
  li t1, 7
  add t2, t0, t1
  li t3, 1
  li t4, 2
  add t5, t2, t3
  out t5
  mv a0, t5
  ret
)";

TEST(DuplicationTest, WindowedCheckDetectsEveryInWindowFlip) {
  HardenedProgram HP;
  HP.Prog = parseAsmOrDie(StraightLineAsm, "straight");
  Trace Golden = simulate(HP.Prog);

  BECAnalysis A = BECAnalysis::run(HP.Prog);
  VulnerabilityRank Rank = VulnerabilityRank::run(A, Golden.Executed);
  std::vector<uint64_t> DefScore(HP.Prog.size());
  for (uint32_t P = 0; P < HP.Prog.size(); ++P)
    DefScore[P] = Rank.defScore(P);
  std::vector<DupCandidate> Cands = findDupCandidates(HP, DefScore);
  // Find the candidate protecting the `add t2` def at index 2.
  const DupCandidate *C = nullptr;
  for (const DupCandidate &Cand : Cands)
    if (Cand.Def == 2)
      C = &Cand;
  ASSERT_NE(C, nullptr);
  applyDuplication(HP, *C);

  ASSERT_TRUE(verifyProgram(HP.Prog).empty());
  ASSERT_EQ(HP.Sites.size(), 1u);
  const ProtectedSite &S = HP.Sites[0];
  EXPECT_EQ(S.Kind, ProtectKind::Duplicate);
  EXPECT_EQ(HP.Prog.instr(S.DupIdx).Op, Opcode::ADD);
  EXPECT_EQ(HP.Prog.instr(S.DupIdx).Rd, S.Shadow);
  EXPECT_EQ(HP.Prog.instr(S.CheckIdx).Op, Opcode::BNE);

  // Fault-free behaviour is bit-identical.
  Trace Hardened = simulate(HP.Prog);
  EXPECT_EQ(Hardened.End, Outcome::Finished);
  EXPECT_EQ(Hardened.ObservableHash, Golden.ObservableHash);

  // Every bit flip of t2 (and of the shadow) anywhere inside the window
  // must end in the detector's trap.
  uint64_t DefCycle = 0;
  for (uint64_t Cyc = 0; Cyc < Hardened.Executed.size(); ++Cyc)
    if (Hardened.Executed[Cyc] == S.DefIdx)
      DefCycle = Cyc;
  uint64_t CheckCycle = DefCycle;
  for (uint64_t Cyc = DefCycle; Cyc < Hardened.Executed.size(); ++Cyc)
    if (Hardened.Executed[Cyc] == S.CheckIdx) {
      CheckCycle = Cyc;
      break;
    }
  ASSERT_GT(CheckCycle, DefCycle);
  for (uint64_t Cyc = DefCycle + 1; Cyc <= CheckCycle; ++Cyc)
    for (unsigned Bit = 0; Bit < HP.Prog.Width; Bit += 7) {
      Trace T = simulateWithInjection(HP.Prog, {Cyc, S.Orig, Bit});
      EXPECT_EQ(T.End, Outcome::Trap)
          << "cycle " << Cyc << " bit " << Bit << " escaped the check";
    }
  Trace ShadowFlip =
      simulateWithInjection(HP.Prog, {DefCycle + 1, S.Shadow, 3});
  EXPECT_EQ(ShadowFlip.End, Outcome::Trap);
}

//===----------------------------------------------------------------------===//
// Register-granular duplication
//===----------------------------------------------------------------------===//

const char *AccumulatorLoopAsm = R"(
.width 32
main:
  li s0, 0
  li t0, 10
loop:
  add s0, s0, t0
  addi t0, t0, -1
  bne t0, zero, loop
  out s0
  mv a0, s0
  ret
)";

TEST(DuplicationTest, RegisterShadowChainCarriesFaultFreeValue) {
  HardenedProgram HP;
  HP.Prog = parseAsmOrDie(AccumulatorLoopAsm, "accumulator");
  Trace Golden = simulate(HP.Prog);
  ASSERT_EQ(Golden.ReturnValue, 55u); // 10 + 9 + ... + 1.

  applyRegisterDuplication(HP, {/*R=*/8 /*s0*/, 1});
  ASSERT_TRUE(verifyProgram(HP.Prog).empty());
  ASSERT_EQ(HP.Sites.size(), 1u);
  const ProtectedSite &S = HP.Sites[0];
  EXPECT_EQ(S.Kind, ProtectKind::DuplicateReg);
  EXPECT_EQ(S.Orig, 8);

  Trace Hardened = simulate(HP.Prog);
  EXPECT_EQ(Hardened.End, Outcome::Finished);
  EXPECT_EQ(Hardened.ObservableHash, Golden.ObservableHash);
  EXPECT_EQ(Hardened.ReturnValue, 55u);

  // The chain def `add s0, s0, t0` must have a shadow recompute reading
  // the shadow, not s0 (otherwise a corrupted s0 would poison the shadow
  // and the check would pass).
  bool FoundChainDup = false;
  for (uint32_t P = 0; P < HP.Prog.size(); ++P) {
    const Instruction &I = HP.Prog.instr(P);
    if (I.Op == Opcode::ADD && I.Rd == S.Shadow) {
      FoundChainDup = true;
      EXPECT_EQ(I.Rs1, S.Shadow);
      EXPECT_NE(I.Rs2, S.Orig);
    }
  }
  EXPECT_TRUE(FoundChainDup);

  // Flips of the accumulator at every point of the run are detected or
  // provably masked (identical architectural trace) — except the one
  // residual cycle per checked use where the flip lands between the check
  // and the consuming read. The residual-vulnerability metric counts
  // exactly those cycles as uncovered.
  unsigned Detected = 0, Silent = 0;
  for (uint64_t Cyc = 1; Cyc < Hardened.Cycles; ++Cyc) {
    Trace T = simulateWithInjection(HP.Prog, {Cyc, S.Orig, 13});
    if (T.End == Outcome::Trap)
      ++Detected;
    else if (T.TraceHash != Hardened.TraceHash)
      ++Silent;
  }
  EXPECT_GT(Detected, 0u);
  // `out s0` escapes end in the later check's trap; only the final
  // `mv a0, s0` consumption gap can corrupt silently.
  EXPECT_LE(Silent, 1u);
}

//===----------------------------------------------------------------------===//
// Live-range narrowing
//===----------------------------------------------------------------------===//

TEST(NarrowingTest, SinkingShortensTheSegmentAndPreservesSemantics) {
  // The def of a0 sinks past four unrelated instructions toward its first
  // reader. Its sources t0/t1 are read again *after* that reader, so
  // their live ranges do not grow and the move is a strict win.
  const char *Asm = R"(
.width 32
main:
  li t0, 41
  li t1, 1
  add a0, t0, t1
  li t2, 2
  li t3, 3
  out t2
  out t3
  out a0
  out t0
  out t1
  ret
)";
  HardenedProgram HP;
  HP.Prog = parseAsmOrDie(Asm, "sinkable");
  Trace Golden = simulate(HP.Prog);
  BECAnalysis A = BECAnalysis::run(HP.Prog);
  VulnerabilityRank Rank = VulnerabilityRank::run(A, Golden.Executed);
  std::vector<uint64_t> DefScore(HP.Prog.size());
  for (uint32_t P = 0; P < HP.Prog.size(); ++P)
    DefScore[P] = Rank.defScore(P);

  std::vector<SinkCandidate> Cands = findSinkCandidates(HP, DefScore);
  // `li t0, 41` (index 0) is a block leader and must not be offered; the
  // def of a0 (index 2) can sink down to its reader at index 7.
  const SinkCandidate *C = nullptr;
  for (const SinkCandidate &Cand : Cands) {
    EXPECT_NE(Cand.From, 0u);
    if (Cand.From == 2)
      C = &Cand;
  }
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->To, 7u); // First reader: `out a0`.

  uint64_t Before = computeVulnerability(A, Golden.Executed);
  applySinking(HP, *C);
  ASSERT_TRUE(verifyProgram(HP.Prog).empty());
  EXPECT_EQ(HP.Prog.instr(6).Op, Opcode::ADD); // Landed at To - 1.
  Trace After = simulate(HP.Prog);
  EXPECT_EQ(After.ObservableHash, Golden.ObservableHash);
  EXPECT_EQ(After.Cycles, Golden.Cycles);
  BECAnalysis A2 = BECAnalysis::run(HP.Prog);
  uint64_t AfterVuln = computeVulnerability(A2, After.Executed);
  EXPECT_LT(AfterVuln, Before);
}

//===----------------------------------------------------------------------===//
// Residual vulnerability
//===----------------------------------------------------------------------===//

TEST(ResidualVulnerabilityTest, EqualsPlainMetricWithoutSites) {
  for (const Workload &W : allWorkloads()) {
    Program Prog = loadWorkload(W);
    HardenedProgram HP;
    HP.Prog = Prog;
    BECAnalysis A = BECAnalysis::run(Prog);
    Trace Golden = simulate(Prog);
    EXPECT_EQ(computeResidualVulnerability(A, Golden.Executed, HP),
              computeVulnerability(A, Golden.Executed))
        << W.Name;
  }
}

//===----------------------------------------------------------------------===//
// The subsystem contract: all eight workloads at a 10% budget
//===----------------------------------------------------------------------===//

TEST(HardenTest, AllWorkloadsAtTenPercentBudget) {
  for (const Workload &W : allWorkloads()) {
    Program Prog = loadWorkload(W);
    Trace Golden = simulate(Prog);

    HardenOptions Opts;
    Opts.BudgetPercent = 10.0;
    HardenResult R = hardenProgram(Prog, Opts);

    // The hardened program passes the IR verifier.
    EXPECT_TRUE(verifyProgram(R.HP.Prog).empty()) << W.Name;

    // Bit-identical workload output under the interpreter.
    Trace Hardened = simulate(R.HP.Prog);
    EXPECT_EQ(Hardened.End, Outcome::Finished) << W.Name;
    EXPECT_EQ(Hardened.ObservableHash, Golden.ObservableHash) << W.Name;
    EXPECT_EQ(Hardened.outputValues(), Golden.outputValues()) << W.Name;
    EXPECT_EQ(Hardened.ReturnValue, Golden.ReturnValue) << W.Name;

    // Strictly lower live-fault-site vulnerability, within budget.
    EXPECT_LT(R.ResidualVuln, R.BaselineVuln) << W.Name;
    EXPECT_LE(R.costPercent(), 10.0) << W.Name;
    EXPECT_GT(R.NumDuplicated + R.NumNarrowed, 0u) << W.Name;

    // Closed loop: re-analysis agrees and every fault-injection probe
    // into a protected window is caught.
    BECAnalysis A = BECAnalysis::run(R.HP.Prog);
    EXPECT_EQ(computeResidualVulnerability(A, Hardened.Executed, R.HP),
              R.ResidualVuln)
        << W.Name;
    HardenValidation V = validateHardening(R, Prog);
    EXPECT_TRUE(V.ok()) << W.Name << ": " << V.DetectionsCaught << "/"
                        << V.DetectionProbes << " probes caught";
    EXPECT_GT(V.DetectionProbes, 0u) << W.Name;
  }
}

TEST(HardenTest, ZeroBudgetAddsNoDynamicInstructions) {
  for (const char *Name : {"bitcount", "CRC32"}) {
    Program Prog = loadWorkload(*findWorkload(Name));
    HardenOptions Opts;
    Opts.BudgetPercent = 0.0;
    HardenResult R = hardenProgram(Prog, Opts);
    EXPECT_EQ(R.HardenedCycles, R.BaselineCycles) << Name;
    EXPECT_EQ(R.NumDuplicated, 0u) << Name;
    HardenValidation V = validateHardening(R, Prog);
    EXPECT_TRUE(V.ok()) << Name;
  }
}

TEST(HardenTest, LargerBudgetsNeverHurt) {
  Program Prog = loadWorkload(*findWorkload("CRC32"));
  uint64_t Prev = UINT64_MAX;
  for (double Budget : {2.0, 5.0, 10.0, 20.0}) {
    HardenOptions Opts;
    Opts.BudgetPercent = Budget;
    HardenResult R = hardenProgram(Prog, Opts);
    EXPECT_LE(R.costPercent(), Budget);
    if (Prev != UINT64_MAX) {
      EXPECT_LE(R.ResidualVuln, Prev) << "budget " << Budget;
    }
    Prev = R.ResidualVuln;
  }
}

TEST(HardenTest, NarrowWidthProgramsUseAHaltDetector) {
  // The paper's 4-bit motivating example is register-only: the detector
  // cannot use the misaligned-load trap and falls back to a halt.
  const char *MotivatingAsm = R"(
.width 4
main:
  li   a0, 0
  li   a1, 7
loop:
  andi a2, a1, 1
  andi a3, a1, 3
  addi a1, a1, -1
  seqz a2, a2
  snez a3, a3
  and  a2, a2, a3
  add  a0, a0, a2
  bnez a1, loop
  ret
)";
  Program Prog = parseAsmOrDie(MotivatingAsm, "motivating");
  Trace Golden = simulate(Prog);
  HardenOptions Opts;
  Opts.BudgetPercent = 20.0;
  HardenResult R = hardenProgram(Prog, Opts);
  EXPECT_LT(R.ResidualVuln, R.BaselineVuln);
  Trace Hardened = simulate(R.HP.Prog);
  EXPECT_EQ(Hardened.ObservableHash, Golden.ObservableHash);
  EXPECT_EQ(Hardened.ReturnValue, 2u);
  ASSERT_GE(R.HP.DetectorIdx, 0);
  for (uint32_t P = static_cast<uint32_t>(R.HP.DetectorIdx);
       P < R.HP.Prog.size(); ++P)
    EXPECT_NE(R.HP.Prog.instr(P).Op, Opcode::LW);
  HardenValidation V = validateHardening(R, Prog);
  EXPECT_TRUE(V.ok());
}

} // namespace
