//===- tests/SimulatorTest.cpp - ISA semantics of the interpreter ----------===//
///
/// \file
/// Per-opcode semantics (including the RISC-V division edge cases and
/// shift-amount masking), memory/trap behaviour, fault-injection
/// mechanics, and the trace model.
///
//===----------------------------------------------------------------------===//

#include "ir/AsmParser.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace bec;

namespace {

/// Runs a snippet that leaves its result in a0 and returns it.
static uint64_t evalSnippet(const std::string &Body) {
  Program Prog = parseAsmOrDie("main:\n" + Body + "\n  ret\n", "snippet");
  Trace T = simulate(Prog);
  EXPECT_EQ(T.End, Outcome::Finished);
  EXPECT_TRUE(T.HasReturnValue);
  return T.ReturnValue;
}

TEST(SimulatorAlu, BasicArithmetic) {
  EXPECT_EQ(evalSnippet("  li t0, 40\n  addi a0, t0, 2"), 42u);
  EXPECT_EQ(evalSnippet("  li t0, 5\n  li t1, 7\n  mul a0, t0, t1"), 35u);
  EXPECT_EQ(evalSnippet("  li t0, 5\n  li t1, 7\n  sub a0, t0, t1"),
            0xfffffffeu);
  EXPECT_EQ(evalSnippet("  li t0, 0xf0\n  andi a0, t0, 0x3c"), 0x30u);
  EXPECT_EQ(evalSnippet("  li t0, 0xf0\n  ori a0, t0, 0x0f"), 0xffu);
  EXPECT_EQ(evalSnippet("  li t0, 0xff\n  xori a0, t0, 0x0f"), 0xf0u);
}

TEST(SimulatorAlu, ShiftsMaskTheAmount) {
  // RV32 uses only the low five bits of the shift amount.
  EXPECT_EQ(evalSnippet("  li t0, 1\n  li t1, 33\n  sll a0, t0, t1"), 2u);
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  li t1, 31\n  srl a0, t0, t1"),
            1u);
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  srai a0, t0, 31"),
            0xffffffffu);
}

TEST(SimulatorAlu, SetLessThan) {
  EXPECT_EQ(evalSnippet("  li t0, -1\n  li t1, 1\n  slt a0, t0, t1"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, -1\n  li t1, 1\n  sltu a0, t0, t1"), 0u);
  EXPECT_EQ(evalSnippet("  li t0, 0\n  seqz a0, t0"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, 9\n  snez a0, t0"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, 3\n  slti a0, t0, 4"), 1u);
  EXPECT_EQ(evalSnippet("  li t0, -3\n  sltiu a0, t0, 4"), 0u);
}

TEST(SimulatorAlu, RiscvDivisionEdgeCases) {
  // Division by zero: quotient all-ones, remainder = dividend; no trap.
  EXPECT_EQ(evalSnippet("  li t0, 17\n  li t1, 0\n  divu a0, t0, t1"),
            0xffffffffu);
  EXPECT_EQ(evalSnippet("  li t0, 17\n  li t1, 0\n  remu a0, t0, t1"), 17u);
  EXPECT_EQ(evalSnippet("  li t0, -17\n  li t1, 0\n  div a0, t0, t1"),
            0xffffffffu);
  EXPECT_EQ(evalSnippet("  li t0, -17\n  li t1, 0\n  rem a0, t0, t1"),
            static_cast<uint32_t>(-17));
  // Signed overflow.
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  li t1, -1\n  div a0, t0, t1"),
            0x80000000u);
  EXPECT_EQ(evalSnippet("  li t0, 0x80000000\n  li t1, -1\n  rem a0, t0, t1"),
            0u);
  EXPECT_EQ(evalSnippet("  li t0, -7\n  li t1, 2\n  div a0, t0, t1"),
            static_cast<uint32_t>(-3)); // truncation toward zero
  EXPECT_EQ(evalSnippet("  li t0, -7\n  li t1, 2\n  rem a0, t0, t1"),
            static_cast<uint32_t>(-1));
}

TEST(SimulatorAlu, X0IsHardwiredToZero) {
  EXPECT_EQ(evalSnippet("  li zero, 55\n  mv a0, zero"), 0u);
  EXPECT_EQ(evalSnippet("  addi x0, x0, 1\n  addi a0, x0, 0"), 0u);
}

TEST(SimulatorMemory, LoadStoreRoundTrip) {
  const char *Src = R"(
.data
buf:
  .zero 16
.text
main:
  la   t0, buf
  li   t1, 0x12345678
  sw   t1, 0(t0)
  lw   a0, 0(t0)
  lbu  t2, 1(t0)      # little endian: byte 1 is 0x56
  out  t2
  lhu  t3, 2(t0)      # halfword 1 is 0x1234
  out  t3
  lb   t4, 3(t0)      # sign-extended 0x12 stays 0x12
  out  t4
  ret
)";
  Program Prog = parseAsmOrDie(Src, "mem");
  Trace T = simulate(Prog);
  EXPECT_EQ(T.ReturnValue, 0x12345678u);
  std::vector<uint64_t> Outs = T.outputValues();
  ASSERT_EQ(Outs.size(), 3u);
  EXPECT_EQ(Outs[0], 0x56u);
  EXPECT_EQ(Outs[1], 0x1234u);
  EXPECT_EQ(Outs[2], 0x12u);
}

TEST(SimulatorMemory, SignExtendingLoads) {
  const char *Src = R"(
.data
buf:
  .byte 0x80, 0xff
.text
main:
  la  t0, buf
  lb  a0, 0(t0)
  ret
)";
  Program Prog = parseAsmOrDie(Src, "mem");
  EXPECT_EQ(simulate(Prog).ReturnValue, 0xffffff80u);
}

TEST(SimulatorMemory, OutOfBoundsTraps) {
  const char *Src = R"(
main:
  li  t0, 0x7ffffff0
  lw  a0, 0(t0)
  ret
)";
  Program Prog = parseAsmOrDie(Src, "trap");
  Trace T = simulate(Prog);
  EXPECT_EQ(T.End, Outcome::Trap);
  EXPECT_FALSE(T.HasReturnValue);
}

TEST(SimulatorMemory, MisalignedAccessTraps) {
  const char *Src = R"(
main:
  li  t0, 0x1001
  lw  a0, 0(t0)
  ret
)";
  Program Prog = parseAsmOrDie(Src, "trap");
  EXPECT_EQ(simulate(Prog).End, Outcome::Trap);
}

TEST(SimulatorControl, BranchesAndLoops) {
  const char *Src = R"(
main:
  li  t0, 10
  li  a0, 0
loop:
  add a0, a0, t0
  addi t0, t0, -1
  bgtz t0, loop
  ret
)";
  Program Prog = parseAsmOrDie(Src, "sum");
  EXPECT_EQ(simulate(Prog).ReturnValue, 55u);
}

TEST(SimulatorControl, CycleBudgetHangs) {
  const char *Src = R"(
main:
loop:
  j loop
)";
  Program Prog = parseAsmOrDie(Src, "hang");
  RunOptions Opts;
  Opts.MaxCycles = 100;
  Trace T = simulate(Prog, Opts);
  EXPECT_EQ(T.End, Outcome::Hang);
  EXPECT_EQ(T.Cycles, 100u);
}

TEST(SimulatorControl, BudgetHangsOnlyWhenACycleBeyondItIsWanted) {
  const char *Src = R"(
main:
loop:
  j loop
)";
  Program Prog = parseAsmOrDie(Src, "hang");
  RunOptions Opts;
  Opts.MaxCycles = 100;
  // Running exactly to the budget executes every allowed cycle and
  // leaves the run open; asking for one more cycle hangs it there.
  Interpreter I(Prog, Opts);
  I.runToCycle(40);
  EXPECT_EQ(I.cycle(), 40u);
  I.runToCycle(100);
  EXPECT_FALSE(I.done());
  EXPECT_EQ(I.cycle(), 100u);
  I.runToCycle(101);
  EXPECT_TRUE(I.done());
  EXPECT_EQ(I.cycle(), 100u);
  Trace T = I.takeTrace();
  EXPECT_EQ(T.End, Outcome::Hang);
  EXPECT_EQ(T.TraceHash, simulate(Prog, Opts).TraceHash);
}

TEST(SimulatorInjection, FlipChangesOneBit) {
  const char *Src = R"(
main:
  li  a0, 0
  nop
  nop
  ret
)";
  Program Prog = parseAsmOrDie(Src, "inj");
  // Flip bit 3 of a0 after the first instruction: returns 8.
  Trace T = simulateWithInjection(Prog, {1, 10, 3});
  EXPECT_EQ(T.ReturnValue, 8u);
  // Same flip before `li` is overwritten: masked.
  Trace T2 = simulateWithInjection(Prog, {0, 10, 3});
  EXPECT_EQ(T2.ReturnValue, 0u);
  EXPECT_EQ(T2.TraceHash, simulate(Prog).TraceHash);
}

TEST(SimulatorInjection, X0InjectionIsANop) {
  const char *Src = R"(
main:
  li  a0, 7
  ret
)";
  Program Prog = parseAsmOrDie(Src, "inj");
  Trace Golden = simulate(Prog);
  Trace T = simulateWithInjection(Prog, {0, RegZero, 5});
  EXPECT_EQ(T.TraceHash, Golden.TraceHash);
}

TEST(SimulatorTrace, HashDistinguishesControlFlow) {
  const char *Src = R"(
main:
  li  t0, 1
  beqz t0, alt
  li  a0, 10
  ret
alt:
  li  a0, 20
  ret
)";
  Program Prog = parseAsmOrDie(Src, "cf");
  Trace Golden = simulate(Prog);
  // Flipping t0's LSB after the li flips the branch: different trace AND
  // different observable (return value).
  Trace Faulty = simulateWithInjection(Prog, {1, 5, 0});
  EXPECT_NE(Faulty.TraceHash, Golden.TraceHash);
  EXPECT_NE(Faulty.ObservableHash, Golden.ObservableHash);
  EXPECT_EQ(Faulty.ReturnValue, 20u);
}

TEST(SimulatorTrace, NarrowWidthMachines) {
  const char *Src = R"(
.width 4
main:
  li  t0, 7
  addi t0, t0, 12     # 19 mod 16 = 3
  mv  a0, t0
  ret
)";
  Program Prog = parseAsmOrDie(Src, "w4");
  EXPECT_EQ(simulate(Prog).ReturnValue, 3u);
}

} // namespace

TEST(SimulatorTrace, CursorRestoreMidSequenceContinuesTheSequence) {
  std::vector<uint64_t> Words;
  for (uint64_t I = 0; I < 64; ++I)
    Words.push_back(I * 0x9e3779b97f4a7c15ull ^ (I << 7));
  TraceHasher Straight;
  for (uint64_t V : Words)
    Straight.absorb(V);

  TraceHasher Prefix;
  for (size_t I = 0; I < 23; ++I)
    Prefix.absorb(Words[I]);
  TraceHasher Resumed;
  Resumed.restore(Prefix.state());
  EXPECT_TRUE(Resumed.state() == Prefix.state());
  for (size_t I = 23; I < Words.size(); ++I)
    Resumed.absorb(Words[I]);
  EXPECT_TRUE(Resumed.state() == Straight.state());
  EXPECT_EQ(Resumed.value(), Straight.value());

  // Cursors that differ in one lane only never re-equalize under a
  // common suffix (each lane is a bijection per absorbed word), and the
  // 64-bit fold tells them apart.
  TraceCursor Other = Prefix.state();
  Other.Lane1 ^= 1;
  TraceHasher Diverged;
  Diverged.restore(Other);
  for (size_t I = 23; I < Words.size(); ++I)
    Diverged.absorb(Words[I]);
  EXPECT_EQ(Diverged.state().Lane0, Straight.state().Lane0);
  EXPECT_NE(Diverged.state().Lane1, Straight.state().Lane1);
  EXPECT_NE(Diverged.value(), Straight.value());
}
