//===- core/Fates.cpp - Intra-instruction coalescing rules -----------------===//

#include "core/Fates.h"

#include "support/Debug.h"

using namespace bec;

namespace {

/// Builder for the fates of one instruction.
class FateBuilder {
public:
  FateBuilder(const Instruction &I, const RegState &In, unsigned Width,
              const FateOptions &Opts)
      : I(I), In(In), Width(Width), Opts(Opts) {}

  InstrFates build();

private:
  KnownBits operand(Reg V) const {
    if (V == RegZero)
      return KnownBits::constant(0, Width);
    return In[V];
  }
  KnownBits immediate() const {
    return KnownBits::constant(static_cast<uint64_t>(I.Imm), Width);
  }

  InstrFates::OperandFates &addOperand(Reg V) {
    assert(Result.NumOperands < 2 && "too many operands");
    auto &Op = Result.Operands[Result.NumOperands++];
    Op.R = V;
    return Op;
  }

  /// A fault is equivalent to an output fault only if the result is
  /// actually stored; writes to x0 are dropped, masking the fault.
  Fate toOutput(unsigned Bit) const {
    if (!I.writesReg())
      return {FateKind::Masked, 0};
    return {FateKind::ToOutput, static_cast<uint8_t>(Bit)};
  }

  void buildMoveLike(Reg Src);
  void buildBitwise(Reg X, const KnownBits &KX, Reg Y, const KnownBits &KY,
                    bool IsAnd, bool IsOr, bool IsXor);
  void buildShift(bool Left, bool Arithmetic);
  void buildCompare();
  void evalOperand(Reg V, const KnownBits &KV, const KnownBits &KOther,
                   bool VIsLhs);
  BitValue evalCmp(const KnownBits &A, const KnownBits &B) const;

  const Instruction &I;
  const RegState &In;
  unsigned Width;
  FateOptions Opts;
  InstrFates Result;
};

} // namespace

void FateBuilder::buildMoveLike(Reg Src) {
  if (Src == RegZero)
    return;
  auto &Op = addOperand(Src);
  for (unsigned B = 0; B < Width; ++B)
    Op.Bits[B] = toOutput(B);
}

void FateBuilder::buildBitwise(Reg X, const KnownBits &KX, Reg Y,
                               const KnownBits &KY, bool IsAnd, bool IsOr,
                               bool IsXor) {
  (void)IsOr; // Implied by !IsAnd && !IsXor; only the assert reads it.
  // z = x OP y. The fate of bit i of x depends on the known value of y's
  // bit i (lines 8-25 of Algorithm 3), and symmetrically.
  auto FateFor = [&](const KnownBits &KOther, unsigned B) -> Fate {
    if (IsXor)
      return toOutput(B); // xor propagates unconditionally (lines 5-7).
    BitValue Other = KOther.bit(B);
    if (IsAnd) {
      if (Other == BitValue::Zero)
        return {FateKind::Masked, 0};
      if (Other == BitValue::One)
        return toOutput(B);
      return {};
    }
    assert(IsOr && "bitwise fate on a non-bitwise opcode");
    if (Other == BitValue::One)
      return {FateKind::Masked, 0};
    if (Other == BitValue::Zero)
      return toOutput(B);
    return {};
  };

  if (X != RegZero && X == Y) {
    // Both operands are the same storage: a single flip corrupts both.
    //   and/or x,x == mv x;   xor x,x == 0 (any flip still yields 0).
    auto &Op = addOperand(X);
    for (unsigned B = 0; B < Width; ++B)
      Op.Bits[B] = IsXor ? Fate{FateKind::Masked, 0} : toOutput(B);
    return;
  }
  if (X != RegZero) {
    auto &Op = addOperand(X);
    for (unsigned B = 0; B < Width; ++B)
      Op.Bits[B] = FateFor(KY, B);
  }
  if (Y != RegZero) {
    auto &Op = addOperand(Y);
    for (unsigned B = 0; B < Width; ++B)
      Op.Bits[B] = FateFor(KX, B);
  }
}

void FateBuilder::buildShift(bool Left, bool Arithmetic) {
  // z = x << y or x >> y (lines 26-35 of Algorithm 3). Only the shifted
  // operand's bits coalesce; the amount operand gets no rule.
  Reg X = I.Rs1;
  if (X == RegZero)
    return;
  bool AmountIsReg = opcodeFormat(I.Op) == OpFormat::RegRegReg;
  if (AmountIsReg && I.Rs2 == X)
    return; // Shift by itself: a flip perturbs both operands; no rule.
  KnownBits KAmt = AmountIsReg ? operand(I.Rs2) : immediate();
  auto [MinAmt, MaxAmt] = KAmt.shiftAmountRange();
  bool Constant = MinAmt == MaxAmt;
  auto &Op = addOperand(X);
  for (unsigned B = 0; B < Width; ++B) {
    if (Left) {
      if (B + MinAmt >= Width)
        Op.Bits[B] = {FateKind::Masked, 0}; // Shifted out for any amount.
      else if (Constant)
        Op.Bits[B] = toOutput(B + MinAmt);
      continue;
    }
    // Right shifts: low bits fall out. For arithmetic shifts the sign bit
    // is replicated into several result bits, so it has no single-output
    // equivalent (kept None unless the shift amount is zero).
    if (B < MinAmt) {
      Op.Bits[B] = {FateKind::Masked, 0};
      continue;
    }
    if (!Constant)
      continue;
    if (Arithmetic && B == Width - 1 && MinAmt != 0)
      continue;
    Op.Bits[B] = toOutput(B - MinAmt);
  }
}

BitValue FateBuilder::evalCmp(const KnownBits &A, const KnownBits &B) const {
  switch (I.Op) {
  case Opcode::SLT:
  case Opcode::SLTI:
  case Opcode::BLT:
    return KnownBits::cmpSlt(A, B);
  case Opcode::BGE: {
    BitValue Lt = KnownBits::cmpSlt(A, B);
    if (Lt == BitValue::Zero)
      return BitValue::One;
    if (Lt == BitValue::One)
      return BitValue::Zero;
    return Lt;
  }
  case Opcode::SLTU:
  case Opcode::SLTIU:
  case Opcode::BLTU:
    return KnownBits::cmpUlt(A, B);
  case Opcode::BGEU: {
    BitValue Lt = KnownBits::cmpUlt(A, B);
    if (Lt == BitValue::Zero)
      return BitValue::One;
    if (Lt == BitValue::One)
      return BitValue::Zero;
    return Lt;
  }
  case Opcode::BEQ:
    return KnownBits::cmpEq(A, B);
  case Opcode::BNE: {
    BitValue Eq = KnownBits::cmpEq(A, B);
    if (Eq == BitValue::Zero)
      return BitValue::One;
    if (Eq == BitValue::One)
      return BitValue::Zero;
    return Eq;
  }
  default:
    bec_unreachable("evalCmp on a non-comparison");
  }
}

void FateBuilder::evalOperand(Reg V, const KnownBits &KV,
                              const KnownBits &KOther, bool VIsLhs) {
  if (V == RegZero)
    return;
  BitValue Orig = VIsLhs ? evalCmp(KV, KOther) : evalCmp(KOther, KV);
  auto &Op = addOperand(V);
  for (unsigned B = 0; B < Width; ++B) {
    BitValue Bit = KV.bit(B);
    if (Bit != BitValue::Zero && Bit != BitValue::One)
      continue; // Unknown bit: the flipped value is also unknown.
    KnownBits Flipped = KV;
    Flipped.setBit(B, Bit == BitValue::Zero ? BitValue::One : BitValue::Zero);
    BitValue Res = VIsLhs ? evalCmp(Flipped, KOther) : evalCmp(KOther, Flipped);
    if (Res != BitValue::Zero && Res != BitValue::One)
      continue;
    if (Res == Orig) {
      // The flip provably does not change the outcome of this use.
      Op.Bits[B] = {FateKind::Masked, 0};
      continue;
    }
    Op.Bits[B] = {FateKind::EvalClass,
                  static_cast<uint8_t>(Res == BitValue::One ? 1 : 0)};
  }
}

void FateBuilder::buildCompare() {
  bool HasImm = opcodeFormat(I.Op) == OpFormat::RegRegImm;
  Reg X = I.Rs1;
  Reg Y = HasImm ? RegZero : I.Rs2;
  if (!HasImm && X == Y && X != RegZero) {
    // beq x,x / slt x,x / ...: both operands read the same corrupted
    // storage, so any flip leaves the (in)equality intact -> masked.
    auto &Op = addOperand(X);
    for (unsigned B = 0; B < Width; ++B)
      Op.Bits[B] = {FateKind::Masked, 0};
    return;
  }
  KnownBits KX = operand(X);
  KnownBits KY = HasImm ? immediate() : operand(Y);
  evalOperand(X, KX, KY, /*VIsLhs=*/true);
  if (!HasImm)
    evalOperand(Y, KY, KX, /*VIsLhs=*/false);
}

InstrFates FateBuilder::build() {
  switch (I.Op) {
  case Opcode::MV:
    if (Opts.BitwiseRules)
      buildMoveLike(I.Rs1);
    break;
  case Opcode::AND:
    if (Opts.BitwiseRules)
      buildBitwise(I.Rs1, operand(I.Rs1), I.Rs2, operand(I.Rs2), true, false,
                   false);
    break;
  case Opcode::ANDI:
    if (Opts.BitwiseRules)
      buildBitwise(I.Rs1, operand(I.Rs1), RegZero, immediate(), true, false,
                   false);
    break;
  case Opcode::OR:
    if (Opts.BitwiseRules)
      buildBitwise(I.Rs1, operand(I.Rs1), I.Rs2, operand(I.Rs2), false, true,
                   false);
    break;
  case Opcode::ORI:
    if (Opts.BitwiseRules)
      buildBitwise(I.Rs1, operand(I.Rs1), RegZero, immediate(), false, true,
                   false);
    break;
  case Opcode::XOR:
    if (Opts.BitwiseRules)
      buildBitwise(I.Rs1, operand(I.Rs1), I.Rs2, operand(I.Rs2), false, false,
                   true);
    break;
  case Opcode::XORI:
    if (Opts.BitwiseRules)
      buildBitwise(I.Rs1, operand(I.Rs1), RegZero, immediate(), false, false,
                   true);
    break;
  case Opcode::SLLI:
  case Opcode::SLL:
    if (Opts.BitwiseRules)
      buildShift(/*Left=*/true, /*Arithmetic=*/false);
    break;
  case Opcode::SRLI:
  case Opcode::SRL:
    if (Opts.BitwiseRules)
      buildShift(/*Left=*/false, /*Arithmetic=*/false);
    break;
  case Opcode::SRAI:
  case Opcode::SRA:
    if (Opts.BitwiseRules)
      buildShift(/*Left=*/false, /*Arithmetic=*/true);
    break;
  case Opcode::ADD:
    // add with a provably zero operand degenerates to a move.
    if (Opts.BitwiseRules && I.Rs1 != I.Rs2) {
      KnownBits K1 = operand(I.Rs1), K2 = operand(I.Rs2);
      if (K2.isConstant() && K2.constValue() == 0)
        buildMoveLike(I.Rs1);
      else if (K1.isConstant() && K1.constValue() == 0)
        buildMoveLike(I.Rs2);
    }
    break;
  case Opcode::ADDI:
    if (Opts.BitwiseRules && I.Imm == 0)
      buildMoveLike(I.Rs1);
    break;
  case Opcode::SLT:
  case Opcode::SLTU:
  case Opcode::SLTI:
  case Opcode::SLTIU:
  case Opcode::BEQ:
  case Opcode::BNE:
  case Opcode::BLT:
  case Opcode::BGE:
  case Opcode::BLTU:
  case Opcode::BGEU:
    if (Opts.EvalRules)
      buildCompare();
    break;
  default:
    // li/lui, sub, mul/div family, memory, out/ret/halt/nop, j:
    // no intra-instruction rule (Algorithm 3 has none for these).
    break;
  }
  return Result;
}

InstrFates bec::computeFates(const Instruction &I, const RegState &In,
                             unsigned Width, const FateOptions &Opts) {
  FateBuilder Builder(I, In, Width, Opts);
  return Builder.build();
}
