//===- sim/Interpreter.cpp - RISC-V functional simulator -------------------===//

#include "sim/Interpreter.h"

#include "support/Debug.h"

#include <algorithm>

using namespace bec;

const char *bec::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Finished:
    return "finished";
  case Outcome::Trap:
    return "trap";
  case Outcome::Hang:
    return "hang";
  }
  bec_unreachable("invalid outcome");
}

Interpreter::Interpreter(const Program &Prog, RunOptions Opts)
    : Prog(&Prog), Opts(Opts), PC(Prog.Entry) {
  M.reset(Prog);
}

namespace {

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

uint64_t getU64(const uint8_t *Data) {
  uint64_t V = 0;
  for (unsigned I = 0; I < 8; ++I)
    V |= uint64_t(Data[I]) << (8 * I);
  return V;
}

/// Format tag of the MachineState encoding; bump on layout changes.
/// Version 2: 128-bit (two-lane) hash cursors.
constexpr uint64_t MachineStateTag = 0xbec0057a7e000002ull;

void putCursor(std::vector<uint8_t> &Out, const TraceCursor &C) {
  putU64(Out, C.Lane0);
  putU64(Out, C.Lane1);
}

TraceCursor getCursor(const uint8_t *Data) {
  return {getU64(Data), getU64(Data + 8)};
}

/// Tag, width, PC, cycle, flags, return value, then two 128-bit hash
/// cursors (ten words), the register file and the memory length.
constexpr size_t FixedBytes = 10 * 8 + NumRegs * 8 + 8;

} // namespace

uint64_t MachineState::byteSize() const {
  return FixedBytes + M.memory().size();
}

std::vector<uint8_t> MachineState::serialize() const {
  std::vector<uint8_t> Out;
  Out.reserve(byteSize());
  putU64(Out, MachineStateTag);
  putU64(Out, M.width());
  putU64(Out, PC);
  putU64(Out, CycleCount);
  putU64(Out, (uint64_t(Done) << 0) | (uint64_t(HasReturnValue) << 1) |
                  (static_cast<uint64_t>(End) << 8));
  putU64(Out, ReturnValue);
  putCursor(Out, FullHashState);
  putCursor(Out, ObsHashState);
  for (uint64_t R : M.regs())
    putU64(Out, R);
  putU64(Out, M.memory().size());
  Out.insert(Out.end(), M.memory().begin(), M.memory().end());
  return Out;
}

std::optional<MachineState> MachineState::deserialize(const uint8_t *Data,
                                                      size_t Size) {
  if (Size < FixedBytes || getU64(Data) != MachineStateTag)
    return std::nullopt;
  MachineState S;
  uint64_t Width = getU64(Data + 8);
  if (Width == 0 || Width > 64)
    return std::nullopt;
  S.PC = static_cast<uint32_t>(getU64(Data + 16));
  S.CycleCount = getU64(Data + 24);
  uint64_t Flags = getU64(Data + 32);
  S.Done = Flags & 1;
  S.HasReturnValue = (Flags >> 1) & 1;
  uint64_t EndByte = (Flags >> 8) & 0xff;
  if (EndByte > static_cast<uint64_t>(Outcome::Hang))
    return std::nullopt;
  S.End = static_cast<Outcome>(EndByte);
  S.ReturnValue = getU64(Data + 40);
  S.FullHashState = getCursor(Data + 48);
  S.ObsHashState = getCursor(Data + 64);
  std::array<uint64_t, NumRegs> Regs;
  for (unsigned R = 0; R < NumRegs; ++R)
    Regs[R] = getU64(Data + 80 + 8 * R);
  uint64_t MemSize = getU64(Data + 80 + 8 * NumRegs);
  if (Size != FixedBytes + MemSize)
    return std::nullopt;
  std::vector<uint8_t> Mem(Data + FixedBytes, Data + FixedBytes + MemSize);
  S.M.restoreParts(static_cast<unsigned>(Width), Regs, std::move(Mem));
  return S;
}

MachineState Interpreter::snapshot() const {
  assert(!Opts.Record && "snapshots cover hash-only runs; recorded "
                         "Executed/Events vectors are not part of the state");
  MachineState S;
  S.M = M;
  S.PC = PC;
  S.CycleCount = CycleCount;
  S.Done = Done;
  S.FullHashState = FullHash.state();
  S.ObsHashState = ObsHash.state();
  S.End = Result.End;
  S.ReturnValue = Result.ReturnValue;
  S.HasReturnValue = Result.HasReturnValue;
  return S;
}

void Interpreter::restore(const MachineState &S) {
  assert(!Opts.Record && "snapshots cover hash-only runs; recorded "
                         "Executed/Events vectors are not part of the state");
  M = S.M;
  PC = S.PC;
  CycleCount = S.CycleCount;
  Done = S.Done;
  Result = Trace{};
  Result.End = S.End;
  Result.ReturnValue = S.ReturnValue;
  Result.HasReturnValue = S.HasReturnValue;
  FullHash.restore(S.FullHashState);
  ObsHash.restore(S.ObsHashState);
}

void Interpreter::finish(Outcome End) {
  Done = true;
  Result.End = End;
  FullHash.absorb(0x9e3700 + static_cast<uint64_t>(End));
}

Trace Interpreter::takeTrace() {
  assert(Done && "takeTrace before the run ended");
  Result.Cycles = CycleCount;
  // Outcome and return value enter both hashes at the end.
  ObsHash.absorb(static_cast<uint64_t>(Result.End));
  ObsHash.absorb(Result.HasReturnValue ? Result.ReturnValue + 1 : 0);
  FullHash.absorb(Result.HasReturnValue ? Result.ReturnValue + 1 : 0);
  Result.TraceHash = FullHash.value();
  Result.ObservableHash = ObsHash.value();
  return std::move(Result);
}

void Interpreter::runToCycle(uint64_t Cycle) {
  if (Done || Cycle <= CycleCount)
    return;
  // The budget check leaves the hot loop: run to the nearer of the two
  // limits, then hang if the caller still wants cycles the budget denies.
  uint64_t Limit = std::min(Cycle, Opts.MaxCycles);
  if (Opts.Record)
    runLoop<true>(Limit);
  else
    runLoop<false>(Limit);
  if (!Done && Cycle > CycleCount)
    finish(Outcome::Hang);
}

template <bool Record> void Interpreter::runLoop(uint64_t Limit) {
  const Instruction *Instrs = Prog->Instrs.data();
  const unsigned W = M.width();
  const uint64_t Mask = M.mask();
  // Locals, not members: the byte stores into memory below may alias
  // any member, and would otherwise force these back to memory on every
  // cycle.
  uint32_t Pc = PC;
  uint64_t Cycles = CycleCount;
  TraceHasher Full = FullHash;
  Outcome End = Outcome::Finished;

  auto ShiftAmount = [W](uint64_t V) -> unsigned {
    if ((W & (W - 1)) == 0)
      return static_cast<unsigned>(V & (W - 1));
    return static_cast<unsigned>(V % W);
  };

  while (Cycles < Limit) {
    const Instruction &I = Instrs[Pc];
    uint64_t A = M.reg(I.Rs1);
    uint64_t B = M.reg(I.Rs2);
    uint64_t Imm = static_cast<uint64_t>(I.Imm) & Mask;
    uint32_t NextPC = Pc + 1;
    uint64_t Addr = 0;

    Full.absorb(Pc);
    if constexpr (Record)
      Result.Executed.push_back(Pc);

    // Effective address of a Bytes-wide access; out of bounds or
    // misaligned traps.
    auto InBounds = [&](unsigned Bytes) {
      Addr = (A + Imm) & Mask;
      return Addr % Bytes == 0 && Addr + Bytes <= M.memSize();
    };
    auto Store = [&](uint64_t Value, unsigned Bytes) {
      M.store(Addr, Value, Bytes);
      Full.absorb(0x5700 + Addr);
      Full.absorb(Value);
      if constexpr (Record)
        Result.Events.push_back({TraceEvent::Kind::Store, Addr, Value,
                                 static_cast<uint8_t>(Bytes)});
    };

    switch (I.Op) {
    case Opcode::LI:
      M.setReg(I.Rd, Imm);
      break;
    case Opcode::LUI:
      M.setReg(I.Rd, (static_cast<uint64_t>(I.Imm) << 12) & Mask);
      break;
    case Opcode::MV:
      M.setReg(I.Rd, A);
      break;
    case Opcode::ADD:
      M.setReg(I.Rd, A + B);
      break;
    case Opcode::SUB:
      M.setReg(I.Rd, A - B);
      break;
    case Opcode::AND:
      M.setReg(I.Rd, A & B);
      break;
    case Opcode::OR:
      M.setReg(I.Rd, A | B);
      break;
    case Opcode::XOR:
      M.setReg(I.Rd, A ^ B);
      break;
    case Opcode::SLL:
      M.setReg(I.Rd, A << ShiftAmount(B));
      break;
    case Opcode::SRL:
      M.setReg(I.Rd, truncate(A, W) >> ShiftAmount(B));
      break;
    case Opcode::SRA:
      M.setReg(I.Rd,
               static_cast<uint64_t>(signExtend(A, W) >>
                                     static_cast<int64_t>(ShiftAmount(B))));
      break;
    case Opcode::SLT:
      M.setReg(I.Rd, signExtend(A, W) < signExtend(B, W) ? 1 : 0);
      break;
    case Opcode::SLTU:
      M.setReg(I.Rd, A < B ? 1 : 0);
      break;
    case Opcode::ADDI:
      M.setReg(I.Rd, A + Imm);
      break;
    case Opcode::ANDI:
      M.setReg(I.Rd, A & Imm);
      break;
    case Opcode::ORI:
      M.setReg(I.Rd, A | Imm);
      break;
    case Opcode::XORI:
      M.setReg(I.Rd, A ^ Imm);
      break;
    case Opcode::SLLI:
      M.setReg(I.Rd, A << I.Imm);
      break;
    case Opcode::SRLI:
      M.setReg(I.Rd, truncate(A, W) >> I.Imm);
      break;
    case Opcode::SRAI:
      M.setReg(I.Rd, static_cast<uint64_t>(signExtend(A, W) >> I.Imm));
      break;
    case Opcode::SLTI:
      M.setReg(I.Rd, signExtend(A, W) < I.Imm ? 1 : 0);
      break;
    case Opcode::SLTIU:
      M.setReg(I.Rd, A < Imm ? 1 : 0);
      break;
    case Opcode::MUL:
      M.setReg(I.Rd, A * B);
      break;
    case Opcode::MULHU:
      if (W <= 32)
        M.setReg(I.Rd, (A * B) >> W);
      else
        M.setReg(I.Rd, static_cast<uint64_t>(
                           (static_cast<__uint128_t>(A) * B) >> W));
      break;
    case Opcode::DIV: {
      int64_t SA = signExtend(A, W), SB = signExtend(B, W);
      if (SB == 0)
        M.setReg(I.Rd, allOnesValue(W));
      else if (A == signedMinValue(W) && SB == -1)
        M.setReg(I.Rd, signedMinValue(W));
      else
        M.setReg(I.Rd, truncate(static_cast<uint64_t>(SA / SB), W));
      break;
    }
    case Opcode::DIVU:
      M.setReg(I.Rd, B == 0 ? allOnesValue(W) : A / B);
      break;
    case Opcode::REM: {
      int64_t SA = signExtend(A, W), SB = signExtend(B, W);
      if (SB == 0)
        M.setReg(I.Rd, A);
      else if (A == signedMinValue(W) && SB == -1)
        M.setReg(I.Rd, 0);
      else
        M.setReg(I.Rd, truncate(static_cast<uint64_t>(SA % SB), W));
      break;
    }
    case Opcode::REMU:
      M.setReg(I.Rd, B == 0 ? A : A % B);
      break;
    case Opcode::BEQ:
      if (A == B)
        NextPC = static_cast<uint32_t>(I.Target);
      break;
    case Opcode::BNE:
      if (A != B)
        NextPC = static_cast<uint32_t>(I.Target);
      break;
    case Opcode::BLT:
      if (signExtend(A, W) < signExtend(B, W))
        NextPC = static_cast<uint32_t>(I.Target);
      break;
    case Opcode::BGE:
      if (signExtend(A, W) >= signExtend(B, W))
        NextPC = static_cast<uint32_t>(I.Target);
      break;
    case Opcode::BLTU:
      if (A < B)
        NextPC = static_cast<uint32_t>(I.Target);
      break;
    case Opcode::BGEU:
      if (A >= B)
        NextPC = static_cast<uint32_t>(I.Target);
      break;
    case Opcode::J:
      NextPC = static_cast<uint32_t>(I.Target);
      break;
    case Opcode::LW:
      if (!InBounds(4))
        goto Trapped;
      M.setReg(I.Rd, M.loadUnsigned(Addr, 4));
      break;
    case Opcode::LH:
      if (!InBounds(2))
        goto Trapped;
      M.setReg(I.Rd, truncate(static_cast<uint64_t>(
                                  signExtend(M.loadUnsigned(Addr, 2), 16)),
                              W));
      break;
    case Opcode::LHU:
      if (!InBounds(2))
        goto Trapped;
      M.setReg(I.Rd, M.loadUnsigned(Addr, 2));
      break;
    case Opcode::LB:
      if (!InBounds(1))
        goto Trapped;
      M.setReg(I.Rd, truncate(static_cast<uint64_t>(
                                  signExtend(M.loadUnsigned(Addr, 1), 8)),
                              W));
      break;
    case Opcode::LBU:
      if (!InBounds(1))
        goto Trapped;
      M.setReg(I.Rd, M.loadUnsigned(Addr, 1));
      break;
    case Opcode::SW:
      if (!InBounds(4))
        goto Trapped;
      Store(B & 0xffffffff, 4);
      break;
    case Opcode::SH:
      if (!InBounds(2))
        goto Trapped;
      Store(B & 0xffff, 2);
      break;
    case Opcode::SB:
      if (!InBounds(1))
        goto Trapped;
      Store(B & 0xff, 1);
      break;
    case Opcode::OUT:
      Full.absorb(0xBEC0u + A);
      ObsHash.absorb(A);
      if constexpr (Record)
        Result.Events.push_back({TraceEvent::Kind::Out, 0, A, 0});
      break;
    case Opcode::RET:
      Result.ReturnValue = M.reg(RegA0);
      Result.HasReturnValue = true;
      [[fallthrough]];
    case Opcode::HALT:
      ++Cycles;
      End = Outcome::Finished;
      goto Ended;
    case Opcode::NOP:
      break;
    }

    Pc = NextPC;
    ++Cycles;
  }
  PC = Pc;
  CycleCount = Cycles;
  FullHash = Full;
  return;

Trapped:
  End = Outcome::Trap;
Ended:
  PC = Pc;
  CycleCount = Cycles;
  FullHash = Full;
  finish(End);
}

Trace bec::simulate(const Program &Prog, RunOptions Opts) {
  Interpreter Interp(Prog, Opts);
  Interp.run();
  return Interp.takeTrace();
}

Trace bec::simulateWithInjection(const Program &Prog, const Injection &Inj,
                                 RunOptions Opts) {
  Interpreter Interp(Prog, Opts);
  Interp.runToCycle(Inj.AfterCycle);
  Interp.machine().flipRegBit(Inj.R, Inj.Bit);
  Interp.run();
  return Interp.takeTrace();
}
