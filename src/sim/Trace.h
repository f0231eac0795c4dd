//===- sim/Trace.h - Architectural execution traces ------------------------===//
///
/// \file
/// Execution traces in the sense of the paper's validation section: "a
/// sequence of executed instructions, side effects caused by the
/// instructions executed such as memory accesses, and observable outcomes
/// of the program". Two fault-injection runs are equivalent iff their
/// traces are identical; the campaign engine compares traces by a rolling
/// 128-bit hash, folded to 64 bits per finished run, so that millions of
/// runs need not be archived.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SIM_TRACE_H
#define BEC_SIM_TRACE_H

#include "support/Hash.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bec {

/// How a run ended.
enum class Outcome : uint8_t {
  Finished, ///< Reached ret/halt.
  Trap,     ///< Memory fault (out of bounds or misaligned access).
  Hang,     ///< Exceeded the cycle budget.
};

const char *outcomeName(Outcome O);

/// One observable side effect.
struct TraceEvent {
  enum class Kind : uint8_t { Store, Out };
  Kind K;
  uint64_t Addr;  ///< Store address (0 for Out).
  uint64_t Value; ///< Stored/emitted value.
  uint8_t Size;   ///< Store size in bytes (0 for Out).
};

/// The full 128-bit state of a TraceHasher, one word per lane: the
/// "trace cursor" piece of an interpreter checkpoint.
struct TraceCursor {
  uint64_t Lane0 = 0;
  uint64_t Lane1 = 0;
  bool operator==(const TraceCursor &) const = default;
};

/// Incremental hasher used for both the full-trace hash and the
/// observable-output hash. Two independent 64-bit lanes each absorb a
/// whole word per call — xor it in, multiply by an odd constant, fold
/// the high half down with a right xorshift — so the interpreter pays
/// one short dependency chain per absorbed word, not eight.
///
/// Every step is a bijection of the lane for a fixed word (xor, odd
/// multiply and xorshift are all invertible), so two runs that absorb
/// the same suffix from restored-equal cursors end with equal hashes,
/// and runs whose cursors ever differ never re-equalize under a common
/// suffix: that is what lets a restored checkpoint continue a run, and
/// what makes cursor equality a sound continuation identity.
class TraceHasher {
public:
  void absorb(uint64_t Value) {
    Lane0 = (Lane0 ^ Value) * 0x9e3779b97f4a7c15ull;
    Lane0 ^= Lane0 >> 29;
    Lane1 = (Lane1 ^ Value) * 0xc2b2ae3d27d4eb4full;
    Lane1 ^= Lane1 >> 32;
  }

  /// The 64-bit trace hash: both lanes folded through a full-avalanche
  /// finalizer (bijective in each lane for a fixed other lane).
  uint64_t value() const { return avalanche64(Lane0 ^ avalanche64(Lane1)); }

  TraceCursor state() const { return {Lane0, Lane1}; }
  /// Resets the hasher to a previously observed state().
  void restore(const TraceCursor &C) {
    Lane0 = C.Lane0;
    Lane1 = C.Lane1;
  }

private:
  uint64_t Lane0 = 0xcbf29ce484222325ull;
  uint64_t Lane1 = 0x6a09e667f3bcc908ull;
};

/// A (possibly abbreviated) record of one program execution.
struct Trace {
  /// Executed instruction index per cycle (empty if recording was off).
  std::vector<uint32_t> Executed;
  /// Side effects in program order (empty if recording was off).
  std::vector<TraceEvent> Events;
  uint64_t Cycles = 0;
  uint64_t ReturnValue = 0;
  bool HasReturnValue = false;
  Outcome End = Outcome::Finished;

  /// Hash of the complete architectural trace (instructions + side effects
  /// + outcome). Equal hashes are treated as identical traces.
  uint64_t TraceHash = 0;
  /// Hash of the externally observable behaviour only (out-events,
  /// return value, outcome): used to classify SDC vs. benign.
  uint64_t ObservableHash = 0;

  /// Values emitted by `out` instructions (requires recording).
  std::vector<uint64_t> outputValues() const {
    std::vector<uint64_t> Result;
    for (const TraceEvent &E : Events)
      if (E.K == TraceEvent::Kind::Out)
        Result.push_back(E.Value);
    return Result;
  }

  /// Approximate archival size in bytes, as used by the Table I disk-space
  /// accounting (4 bytes per executed instruction, 18 per event).
  uint64_t approxByteSize() const {
    return Cycles * 4 + Events.size() * 18 + 16;
  }
};

} // namespace bec

#endif // BEC_SIM_TRACE_H
