//===- support/Hash.h - Stable non-cryptographic hashes ---------------------===//
///
/// \file
/// Hash building blocks that are stable across runs and platforms.
/// Neither is keyed or collision resistant: they guard against accidents,
/// not against inputs built to collide them.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SUPPORT_HASH_H
#define BEC_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace bec {

/// MurmurHash3's 64-bit finalizer: a bijection in which every input bit
/// affects every output bit.
inline uint64_t avalanche64(uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

/// The 64-bit FNV-1a hash, one byte at a time. It backs the values that
/// are persisted or pinned: the campaign plan fingerprint (checkpoint
/// headers), the fuzz options fingerprint and the gateway's ring
/// positions. It is not the trace hash — sim/Trace.h's TraceHasher
/// absorbs whole words.
class Fnv64 {
public:
  void absorbByte(uint8_t Byte) {
    Hash ^= Byte;
    Hash *= 0x100000001b3ull;
  }
  /// Absorbs the eight bytes of \p Value, least significant first.
  void absorb(uint64_t Value) {
    for (unsigned I = 0; I < 8; ++I)
      absorbByte(static_cast<uint8_t>(Value >> (8 * I)));
  }
  void absorbBytes(std::string_view S) {
    for (unsigned char C : S)
      absorbByte(C);
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ull;
};

} // namespace bec

#endif // BEC_SUPPORT_HASH_H
