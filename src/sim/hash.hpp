#pragma once
// The hash mixers behind config fingerprints, cell keys, store checksums and
// state fingerprints. Their values are persisted: ledgers record config
// fingerprints, cell seeds and store file names derive from cell
// fingerprints, and every store entry carries an FNV-1a checksum. Changing
// any constant here changes every ledger and invalidates every stored cell.

#include <cstdint>
#include <string_view>

namespace mkos::sim {

/// FNV-1a 64 offset basis: the usual start value for the two FNV mixers.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over the 8 bytes of `v`, least significant byte first.
[[nodiscard]] inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a 64 over a byte string.
[[nodiscard]] inline std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-sensitive combine for state fingerprints: fold `v` into `h`, then
/// multiply and xor-shift so nearby inputs spread across all bits.
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

}  // namespace mkos::sim
