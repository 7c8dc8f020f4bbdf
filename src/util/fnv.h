// FNV-1a 64-bit hashing. Used for deterministic identifiers (simulated
// certificate signatures, connection ids) — NOT cryptographic.
#pragma once

#include <cstdint>
#include <string_view>

namespace origin::util {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Streaming FNV-1a state. It is a byte sink (`append`, `push_back`), so a
// writer that prints into a std::string can hash the same bytes instead,
// with no buffer: util::JsonWriter<Fnv1a64> is how HAR pages are
// fingerprinted (web::har_fingerprint).
class Fnv1a64 {
 public:
  constexpr explicit Fnv1a64(std::uint64_t seed = kFnvOffset) : h_(seed) {}

  constexpr void push_back(char c) {
    h_ ^= static_cast<std::uint8_t>(c);
    h_ *= kFnvPrime;
  }
  constexpr void append(std::string_view data) {
    for (char c : data) push_back(c);
  }
  constexpr std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

constexpr std::uint64_t fnv1a64(std::string_view data,
                                std::uint64_t seed = kFnvOffset) {
  Fnv1a64 h(seed);
  h.append(data);
  return h.value();
}

constexpr std::uint64_t fnv1a64_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = kFnvOffset;
  for (int i = 0; i < 8; ++i) {
    h ^= (a >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  for (int i = 0; i < 8; ++i) {
    h ^= (b >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace origin::util
