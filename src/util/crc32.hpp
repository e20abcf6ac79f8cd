// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over raw bytes —
// the per-section integrity checksum of the binary snapshot format
// (graph/io_binary, shard::LocalShard::persist). Table-driven, header-only,
// with a constexpr-built table so the checksum costs one XOR + lookup per
// byte and nothing at startup.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace bfc {
namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// CRC-32 of `len` bytes at `data`. Pass a previous result as `seed` to
/// checksum a logical section split across several buffers.
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t len,
                                         std::uint32_t seed = 0) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i)
    c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

}  // namespace bfc
