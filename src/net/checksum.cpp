#include "net/checksum.hpp"

#include <bit>
#include <cstring>

namespace mdp::net {

std::uint32_t checksum_partial(const std::byte* data, std::size_t len,
                               std::uint32_t sum) noexcept {
  // Sum native 32-bit words into a 64-bit accumulator and fold. The
  // one's-complement sum is byte-order independent (RFC 1071 2.B): summed
  // in native order, it is the network-order sum byte-swapped.
  std::uint64_t acc = 0;
  while (len >= 4) {
    std::uint32_t w;
    std::memcpy(&w, data, 4);
    acc += w;
    data += 4;
    len -= 4;
  }
  if (len >= 2) {
    std::uint16_t w;
    std::memcpy(&w, data, 2);
    acc += w;
    data += 2;
    len -= 2;
  }
  if (len == 1) {
    // A trailing odd byte is the high byte of a network-order word.
    const auto b = std::to_integer<std::uint64_t>(data[0]);
    acc += std::endian::native == std::endian::little ? b : b << 8;
  }
  // Fold with end-around carry. A nonzero sum never folds to zero, so the
  // result is zero exactly when the 16-bit word sum is.
  acc = (acc & 0xffffffffu) + (acc >> 32);
  acc = (acc & 0xffffffffu) + (acc >> 32);
  auto folded = static_cast<std::uint32_t>(acc);
  folded = (folded & 0xffff) + (folded >> 16);
  folded = (folded & 0xffff) + (folded >> 16);
  auto word = static_cast<std::uint16_t>(folded);
  if constexpr (std::endian::native == std::endian::little)
    word = static_cast<std::uint16_t>(word << 8 | word >> 8);
  return sum + word;
}

std::uint16_t checksum_fold(std::uint32_t sum) noexcept {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t checksum(const std::byte* data, std::size_t len) noexcept {
  return checksum_fold(checksum_partial(data, len));
}

std::uint16_t checksum_update16(std::uint16_t old_csum, std::uint16_t old_word,
                                std::uint16_t new_word) noexcept {
  // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
  std::uint32_t sum = static_cast<std::uint16_t>(~old_csum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t checksum_update32(std::uint16_t old_csum, std::uint32_t old_val,
                                std::uint32_t new_val) noexcept {
  std::uint16_t c = old_csum;
  c = checksum_update16(c, static_cast<std::uint16_t>(old_val >> 16),
                        static_cast<std::uint16_t>(new_val >> 16));
  c = checksum_update16(c, static_cast<std::uint16_t>(old_val & 0xffff),
                        static_cast<std::uint16_t>(new_val & 0xffff));
  return c;
}

std::uint32_t pseudo_header_sum(std::uint32_t src_ip, std::uint32_t dst_ip,
                                std::uint8_t protocol,
                                std::uint16_t l4_len) noexcept {
  std::uint32_t sum = 0;
  sum += src_ip >> 16;
  sum += src_ip & 0xffff;
  sum += dst_ip >> 16;
  sum += dst_ip & 0xffff;
  sum += protocol;
  sum += l4_len;
  return sum;
}

}  // namespace mdp::net
