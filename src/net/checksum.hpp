// RFC 1071 internet checksum plus RFC 1624 incremental update, as used by
// NAT and TTL-decrement elements to avoid full recomputation per packet.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mdp::net {

/// One's-complement sum over `len` bytes added to `sum` (not inverted).
/// Only the folded value is specified: checksum_fold() of the result is
/// that of `sum` plus the data's 16-bit network-order words.
std::uint32_t checksum_partial(const std::byte* data, std::size_t len,
                               std::uint32_t sum = 0) noexcept;

/// Fold a partial sum and invert: the final 16-bit checksum value.
std::uint16_t checksum_fold(std::uint32_t sum) noexcept;

/// Full checksum of a buffer.
std::uint16_t checksum(const std::byte* data, std::size_t len) noexcept;

/// RFC 1624 incremental update: new checksum after a 16-bit word changes
/// from `old_word` to `new_word`, given the current checksum `old_csum`.
std::uint16_t checksum_update16(std::uint16_t old_csum, std::uint16_t old_word,
                                std::uint16_t new_word) noexcept;

/// Incremental update for a 32-bit field change (e.g. an IPv4 address).
std::uint16_t checksum_update32(std::uint16_t old_csum, std::uint32_t old_val,
                                std::uint32_t new_val) noexcept;

/// IPv4 pseudo-header partial sum for TCP/UDP checksums.
std::uint32_t pseudo_header_sum(std::uint32_t src_ip, std::uint32_t dst_ip,
                                std::uint8_t protocol,
                                std::uint16_t l4_len) noexcept;

}  // namespace mdp::net
