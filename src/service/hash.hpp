#pragma once

/// \file hash.hpp
/// \brief The two hashes of the catalog service.
///
/// Content addresses: blobs (.fgl / .v documents) are addressed by the first
/// 128 bits of the SHA-256 digest of their bytes, rendered as 32 lower-case
/// hex digits (\ref mnt::svc::content_hash). The address is stable across
/// platforms and process runs — it is part of the on-disk format, of every
/// download URL and of every download ETag, so it must never change. 128
/// bits make accidental collisions (which would silently alias two distinct
/// layouts under one blob) a non-event, unlike the 64-bit FNV-1a address
/// used by manifest version 1. Shard names and load()'s blob checks use the
/// same function.
///
/// Page validators: the ETag of a rendered catalog page is MurmurHash3_x64_128
/// of its bytes (\ref mnt::svc::murmur3_x64_128, used by
/// \ref mnt::svc::make_etag). A page's bytes change only when a publish
/// changes the catalog, and no client chooses them, so a validator needs
/// equal tags for equal bytes and different tags for the bodies one server
/// actually renders — not resistance to a chosen collision. MurmurHash3
/// hashes a 10 KB page at about 7 GB/s, SHA-256 at about 250 MB/s
/// (bench/micro_io `page_etag`, 4-vCPU Xeon), which made SHA-256 most of
/// the cost of a rendered page.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace mnt::svc
{

/// SHA-256 (FIPS 180-4) over \p bytes. Self-contained single-shot
/// implementation — the store hashes whole in-memory serializations, so no
/// streaming interface is needed.
[[nodiscard]] inline std::array<std::uint8_t, 32> sha256(const std::string_view bytes) noexcept
{
    constexpr std::array<std::uint32_t, 64> k{
        0x428a2f98U, 0x71374491U, 0xb5c0fbcfU, 0xe9b5dba5U, 0x3956c25bU, 0x59f111f1U, 0x923f82a4U, 0xab1c5ed5U,
        0xd807aa98U, 0x12835b01U, 0x243185beU, 0x550c7dc3U, 0x72be5d74U, 0x80deb1feU, 0x9bdc06a7U, 0xc19bf174U,
        0xe49b69c1U, 0xefbe4786U, 0x0fc19dc6U, 0x240ca1ccU, 0x2de92c6fU, 0x4a7484aaU, 0x5cb0a9dcU, 0x76f988daU,
        0x983e5152U, 0xa831c66dU, 0xb00327c8U, 0xbf597fc7U, 0xc6e00bf3U, 0xd5a79147U, 0x06ca6351U, 0x14292967U,
        0x27b70a85U, 0x2e1b2138U, 0x4d2c6dfcU, 0x53380d13U, 0x650a7354U, 0x766a0abbU, 0x81c2c92eU, 0x92722c85U,
        0xa2bfe8a1U, 0xa81a664bU, 0xc24b8b70U, 0xc76c51a3U, 0xd192e819U, 0xd6990624U, 0xf40e3585U, 0x106aa070U,
        0x19a4c116U, 0x1e376c08U, 0x2748774cU, 0x34b0bcb5U, 0x391c0cb3U, 0x4ed8aa4aU, 0x5b9cca4fU, 0x682e6ff3U,
        0x748f82eeU, 0x78a5636fU, 0x84c87814U, 0x8cc70208U, 0x90befffaU, 0xa4506cebU, 0xbef9a3f7U, 0xc67178f2U};

    std::array<std::uint32_t, 8> h{0x6a09e667U, 0xbb67ae85U, 0x3c6ef372U, 0xa54ff53aU,
                                   0x510e527fU, 0x9b05688cU, 0x1f83d9abU, 0x5be0cd19U};

    const auto rotr = [](const std::uint32_t x, const unsigned n) noexcept -> std::uint32_t
    { return (x >> n) | (x << (32U - n)); };

    // message schedule: the padded message is processed in 64-byte chunks
    // without materializing the padding — `take` yields message bytes, then
    // 0x80, zeros, and the 64-bit big-endian bit length
    const std::uint64_t bit_length = static_cast<std::uint64_t>(bytes.size()) * 8U;
    const std::size_t total = ((bytes.size() + 8U) / 64U + 1U) * 64U;
    const auto take = [&](const std::size_t i) noexcept -> std::uint8_t
    {
        if (i < bytes.size())
        {
            return static_cast<std::uint8_t>(bytes[i]);
        }
        if (i == bytes.size())
        {
            return 0x80U;
        }
        if (i >= total - 8U)
        {
            return static_cast<std::uint8_t>(bit_length >> ((total - 1U - i) * 8U));
        }
        return 0U;
    };

    for (std::size_t chunk = 0; chunk < total; chunk += 64U)
    {
        std::array<std::uint32_t, 64> w{};
        for (std::size_t i = 0; i < 16U; ++i)
        {
            w[i] = (static_cast<std::uint32_t>(take(chunk + 4U * i)) << 24U) |
                   (static_cast<std::uint32_t>(take(chunk + 4U * i + 1U)) << 16U) |
                   (static_cast<std::uint32_t>(take(chunk + 4U * i + 2U)) << 8U) |
                   static_cast<std::uint32_t>(take(chunk + 4U * i + 3U));
        }
        for (std::size_t i = 16U; i < 64U; ++i)
        {
            const auto s0 = rotr(w[i - 15U], 7U) ^ rotr(w[i - 15U], 18U) ^ (w[i - 15U] >> 3U);
            const auto s1 = rotr(w[i - 2U], 17U) ^ rotr(w[i - 2U], 19U) ^ (w[i - 2U] >> 10U);
            w[i] = w[i - 16U] + s0 + w[i - 7U] + s1;
        }

        auto [a, b, c, d, e, f, g, hh] = h;
        for (std::size_t i = 0; i < 64U; ++i)
        {
            const auto s1 = rotr(e, 6U) ^ rotr(e, 11U) ^ rotr(e, 25U);
            const auto ch = (e & f) ^ (~e & g);
            const auto temp1 = hh + s1 + ch + k[i] + w[i];
            const auto s0 = rotr(a, 2U) ^ rotr(a, 13U) ^ rotr(a, 22U);
            const auto maj = (a & b) ^ (a & c) ^ (b & c);
            const auto temp2 = s0 + maj;
            hh = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        h[0] += a;
        h[1] += b;
        h[2] += c;
        h[3] += d;
        h[4] += e;
        h[5] += f;
        h[6] += g;
        h[7] += hh;
    }

    std::array<std::uint8_t, 32> digest{};
    for (std::size_t i = 0; i < 8U; ++i)
    {
        digest[4U * i] = static_cast<std::uint8_t>(h[i] >> 24U);
        digest[4U * i + 1U] = static_cast<std::uint8_t>(h[i] >> 16U);
        digest[4U * i + 2U] = static_cast<std::uint8_t>(h[i] >> 8U);
        digest[4U * i + 3U] = static_cast<std::uint8_t>(h[i]);
    }
    return digest;
}

/// The first \p count bytes of \p digest as lower-case hex digits, two per
/// byte.
template <std::size_t N>
[[nodiscard]] std::string hex_digits(const std::array<std::uint8_t, N>& digest, const std::size_t count = N)
{
    std::string hex(2U * count, '0');
    for (std::size_t i = 0; i < count; ++i)
    {
        hex[2U * i] = "0123456789abcdef"[digest[i] >> 4U];
        hex[2U * i + 1U] = "0123456789abcdef"[digest[i] & 0xFU];
    }
    return hex;
}

/// Content address of a blob: the first 16 bytes of sha256 as 32 lower-case
/// hex digits.
[[nodiscard]] inline std::string content_hash(const std::string_view bytes)
{
    return hex_digits(sha256(bytes), 16U);
}

/// MurmurHash3_x64_128 (Austin Appleby, public domain) of \p bytes with
/// \p seed: the reference implementation's 16 output bytes, h1 then h2,
/// each little-endian. Blocks are read little-endian too, so every host
/// computes the same digest.
[[nodiscard]] inline std::array<std::uint8_t, 16> murmur3_x64_128(const std::string_view bytes,
                                                                 const std::uint32_t seed = 0) noexcept
{
    constexpr std::uint64_t c1 = 0x87c37b91114253d5ULL;
    constexpr std::uint64_t c2 = 0x4cf5ad432745937fULL;
    const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::size_t size = bytes.size();

    const auto load_le = [](const unsigned char* p, const std::size_t n) noexcept
    {
        std::uint64_t word = 0;
        if (n == 8U && std::endian::native == std::endian::little)
        {
            std::memcpy(&word, p, 8U);
            return word;
        }
        for (std::size_t i = 0; i < n; ++i)
        {
            word |= static_cast<std::uint64_t>(p[i]) << (8U * i);
        }
        return word;
    };
    const auto mix_k1 = [](std::uint64_t k) noexcept { return std::rotl(k * c1, 31) * c2; };
    const auto mix_k2 = [](std::uint64_t k) noexcept { return std::rotl(k * c2, 33) * c1; };
    const auto fmix = [](std::uint64_t k) noexcept
    {
        k ^= k >> 33U;
        k *= 0xff51afd7ed558ccdULL;
        k ^= k >> 33U;
        k *= 0xc4ceb9fe1a85ec53ULL;
        return k ^ (k >> 33U);
    };

    std::uint64_t h1 = seed;
    std::uint64_t h2 = seed;
    const std::size_t body = size - size % 16U;
    for (std::size_t i = 0; i < body; i += 16U)
    {
        h1 ^= mix_k1(load_le(data + i, 8U));
        h1 = (std::rotl(h1, 27) + h2) * 5U + 0x52dce729U;
        h2 ^= mix_k2(load_le(data + i + 8U, 8U));
        h2 = (std::rotl(h2, 31) + h1) * 5U + 0x38495ab5U;
    }

    const std::size_t tail = size - body;
    if (tail > 8U)
    {
        h2 ^= mix_k2(load_le(data + body + 8U, tail - 8U));
    }
    if (tail > 0U)
    {
        h1 ^= mix_k1(load_le(data + body, tail < 8U ? tail : 8U));
    }

    h1 ^= size;
    h2 ^= size;
    h1 += h2;
    h2 += h1;
    h1 = fmix(h1);
    h2 = fmix(h2);
    h1 += h2;
    h2 += h1;

    std::array<std::uint8_t, 16> digest{};
    for (std::size_t i = 0; i < 8U; ++i)
    {
        digest[i] = static_cast<std::uint8_t>(h1 >> (8U * i));
        digest[8U + i] = static_cast<std::uint8_t>(h2 >> (8U * i));
    }
    return digest;
}

}  // namespace mnt::svc
