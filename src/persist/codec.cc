#include "persist/codec.hh"

#include <array>

namespace chisel::persist {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected CRC-32, computed once at first
 * use: [0] is the bytewise table, and [k][i] is the CRC of byte i
 * followed by k zero bytes, so eight lookups advance eight bytes.
 */
const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
            t[0][i] = c;
        }
        for (size_t k = 1; k < t.size(); ++k) {
            for (uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        }
        return t;
    }();
    return tables;
}

/** Four bytes from @p p, little-endian on any host. */
uint32_t
le32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // anonymous namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const CrcTables &t = crcTables();
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; len >= 8; bytes += 8, len -= 8) {
        uint32_t lo = c ^ le32(bytes);
        uint32_t hi = le32(bytes + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++bytes, --len)
        c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace chisel::persist
