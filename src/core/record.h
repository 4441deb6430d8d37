#ifndef TWRS_CORE_RECORD_H_
#define TWRS_CORE_RECORD_H_

#include <cstdint>
#include <cstring>

namespace twrs {

/// Sorting key. The paper sorts 4-byte integer records; we use 64-bit keys so
/// the library is usable beyond the paper's benchmark setting. Nothing in the
/// algorithms depends on the key width.
using Key = int64_t;

/// Serialized size of one record on disk (little-endian Key).
inline constexpr size_t kRecordBytes = sizeof(Key);

/// A record tagged with the run it belongs to during run generation.
/// Records marked as belonging to a later run sink below all records of the
/// current run inside the selection heaps (§3.3).
struct TaggedRecord {
  Key key = 0;
  uint32_t run = 0;

  friend bool operator==(const TaggedRecord& a, const TaggedRecord& b) {
    return a.key == b.key && a.run == b.run;
  }
};

/// 1 when the host's in-memory integer layout already matches the on-disk
/// little-endian record format, letting the codecs degenerate to memcpy.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define TWRS_LITTLE_ENDIAN 1
#else
#define TWRS_LITTLE_ENDIAN 0
#endif

/// Serializes `key` into `out` (little-endian, kRecordBytes bytes).
inline void EncodeKey(Key key, uint8_t* out) {
  uint64_t u = static_cast<uint64_t>(key);
#if TWRS_LITTLE_ENDIAN
  std::memcpy(out, &u, kRecordBytes);
#else
  for (size_t i = 0; i < kRecordBytes; ++i) {
    out[i] = static_cast<uint8_t>(u >> (8 * i));
  }
#endif
}

/// Deserializes a key written by EncodeKey.
inline Key DecodeKey(const uint8_t* in) {
  uint64_t u = 0;
#if TWRS_LITTLE_ENDIAN
  std::memcpy(&u, in, kRecordBytes);
#else
  for (size_t i = 0; i < kRecordBytes; ++i) {
    u |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
#endif
  return static_cast<Key>(u);
}

/// Serializes keys[0..n) into out[0..n*kRecordBytes): the bulk form of
/// EncodeKey, used by the block-buffered record writers.
inline void EncodeKeysBatch(const Key* keys, size_t n, uint8_t* out) {
#if TWRS_LITTLE_ENDIAN
  // In-memory and on-disk layouts agree on little-endian hosts, so the
  // whole batch is one copy (the compiler fully vectorizes this).
  if (n > 0) std::memcpy(out, keys, n * kRecordBytes);
#else
  for (size_t i = 0; i < n; ++i) EncodeKey(keys[i], out + i * kRecordBytes);
#endif
}

/// Deserializes n records from `in` into keys[0..n): the bulk form of
/// DecodeKey, used by the block-buffered record readers.
inline void DecodeKeysBatch(const uint8_t* in, size_t n, Key* keys) {
#if TWRS_LITTLE_ENDIAN
  if (n > 0) std::memcpy(keys, in, n * kRecordBytes);
#else
  for (size_t i = 0; i < n; ++i) keys[i] = DecodeKey(in + i * kRecordBytes);
#endif
}

}  // namespace twrs

#endif  // TWRS_CORE_RECORD_H_
