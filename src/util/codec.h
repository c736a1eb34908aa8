#ifndef DTRACE_UTIL_CODEC_H_
#define DTRACE_UTIL_CODEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace dtrace {

// Bit-packing codecs for the two cold-byte populations of the paged storage
// substrate (DESIGN-storage.md, "Compressed formats"):
//
//  - Sorted id lists (trace cell ids, tree child/entity lists): block-based
//    delta encoding. Ids are split into blocks of kIdBlock; each block gets
//    a skip entry {base, bit offset, mode|width} so a galloping intersection
//    can seek across blocks without decoding them. A monotone block stores
//    its first id in the skip entry and packs the kIdBlock-1 successive
//    deltas at the block's minimal bit width; a non-monotone block (tree
//    entity lists are insertion-ordered and may be unsorted after
//    maintenance) falls back to frame-of-reference — base is the block MIN
//    and all values pack as (v - min).
//  - u64 arrays (signature values): frame-of-reference packing in frames of
//    kSigFrame values, each frame headed by {min, minimal bit width}.
//
// Every encoded id-list blob is self-delimiting and starts with one TAG
// byte selecting between two layouts:
//
//  - tag 0x80|n (high bit set): SMALL, for lists of n < kIdBlock ids — the
//    dominant population (trace per-level cell lists and most tree blobs
//    average a few dozen ids). One implicit block: {u32 base, u8
//    mode|width} then the packed payload. No explicit length — the blob's
//    byte count is derived from n and the width, so the fixed overhead is
//    6 bytes (1 for an empty list) instead of the full format's 18.
//  - tag 0x00: FULL, for longer lists: {u32 total_bytes (whole blob, tag
//    included), u32 n}, a skip table of one kIdSkipBytes entry per block,
//    then the payload.
//
// Readers walk concatenated blobs — and copy them out of page runs —
// without an external directory either way (PackedIdListView::total_bytes
// gives the blob length under both layouts).
//
// Decoders take an `avail` byte bound and never read past data + avail, so
// views can sit directly on buffers with no slack bytes; `avail` may exceed
// the blob (concatenated records), only the embedded length is consumed.

/// Ids per skip block. 128 ids keep a decoded block inside one cache-line
/// pair of uint32s and make block seeks cheap relative to decode.
constexpr uint32_t kIdBlock = 128;
/// u64 values per frame-of-reference frame.
constexpr uint32_t kSigFrame = 64;

/// Bytes of one full-format skip entry: u32 base, u32 payload bit offset,
/// u8 mode|width.
constexpr size_t kIdSkipBytes = 9;
/// Full-format header after the tag byte: u32 total_bytes, u32 n.
constexpr size_t kIdHeaderBytes = 8;
/// Small-format block descriptor after the tag byte: u32 base,
/// u8 mode|width (the bit offset is implicitly 0).
constexpr size_t kIdSmallSkipBytes = 5;

/// Exact encoded size of `ids` (what EncodeIdList would append), without
/// writing anything — the sizing pass of two-pass packers.
size_t EncodedIdListBytes(std::span<const uint32_t> ids);

/// Appends the encoded form of `ids` to `out`; returns bytes appended
/// (== EncodedIdListBytes(ids)).
size_t EncodeIdList(std::span<const uint32_t> ids, std::vector<uint8_t>* out);

/// Decodes one encoded id list starting at `data` (at most `avail` readable
/// bytes) into `out` (resized; capacity reused). Returns the encoded bytes
/// consumed, or 0 — with `out` cleared — on a corrupt or truncated blob
/// (0 is unambiguous: every well-formed blob consumes at least its tag
/// byte). Callers map 0 to Status::Corruption; decoding never aborts on
/// bad *data* (encoder preconditions still DT_CHECK).
size_t DecodeIdList(const uint8_t* data, size_t avail,
                    std::vector<uint32_t>* out);

/// Zero-copy view over one encoded id list: header fields plus per-block
/// decode. The underlying bytes must outlive the view.
class PackedIdListView {
 public:
  PackedIdListView() = default;
  /// Parses the tag + header at `data`. A corrupt or truncated header —
  /// including a blob length (embedded or derived, by layout) exceeding
  /// `avail` — yields an INVALID view (valid() == false, size() == 0)
  /// rather than aborting; callers must check valid() before using it.
  PackedIdListView(const uint8_t* data, size_t avail);

  bool valid() const { return data_ != nullptr; }
  uint32_t size() const { return n_; }
  uint32_t total_bytes() const { return total_bytes_; }
  uint32_t num_blocks() const { return (n_ + kIdBlock - 1) / kIdBlock; }

  /// Number of ids in block `b`.
  uint32_t BlockCount(uint32_t b) const {
    const uint32_t first = b * kIdBlock;
    return first + kIdBlock <= n_ ? kIdBlock : n_ - first;
  }
  /// Decodes block `b` into `buf` (capacity >= kIdBlock); returns the count,
  /// or 0 on a corrupt per-block bit width (blocks exist only for nonempty
  /// lists, so a valid decode always returns >= 1). DecodeIdList checks it
  /// and surfaces Corruption.
  uint32_t DecodeBlock(uint32_t b, uint32_t* buf) const;

 private:
  // One block's skip data, uniform across the two layouts (the small
  // format's bit offset is always 0).
  struct Skip {
    uint32_t base;
    uint32_t bit_off;
    uint8_t mode_width;
  };
  Skip LoadSkip(uint32_t b) const;

  const uint8_t* data_ = nullptr;     // tag byte
  const uint8_t* payload_ = nullptr;  // first payload byte
  size_t payload_avail_ = 0;          // readable bytes from payload_
  uint32_t n_ = 0;
  uint32_t total_bytes_ = 0;
  bool small_ = false;
};

/// Exact encoded size of `values` under frame-of-reference packing.
size_t EncodedU64ArrayBytes(std::span<const uint64_t> values);

/// Appends the FoR-encoded form of `values` to `out`; returns bytes
/// appended. Layout: u32 total_bytes, u32 n, then per frame of kSigFrame
/// values a {u64 min, u8 width} header and the packed (v - min) residuals.
size_t EncodeU64Array(std::span<const uint64_t> values,
                      std::vector<uint8_t>* out);

/// Decodes one encoded u64 array at `data` (at most `avail` readable bytes)
/// into `out`; returns bytes consumed, or 0 — with `out` cleared — on a
/// corrupt or truncated array (same recoverable contract as DecodeIdList).
size_t DecodeU64Array(const uint8_t* data, size_t avail,
                      std::vector<uint64_t>* out);

/// Minimal bits to represent `v` (0 for 0).
constexpr int BitWidth64(uint64_t v) {
  int w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

/// Appends bit-packed values to a byte vector, LSB-first within each byte.
/// Cold-path writer (construction only); readers use BitReader.
class BitWriter {
 public:
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Put(uint64_t v, int width) {
    for (int done = 0; done < width;) {
      const int take = std::min(width - done, 8 - fill_);
      const uint32_t chunk =
          static_cast<uint32_t>(v >> done) & ((1u << take) - 1u);
      acc_ |= static_cast<uint8_t>(chunk << fill_);
      fill_ += take;
      done += take;
      if (fill_ == 8) {
        out_->push_back(acc_);
        acc_ = 0;
        fill_ = 0;
      }
    }
    bits_ += static_cast<uint64_t>(width);
  }

  /// Flushes the partial byte. Further Puts continue byte-aligned.
  void Close() {
    if (fill_ > 0) {
      out_->push_back(acc_);
      acc_ = 0;
      fill_ = 0;
      bits_ = (bits_ + 7) & ~uint64_t{7};
    }
  }

  /// Bits written since construction (Close rounds up to a byte).
  uint64_t bit_pos() const { return bits_; }

 private:
  std::vector<uint8_t>* out_;
  uint8_t acc_ = 0;
  int fill_ = 0;
  uint64_t bits_ = 0;
};

/// Random-access extraction of bit-packed fields from a bounded byte
/// buffer. The fast path does one unaligned 8-byte load; the bound makes
/// the tail safe without slack bytes after the buffer.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t avail) : data_(data), avail_(avail) {}

  uint64_t Read(uint64_t bit_off, int width) const {
    if (width == 0) return 0;
    const size_t byte = static_cast<size_t>(bit_off >> 3);
    const int shift = static_cast<int>(bit_off & 7);
    uint64_t w = 0;
    if (byte + 8 <= avail_) {
      std::memcpy(&w, data_ + byte, 8);
    } else if (byte < avail_) {
      std::memcpy(&w, data_ + byte, avail_ - byte);
    }
    uint64_t v = w >> shift;
    const int got = 64 - shift;
    if (width > got) {
      const uint64_t hi = byte + 8 < avail_ ? data_[byte + 8] : 0;
      v |= hi << got;
    }
    return width == 64 ? v : v & ((uint64_t{1} << width) - 1);
  }

 private:
  const uint8_t* data_;
  size_t avail_;
};

}  // namespace dtrace

#endif  // DTRACE_UTIL_CODEC_H_
