#include "util/codec.h"

#include "util/check.h"

namespace dtrace {

namespace {

// Skip-entry mode bit: set = frame-of-reference fallback (non-monotone
// block), clear = delta. Low 7 bits carry the width (<= 32 either way).
constexpr uint8_t kIdModeFoR = 0x80;
constexpr uint8_t kIdWidthMask = 0x7f;
// Tag byte: high bit set = small layout, low 7 bits = n (< kIdBlock).
// High bit clear = full layout (the tag is then always 0x00).
constexpr uint8_t kIdSmallTag = 0x80;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(uint32_t));
  std::memcpy(out->data() + at, &v, sizeof(uint32_t));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(uint32_t));
  return v;
}

// Per-block shape: monotonicity and the packed width. Shared by the sizer
// and the encoder so EncodedIdListBytes matches EncodeIdList bit for bit.
struct IdBlockPlan {
  bool monotone;
  int width;       // bits per packed value
  uint32_t base;   // first id (delta) or block min (FoR)
  uint32_t count;  // packed values: count-1 deltas or count residuals
};

IdBlockPlan PlanIdBlock(const uint32_t* ids, uint32_t count) {
  IdBlockPlan plan;
  plan.monotone = true;
  uint32_t max_delta = 0;
  for (uint32_t i = 1; i < count; ++i) {
    if (ids[i] < ids[i - 1]) {
      plan.monotone = false;
      break;
    }
    max_delta = std::max(max_delta, ids[i] - ids[i - 1]);
  }
  if (plan.monotone) {
    plan.width = BitWidth64(max_delta);
    plan.base = ids[0];
    plan.count = count - 1;
    return plan;
  }
  uint32_t mn = ids[0], mx = ids[0];
  for (uint32_t i = 1; i < count; ++i) {
    mn = std::min(mn, ids[i]);
    mx = std::max(mx, ids[i]);
  }
  plan.width = BitWidth64(mx - mn);
  plan.base = mn;
  plan.count = count;
  return plan;
}

}  // namespace

size_t EncodedIdListBytes(std::span<const uint32_t> ids) {
  const size_t n = ids.size();
  if (n < kIdBlock) {  // small layout: one implicit block, derived length
    if (n == 0) return 1;
    const IdBlockPlan plan =
        PlanIdBlock(ids.data(), static_cast<uint32_t>(n));
    return 1 + kIdSmallSkipBytes +
           (static_cast<uint64_t>(plan.count) * plan.width + 7) / 8;
  }
  const size_t blocks = (n + kIdBlock - 1) / kIdBlock;
  uint64_t payload_bits = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t first = static_cast<uint32_t>(b * kIdBlock);
    const uint32_t count =
        static_cast<uint32_t>(std::min<size_t>(kIdBlock, n - first));
    const IdBlockPlan plan = PlanIdBlock(ids.data() + first, count);
    payload_bits += static_cast<uint64_t>(plan.count) * plan.width;
  }
  return 1 + kIdHeaderBytes + blocks * kIdSkipBytes + (payload_bits + 7) / 8;
}

size_t EncodeIdList(std::span<const uint32_t> ids, std::vector<uint8_t>* out) {
  const size_t n = ids.size();
  const size_t tag_at = out->size();
  if (n < kIdBlock) {
    if (n == 0) {
      out->push_back(kIdSmallTag);
      return 1;
    }
    const IdBlockPlan plan =
        PlanIdBlock(ids.data(), static_cast<uint32_t>(n));
    out->push_back(kIdSmallTag | static_cast<uint8_t>(n));
    PutU32(out, plan.base);
    out->push_back(static_cast<uint8_t>(plan.width) |
                   (plan.monotone ? 0 : kIdModeFoR));
    BitWriter writer(out);
    if (plan.monotone) {
      for (size_t i = 1; i < n; ++i) {
        writer.Put(ids[i] - ids[i - 1], plan.width);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        writer.Put(ids[i] - plan.base, plan.width);
      }
    }
    writer.Close();
    return out->size() - tag_at;
  }

  DT_CHECK_MSG(n <= 0xffffffffu, "id list too long for the u32 header");
  const size_t blocks = (n + kIdBlock - 1) / kIdBlock;
  out->push_back(0);  // full-layout tag
  const size_t header_at = out->size();
  PutU32(out, 0);  // total_bytes, patched below
  PutU32(out, static_cast<uint32_t>(n));
  const size_t skip_at = out->size();
  out->resize(skip_at + blocks * kIdSkipBytes);

  BitWriter writer(out);
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t first = static_cast<uint32_t>(b * kIdBlock);
    const uint32_t count =
        static_cast<uint32_t>(std::min<size_t>(kIdBlock, n - first));
    const IdBlockPlan plan = PlanIdBlock(ids.data() + first, count);
    const uint64_t bit_off = writer.bit_pos();
    DT_CHECK_MSG(bit_off <= 0xffffffffu, "id-list payload exceeds u32 bits");
    uint8_t* skip = out->data() + skip_at + b * kIdSkipBytes;
    std::memcpy(skip, &plan.base, sizeof(uint32_t));
    const uint32_t off32 = static_cast<uint32_t>(bit_off);
    std::memcpy(skip + 4, &off32, sizeof(uint32_t));
    skip[8] = static_cast<uint8_t>(plan.width) |
              (plan.monotone ? 0 : kIdModeFoR);
    if (plan.monotone) {
      for (uint32_t i = 1; i < count; ++i) {
        writer.Put(ids[first + i] - ids[first + i - 1], plan.width);
      }
    } else {
      for (uint32_t i = 0; i < count; ++i) {
        writer.Put(ids[first + i] - plan.base, plan.width);
      }
    }
  }
  writer.Close();

  const size_t total = out->size() - tag_at;
  DT_CHECK_MSG(total <= 0xffffffffu, "id list exceeds the u32 length header");
  const uint32_t total32 = static_cast<uint32_t>(total);
  std::memcpy(out->data() + header_at, &total32, sizeof(uint32_t));
  return total;
}

PackedIdListView::PackedIdListView(const uint8_t* data, size_t avail) {
  // Corrupt or truncated input leaves the view invalid (data_ == nullptr,
  // n_ == 0) instead of aborting: encoded blobs are *data*, and damaged
  // data is an input condition the caller turns into Status::Corruption.
  if (avail < 1) return;  // truncated id-list tag
  const uint8_t tag = data[0];
  if ((tag & kIdSmallTag) != 0) {
    small_ = true;
    n_ = tag & 0x7f;
    if (n_ == 0) {
      data_ = data;
      total_bytes_ = 1;
      payload_ = data + 1;
      payload_avail_ = 0;
      return;
    }
    if (avail < 1 + kIdSmallSkipBytes) {  // truncated id-list header
      n_ = 0;
      return;
    }
    const uint8_t mode_width = data[1 + 4];
    const int width = mode_width & kIdWidthMask;
    if (width > 32) {  // corrupt id-list bit width
      n_ = 0;
      return;
    }
    const uint32_t packed =
        (mode_width & kIdModeFoR) != 0 ? n_ : n_ - 1;
    const uint64_t payload_bytes =
        (static_cast<uint64_t>(packed) * width + 7) / 8;
    const uint64_t total = 1 + kIdSmallSkipBytes + payload_bytes;
    if (total > avail) {  // derived length out of bounds
      n_ = 0;
      return;
    }
    data_ = data;
    total_bytes_ = static_cast<uint32_t>(total);
    payload_ = data + 1 + kIdSmallSkipBytes;
    payload_avail_ = payload_bytes;
    return;
  }
  if (avail < 1 + kIdHeaderBytes) return;  // truncated id-list header
  total_bytes_ = GetU32(data + 1);
  n_ = GetU32(data + 1 + 4);
  if (total_bytes_ < 1 + kIdHeaderBytes || total_bytes_ > avail) {
    // length header out of bounds
    n_ = 0;
    total_bytes_ = 0;
    return;
  }
  const size_t payload_off =
      1 + kIdHeaderBytes + static_cast<size_t>(num_blocks()) * kIdSkipBytes;
  if (payload_off > total_bytes_) {  // skip table truncated
    n_ = 0;
    total_bytes_ = 0;
    return;
  }
  data_ = data;
  payload_ = data + payload_off;
  payload_avail_ = total_bytes_ - payload_off;
}

PackedIdListView::Skip PackedIdListView::LoadSkip(uint32_t b) const {
  if (small_) {
    return {GetU32(data_ + 1), 0, data_[1 + 4]};
  }
  const uint8_t* skip = data_ + 1 + kIdHeaderBytes + b * kIdSkipBytes;
  return {GetU32(skip), GetU32(skip + 4), skip[8]};
}

uint32_t PackedIdListView::DecodeBlock(uint32_t b, uint32_t* buf) const {
  const Skip skip = LoadSkip(b);
  const int width = skip.mode_width & kIdWidthMask;
  // A corrupt per-block width is recoverable: 0 is unambiguous failure —
  // blocks exist only for nonempty lists and always hold >= 1 id. (The
  // BitReader below is bounds-checked, so even a lying bit offset cannot
  // read out of the payload.)
  if (width > 32) return 0;
  const uint32_t count = BlockCount(b);
  const BitReader reader(payload_, payload_avail_);
  uint64_t pos = skip.bit_off;
  if ((skip.mode_width & kIdModeFoR) == 0) {
    uint32_t prev = skip.base;
    buf[0] = prev;
    for (uint32_t i = 1; i < count; ++i) {
      prev += static_cast<uint32_t>(reader.Read(pos, width));
      pos += width;
      buf[i] = prev;
    }
  } else {
    for (uint32_t i = 0; i < count; ++i) {
      buf[i] = skip.base + static_cast<uint32_t>(reader.Read(pos, width));
      pos += width;
    }
  }
  return count;
}

size_t DecodeIdList(const uint8_t* data, size_t avail,
                    std::vector<uint32_t>* out) {
  const PackedIdListView view(data, avail);
  if (!view.valid()) {
    out->clear();
    return 0;
  }
  out->resize(view.size());
  const uint32_t blocks = view.num_blocks();
  for (uint32_t b = 0; b < blocks; ++b) {
    if (view.DecodeBlock(b, out->data() + static_cast<size_t>(b) * kIdBlock) ==
        0) {
      out->clear();
      return 0;
    }
  }
  return view.total_bytes();
}

size_t EncodedU64ArrayBytes(std::span<const uint64_t> values) {
  const size_t n = values.size();
  const size_t frames = (n + kSigFrame - 1) / kSigFrame;
  size_t bytes = kIdHeaderBytes + frames * 9;
  for (size_t f = 0; f < frames; ++f) {
    const size_t first = f * kSigFrame;
    const size_t count = std::min<size_t>(kSigFrame, n - first);
    uint64_t mn = values[first], mx = values[first];
    for (size_t i = 1; i < count; ++i) {
      mn = std::min(mn, values[first + i]);
      mx = std::max(mx, values[first + i]);
    }
    bytes += (count * static_cast<size_t>(BitWidth64(mx - mn)) + 7) / 8;
  }
  return bytes;
}

size_t EncodeU64Array(std::span<const uint64_t> values,
                      std::vector<uint8_t>* out) {
  const size_t n = values.size();
  DT_CHECK_MSG(n <= 0xffffffffu, "u64 array too long for the u32 header");
  const size_t header_at = out->size();
  PutU32(out, 0);  // total_bytes, patched below
  PutU32(out, static_cast<uint32_t>(n));
  const size_t frames = (n + kSigFrame - 1) / kSigFrame;
  for (size_t f = 0; f < frames; ++f) {
    const size_t first = f * kSigFrame;
    const size_t count = std::min<size_t>(kSigFrame, n - first);
    uint64_t mn = values[first], mx = values[first];
    for (size_t i = 1; i < count; ++i) {
      mn = std::min(mn, values[first + i]);
      mx = std::max(mx, values[first + i]);
    }
    const int width = BitWidth64(mx - mn);
    const size_t meta_at = out->size();
    out->resize(meta_at + 9);
    std::memcpy(out->data() + meta_at, &mn, sizeof(uint64_t));
    (*out)[meta_at + 8] = static_cast<uint8_t>(width);
    BitWriter writer(out);
    for (size_t i = 0; i < count; ++i) {
      writer.Put(values[first + i] - mn, width);
    }
    writer.Close();  // frames are byte-aligned
  }
  const size_t total = out->size() - header_at;
  DT_CHECK_MSG(total <= 0xffffffffu, "u64 array exceeds the u32 header");
  const uint32_t total32 = static_cast<uint32_t>(total);
  std::memcpy(out->data() + header_at, &total32, sizeof(uint32_t));
  return total;
}

size_t DecodeU64Array(const uint8_t* data, size_t avail,
                      std::vector<uint64_t>* out) {
  // Corrupt or truncated input returns 0 (never a valid consumed length —
  // every well-formed array spends at least its 8-byte header) with `out`
  // cleared; the caller maps that to Status::Corruption.
  const auto corrupt = [out]() -> size_t {
    out->clear();
    return 0;
  };
  if (avail < kIdHeaderBytes) return corrupt();  // truncated header
  const uint32_t total_bytes = GetU32(data);
  const uint32_t n = GetU32(data + 4);
  if (total_bytes < kIdHeaderBytes || total_bytes > avail) {
    return corrupt();  // length header out of bounds
  }
  out->resize(n);
  size_t off = kIdHeaderBytes;
  for (size_t first = 0; first < n; first += kSigFrame) {
    const size_t count = std::min<size_t>(kSigFrame, n - first);
    if (off + 9 > total_bytes) return corrupt();  // frame header truncated
    uint64_t mn;
    std::memcpy(&mn, data + off, sizeof(uint64_t));
    const int width = data[off + 8];
    if (width > 64) return corrupt();  // corrupt bit width
    off += 9;
    const size_t frame_bytes = (count * static_cast<size_t>(width) + 7) / 8;
    if (off + frame_bytes > total_bytes) {
      return corrupt();  // frame payload truncated
    }
    const BitReader reader(data + off, frame_bytes);
    for (size_t i = 0; i < count; ++i) {
      (*out)[first + i] = mn + reader.Read(i * static_cast<uint64_t>(width),
                                           width);
    }
    off += frame_bytes;
  }
  return total_bytes;
}

}  // namespace dtrace
