#include "util/compressed_bitset.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/kernels.h"

namespace causumx {

namespace {

// -- minimal byte codec for Serialize/Deserialize ---------------------------
// util cannot depend on the storage layer, so the few primitives the
// bitset encodings need live here: LEB128 varints and fixed-width
// little-endian scalars, with checked reads that throw on truncation.

void PutVar(std::string* out, uint64_t v) {
  while (v >= 0x80u) {
    out->push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

[[noreturn]] void Malformed(const char* what) {
  throw std::runtime_error(std::string("compressed bitset: ") + what);
}

uint64_t GetVar(const std::string& b, size_t* pos) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= b.size()) Malformed("truncated varint");
    const unsigned char byte = static_cast<unsigned char>(b[(*pos)++]);
    v |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) != 0) continue;
    // Only the shortest encoding, so Serialize reproduces the bytes.
    if ((byte == 0 && shift > 0) || (shift == 63 && byte > 1)) break;
    return v;
  }
  Malformed("overlong or non-minimal varint");
}

void PutU16Le(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFFu));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU64Le(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

uint16_t GetU16Le(const std::string& b, size_t* pos) {
  if (b.size() - *pos < 2) Malformed("truncated u16");
  const auto* p = reinterpret_cast<const unsigned char*>(b.data() + *pos);
  *pos += 2;
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint64_t GetU64Le(const std::string& b, size_t* pos) {
  if (b.size() - *pos < 8) Malformed("truncated u64");
  const auto* p = reinterpret_cast<const unsigned char*>(b.data() + *pos);
  *pos += 8;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// Number of maximal runs of consecutive set bits across the words of one
// chunk: rising edges of the bit stream, i.e. popcount(x & ~(x << 1))
// with the previous word's top bit carried into the shift.
size_t CountRuns(const uint64_t* words, size_t n_words) {
  size_t runs = 0;
  uint64_t prev_msb = 0;
  for (size_t w = 0; w < n_words; ++w) {
    const uint64_t x = words[w];
    runs += std::popcount(x & ~((x << 1) | prev_msb));
    prev_msb = x >> 63;
  }
  return runs;
}

}  // namespace

CompressedBitset CompressedBitset::FromBitset(const Bitset& bits) {
  CompressedBitset out;
  out.size_ = bits.size();
  const uint64_t* words = bits.data();
  const size_t n_chunks = (bits.size() + kChunkBits - 1) / kChunkBits;
  out.chunks_.reserve(n_chunks);
  constexpr size_t kChunkWords = kChunkBits / 64;
  for (size_t c = 0; c < n_chunks; ++c) {
    const size_t word_begin = c * kChunkWords;
    const size_t word_end = std::min(word_begin + kChunkWords,
                                     bits.num_words());
    const uint64_t* cw = words + word_begin;
    const size_t nw = word_end - word_begin;
    Container ct;
    ct.count = static_cast<uint32_t>(kernels::PopcountWords(cw, nw));
    out.count_ += ct.count;
    const size_t runs = CountRuns(cw, nw);
    const size_t array_bytes = 2 * static_cast<size_t>(ct.count);
    const size_t bitmap_bytes = 8 * nw;
    const size_t run_bytes = 4 * runs;
    // Smallest encoding wins; ties resolve run < array < bitmap so the
    // layout is deterministic (equality relies on this).
    if (run_bytes <= array_bytes && run_bytes <= bitmap_bytes) {
      ct.type = ContainerType::kRun;
      ct.u16.reserve(2 * runs);
      uint64_t prev_msb = 0;
      size_t open_start = 0;
      bool open = false;
      for (size_t w = 0; w < nw; ++w) {
        uint64_t rising = cw[w] & ~((cw[w] << 1) | prev_msb);
        uint64_t falling = ~cw[w] & ((cw[w] << 1) | prev_msb);
        prev_msb = cw[w] >> 63;
        while (rising | falling) {
          const int rb = rising ? std::countr_zero(rising) : 64;
          const int fb = falling ? std::countr_zero(falling) : 64;
          if (fb < rb) {
            // A run that started earlier ends at bit fb.
            ct.u16.push_back(static_cast<uint16_t>(open_start));
            ct.u16.push_back(
                static_cast<uint16_t>(w * 64 + fb - open_start - 1));
            open = false;
            falling &= falling - 1;
          } else {
            open_start = w * 64 + static_cast<size_t>(rb);
            open = true;
            rising &= rising - 1;
          }
        }
      }
      if (open) {
        // Run extends to the end of the chunk.
        ct.u16.push_back(static_cast<uint16_t>(open_start));
        ct.u16.push_back(
            static_cast<uint16_t>(nw * 64 - open_start - 1));
      }
      assert(ct.u16.size() == 2 * runs);
    } else if (array_bytes <= bitmap_bytes) {
      ct.type = ContainerType::kArray;
      ct.u16.reserve(ct.count);
      for (size_t w = 0; w < nw; ++w) {
        uint64_t x = cw[w];
        while (x) {
          const int b = std::countr_zero(x);
          ct.u16.push_back(static_cast<uint16_t>(w * 64 + b));
          x &= x - 1;
        }
      }
    } else {
      ct.type = ContainerType::kBitmap;
      ct.words.assign(cw, cw + nw);
    }
    out.chunks_.push_back(std::move(ct));
  }
  return out;
}

void CompressedBitset::DecompressTo(uint64_t* words) const {
  const size_t n_words = (size_ + 63) / 64;
  std::fill(words, words + n_words, uint64_t{0});
  constexpr size_t kChunkWords = kChunkBits / 64;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    uint64_t* cw = words + c * kChunkWords;
    const Container& ct = chunks_[c];
    switch (ct.type) {
      case ContainerType::kBitmap:
        std::copy(ct.words.begin(), ct.words.end(), cw);
        break;
      case ContainerType::kArray:
        for (uint16_t v : ct.u16) {
          cw[v >> 6] |= uint64_t{1} << (v & 63);
        }
        break;
      case ContainerType::kRun:
        for (size_t i = 0; i + 1 < ct.u16.size(); i += 2) {
          const size_t start = ct.u16[i];
          const size_t end = start + ct.u16[i + 1] + 1;  // exclusive
          size_t b = start;
          while (b < end) {
            const size_t w = b >> 6;
            const size_t upto = std::min(end, (w + 1) * 64);
            const uint64_t lo = ~uint64_t{0} << (b & 63);
            const uint64_t hi = (upto & 63) == 0
                                    ? ~uint64_t{0}
                                    : (uint64_t{1} << (upto & 63)) - 1;
            cw[w] |= lo & hi;
            b = upto;
          }
        }
        break;
    }
  }
}

Bitset CompressedBitset::ToBitset() const {
  Bitset out(size_);
  if (size_ != 0) DecompressTo(out.mutable_data());
  return out;
}

bool CompressedBitset::Test(size_t i) const {
  if (i >= size_) return false;
  const Container& ct = chunks_[i / kChunkBits];
  const uint16_t v = static_cast<uint16_t>(i % kChunkBits);
  switch (ct.type) {
    case ContainerType::kBitmap:
      return (ct.words[v >> 6] >> (v & 63)) & 1;
    case ContainerType::kArray:
      return std::binary_search(ct.u16.begin(), ct.u16.end(), v);
    case ContainerType::kRun: {
      // Binary search the (start, len-1) pairs for the last start <= v.
      size_t lo = 0, hi = ct.u16.size() / 2;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (ct.u16[2 * mid] <= v) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) return false;
      const size_t start = ct.u16[2 * (lo - 1)];
      const size_t len = static_cast<size_t>(ct.u16[2 * (lo - 1) + 1]) + 1;
      return v < start + len;
    }
  }
  return false;
}

size_t CompressedBitset::SizeBytes() const {
  size_t bytes = sizeof(CompressedBitset) +
                 chunks_.capacity() * sizeof(Container);
  for (const Container& ct : chunks_) {
    bytes += ct.u16.capacity() * sizeof(uint16_t) +
             ct.words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

bool CompressedBitset::operator==(const CompressedBitset& other) const {
  if (size_ != other.size_ || count_ != other.count_ ||
      chunks_.size() != other.chunks_.size()) {
    return false;
  }
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const Container& a = chunks_[c];
    const Container& b = other.chunks_[c];
    if (a.type != b.type || a.count != b.count || a.u16 != b.u16 ||
        a.words != b.words) {
      return false;
    }
  }
  return true;
}

SegmentBits SegmentBits::Choose(Bitset bits, SegmentCompression mode) {
  SegmentBits seg;
  if (mode == SegmentCompression::kNever) {
    seg.plain_ = std::move(bits);
    return seg;
  }
  CompressedBitset comp = CompressedBitset::FromBitset(bits);
  const size_t plain_bytes =
      sizeof(Bitset) + bits.num_words() * sizeof(uint64_t);
  if (mode == SegmentCompression::kAlways ||
      comp.SizeBytes() * 2 <= plain_bytes) {
    seg.comp_ = std::move(comp);
  } else {
    seg.plain_ = std::move(bits);
  }
  return seg;
}

size_t SegmentBits::size() const {
  return plain_ ? plain_->size() : comp_->size();
}

size_t SegmentBits::Count() const {
  return plain_ ? plain_->Count() : comp_->Count();
}

size_t SegmentBits::bytes() const {
  // Object bytes once (the optionals live inline) plus the heap storage
  // of whichever representation is held.
  if (plain_) {
    return sizeof(SegmentBits) + plain_->num_words() * sizeof(uint64_t);
  }
  return sizeof(SegmentBits) + comp_->SizeBytes() - sizeof(CompressedBitset);
}

Bitset SegmentBits::Materialize() const {
  return plain_ ? *plain_ : comp_->ToBitset();
}

void SegmentBits::AndIntoRange(Bitset* dst, size_t offset,
                               std::vector<uint64_t>* scratch) const {
  assert((offset & 63) == 0 && offset + size() <= dst->size());
  if (plain_) {
    dst->AndRange(offset, *plain_);
    return;
  }
  const size_t n = comp_->size();
  const size_t n_words = (n + 63) / 64;
  if (scratch->size() < n_words) scratch->resize(n_words);
  comp_->DecompressTo(scratch->data());
  uint64_t* d = dst->mutable_data() + (offset >> 6);
  const size_t full_words = n >> 6;
  kernels::AndWords(d, scratch->data(), full_words);
  const size_t rem = n & 63;
  if (rem != 0) {
    // Partial final word: rows of dst beyond the segment keep their value.
    const uint64_t mask = (uint64_t{1} << rem) - 1;
    d[full_words] &= (*scratch)[full_words] | ~mask;
  }
}

void SegmentBits::AssignIntoRange(Bitset* dst, size_t offset) const {
  assert((offset & 63) == 0 && offset + size() <= dst->size());
  if (plain_) {
    dst->AssignRange(offset, *plain_);
    return;
  }
  dst->AssignRange(offset, comp_->ToBitset());
}

void CompressedBitset::Serialize(std::string* out) const {
  PutVar(out, size_);
  PutVar(out, count_);
  PutVar(out, chunks_.size());
  for (const Container& ct : chunks_) {
    out->push_back(static_cast<char>(ct.type));
    PutVar(out, ct.count);
    PutVar(out, ct.u16.size());
    for (uint16_t v : ct.u16) PutU16Le(out, v);
    PutVar(out, ct.words.size());
    for (uint64_t w : ct.words) PutU64Le(out, w);
  }
}

CompressedBitset CompressedBitset::Deserialize(const std::string& bytes,
                                               size_t* pos) {
  CompressedBitset out;
  out.size_ = GetVar(bytes, pos);
  const uint64_t stored_count = GetVar(bytes, pos);
  const uint64_t n_chunks = GetVar(bytes, pos);
  const uint64_t expect_chunks =
      (static_cast<uint64_t>(out.size_) + kChunkBits - 1) / kChunkBits;
  if (n_chunks != expect_chunks) {
    Malformed("chunk count does not match universe size");
  }
  // Each container costs at least 4 encoded bytes, so the chunk count is
  // bounded by the remaining input — this caps allocation before any
  // container is trusted.
  if (n_chunks > (bytes.size() - *pos) / 4 + 1) {
    Malformed("implausible chunk count");
  }
  uint64_t total = 0;
  out.chunks_.reserve(n_chunks);
  for (uint64_t c = 0; c < n_chunks; ++c) {
    const size_t chunk_bits = static_cast<size_t>(
        std::min<uint64_t>(kChunkBits, out.size_ - c * kChunkBits));
    const size_t chunk_words = (chunk_bits + 63) / 64;
    if (*pos >= bytes.size()) Malformed("truncated container");
    const unsigned char type = static_cast<unsigned char>(bytes[(*pos)++]);
    if (type > static_cast<unsigned char>(ContainerType::kRun)) {
      Malformed("unknown container type");
    }
    Container ct;
    ct.type = static_cast<ContainerType>(type);
    const uint64_t count = GetVar(bytes, pos);
    if (count > chunk_bits) Malformed("container count exceeds chunk");
    ct.count = static_cast<uint32_t>(count);
    const uint64_t n_u16 = GetVar(bytes, pos);
    if (n_u16 > (bytes.size() - *pos) / 2) Malformed("truncated u16 array");
    ct.u16.reserve(n_u16);
    for (uint64_t i = 0; i < n_u16; ++i) ct.u16.push_back(GetU16Le(bytes, pos));
    const uint64_t n_words = GetVar(bytes, pos);
    if (n_words > (bytes.size() - *pos) / 8) Malformed("truncated word array");
    ct.words.reserve(n_words);
    for (uint64_t i = 0; i < n_words; ++i) {
      ct.words.push_back(GetU64Le(bytes, pos));
    }

    // Shape validation per type: everything Test/DecompressTo will index
    // with must be proven in range here, and the canonical-layout
    // invariants (sortedness, maximal runs, exact counts) that equality
    // and byte accounting rely on must hold.
    switch (ct.type) {
      case ContainerType::kArray: {
        if (!ct.words.empty()) Malformed("array container carries words");
        if (ct.u16.size() != count) Malformed("array length != count");
        for (size_t i = 0; i < ct.u16.size(); ++i) {
          if (ct.u16[i] >= chunk_bits) Malformed("array offset out of range");
          if (i > 0 && ct.u16[i] <= ct.u16[i - 1]) {
            Malformed("array offsets not strictly increasing");
          }
        }
        break;
      }
      case ContainerType::kBitmap: {
        if (!ct.u16.empty()) Malformed("bitmap container carries u16s");
        if (ct.words.size() != chunk_words) Malformed("bitmap word count");
        if (kernels::PopcountWords(ct.words.data(), ct.words.size()) !=
            count) {
          Malformed("bitmap popcount != count");
        }
        if ((chunk_bits & 63) != 0 &&
            (ct.words.back() & ~((uint64_t{1} << (chunk_bits & 63)) - 1)) !=
                0) {
          Malformed("bitmap padding bits set");
        }
        break;
      }
      case ContainerType::kRun: {
        if (!ct.words.empty()) Malformed("run container carries words");
        if (ct.u16.size() % 2 != 0) Malformed("odd run list length");
        uint64_t run_total = 0;
        size_t prev_end = 0;  // exclusive end of the previous run
        for (size_t i = 0; i + 1 < ct.u16.size(); i += 2) {
          const size_t start = ct.u16[i];
          const size_t end = start + ct.u16[i + 1] + 1;  // exclusive
          if (i > 0 && start <= prev_end) {
            // Canonical runs are maximal: a gap of at least one bit.
            Malformed("runs overlap or touch");
          }
          if (end > chunk_bits) Malformed("run exceeds chunk");
          run_total += ct.u16[i + 1] + 1;
          prev_end = end;
        }
        if (run_total != count) Malformed("run lengths != count");
        break;
      }
    }
    total += count;
    out.chunks_.push_back(std::move(ct));
  }
  if (total != stored_count) Malformed("chunk counts != total count");
  out.count_ = static_cast<size_t>(total);
  return out;
}

void SegmentBits::Serialize(std::string* out) const {
  if (plain_) {
    out->push_back(0);
    PutVar(out, plain_->size());
    for (size_t i = 0; i < plain_->num_words(); ++i) {
      PutU64Le(out, plain_->data()[i]);
    }
  } else {
    out->push_back(1);
    comp_->Serialize(out);
  }
}

SegmentBits SegmentBits::Deserialize(const std::string& bytes, size_t* pos) {
  if (*pos >= bytes.size()) Malformed("truncated segment tag");
  const unsigned char tag = static_cast<unsigned char>(bytes[(*pos)++]);
  SegmentBits seg;
  if (tag == 0) {
    const uint64_t n = GetVar(bytes, pos);
    const uint64_t n_words = (n + 63) / 64;
    // Length check before allocation so hostile sizes cannot OOM.
    if (n_words > (bytes.size() - *pos) / 8) {
      Malformed("truncated plain segment");
    }
    Bitset bits(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n_words; ++i) {
      bits.mutable_data()[i] = GetU64Le(bytes, pos);
    }
    if ((n & 63) != 0 && n_words > 0) {
      const uint64_t mask = (uint64_t{1} << (n & 63)) - 1;
      if ((bits.data()[n_words - 1] & ~mask) != 0) {
        Malformed("plain segment padding bits set");
      }
    }
    seg.plain_ = std::move(bits);
  } else if (tag == 1) {
    seg.comp_ = CompressedBitset::Deserialize(bytes, pos);
  } else {
    Malformed("unknown segment tag");
  }
  return seg;
}

}  // namespace causumx
