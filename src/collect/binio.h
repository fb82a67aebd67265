// Shared little-endian binary codec and section frame for every durable
// format derived from the schema layer.
//
// One writer/reader pair serves every durable record: the write-ahead
// manifest (collect/manifest.h), the v3 snapshot meta file
// (collect/column_snapshot.h) and the resume options blob (home/resume.h).
// The writer also builds the fleet summary's comparison bytes
// (analysis/fleet.h), which nothing reads back. Rows are not records: spill
// sections and snapshot stripes both store them in the column encoding of
// collect/column_view.h. `value()` encodes one reflected member type by
// forwarding to ColumnCodec<V> (column_view.h), the single table of
// serialisable member types: a record field of a new type fails to compile
// until its codec is added there, and a value's record bytes are its column
// bytes by construction. Only std::string differs between the two layouts:
// a record carries it u32-length-prefixed, a column as offsets plus a blob.
//
// BinWriter::value and BinReader::value share a name on purpose: a binary
// record states its field list once, as one function template over the
// codec, which a BinWriter instantiates to encode and a BinReader to decode
// (WindowFields below, HomeInfoFields, the manifest records, the resume
// options and the snapshot meta table).
// A field stored wider than its member says so with value_as<W>.
//
// The other shared layout is the section frame (SectionFormat): spill
// sections and v3 column sections wrap their bodies in the same 16-byte
// header and 24-byte CRC32C footer, and only SectionFormat writes or checks
// one.
//
// All integers are encoded little-endian byte by byte (core/little_endian.h),
// independent of host endianness. Doubles are IEEE-754 bit patterns in a u64.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "collect/column_view.h"
#include "collect/schema.h"
#include "core/crc32c.h"
#include "core/io.h"
#include "core/little_endian.h"

namespace bismark::collect {

class BinWriter {
 public:
  void u32(std::uint32_t v) { value(v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  void raw(const char* data, std::size_t n) { buf_.append(data, n); }

  /// One reflected member value, in its ColumnCodec encoding.
  template <typename V>
  void value(const V& v) {
    ColumnCodec<V>::Store(buf_, v);
  }
  void value(const std::string& v) { str(v); }
  /// A member stored as the wider type W (a width the layout fixed).
  template <typename W, typename V>
  void value_as(const V& v) {
    value(static_cast<W>(v));
  }
  /// A list's u32 length; the field list then visits each element.
  template <typename List>
  void count(const List& items) {
    u32(static_cast<std::uint32_t>(items.size()));
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Reads what BinWriter wrote. A read past the end returns zero values and
/// latches failed(); callers check it once after a whole record.
class BinReader {
 public:
  BinReader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool at_end() const { return p_ == end_; }
  /// Latch failed() for a value its codec rejected.
  void fail() { failed_ = true; }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    value(v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(p_, n);
    p_ += n;
    return s;
  }
  /// Consume N bytes; true when they equal `magic`.
  template <std::size_t N>
  bool magic(const char (&magic)[N]) {
    if (!need(N)) return false;
    const bool match = std::memcmp(p_, magic, N) == 0;
    p_ += N;
    return match;
  }

  template <typename V>
  void value(V& v) {
    if (!need(ColumnCodec<V>::kWidth)) {
      v = V{};
      return;
    }
    v = ColumnCodec<V>::Load(p_);
    p_ += ColumnCodec<V>::kWidth;
  }
  void value(std::string& v) { v = str(); }
  template <typename W, typename V>
  void value_as(V& v) {
    W wide{};
    value(wide);
    v = static_cast<V>(wide);
  }
  /// Read a list's u32 length and size `items` to it. Every element takes
  /// at least one byte, so a length past the bytes left fails the read
  /// instead of allocating.
  template <typename List>
  void count(List& items) {
    const std::uint32_t n = u32();
    if (n > static_cast<std::size_t>(end_ - p_)) failed_ = true;
    items.resize(failed_ ? 0 : n);
  }

 private:
  bool need(std::size_t n) {
    if (failed_ || static_cast<std::size_t>(end_ - p_) < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool failed_{false};
};

/// Visit `rec`'s `members` in the order listed: a record whose durable
/// fields are plain members states its field list as one call.
template <typename Io, typename Rec, typename... Members>
void MemberFields(Io& io, Rec& rec, Members... members) {
  (io.value(rec.*members), ...);
}

/// The Table 2 windows in their durable order, each stored as start then
/// end. The v3 snapshot meta file and the resume options blob share it.
template <typename Io, typename Windows>
void WindowFields(Io& io, Windows& w) {
  for (auto* window : {&w.heartbeats, &w.uptime, &w.capacity, &w.devices, &w.wifi, &w.traffic}) {
    io.value(window->start);
    io.value(window->end);
  }
}

/// Approximate in-memory footprint of one row: the struct itself plus any
/// string payloads. Drives the spill budget accounting, so it only has to
/// be proportionate, not exact.
template <typename T>
[[nodiscard]] std::size_t ApproxRowBytes(const T& row) {
  std::size_t n = sizeof(T);
  std::apply(
      [&](const auto&... field) {
        const auto add = [&](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
            n += v.size();
          }
        };
        (add(row.*(field.member)), ...);
      },
      Schema<T>::Fields());
  return n;
}

// --- The section frame --------------------------------------------------------

inline constexpr std::size_t kSectionHeaderBytes = 16;
inline constexpr std::size_t kSectionFooterBytes = 24;

/// What one section's frame records: three header tags, whose meaning is
/// the format's, and the footer's row count, body size and body CRC32C.
struct SectionFrame {
  std::array<std::uint32_t, 3> tags{};
  std::uint64_t rows{0};
  std::uint64_t body_bytes{0};
  std::uint32_t crc{0};
};

/// A sectioned format's frame, the one layout spill sections
/// (collect/spill.h) and v3 column sections (collect/column_snapshot.h)
/// share:
///
///   header  u32 magic | u32 tag 0 | u32 tag 1 | u32 tag 2           16 bytes
///   body    the format's bytes
///   footer  u64 rows | u64 body bytes | u32 CRC32C of the body
///           | u32 end magic                                          24 bytes
///
/// Each format names its magics and its tags; this is the only code that
/// builds or checks a frame.
struct SectionFormat {
  std::uint32_t magic;
  std::uint32_t end_magic;
  std::array<const char*, 3> tag_names;  // for diagnostics

  /// Append one section — header, the body parts in order, footer — to
  /// `file`; returns the body's CRC32C. A failed write latches in `file`.
  std::uint32_t write(core::CheckedFile& file, const std::array<std::uint32_t, 3>& tags,
                      std::uint64_t rows, std::initializer_list<std::string_view> body) const {
    std::string frame;
    for (const std::uint32_t v : {magic, tags[0], tags[1], tags[2]}) core::StoreLe<4>(frame, v);
    file.write(frame);
    std::uint64_t body_bytes = 0;
    std::uint32_t crc = 0;
    for (const std::string_view part : body) {
      file.write(part.data(), part.size());
      crc = core::Crc32c(part.data(), part.size(), crc);
      body_bytes += part.size();
    }
    frame.clear();
    core::StoreLe<8>(frame, rows);
    core::StoreLe<8>(frame, body_bytes);
    core::StoreLe<4>(frame, crc);
    core::StoreLe<4>(frame, end_magic);
    file.write(frame);
    return crc;
  }

  /// "" when `header` holds this format's magic and `want`'s tags, else
  /// what differs.
  [[nodiscard]] std::string check_header(const char* header, const SectionFrame& want) const {
    if (core::LoadLe<4>(header) != magic) return "bad section magic";
    for (std::size_t i = 0; i < want.tags.size(); ++i) {
      if (core::LoadLe<4>(header + 4 * (i + 1)) != want.tags[i]) {
        return std::string("header ") + tag_names[i] + " mismatch";
      }
    }
    return {};
  }

  /// "" when `body_crc` (computed from the body read) and `footer` match
  /// `want` and the footer ends in the end magic, else what differs.
  [[nodiscard]] std::string check_footer(const char* footer, const SectionFrame& want,
                                         std::uint32_t body_crc) const {
    if (body_crc != want.crc) {
      return "body CRC32C mismatch (expected " + std::to_string(want.crc) + ", computed " +
             std::to_string(body_crc) + ")";
    }
    if (core::LoadLe<8>(footer) != want.rows) return "footer row count mismatch";
    if (core::LoadLe<8>(footer + 8) != want.body_bytes) return "footer body size mismatch";
    if (core::LoadLe<4>(footer + 16) != want.crc) return "footer CRC32C mismatch";
    if (core::LoadLe<4>(footer + 20) != end_magic) return "bad section end magic";
    return {};
  }
};

}  // namespace bismark::collect
