// Shared little-endian binary codec for record persistence.
//
// One writer/reader pair serves every durable format derived from the
// schema layer: the fleet-scale spill segments (collect/spill.h), the
// write-ahead manifest (collect/manifest.h), the v3 snapshot meta file
// (collect/column_snapshot.h), the resume options blob and the fleet
// summary checkpoint. `value()` encodes one reflected member type by
// forwarding to ColumnCodec<V> (collect/column_view.h), the single table
// of serialisable member types: a record field of a new type fails to
// compile until its codec is added there, and a value's row bytes are its
// column bytes by construction. Only std::string differs between the two
// layouts: a row carries it u32-length-prefixed, a column as offsets plus
// a blob.
//
// All integers are encoded little-endian byte-by-byte, independent of host
// endianness. Doubles are IEEE-754 bit patterns in a u64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

#include "collect/column_view.h"
#include "collect/schema.h"

namespace bismark::collect {

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { coldetail::StoreLe<2>(buf_, v); }
  void u32(std::uint32_t v) { coldetail::StoreLe<4>(buf_, v); }
  void u64(std::uint64_t v) { coldetail::StoreLe<8>(buf_, v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { value(v); }
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

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

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

  std::uint8_t u8() { return static_cast<std::uint8_t>(fixed<1>()); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed<4>()); }
  std::uint64_t u64() { return fixed<8>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    double v = 0.0;
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

 private:
  template <unsigned W>
  std::uint64_t fixed() {
    if (!need(W)) return 0;
    const std::uint64_t v = coldetail::LoadLe<W>(p_);
    p_ += W;
    return v;
  }
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

/// Encode one row field-by-field in Schema<T>::Fields() order (the row
/// layout of spill sections).
template <typename T>
void EncodeRow(BinWriter& w, const T& row) {
  std::apply([&w, &row](const auto&... field) { (w.value(row.*(field.member)), ...); },
             Schema<T>::Fields());
}

template <typename T>
void DecodeRow(BinReader& r, T& row) {
  std::apply([&r, &row](const auto&... field) { (r.value(row.*(field.member)), ...); },
             Schema<T>::Fields());
}

/// The Table 2 windows in their durable order, each stored as start then
/// end. The v3 snapshot meta file and the resume options blob share it.
inline constexpr Interval DatasetWindows::*kWindowFields[] = {
    &DatasetWindows::heartbeats, &DatasetWindows::uptime, &DatasetWindows::capacity,
    &DatasetWindows::devices,    &DatasetWindows::wifi,   &DatasetWindows::traffic};

inline void EncodeWindows(BinWriter& w, const DatasetWindows& windows) {
  for (const auto member : kWindowFields) {
    w.value((windows.*member).start);
    w.value((windows.*member).end);
  }
}

inline DatasetWindows DecodeWindows(BinReader& r) {
  DatasetWindows windows;
  for (const auto member : kWindowFields) {
    r.value((windows.*member).start);
    r.value((windows.*member).end);
  }
  return windows;
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

}  // namespace bismark::collect
