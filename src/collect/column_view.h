// The column encoding of every durable row, and zero-copy typed views over
// it (DESIGN §14).
//
// Rows are stored in stripes of columns: fixed-width fields as raw
// little-endian values packed contiguously, strings as a u32
// cumulative-end-offset array followed by one concatenated blob. A BSMKSNAP
// v3 snapshot frames each column of a stripe as its own section
// (collect/column_snapshot.h); a spill section body is a run of whole
// stripes (collect/spill.h). One StripeBuilder encodes both, and the view
// types here decode both, sitting directly on the mapped or buffered bytes
// — no decode pass, no row materialisation unless asked for:
//
//   ColumnCodec<V>   — per-member-type width + load/store: the one table
//                      of serialisable member types. BinWriter/BinReader
//                      (collect/binio.h) forward their value() to it, so a
//                      record field of a new type fails to compile in every
//                      durable format until its codec is added here.
//   ColumnView<V>    — typed random access over one fixed-width column.
//   StringColumnView — string_view access over an offsets+blob column.
//   TableView<T>     — a stripe's columns; row(i) materialises a record
//                      (or some of its fields), column<I>() is the
//                      zero-copy path.
//   FieldMask<T>     — the fields a read decodes, named by member pointer
//                      (FieldsOf<&R::home, &R::start>).
//   StripeBuilder<T> — buffers rows of T as one stripe's columns.
//
// Invariants every reader verifies before constructing a view (so
// operator[] can skip bounds arithmetic): a fixed column holds exactly
// rows * kWidth bytes; a string column holds exactly 4 * rows offset bytes
// plus a blob whose length equals the final offset, with offsets
// non-decreasing (StringBlobBytes, checked even where a CRC32C covers the
// bytes).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "collect/schema.h"
#include "core/little_endian.h"

namespace bismark::collect {

/// Per-member-type column codec. kWidth is the on-disk bytes per value;
/// Load reads one value from a column body, Store appends one.
template <typename V>
struct ColumnCodec;  // one specialisation per serialisable member type

template <>
struct ColumnCodec<bool> {
  static constexpr std::uint32_t kWidth = 1;
  static bool Load(const char* p) { return *p != 0; }
  static void Store(std::string& out, bool v) { out.push_back(v ? 1 : 0); }
};

template <>
struct ColumnCodec<int> {
  static constexpr std::uint32_t kWidth = 4;
  static int Load(const char* p) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(core::LoadLe<4>(p)));
  }
  static void Store(std::string& out, int v) {
    core::StoreLe<4>(out, static_cast<std::uint32_t>(v));
  }
};

template <>
struct ColumnCodec<std::uint16_t> {
  static constexpr std::uint32_t kWidth = 2;
  static std::uint16_t Load(const char* p) {
    return static_cast<std::uint16_t>(core::LoadLe<2>(p));
  }
  static void Store(std::string& out, std::uint16_t v) { core::StoreLe<2>(out, v); }
};

template <>
struct ColumnCodec<std::uint32_t> {
  static constexpr std::uint32_t kWidth = 4;
  static std::uint32_t Load(const char* p) {
    return static_cast<std::uint32_t>(core::LoadLe<4>(p));
  }
  static void Store(std::string& out, std::uint32_t v) { core::StoreLe<4>(out, v); }
};

template <>
struct ColumnCodec<std::uint64_t> {
  static constexpr std::uint32_t kWidth = 8;
  static std::uint64_t Load(const char* p) { return core::LoadLe<8>(p); }
  static void Store(std::string& out, std::uint64_t v) { core::StoreLe<8>(out, v); }
};

template <>
struct ColumnCodec<std::int64_t> {
  static constexpr std::uint32_t kWidth = 8;
  static std::int64_t Load(const char* p) { return static_cast<std::int64_t>(core::LoadLe<8>(p)); }
  static void Store(std::string& out, std::int64_t v) {
    core::StoreLe<8>(out, static_cast<std::uint64_t>(v));
  }
};

template <>
struct ColumnCodec<double> {
  static constexpr std::uint32_t kWidth = 8;
  static double Load(const char* p) {
    const std::uint64_t bits = core::LoadLe<8>(p);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  static void Store(std::string& out, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    core::StoreLe<8>(out, bits);
  }
};

template <>
struct ColumnCodec<HomeId> {
  static constexpr std::uint32_t kWidth = 4;
  static HomeId Load(const char* p) { return HomeId{ColumnCodec<int>::Load(p)}; }
  static void Store(std::string& out, HomeId v) { ColumnCodec<int>::Store(out, v.value); }
};

template <>
struct ColumnCodec<TimePoint> {
  static constexpr std::uint32_t kWidth = 8;
  static TimePoint Load(const char* p) {
    return TimePoint{static_cast<std::int64_t>(core::LoadLe<8>(p))};
  }
  static void Store(std::string& out, TimePoint v) {
    core::StoreLe<8>(out, static_cast<std::uint64_t>(v.ms));
  }
};

template <>
struct ColumnCodec<Duration> {
  static constexpr std::uint32_t kWidth = 8;
  static Duration Load(const char* p) {
    return Duration{static_cast<std::int64_t>(core::LoadLe<8>(p))};
  }
  static void Store(std::string& out, Duration v) {
    core::StoreLe<8>(out, static_cast<std::uint64_t>(v.ms));
  }
};

template <>
struct ColumnCodec<Bytes> {
  static constexpr std::uint32_t kWidth = 8;
  static Bytes Load(const char* p) {
    return Bytes{static_cast<std::int64_t>(core::LoadLe<8>(p))};
  }
  static void Store(std::string& out, Bytes v) {
    core::StoreLe<8>(out, static_cast<std::uint64_t>(v.count));
  }
};

template <>
struct ColumnCodec<BitRate> {
  static constexpr std::uint32_t kWidth = 8;
  static BitRate Load(const char* p) { return BitRate{ColumnCodec<double>::Load(p)}; }
  static void Store(std::string& out, BitRate v) { ColumnCodec<double>::Store(out, v.bps); }
};

template <>
struct ColumnCodec<net::FlowId> {
  static constexpr std::uint32_t kWidth = 8;
  static net::FlowId Load(const char* p) { return net::FlowId{core::LoadLe<8>(p)}; }
  static void Store(std::string& out, net::FlowId v) { core::StoreLe<8>(out, v.value); }
};

template <>
struct ColumnCodec<net::MacAddress> {
  static constexpr std::uint32_t kWidth = 6;
  static net::MacAddress Load(const char* p) {
    std::array<std::uint8_t, 6> octets{};
    for (std::size_t i = 0; i < octets.size(); ++i) {
      octets[i] = static_cast<std::uint8_t>(p[i]);
    }
    return net::MacAddress(octets);
  }
  static void Store(std::string& out, net::MacAddress v) {
    for (const auto octet : v.octets()) out.push_back(static_cast<char>(octet));
  }
};

template <>
struct ColumnCodec<net::Protocol> {
  static constexpr std::uint32_t kWidth = 1;
  static net::Protocol Load(const char* p) {
    return static_cast<net::Protocol>(static_cast<std::uint8_t>(*p));
  }
  static void Store(std::string& out, net::Protocol v) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(v)));
  }
};

template <>
struct ColumnCodec<wireless::Band> {
  static constexpr std::uint32_t kWidth = 1;
  static wireless::Band Load(const char* p) {
    return static_cast<wireless::Band>(static_cast<std::uint8_t>(*p));
  }
  static void Store(std::string& out, wireless::Band v) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(v)));
  }
};

template <>
struct ColumnCodec<net::VendorClass> {
  static constexpr std::uint32_t kWidth = 4;
  static net::VendorClass Load(const char* p) {
    return static_cast<net::VendorClass>(ColumnCodec<int>::Load(p));
  }
  static void Store(std::string& out, net::VendorClass v) {
    ColumnCodec<int>::Store(out, static_cast<int>(v));
  }
};

/// Strings are not fixed-width; their columns carry encoding 0 and the
/// offsets+blob body StringColumnView reads (a binary record
/// length-prefixes them, see BinWriter::str). The codec exists only so
/// compile-time width tables can expand over every field uniformly.
template <>
struct ColumnCodec<std::string> {
  static constexpr std::uint32_t kWidth = 0;
};

/// On-disk section encoding tag of member type V: its fixed width in
/// bytes, or 0 for the string offsets+blob layout.
template <typename V>
inline constexpr std::uint32_t kColumnEncoding = ColumnCodec<V>::kWidth;

/// Typed random access over one fixed-width column body.
template <typename V>
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const char* body, std::uint64_t rows) : body_(body), rows_(rows) {}

  [[nodiscard]] std::uint64_t size() const { return rows_; }
  [[nodiscard]] V operator[](std::uint64_t i) const {
    return ColumnCodec<V>::Load(body_ + i * ColumnCodec<V>::kWidth);
  }

 private:
  const char* body_{nullptr};
  std::uint64_t rows_{0};
};

/// Zero-copy access over a string column: `rows` u32 cumulative end
/// offsets, then the concatenated blob. operator[] returns a view into the
/// mapped blob (valid while the snapshot stays open), so empty strings,
/// embedded NULs and arbitrary UTF-8 all round-trip byte-exactly.
class StringColumnView {
 public:
  StringColumnView() = default;
  StringColumnView(const char* body, std::uint64_t rows)
      : offsets_(body), blob_(body + rows * 4), rows_(rows) {}

  [[nodiscard]] std::uint64_t size() const { return rows_; }
  [[nodiscard]] std::string_view operator[](std::uint64_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : end_offset(i - 1);
    const std::uint32_t end = end_offset(i);
    return {blob_ + begin, end - begin};
  }

 private:
  [[nodiscard]] std::uint32_t end_offset(std::uint64_t i) const {
    return static_cast<std::uint32_t>(core::LoadLe<4>(offsets_ + 4 * i));
  }

  const char* offsets_{nullptr};
  const char* blob_{nullptr};
  std::uint64_t rows_{0};
};

/// The blob length of a string column (its last end offset), or nullopt
/// when its `rows` u32 end offsets at `offsets` decrease anywhere: the
/// check every reader makes before a StringColumnView may index the column.
[[nodiscard]] inline std::optional<std::uint64_t> StringBlobBytes(const char* offsets,
                                                                  std::uint64_t rows) {
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t end = core::LoadLe<4>(offsets + 4 * i);
    if (end < last) return std::nullopt;
    last = end;
  }
  return last;
}

namespace coldetail {

template <typename V>
struct ViewFor {
  using type = ColumnView<V>;
};
template <>
struct ViewFor<std::string> {
  using type = StringColumnView;
};

template <typename P>
struct MemberClass;
template <typename C, typename M>
struct MemberClass<M C::*> {
  using type = C;
};

template <typename A, typename B>
constexpr bool SameMember(A a, B b) {
  if constexpr (std::is_same_v<A, B>) {
    return a == b;
  } else {
    return false;
  }
}

}  // namespace coldetail

/// A set of Schema<T>::Fields(): the columns a read checks and decodes. A
/// mask is named by member pointer (FieldsOf below), so a field that is
/// not in the schema does not compile.
template <typename T>
class FieldMask {
 public:
  static constexpr std::size_t kNumFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;
  static_assert(kNumFields < 64);

  /// No field.
  constexpr FieldMask() = default;
  /// Every field: what a read decodes unless told otherwise.
  [[nodiscard]] static constexpr FieldMask All() { return FieldMask((1ull << kNumFields) - 1); }

  template <auto... Members>
  [[nodiscard]] static constexpr FieldMask Of() {
    static_assert(((IndexOf<Members>() < kNumFields) && ...), "not a Schema<T>::Fields() member");
    return FieldMask(((1ull << IndexOf<Members>()) | ...));
  }

  [[nodiscard]] constexpr bool has(std::size_t field) const { return ((bits_ >> field) & 1u) != 0; }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }
  [[nodiscard]] constexpr FieldMask operator|(FieldMask other) const {
    return FieldMask(bits_ | other.bits_);
  }
  friend constexpr bool operator==(FieldMask, FieldMask) = default;

 private:
  explicit constexpr FieldMask(std::uint64_t bits) : bits_(bits) {}

  /// Position of `Member` in Schema<T>::Fields(), kNumFields if absent.
  template <auto Member>
  static constexpr std::size_t IndexOf() {
    std::size_t index = kNumFields;
    std::size_t f = 0;
    std::apply(
        [&](const auto&... field) {
          ((index = coldetail::SameMember(field.member, Member) ? f : index, ++f), ...);
        },
        Schema<T>::Fields());
    return index;
  }

  std::uint64_t bits_{0};
};

/// The mask of the named fields of one kind: FieldsOf<&R::home, &R::start>.
template <auto First, auto... Rest>
inline constexpr auto FieldsOf =
    FieldMask<typename coldetail::MemberClass<decltype(First)>::type>::template Of<First,
                                                                                   Rest...>();

/// The columns of one stripe of kind T, in Schema<T>::Fields() order.
/// row(i) materialises a record (strings copied); column<I>() hands back
/// the zero-copy per-field view the summarizers scan. A view may hold only
/// some of the stripe's columns (a masked read): the others are null and
/// must not be read.
template <typename T>
class TableView {
 public:
  static constexpr std::size_t kNumFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;

  TableView() = default;
  /// bodies[f] points at the (verified) section body of field f, or is null
  /// for a field the view does not hold.
  TableView(const std::array<const char*, kNumFields>& bodies, std::uint64_t rows)
      : bodies_(bodies), rows_(rows) {}

  [[nodiscard]] std::uint64_t rows() const { return rows_; }

  /// Member type of field I.
  template <std::size_t I>
  using MemberAt = std::remove_cvref_t<decltype(std::declval<const T&>().*(
      std::get<I>(Schema<T>::Fields()).member))>;

  /// Zero-copy view of field I (StringColumnView for string fields).
  template <std::size_t I>
  [[nodiscard]] auto column() const {
    return typename coldetail::ViewFor<MemberAt<I>>::type(bodies_[I], rows_);
  }

  /// Materialise the `fields` of row i into *out (strings copied out of the
  /// blob); the other members of *out are left as they are.
  void row(std::uint64_t i, T* out, FieldMask<T> fields = FieldMask<T>::All()) const {
    [&]<std::size_t... Is>(std::index_sequence<Is...>) {
      if (fields == FieldMask<T>::All()) {  // no per-field test on whole rows
        (assign_one<Is>(i, *out), ...);
      } else {
        ((fields.has(Is) ? assign_one<Is>(i, *out) : void()), ...);
      }
    }(std::make_index_sequence<kNumFields>{});
  }

 private:
  template <std::size_t I>
  void assign_one(std::uint64_t i, T& out) const {
    using M = MemberAt<I>;
    const auto view = column<I>();
    if constexpr (std::is_same_v<M, std::string>) {
      out.*(std::get<I>(Schema<T>::Fields()).member) = std::string(view[i]);
    } else {
      out.*(std::get<I>(Schema<T>::Fields()).member) = view[i];
    }
  }

  std::array<const char*, kNumFields> bodies_{};
  std::uint64_t rows_{0};
};

/// Per-kind array of field encodings (kColumnEncoding of each member), the
/// table both the writer stamps into section headers and the reader
/// validates against.
template <typename T>
[[nodiscard]] constexpr std::array<std::uint32_t, TableView<T>::kNumFields> ColumnEncodings() {
  return std::apply(
      [](const auto&... field) {
        return std::array<std::uint32_t, TableView<T>::kNumFields>{
            kColumnEncoding<std::remove_cvref_t<decltype(std::declval<const T&>().*(
                field.member))>>...};
      },
      Schema<T>::Fields());
}

/// One stripe's worth of buffered columns for kind T. `primary[f]` holds
/// field f's fixed-width values, or for a string field its u32 cumulative
/// end offsets, whose payloads accumulate in `blob[f]`. The snapshot frames
/// each column as a section of its own (collect/column_snapshot.cpp); a
/// spill section appends whole stripes (append_stripe). Either writer's
/// only O(data) state, bounded by its stripe limit.
template <typename T>
struct StripeBuilder {
  static constexpr std::size_t kNumFields = TableView<T>::kNumFields;

  std::array<std::string, kNumFields> primary;
  std::array<std::string, kNumFields> blob;
  std::uint64_t rows{0};
  std::size_t bytes{0};

  void add(const T& row) {
    std::size_t f = 0;
    std::apply([&](const auto&... field) { (add_field(f++, row.*(field.member)), ...); },
               Schema<T>::Fields());
    ++rows;
  }

  /// Append the buffered rows to `out` as one spill stripe — u32 row count,
  /// then each column in Fields() order — and reset.
  void append_stripe(std::string& out) {
    core::StoreLe<4>(out, static_cast<std::uint32_t>(rows));
    for (std::size_t f = 0; f < kNumFields; ++f) {
      out.append(primary[f]);
      out.append(blob[f]);
    }
    clear();
  }

  void clear() {
    for (std::string& column : primary) column.clear();
    for (std::string& column : blob) column.clear();
    rows = bytes = 0;
  }

 private:
  template <typename V>
  void add_field(std::size_t f, const V& v) {
    if constexpr (std::is_same_v<V, std::string>) {
      blob[f].append(v);
      core::StoreLe<4>(primary[f], static_cast<std::uint32_t>(blob[f].size()));
      bytes += v.size() + 4;
    } else {
      ColumnCodec<V>::Store(primary[f], v);
      bytes += ColumnCodec<V>::kWidth;
    }
  }
};

}  // namespace bismark::collect
