// BSMKSNAP v3: the columnar snapshot substrate (DESIGN §14).
//
// A snapshot is the native analytical layout — a *directory* with one meta
// file plus one column file per non-empty kind, so `analyze` maps only the
// kinds a figure needs and scans them without a decode pass:
//
//   <dir>/snapshot.bsmkmeta      magic/version/windows/homes + the full
//                                per-kind section table, then a trailing
//                                CRC32C of every preceding byte
//   <dir>/<kind>.bsmkcol         one file per kind with rows, e.g.
//                                capacity.bsmkcol — stripes of per-field
//                                column sections
//
// Meta file layout (all integers little-endian):
//
//   magic "BSMKSNAP" | u32 version | windows (WindowFields)
//   | u32 home count, then each home (HomeInfoFields)
//   | u32 kind count, then per kind: kind name, u32 field count, field
//     names, u64 rows, column file name, u32 stripe count, then each
//     stripe (StripeFields): u64 rows and per field u64 body offset
//     | u64 body bytes | u32 CRC32C | u32 encoding
//   | u32 CRC32C of every preceding byte
//
// Each of the three parenthesised field lists is one function template that
// commit() and Open() both instantiate (collect/binio.h).
//
// The meta file is self-describing and the reader is strict: after the
// magic, version and CRC it checks every kind and field name, and refuses
// a snapshot whose schema does not match the build reading it. Snapshots
// are caches of a deterministic run, regenerated rather than migrated.
//
// Column file layout (all integers little-endian):
//
//   file header   u32 magic "BCL3" | u32 kind index | u32 field count
//                 | u32 reserved                                16 bytes
//   per stripe (up to kStripeRows rows), per field in schema order, one
//   section in the shared section frame (collect/binio.h, kColumnSection):
//     header      u32 magic "CSC3" | u32 field | u32 stripe
//                 | u32 encoding (fixed width, 0 = string)      16 bytes
//     body        fixed: rows × width raw LE values
//                 string: rows × u32 cumulative end offsets, then blob
//     footer      u64 rows | u64 body bytes | u32 CRC32C of body
//                 | u32 end magic "END3"                        24 bytes
//     padding     zero bytes to the next 8-byte boundary
//
// Spill sections (collect/spill.h) wear the same frame and the same column
// encoding: one StripeBuilder (collect/column_view.h) encodes both, and
// one TableView decodes both. Where the snapshot frames each column of a
// stripe as its own section, a spill section appends whole stripes, each
// behind its u32 row count. The crash-safety story carries over: the
// reader checks a kind file's header and every section's bounds when it
// maps the file, and each section's frame, CRC and string offsets against
// the meta table the first time a read touches that section, so a read of
// some columns checks only those; it fails closed on any mismatch.
// Readers get the bytes through core::MappedFile — mmap when the kernel
// grants it, a buffered read otherwise — and every open is recorded in the
// core::IoReadStats counters, which is how tests prove a single-figure
// query touched only its own kind segments. Rows come out through the
// repository's one RowReader (collect/repository.h), whose column arm is
// the only loop that decodes stripe views into rows; a reader can be
// limited to some fields (a FieldMask) and to one stripe, the unit of the
// per-stripe fleet summary.
//
// The writer is a set of finish-pass consumers (collect/finish.h), one per
// non-empty kind, so it works from the in-RAM store, a spill directory
// (bounded by one stripe of buffered columns — fleet mode under
// --memory-budget-mb), or another snapshot, and shares the pass's single
// merge with the fleet summary and the CSV exports. Each kind owns its
// file, so bytes are identical at any worker count.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "collect/binio.h"
#include "collect/column_view.h"
#include "collect/finish.h"
#include "collect/repository.h"
#include "core/io.h"

namespace bismark::collect {

inline constexpr char kSnapshotMagic[8] = {'B', 'S', 'M', 'K', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kColumnSnapshotVersion = 3;
inline constexpr char kColumnMetaFile[] = "snapshot.bsmkmeta";
inline constexpr char kColumnFileSuffix[] = ".bsmkcol";
inline constexpr std::uint32_t kColumnFileMagic = 0x334C4342;  // "BCL3"
inline constexpr std::size_t kColumnFileHeaderBytes = 16;
/// Column sections: the shared frame (collect/binio.h), tagged with the
/// section's field, stripe and encoding.
inline constexpr SectionFormat kColumnSection{
    0x33435343u, 0x33444E45u, {"field", "stripe", "encoding"}};  // "CSC3" … "END3"
/// Stripe bounds: a stripe closes at this many rows or this much buffered
/// column data, whichever comes first — the writer's only O(data) state.
inline constexpr std::uint64_t kColumnStripeRows = 64 * 1024;
inline constexpr std::size_t kColumnStripeBytes = 64 * 1024 * 1024;

/// One column section's place in its kind file (meta-table entry).
struct ColumnSectionMeta {
  std::uint64_t body_offset{0};  // from file start, past the 16-byte header
  std::uint64_t body_bytes{0};
  std::uint32_t crc{0};
  std::uint32_t encoding{0};  // fixed width in bytes; 0 = string offsets+blob
};

struct ColumnStripeMeta {
  std::uint64_t rows{0};
  std::vector<ColumnSectionMeta> sections;  // one per field, schema order
};

struct ColumnKindMeta {
  std::string file;  // empty when the kind has no rows (no file written)
  std::uint64_t rows{0};
  std::vector<ColumnStripeMeta> stripes;
};

/// The v3 writer as finish-pass consumers: construction creates `dir` and
/// registers one column-file writer per non-empty kind on `pass`; commit()
/// writes and fsyncs the meta file once the pass has run. Every failure
/// throws std::runtime_error ("snapshot: ..."), from the constructor, out
/// of FinishPass::run(), or from commit(). Partial output may remain, but
/// the meta file is written last, so a directory with a valid meta is
/// complete. A pass whose writer failed to construct must not be run.
class ColumnSnapshotWriter {
 public:
  ColumnSnapshotWriter(FinishPass& pass, std::string dir);
  ~ColumnSnapshotWriter();
  ColumnSnapshotWriter(const ColumnSnapshotWriter&) = delete;
  ColumnSnapshotWriter& operator=(const ColumnSnapshotWriter&) = delete;

  void commit();

 private:
  struct KindFile;  // one kind's column file and stripe builder
  template <typename T>
  struct KindColumns;
  const DataRepository& repo_;
  std::string dir_;
  std::array<ColumnKindMeta, kRecordKinds> kinds_;
  std::vector<std::unique_ptr<KindFile>> files_;
};

/// Write `repo` as a v3 snapshot directory (created if missing; existing
/// snapshot files are overwritten): a finish pass with one output, kinds
/// written concurrently on `workers` threads. Returns false with *error on
/// any I/O or encoding failure.
bool SaveColumnSnapshot(const DataRepository& repo, const std::string& dir,
                        std::string* error, std::size_t workers = 1);

/// True when `path` names a directory holding a v3 meta file.
[[nodiscard]] bool IsColumnSnapshotDir(const std::string& path);

/// An opened v3 snapshot. The meta file is read and CRC-verified eagerly.
/// A kind file is mapped, its header and section bounds checked, on the
/// first read touching that kind; a section's frame, CRC32C and string
/// offsets are checked on the first read touching that section. The
/// laziness *is* the product guarantee (a figure's query maps only its own
/// kinds and checks only its own columns) so it is not an optimisation to
/// remove. Thread-safe for concurrent reads: kind maps are mutex-serialised,
/// section checks are not (each section has its own flag).
class ColumnSnapshot {
 public:
  /// Parse + checksum <dir>/snapshot.bsmkmeta. nullptr + *error on failure
  /// (bad magic/version/CRC, schema drift, malformed section table).
  static std::shared_ptr<const ColumnSnapshot> Open(const std::string& dir,
                                                    std::string* error);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const DatasetWindows& windows() const { return windows_; }
  [[nodiscard]] const std::vector<HomeInfo>& homes() const { return homes_; }

  [[nodiscard]] std::uint64_t rows_of_kind(std::size_t kind) const {
    return kinds_[kind].meta.rows;
  }
  [[nodiscard]] std::uint64_t total_rows() const { return total_rows_; }
  [[nodiscard]] std::size_t stripes_of_kind(std::size_t kind) const {
    return kinds_[kind].meta.stripes.size();
  }

  /// Map kind's column file and check every section of it: the whole-kind
  /// check, built from the same two steps a read takes. Throws
  /// std::runtime_error ("snapshot: corrupt ...") on any mismatch with the
  /// meta table.
  void ensure_kind_open(std::size_t kind) const;

  /// Zero-copy view of the `fields` of one stripe of kind T. The kind file
  /// is mapped on first use, and each of those fields' sections is checked
  /// before the view is returned; the other columns stay unchecked and
  /// absent from the view. The view borrows the mapping: valid while this
  /// object lives. RowReader (collect/repository.h) decodes rows out of
  /// these views; a kind without rows has no stripes, so reading it
  /// touches no file.
  template <typename T>
  [[nodiscard]] TableView<T> stripe(std::size_t stripe_index,
                                    FieldMask<T> fields = FieldMask<T>::All()) const {
    constexpr std::size_t kKind = kRecordIndexOf<T>;
    std::array<const char*, TableView<T>::kNumFields> bodies{};
    for (std::size_t f = 0; f < bodies.size(); ++f) {
      if (fields.has(f)) bodies[f] = section_body(kKind, stripe_index, f);
    }
    return TableView<T>(bodies, kinds_[kKind].meta.stripes[stripe_index].rows);
  }

  /// Body bytes of the sections checked so far, each section counted once:
  /// what reads have verified, and so paged in, of the kind files.
  [[nodiscard]] std::uint64_t bytes_verified() const {
    return bytes_verified_.load(std::memory_order_relaxed);
  }

 private:
  ColumnSnapshot() = default;

  struct KindState {
    ColumnKindMeta meta;
    mutable core::MappedFile map;
    mutable std::atomic<bool> mapped{false};
    /// One flag per section, stripe-major: set once its frame, CRC32C and
    /// string offsets have been checked.
    std::unique_ptr<std::atomic<bool>[]> checked;
  };

  /// Map kind's file and check its header, every section's bounds and that
  /// nothing trails the last section. Once per kind, under open_mu_.
  void map_kind(std::size_t kind) const;
  /// The body of one section, after map_kind and, on the section's first
  /// read, the check of its frame, CRC32C and string offsets.
  const char* section_body(std::size_t kind, std::size_t stripe, std::size_t field) const;

  std::string dir_;
  DatasetWindows windows_;
  std::vector<HomeInfo> homes_;
  std::uint64_t total_rows_{0};
  std::array<KindState, kRecordKinds> kinds_;
  mutable std::mutex open_mu_;
  mutable std::atomic<std::uint64_t> bytes_verified_{0};
};

/// Open a v3 snapshot as a column-backed DataRepository: windows and homes
/// registered, every read decoded from the mapped stripes.
std::unique_ptr<DataRepository> OpenColumnSnapshot(const std::string& dir,
                                                   std::string* error);

}  // namespace bismark::collect
