#include "collect/column_snapshot.h"

#include <filesystem>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "collect/binio.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

using core::LoadLe;
using core::StoreLe;

[[noreturn]] void Throw(const std::string& why) { throw std::runtime_error("snapshot: " + why); }

[[noreturn]] void Corrupt(const std::string& path, std::size_t stripe, std::size_t field,
                          const std::string& why) {
  Throw("corrupt " + path + " stripe " + std::to_string(stripe) + " field " +
        std::to_string(field) + ": " + why);
}

/// One stripe's meta-table entry, the field list both commit() and Open()
/// use: the stripe's row count, then per field its section's body offset,
/// body bytes, CRC32C and encoding. A reader sizes `sections` first.
template <typename Io, typename Stripe>
void StripeFields(Io& io, Stripe& stripe) {
  using S = ColumnSectionMeta;
  io.value(stripe.rows);
  for (auto& section : stripe.sections) {
    MemberFields(io, section, &S::body_offset, &S::body_bytes, &S::crc, &S::encoding);
  }
}

}  // namespace

struct ColumnSnapshotWriter::KindFile {
  virtual ~KindFile() = default;
};

/// Kind T's column file: the pass's rows of T, buffered one stripe at a
/// time and framed into <dir>/<kind>.bsmkcol. Throws std::runtime_error on
/// any I/O failure.
template <typename T>
struct ColumnSnapshotWriter::KindColumns final : KindFile {
  KindColumns(const std::string& dir, ColumnKindMeta* kind_meta) : meta(kind_meta) {
    if (!file.open(dir + "/" + meta->file)) Throw(file.error());
    std::string header;
    StoreLe<4>(header, kColumnFileMagic);
    StoreLe<4>(header, static_cast<std::uint32_t>(kRecordIndexOf<T>));
    StoreLe<4>(header, static_cast<std::uint32_t>(TableView<T>::kNumFields));
    StoreLe<4>(header, 0);
    file.write(header);
    offset = header.size();
  }

  void add(std::span<const T> rows) {
    for (const T& row : rows) {
      builder.add(row);
      if (builder.rows >= kColumnStripeRows || builder.bytes >= kColumnStripeBytes) flush();
    }
  }

  void finish() {
    if (builder.rows > 0) flush();
    if (!file.sync() || !file.close()) Throw(file.error());
  }

  /// Frame each buffered column as one section of the next stripe, padded
  /// to 8 bytes, and reset the builder.
  void flush() {
    const auto stripe_index = static_cast<std::uint32_t>(meta->stripes.size());
    ColumnStripeMeta& sm = meta->stripes.emplace_back();
    sm.rows = builder.rows;
    const auto encodings = ColumnEncodings<T>();
    for (std::uint32_t f = 0; f < TableView<T>::kNumFields; ++f) {
      ColumnSectionMeta& sec = sm.sections.emplace_back();
      sec.body_offset = offset + kSectionHeaderBytes;
      sec.body_bytes = builder.primary[f].size() + builder.blob[f].size();
      sec.encoding = encodings[f];
      sec.crc = kColumnSection.write(file, {f, stripe_index, sec.encoding}, sm.rows,
                                     {builder.primary[f], builder.blob[f]});
      offset = sec.body_offset + sec.body_bytes + kSectionFooterBytes;

      const std::size_t pad = (8 - (offset % 8)) % 8;
      if (pad != 0) {
        static const char kZeros[8] = {};
        file.write(kZeros, pad);
        offset += pad;
      }
    }
    builder.clear();
    if (!file.ok()) Throw(file.error());
  }

  ColumnKindMeta* meta;
  core::CheckedFile file;
  std::uint64_t offset{0};
  StripeBuilder<T> builder;
};

ColumnSnapshotWriter::ColumnSnapshotWriter(FinishPass& pass, std::string dir)
    : repo_(pass.repository()), dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) Throw("cannot create " + dir_ + ": " + ec.message());
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    ColumnKindMeta& meta = kinds_[kRecordIndexOf<T>];
    meta.rows = repo_.row_count<T>();
    if (meta.rows == 0) return;  // no rows, no file
    meta.file = std::string(Schema<T>::kKindName) + kColumnFileSuffix;
    auto file = std::make_unique<KindColumns<T>>(dir_, &meta);
    KindColumns<T>& kind = *file;
    files_.push_back(std::move(file));
    pass.add<T>([&kind](std::span<const T> rows) { kind.add(rows); },
                [&kind] { kind.finish(); });
  });
}

ColumnSnapshotWriter::~ColumnSnapshotWriter() = default;

void ColumnSnapshotWriter::commit() {
  BinWriter w;
  w.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.u32(kColumnSnapshotVersion);
  WindowFields(w, repo_.windows());
  w.count(repo_.homes());
  for (const HomeInfo& home : repo_.homes()) HomeInfoFields(w, home);
  w.u32(static_cast<std::uint32_t>(kRecordKinds));
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    w.str(Schema<T>::kKindName);
    constexpr std::uint32_t kFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;
    w.u32(kFields);
    std::apply([&w](const auto&... field) { (w.str(field.name), ...); }, Schema<T>::Fields());
    const ColumnKindMeta& km = kinds_[kRecordIndexOf<T>];
    w.value(km.rows);
    w.str(km.file);
    w.count(km.stripes);
    for (const ColumnStripeMeta& sm : km.stripes) StripeFields(w, sm);
  });
  const std::uint32_t crc = core::Crc32c(w.buffer().data(), w.buffer().size());

  // Meta last, fsynced: a directory with a valid meta file is complete.
  core::CheckedFile file;
  if (!file.open(dir_ + "/" + kColumnMetaFile)) Throw(file.error());
  file.write(w.buffer());
  std::string trailer;
  StoreLe<4>(trailer, crc);
  file.write(trailer);
  if (!file.sync() || !file.close()) Throw(file.error());
}

bool SaveColumnSnapshot(const DataRepository& repo, const std::string& dir,
                        std::string* error, std::size_t workers) {
  try {
    FinishPass pass(repo, workers);
    ColumnSnapshotWriter writer(pass, dir);
    pass.run();
    writer.commit();
  } catch (const std::exception& e) {
    const std::string why = e.what();
    if (error != nullptr) *error = why.rfind("snapshot: ", 0) == 0 ? why : "snapshot: " + why;
    return false;
  }
  return true;
}

bool IsColumnSnapshotDir(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_directory(path, ec) &&
         std::filesystem::is_regular_file(path + "/" + kColumnMetaFile, ec);
}

std::shared_ptr<const ColumnSnapshot> ColumnSnapshot::Open(const std::string& dir,
                                                           std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = "snapshot: " + why;
    return std::shared_ptr<const ColumnSnapshot>();
  };

  core::MappedFile meta;
  std::string io_error;
  if (!meta.open(dir + "/" + kColumnMetaFile, &io_error)) return fail(io_error);
  const char* data = meta.data();
  const std::size_t size = meta.size();

  if (size < sizeof(kSnapshotMagic) ||
      std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return fail("bad magic");
  }
  constexpr std::size_t kHeaderBytes = sizeof(kSnapshotMagic) + sizeof(std::uint32_t);
  if (size < kHeaderBytes + sizeof(std::uint32_t)) return fail("truncated meta file");
  const std::uint32_t version = static_cast<std::uint32_t>(LoadLe<4>(data + sizeof(kSnapshotMagic)));
  if (version != kColumnSnapshotVersion) {
    return fail("unsupported version " + std::to_string(version) + " (want " +
                std::to_string(kColumnSnapshotVersion) + ")");
  }
  const std::size_t body_bytes = size - sizeof(std::uint32_t);
  const std::uint32_t stored_crc = static_cast<std::uint32_t>(LoadLe<4>(data + body_bytes));
  if (stored_crc != core::Crc32c(data, body_bytes)) {
    return fail("meta CRC32C mismatch (snapshot corrupted or truncated)");
  }

  std::shared_ptr<ColumnSnapshot> snap(new ColumnSnapshot());
  snap->dir_ = dir;

  BinReader r(data + kHeaderBytes, body_bytes - kHeaderBytes);
  WindowFields(r, snap->windows_);
  r.count(snap->homes_);
  for (HomeInfo& home : snap->homes_) HomeInfoFields(r, home);

  const std::uint32_t kind_count = r.u32();
  if (r.failed() || kind_count != kRecordKinds) {
    return fail("kind count mismatch: snapshot has " + std::to_string(kind_count) +
                ", build has " + std::to_string(kRecordKinds));
  }

  bool ok = true;
  std::string why;
  const auto bad = [&ok, &why](const std::string& reason) {
    if (ok) {
      ok = false;
      why = reason;
    }
  };
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    if (!ok || r.failed()) return;
    const std::string kind = r.str();
    if (kind != Schema<T>::kKindName) {
      bad("kind name mismatch: snapshot has '" + kind + "', build has '" +
          Schema<T>::kKindName + "'");
      return;
    }
    constexpr std::uint32_t kFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;
    if (r.u32() != kFields) {
      bad(std::string("field count mismatch for ") + Schema<T>::kKindName);
      return;
    }
    std::apply(
        [&](const auto&... field) {
          const auto check = [&](const char* want) {
            if (!ok) return;
            if (r.str() != want) {
              bad(std::string("field name mismatch for ") + Schema<T>::kKindName);
            }
          };
          (check(field.name), ...);
        },
        Schema<T>::Fields());
    if (!ok) return;

    KindState& ks = snap->kinds_[kRecordIndexOf<T>];
    r.value(ks.meta.rows);
    ks.meta.file = r.str();
    r.count(ks.meta.stripes);
    const auto encodings = ColumnEncodings<T>();
    std::uint64_t rows_seen = 0;
    for (ColumnStripeMeta& sm : ks.meta.stripes) {
      sm.sections.resize(kFields);
      StripeFields(r, sm);
      if (r.failed() || !ok) break;
      rows_seen += sm.rows;
      for (std::uint32_t f = 0; f < kFields; ++f) {
        const ColumnSectionMeta& sec = sm.sections[f];
        if (sec.encoding != encodings[f]) {
          bad(std::string("column encoding mismatch for ") + Schema<T>::kKindName);
          break;
        }
        const std::uint64_t want = sec.encoding == 0
                                       ? 4 * sm.rows  // offsets; blob length is free
                                       : sm.rows * sec.encoding;
        if (sec.encoding != 0 ? sec.body_bytes != want : sec.body_bytes < want) {
          bad(std::string("column size mismatch for ") + Schema<T>::kKindName);
          break;
        }
      }
    }
    if (ok && rows_seen != ks.meta.rows) {
      bad(std::string("stripe row total mismatch for ") + Schema<T>::kKindName);
    }
    if (ok && ks.meta.rows > 0 && ks.meta.file.empty()) {
      bad(std::string("missing column file name for ") + Schema<T>::kKindName);
    }
    if (ok) ks.checked = std::make_unique<std::atomic<bool>[]>(ks.meta.stripes.size() * kFields);
    snap->total_rows_ += ks.meta.rows;
  });

  if (!ok) return fail(why);
  if (r.failed()) return fail("truncated meta file");
  if (!r.at_end()) return fail("trailing bytes in meta file");
  return snap;
}

void ColumnSnapshot::map_kind(std::size_t kind) const {
  const KindState& ks = kinds_[kind];
  if (ks.mapped.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(open_mu_);
  if (ks.mapped.load(std::memory_order_relaxed)) return;

  const std::string path = dir_ + "/" + ks.meta.file;
  std::string io_error;
  if (!ks.map.open(path, &io_error)) Throw(io_error);
  const char* data = ks.map.data();
  const std::size_t size = ks.map.size();

  if (size < kColumnFileHeaderBytes) Throw("corrupt " + path + ": truncated file header");
  if (LoadLe<4>(data) != kColumnFileMagic) Throw("corrupt " + path + ": bad file magic");
  if (LoadLe<4>(data + 4) != kind) Throw("corrupt " + path + ": kind index mismatch");
  const std::uint64_t field_count = LoadLe<4>(data + 8);

  std::uint64_t end = kColumnFileHeaderBytes;
  for (std::uint32_t s = 0; s < ks.meta.stripes.size(); ++s) {
    const ColumnStripeMeta& sm = ks.meta.stripes[s];
    if (sm.sections.size() != field_count) Corrupt(path, s, 0, "field count mismatch");
    for (std::uint32_t f = 0; f < sm.sections.size(); ++f) {
      const ColumnSectionMeta& sec = sm.sections[f];
      if (sec.body_offset < kColumnFileHeaderBytes + kSectionHeaderBytes ||
          sec.body_offset + sec.body_bytes + kSectionFooterBytes > size) {
        Corrupt(path, s, f, "section out of bounds (truncated file?)");
      }
      std::uint64_t section_end = sec.body_offset + sec.body_bytes + kSectionFooterBytes;
      section_end += (8 - (section_end % 8)) % 8;
      if (section_end > end) end = section_end;
    }
  }
  if (end != size) Throw("corrupt " + path + ": trailing bytes past last section");

  ks.mapped.store(true, std::memory_order_release);
}

const char* ColumnSnapshot::section_body(std::size_t kind, std::size_t stripe,
                                         std::size_t field) const {
  map_kind(kind);
  const KindState& ks = kinds_[kind];
  const ColumnStripeMeta& sm = ks.meta.stripes[stripe];
  const ColumnSectionMeta& sec = sm.sections[field];
  const char* body = ks.map.data() + sec.body_offset;
  std::atomic<bool>& checked = ks.checked[stripe * sm.sections.size() + field];
  if (checked.load(std::memory_order_acquire)) return body;

  const auto corrupt = [&](const std::string& why) {
    Corrupt(dir_ + "/" + ks.meta.file, stripe, field, why);
  };
  const SectionFrame want{
      {static_cast<std::uint32_t>(field), static_cast<std::uint32_t>(stripe), sec.encoding},
      sm.rows, sec.body_bytes, sec.crc};
  std::string why = kColumnSection.check_header(body - kSectionHeaderBytes, want);
  if (why.empty()) {
    why = kColumnSection.check_footer(body + sec.body_bytes, want,
                                      core::Crc32c(body, sec.body_bytes));
  }
  if (!why.empty()) corrupt(why);
  if (sec.encoding == 0) {
    // String section: offsets that decrease, or a final offset other than
    // the blob length, would let views run off the mapped bytes.
    const auto blob_bytes = StringBlobBytes(body, sm.rows);
    if (!blob_bytes || *blob_bytes != sec.body_bytes - 4 * sm.rows) {
      corrupt("string offsets inconsistent with blob");
    }
  }
  // Two first readers of one section may both check it; it counts once.
  if (!checked.exchange(true, std::memory_order_acq_rel)) {
    bytes_verified_.fetch_add(sec.body_bytes, std::memory_order_relaxed);
  }
  return body;
}

void ColumnSnapshot::ensure_kind_open(std::size_t kind) const {
  map_kind(kind);
  const ColumnKindMeta& meta = kinds_[kind].meta;
  for (std::size_t s = 0; s < meta.stripes.size(); ++s) {
    for (std::size_t f = 0; f < meta.stripes[s].sections.size(); ++f) section_body(kind, s, f);
  }
}

std::unique_ptr<DataRepository> OpenColumnSnapshot(const std::string& dir,
                                                   std::string* error) {
  std::shared_ptr<const ColumnSnapshot> snap = ColumnSnapshot::Open(dir, error);
  if (snap == nullptr) return nullptr;
  auto repo = std::make_unique<DataRepository>(snap->windows());
  for (const HomeInfo& home : snap->homes()) repo->register_home(home);
  repo->attach_columns(std::move(snap));
  return repo;
}

}  // namespace bismark::collect
