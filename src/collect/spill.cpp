#include "collect/spill.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "collect/manifest.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

void PutU32(char* out, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void PutU64(char* out, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::string SectionLabel(const std::string& path, const SectionRef& ref) {
  std::ostringstream os;
  os << "section kind=" << ref.kind << " shard=" << ref.shard << " run=" << ref.run
     << " file=" << path << " offset=" << ref.offset << " bytes=" << ref.bytes;
  return os.str();
}

}  // namespace

// --- SegmentLog -------------------------------------------------------------

SegmentLog::SegmentLog(std::string path, std::uint32_t index)
    : path_(std::move(path)), index_(index) {}

void SegmentLog::ensure_open() {
  if (out_.is_open()) return;
  if (!out_.open(path_)) {
    throw std::runtime_error("spill: cannot open segment file: " + out_.error());
  }
}

void SegmentLog::check(bool ok, const char* op) {
  if (!ok) {
    throw std::runtime_error(std::string("spill: ") + op + " failed: " +
                             (out_.error().empty() ? path_ : out_.error()));
  }
}

SectionRef SegmentLog::append(std::uint32_t kind, std::uint32_t shard, std::uint32_t run,
                              std::uint64_t rows, const std::string& body) {
  begin_section(kind, shard, run);
  write(body.data(), body.size());
  return end_section(rows);
}

void SegmentLog::begin_section(std::uint32_t kind, std::uint32_t shard, std::uint32_t run) {
  ensure_open();
  char header[kSectionHeaderBytes];
  PutU32(header, kSectionMagic);
  PutU32(header + 4, kind);
  PutU32(header + 8, shard);
  PutU32(header + 12, run);
  check(out_.write(header, sizeof header), "section header write");
  offset_ += sizeof header;
  section_start_ = offset_;
  section_kind_ = kind;
  section_shard_ = shard;
  section_run_ = run;
  section_crc_ = 0;
}

void SegmentLog::write(const char* data, std::size_t n) {
  section_crc_ = core::Crc32c(data, n, section_crc_);
  check(out_.write(data, n), "write");
  offset_ += n;
}

SectionRef SegmentLog::end_section(std::uint64_t rows) {
  SectionRef ref;
  ref.file = index_;
  ref.offset = section_start_;
  ref.bytes = offset_ - section_start_;
  ref.rows = rows;
  ref.shard = section_shard_;
  ref.run = section_run_;
  ref.kind = section_kind_;
  ref.crc = section_crc_;
  char footer[kSectionFooterBytes];
  PutU64(footer, rows);
  PutU64(footer + 8, ref.bytes);
  PutU32(footer + 16, ref.crc);
  PutU32(footer + 20, kSectionEndMagic);
  check(out_.write(footer, sizeof footer), "section footer write");
  offset_ += sizeof footer;
  // Push the section to the OS before the caller commits it to the
  // manifest: a manifest record must never reference bytes that a crash of
  // this process could still lose.
  check(out_.flush(), "flush");
  return ref;
}

void SegmentLog::flush() {
  if (out_.is_open()) check(out_.flush(), "flush");
}

void SegmentLog::sync() {
  if (out_.is_open()) check(out_.sync(), "fsync");
}

// --- SpillDir ---------------------------------------------------------------

SpillDir::SpillDir(SpillConfig config) : config_(std::move(config)) {
  std::filesystem::create_directories(config_.dir);
  open_generation_logs();
  manifest_ = std::make_unique<ManifestWriter>();
  manifest_->open(config_.dir + "/manifest.bsmkman", /*fresh=*/true);
  for (std::uint32_t i = 0; i < file_names_.size(); ++i) manifest_->file(i, file_names_[i]);
}

SpillDir::SpillDir(SpillConfig config, const SpillRecovery& recovered)
    : config_(std::move(config)), generation_(recovered.config.generation + 1) {
  std::filesystem::create_directories(config_.dir);
  file_names_ = recovered.files;
  sections_ = recovered.sections;
  for (std::size_t kind = 0; kind < kRecordKinds; ++kind) {
    for (const SectionRef& ref : sections_[kind]) rows_[kind] += ref.rows;
  }
  const std::uint32_t first_new = static_cast<std::uint32_t>(file_names_.size());
  open_generation_logs();
  manifest_ = std::make_unique<ManifestWriter>();
  manifest_->open(config_.dir + "/manifest.bsmkman", /*fresh=*/false);
  for (std::uint32_t i = first_new; i < file_names_.size(); ++i) {
    manifest_->file(i, file_names_[i]);
  }
}

SpillDir::~SpillDir() = default;

void SpillDir::open_generation_logs() {
  const std::size_t workers = config_.workers ? config_.workers : 1;
  const std::uint32_t base = static_cast<std::uint32_t>(file_names_.size());
  const std::string gen = "seg-g" + std::to_string(generation_) + "-";
  logs_.reserve(workers + 1);
  for (std::size_t i = 0; i < workers; ++i) {
    file_names_.push_back(gen + "w" + std::to_string(i) + ".bsmkseg");
    logs_.push_back(std::make_unique<SegmentLog>(config_.dir + "/" + file_names_.back(),
                                                 base + static_cast<std::uint32_t>(i)));
  }
  file_names_.push_back(gen + "merge.bsmkseg");
  logs_.push_back(std::make_unique<SegmentLog>(config_.dir + "/" + file_names_.back(),
                                               base + static_cast<std::uint32_t>(workers)));
}

SegmentLog& SpillDir::log_for_worker(std::size_t worker) {
  return *logs_[worker < logs_.size() - 1 ? worker : 0];
}

std::string SpillDir::file_path(std::uint32_t file_index) const {
  return config_.dir + "/" + file_names_[file_index];
}

void SpillDir::register_section(std::size_t kind, SectionRef ref) {
  ref.kind = static_cast<std::uint32_t>(kind);
  std::lock_guard<std::mutex> lock(mu_);
  rows_[kind] += ref.rows;
  sections_[kind].push_back(ref);
  manifest_->section(ref);
}

void SpillDir::write_run_config(const ManifestConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_->config(cfg);
  manifest_->sync();
}

void SpillDir::record_shard_done(std::uint32_t shard, const std::vector<HomeInfo>& homes) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_->shard_done(shard, homes);
}

void SpillDir::write_checkpoint(const ManifestCheckpoint& ckpt) {
  std::lock_guard<std::mutex> lock(mu_);
  // fd-level fsync of every log: safe against the owning worker writing
  // concurrently (its buffered in-flight section is not manifested and
  // needs no durability yet; everything manifested was flushed to the OS
  // at end_section).
  for (const auto& log : logs_) {
    const int fd = log->fd();
    if (fd < 0) continue;
    std::string error;
    if (!core::Io::Active().sync(fd, log->path(), &error)) {
      throw std::runtime_error("spill: checkpoint fsync failed: " + error);
    }
  }
  manifest_->checkpoint(ckpt);
  manifest_->sync();
}

std::uint64_t SpillDir::total_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto n : rows_) total += n;
  return total;
}

std::vector<SectionRef> SpillDir::sections_of_kind(std::size_t kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sections_[kind];
}

std::uint64_t SpillDir::sections_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& v : sections_) total += v.size();
  return total;
}

void SpillDir::flush_all() {
  for (const auto& log : logs_) log->flush();
}

std::uint64_t SpillDir::bytes_spilled() const {
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->bytes_written();
  return total;
}

// --- section cursor ---------------------------------------------------------

namespace {

/// Sequential decoder over one section: a small read-ahead buffer refilled
/// from the segment file, so a merge holds O(fan_in × buffer) memory no
/// matter how large the sections are. Verifies the v2 frame on open (header
/// fields must match the manifest's SectionRef) and the body CRC32C +
/// footer at exhaustion — every merge pass re-checks every byte it reads.
class SectionCursor {
 public:
  // 16 KiB keeps a full fan-in (256 live cursors) at ~4 MiB of buffers.
  static constexpr std::size_t kBufferBytes = 16 * 1024;

  SectionCursor(std::string path, const SectionRef& ref, bool verify)
      : path_(std::move(path)), ref_(ref), verify_(verify) {
    // Unbuffered: reads land straight in buf_, so a cursor costs one
    // kBufferBytes buffer, not that plus a stream buffer.
    in_.rdbuf()->pubsetbuf(nullptr, 0);
    in_.open(path_, std::ios::binary);
    if (!in_) throw std::runtime_error("spill: cannot reopen segment file " + path_);
    if (verify_) {
      if (ref.offset < kSectionHeaderBytes) {
        fail("header offset underflow");
      }
      char header[kSectionHeaderBytes];
      in_.seekg(static_cast<std::streamoff>(ref.offset - kSectionHeaderBytes));
      in_.read(header, sizeof header);
      if (static_cast<std::size_t>(in_.gcount()) != sizeof header) fail("short header read");
      if (GetU32(header) != kSectionMagic) fail("bad section magic");
      if (GetU32(header + 4) != ref.kind || GetU32(header + 8) != ref.shard ||
          GetU32(header + 12) != ref.run) {
        fail("section header does not match its manifest record");
      }
    } else {
      in_.seekg(static_cast<std::streamoff>(ref.offset));
    }
    remaining_file_ = ref.bytes;
  }

  /// Frame the next row; returns an empty view at section end (after the
  /// one-time CRC + footer verification).
  [[nodiscard]] std::pair<const char*, std::size_t> next_row() {
    if (rows_read_ == ref_.rows) {
      finish();
      return {nullptr, 0};
    }
    ensure(4);
    const std::uint32_t len = GetU32(buf_.data() + pos_);
    pos_ += 4;
    ensure(len);
    const char* row = buf_.data() + pos_;
    pos_ += len;
    ++rows_read_;
    return {row, len};
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("spill: corrupt " + SectionLabel(path_, ref_) + ": " + why);
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (!verify_) return;
    // Every body byte must be accounted for by the rows we decoded.
    if (remaining_file_ != 0 || pos_ != buf_.size()) {
      fail("body length does not match row framing");
    }
    if (crc_ != ref_.crc) {
      std::ostringstream os;
      os << "body CRC32C mismatch (expected 0x" << std::hex << ref_.crc << ", computed 0x"
         << crc_ << ")";
      fail(os.str());
    }
    char footer[kSectionFooterBytes];
    in_.read(footer, sizeof footer);
    if (static_cast<std::size_t>(in_.gcount()) != sizeof footer) fail("truncated footer");
    if (GetU64(footer) != ref_.rows || GetU64(footer + 8) != ref_.bytes ||
        GetU32(footer + 16) != ref_.crc) {
      fail("footer does not match its manifest record");
    }
    if (GetU32(footer + 20) != kSectionEndMagic) fail("bad section end magic");
  }

  void ensure(std::size_t n) {
    if (buf_.size() - pos_ >= n) return;
    buf_.erase(0, pos_);
    pos_ = 0;
    const std::size_t have = buf_.size();
    std::size_t read_more = have < kBufferBytes ? kBufferBytes - have : 0;
    if (have + read_more < n) read_more = n - have;  // oversized row (long string)
    if (read_more > remaining_file_) read_more = static_cast<std::size_t>(remaining_file_);
    buf_.resize(have + read_more);
    in_.read(buf_.data() + have, static_cast<std::streamsize>(read_more));
    if (static_cast<std::size_t>(in_.gcount()) != read_more) {
      fail("short read (file truncated mid-section)");
    }
    if (verify_) crc_ = core::Crc32c(buf_.data() + have, read_more, crc_);
    remaining_file_ -= read_more;
    if (buf_.size() < n) fail("row frame extends past the section body");
  }

  std::string path_;
  SectionRef ref_;
  bool verify_;
  std::ifstream in_;
  std::string buf_;
  std::size_t pos_{0};
  std::uint64_t rows_read_{0};
  std::uint64_t remaining_file_{0};  // section bytes not yet buffered
  std::uint32_t crc_{0};
  bool finished_{false};
};

/// Canonical order of section *streams*: ties between rows with equal sort
/// keys resolve by the shard-plan index, then by flush sequence.
bool StreamOrder(const SectionRef& a, const SectionRef& b) {
  if (a.shard != b.shard) return a.shard < b.shard;
  return a.run < b.run;
}

/// K-way merge of a contiguous run of sections (already in canonical stream
/// order). Each cursor's current row lives in `heads_`; the heap holds only
/// (key, position) pairs, so the winning row is moved out, never copied,
/// and its slot is refilled in place.
template <typename T>
class KWayMerge {
 public:
  KWayMerge(SpillDir& dir, const std::vector<SectionRef>& sections, std::size_t begin,
            std::size_t end)
      : heads_(end - begin) {
    const bool verify = dir.config().verify_checksums;
    cursors_.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      cursors_.push_back(
          std::make_unique<SectionCursor>(dir.file_path(sections[i].file), sections[i], verify));
    }
    for (std::uint32_t order = 0; order < cursors_.size(); ++order) {
      if (load(order)) heap_.push_back({Schema<T>::SortKey(heads_[order]), order});
    }
    std::make_heap(heap_.begin(), heap_.end(), After);
  }

  /// Move the next row in merged order into `out`; false once exhausted.
  bool next(std::vector<T>& out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), After);
    const std::uint32_t order = heap_.back().order;
    out.push_back(std::move(heads_[order]));
    if (load(order)) {
      heap_.back().key = Schema<T>::SortKey(heads_[order]);
      std::push_heap(heap_.begin(), heap_.end(), After);
    } else {
      heap_.pop_back();
    }
    return true;
  }

 private:
  struct Entry {
    decltype(Schema<T>::SortKey(std::declval<const T&>())) key;
    std::uint32_t order;  // position in the canonical stream order
  };

  /// Heap order (the smallest entry on top): SortKey, then stream position.
  static bool After(const Entry& a, const Entry& b) {
    if (a.key != b.key) return b.key < a.key;
    return a.order > b.order;
  }

  /// Decode cursor `order`'s next row into its head slot.
  bool load(std::uint32_t order) {
    auto [data, len] = cursors_[order]->next_row();
    if (data == nullptr) return false;
    BinReader r(data, len);
    DecodeRow(r, heads_[order]);
    if (r.failed() || !r.at_end()) throw std::runtime_error("spill: corrupt row");
    return true;
  }

  std::vector<std::unique_ptr<SectionCursor>> cursors_;
  std::vector<T> heads_;
  std::vector<Entry> heap_;
};

/// Merge sections[begin, end) into one scratch section tagged
/// (group, level). The caller holds the merge lock.
template <typename T>
SectionRef ReduceGroup(SpillDir& dir, const std::vector<SectionRef>& sections,
                       std::size_t begin, std::size_t end, std::uint32_t group,
                       std::uint32_t level) {
  SegmentLog& scratch = dir.scratch_log();
  scratch.begin_section(static_cast<std::uint32_t>(kRecordIndexOf<T>), group, level);
  KWayMerge<T> merge(dir, sections, begin, end);
  std::uint64_t rows = 0;
  BinWriter row_w;
  std::string chunk;
  std::vector<T> row;
  while (merge.next(row)) {
    row_w.clear();
    EncodeRow(row_w, row.back());
    row.clear();
    char prefix[4];
    PutU32(prefix, static_cast<std::uint32_t>(row_w.size()));
    chunk.append(prefix, 4);
    chunk.append(row_w.buffer());
    ++rows;
    if (chunk.size() >= 1 << 20) {
      scratch.write(chunk.data(), chunk.size());
      chunk.clear();
    }
  }
  if (!chunk.empty()) scratch.write(chunk.data(), chunk.size());
  return scratch.end_section(rows);
}

}  // namespace

// --- hierarchical merge -----------------------------------------------------

template <typename T>
class SpilledRowStream<T>::Merge : public KWayMerge<T> {
 public:
  using KWayMerge<T>::KWayMerge;
};

template <typename T>
SpilledRowStream<T>::SpilledRowStream(SpillDir& dir) {
  std::vector<SectionRef> sections = dir.sections_of_kind(kRecordIndexOf<T>);
  std::sort(sections.begin(), sections.end(), StreamOrder);

  // Reduces share the scratch log, so the flush and any reduce happen under
  // the merge lock — but the final merge reads committed, immutable section
  // bytes through private cursors, so the lock is dropped first: at most
  // one kind reduces into scratch at a time, then every kind merges in
  // parallel.
  std::unique_lock<std::mutex> lock(dir.merge_mutex());
  dir.flush_all();  // make every log's buffered tail visible to cursors

  const std::size_t fan_in = std::max<std::size_t>(dir.config().merge_fan_in, 2);
  for (std::uint32_t level = 0; sections.size() > fan_in; ++level) {
    // Reduce just enough of a contiguous prefix, in groups of at most
    // fan_in, that the remainder fits one merge: g groups cut the count by
    // g·(fan_in − 1) at most. Past fan_in² sections no single level can get
    // there, so every section is reduced. Each group's output takes the
    // group's place in the canonical stream order, so ties still resolve
    // exactly as in the unreduced merge.
    const std::size_t n = sections.size();
    std::size_t reduce = n;  // sections to fold, from the front
    if (n <= fan_in * fan_in) {
      const std::size_t excess = n - fan_in;
      const std::size_t groups = (excess + fan_in - 2) / (fan_in - 1);
      reduce = excess + groups;
    }
    std::vector<SectionRef> next;
    next.reserve(n - reduce + reduce / fan_in + 1);
    std::uint32_t group = 0;
    for (std::size_t begin = 0; begin < reduce; begin += fan_in, ++group) {
      const std::size_t end = std::min(begin + fan_in, reduce);
      next.push_back(ReduceGroup<T>(dir, sections, begin, end, group, level));
    }
    next.insert(next.end(), sections.begin() + static_cast<std::ptrdiff_t>(reduce),
                sections.end());
    dir.scratch_log().flush();
    sections = std::move(next);
  }
  lock.unlock();
  merge_ = std::make_unique<Merge>(dir, sections, 0, sections.size());
}

template <typename T>
SpilledRowStream<T>::~SpilledRowStream() = default;

template <typename T>
std::size_t SpilledRowStream<T>::read(std::vector<T>& out, std::size_t max_rows) {
  std::size_t n = 0;
  while (n < max_rows && merge_->next(out)) ++n;
  return n;
}

// One instantiation per registered record kind.
#define BISMARK_SPILL_INSTANTIATE(T) template class SpilledRowStream<T>;
BISMARK_FOR_EACH_RECORD_KIND(BISMARK_SPILL_INSTANTIATE)
#undef BISMARK_SPILL_INSTANTIATE

}  // namespace bismark::collect
