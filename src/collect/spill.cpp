#include "collect/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "collect/manifest.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

using coldetail::LoadLe;
using coldetail::StoreLe;

int OpenForRead(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("spill: cannot open segment file for reading: " + path + ": " +
                             std::strerror(errno));
  }
  return fd;
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
  ensure_open();
  SectionRef ref;
  ref.file = index_;
  ref.offset = offset_ + kSectionHeaderBytes;
  ref.bytes = body.size();
  ref.rows = rows;
  ref.shard = shard;
  ref.run = run;
  ref.kind = kind;
  ref.crc = core::Crc32c(body.data(), body.size());
  std::string header;
  for (const std::uint32_t field : {kSectionMagic, kind, shard, run}) StoreLe<4>(header, field);
  std::string footer;
  StoreLe<8>(footer, rows);
  StoreLe<8>(footer, ref.bytes);
  StoreLe<4>(footer, ref.crc);
  StoreLe<4>(footer, kSectionEndMagic);
  check(out_.write(header), "section header write");
  check(out_.write(body), "write");
  check(out_.write(footer), "section footer write");
  offset_ += header.size() + body.size() + footer.size();
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

SpillDir::~SpillDir() {
  for (const int fd : read_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void SpillDir::open_generation_logs() {
  const std::size_t workers = config_.workers ? config_.workers : 1;
  const std::uint32_t base = static_cast<std::uint32_t>(file_names_.size());
  const std::string gen = "seg-g" + std::to_string(generation_) + "-";
  logs_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    file_names_.push_back(gen + "w" + std::to_string(i) + ".bsmkseg");
    logs_.push_back(std::make_unique<SegmentLog>(config_.dir + "/" + file_names_.back(),
                                                 base + static_cast<std::uint32_t>(i)));
  }
  read_fds_.assign(file_names_.size(), -1);
}

SegmentLog& SpillDir::log_for_worker(std::size_t worker) {
  return *logs_[worker < logs_.size() ? worker : 0];
}

std::string SpillDir::file_path(std::uint32_t file_index) const {
  return config_.dir + "/" + file_names_[file_index];
}

int SpillDir::read_fd(std::uint32_t file_index) {
  std::lock_guard<std::mutex> lock(mu_);
  int& fd = read_fds_[file_index];
  if (fd < 0) fd = OpenForRead(file_path(file_index));
  return fd;
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
  // by append).
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
  std::lock_guard<std::mutex> lock(merge_mu_);
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
/// by pread from a shared descriptor, so a merge holds O(sections ×
/// read-ahead) memory no matter how large the sections are. Verifies the v2
/// frame on open (header fields must match the manifest's SectionRef) and
/// the row framing, body CRC32C and footer at exhaustion — every read
/// re-checks every byte it reads.
class SectionCursor {
 public:
  static constexpr std::size_t kMinReadAhead = 1 << 10;
  static constexpr std::size_t kMaxReadAhead = 16 << 10;

  SectionCursor(int fd, std::string path, const SectionRef& ref, bool verify,
                std::size_t read_ahead, std::atomic<std::uint64_t>& bytes_read)
      : fd_(fd),
        path_(std::move(path)),
        ref_(ref),
        verify_(verify),
        read_ahead_(read_ahead),
        bytes_read_(bytes_read),
        file_pos_(ref.offset),
        remaining_file_(ref.bytes) {
    if (!verify_) return;
    if (ref.offset < kSectionHeaderBytes) fail("header offset underflow");
    char header[kSectionHeaderBytes];
    file_pos_ = ref.offset - kSectionHeaderBytes;
    read_exact(header, sizeof header, "short header read");
    if (LoadLe<4>(header) != kSectionMagic) fail("bad section magic");
    if (LoadLe<4>(header + 4) != ref.kind || LoadLe<4>(header + 8) != ref.shard ||
        LoadLe<4>(header + 12) != ref.run) {
      fail("section header does not match its manifest record");
    }
  }

  /// Frame the next row; returns an empty view at section end (after the
  /// one-time CRC + footer verification).
  [[nodiscard]] std::pair<const char*, std::size_t> next_row() {
    if (rows_read_ == ref_.rows) {
      finish();
      return {nullptr, 0};
    }
    ensure(4);
    const auto len = static_cast<std::uint32_t>(LoadLe<4>(buf_.data() + pos_));
    pos_ += 4;
    ensure(len);
    const char* row = buf_.data() + pos_;
    pos_ += len;
    ++rows_read_;
    return {row, len};
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::ostringstream os;
    os << "spill: corrupt section kind=" << ref_.kind << " shard=" << ref_.shard
       << " run=" << ref_.run << " file=" << path_ << " offset=" << ref_.offset
       << " bytes=" << ref_.bytes << ": " << why;
    throw std::runtime_error(os.str());
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
    read_exact(footer, sizeof footer, "truncated footer");
    if (LoadLe<8>(footer) != ref_.rows || LoadLe<8>(footer + 8) != ref_.bytes ||
        LoadLe<4>(footer + 16) != ref_.crc) {
      fail("footer does not match its manifest record");
    }
    if (LoadLe<4>(footer + 20) != kSectionEndMagic) fail("bad section end magic");
  }

  /// pread exactly `n` bytes at the cursor's file position, or fail with `why`.
  void read_exact(char* out, std::size_t n, const char* why) {
    for (std::size_t got = 0; got < n;) {
      const ssize_t r = ::pread(fd_, out + got, n - got, static_cast<off_t>(file_pos_ + got));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) fail(why);
      got += static_cast<std::size_t>(r);
    }
    file_pos_ += n;
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
  }

  void ensure(std::size_t n) {
    if (buf_.size() - pos_ >= n) return;
    buf_.erase(0, pos_);
    pos_ = 0;
    const std::size_t have = buf_.size();
    std::size_t read_more = have < read_ahead_ ? read_ahead_ - have : 0;
    if (have + read_more < n) read_more = n - have;  // a row longer than the read-ahead
    if (read_more > remaining_file_) read_more = static_cast<std::size_t>(remaining_file_);
    buf_.resize(have + read_more);
    read_exact(buf_.data() + have, read_more, "short read (file truncated mid-section)");
    if (verify_) crc_ = core::Crc32c(buf_.data() + have, read_more, crc_);
    remaining_file_ -= read_more;
    if (buf_.size() < n) fail("row frame extends past the section body");
  }

  int fd_;
  std::string path_;
  SectionRef ref_;
  bool verify_;
  std::size_t read_ahead_;
  std::atomic<std::uint64_t>& bytes_read_;
  std::uint64_t file_pos_;  // next byte to pread
  std::string buf_;
  std::size_t pos_{0};
  std::uint64_t rows_read_{0};
  std::uint64_t remaining_file_;  // section bytes not yet buffered
  std::uint32_t crc_{0};
  bool finished_{false};
};

/// Canonical order of section *streams*: ties between rows with equal sort
/// keys resolve by the shard-plan index, then by flush sequence.
bool StreamOrder(const SectionRef& a, const SectionRef& b) {
  if (a.shard != b.shard) return a.shard < b.shard;
  return a.run < b.run;
}

/// Read-ahead one merge's cursors share, split evenly and clamped to
/// 1–16 KiB per cursor: 16 KiB each up to 256 sections, a flat 4 MiB up to
/// 4096 (a 100k-home kind has ~3150).
constexpr std::size_t kMergeReadAheadBytes = 4 << 20;

}  // namespace

void VerifySection(const std::string& path, const SectionRef& ref) {
  const int fd = OpenForRead(path);
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  std::atomic<std::uint64_t> bytes_read{0};
  SectionCursor cursor(fd, path, ref, /*verify=*/true, SectionCursor::kMaxReadAhead, bytes_read);
  while (cursor.next_row().first != nullptr) {
  }
}

// --- one-level merge --------------------------------------------------------

/// K-way merge of every section of kind T, in canonical stream order. Each
/// cursor's current row lives in `heads_`; the heap holds only (key,
/// position) pairs, so the winning row is moved out, never copied, and its
/// slot is refilled in place.
template <typename T>
class SpilledRowStream<T>::Merge {
 public:
  Merge(SpillDir& dir, const std::vector<SectionRef>& sections) : heads_(sections.size()) {
    const bool verify = dir.config().verify_checksums;
    const std::size_t read_ahead =
        std::clamp(kMergeReadAheadBytes / std::max<std::size_t>(sections.size(), 1),
                   SectionCursor::kMinReadAhead, SectionCursor::kMaxReadAhead);
    cursors_.reserve(sections.size());
    for (const SectionRef& ref : sections) {
      cursors_.push_back(std::make_unique<SectionCursor>(dir.read_fd(ref.file),
                                                         dir.file_path(ref.file), ref, verify,
                                                         read_ahead, dir.bytes_read()));
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

template <typename T>
SpilledRowStream<T>::SpilledRowStream(SpillDir& dir) {
  std::vector<SectionRef> sections = dir.sections_of_kind(kRecordIndexOf<T>);
  std::sort(sections.begin(), sections.end(), StreamOrder);
  dir.flush_all();  // make every log's buffered tail visible to cursors
  merge_ = std::make_unique<Merge>(dir, sections);
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
