#include "collect/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <compare>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "collect/manifest.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

/// A merge cursor's share of the read-ahead, clamped to 1–16 KiB.
constexpr std::size_t kMinReadAhead = 1 << 10;
constexpr std::size_t kMaxReadAhead = 16 << 10;
/// A spill stripe closes once its columns reach the smallest read-ahead
/// share, so a cursor framing one stripe buffers about one share.
constexpr std::size_t kStripeBytes = kMinReadAhead;

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

void SegmentLog::open() {
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

template <typename T>
SectionRef SegmentLog::append_rows(std::uint32_t shard, std::uint32_t run,
                                   std::span<const T> rows) {
  StripeBuilder<T> stripe;
  std::string body;
  for (const T& row : rows) {
    stripe.add(row);
    if (stripe.bytes >= kStripeBytes) stripe.append_stripe(body);
  }
  if (stripe.rows > 0) stripe.append_stripe(body);
  return append(static_cast<std::uint32_t>(kRecordIndexOf<T>), shard, run, rows.size(), body);
}

SectionRef SegmentLog::append(std::uint32_t kind, std::uint32_t shard, std::uint32_t run,
                              std::uint64_t rows, const std::string& body) {
  SectionRef ref;
  ref.file = index_;
  ref.offset = offset_ + kSectionHeaderBytes;
  ref.bytes = body.size();
  ref.rows = rows;
  ref.shard = shard;
  ref.run = run;
  ref.kind = kind;
  ref.crc = kSpillSection.write(out_, {kind, shard, run}, rows, {body});
  check(out_.ok(), "section write");
  offset_ += kSectionHeaderBytes + body.size() + kSectionFooterBytes;
  // Push the section to the OS before the caller commits it to the
  // manifest: a manifest record must never reference bytes that a crash of
  // this process could still lose.
  check(out_.flush(), "flush");
  return ref;
}

void SegmentLog::flush() { check(out_.flush(), "flush"); }

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
    // Opened here, before any worker runs: a checkpoint reads every log's
    // descriptor while other workers append.
    logs_.back()->open();
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

void SpillDir::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  // fd-level fsync of every log: safe against the owning worker writing
  // concurrently (its buffered in-flight section is not manifested and
  // needs no durability yet; everything manifested was flushed to the OS
  // by append).
  for (const auto& log : logs_) {
    std::string error;
    if (!core::Io::Active().sync(log->fd(), log->path(), &error)) {
      throw std::runtime_error("spill: checkpoint fsync failed: " + error);
    }
  }
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

/// Sequential stripe framer over one section of kind T: a small read-ahead
/// buffer refilled by pread from a shared descriptor, so a merge holds
/// O(sections × read-ahead) memory no matter how large the sections are —
/// a cursor never buffers more than the larger of its read-ahead and one
/// stripe. Checks the frame's header against the manifest's SectionRef on
/// open, each stripe's framing as it reaches it, and the body CRC32C and
/// footer at exhaustion — every read re-checks every byte it reads.
template <typename T>
class SectionCursor {
 public:
  SectionCursor(int fd, std::string path, const SectionRef& ref, bool verify,
                std::size_t read_ahead, std::atomic<std::uint64_t>& bytes_read)
      : fd_(fd),
        path_(std::move(path)),
        ref_(ref),
        verify_(verify),
        read_ahead_(read_ahead),
        bytes_read_(bytes_read),
        frame_{{ref.kind, ref.shard, ref.run}, ref.rows, ref.bytes, ref.crc},
        file_pos_(ref.offset),
        remaining_file_(ref.bytes) {
    if (!verify_) return;
    if (ref.offset < kSectionHeaderBytes) fail("header offset underflow");
    char header[kSectionHeaderBytes];
    file_pos_ = ref.offset - kSectionHeaderBytes;
    read_exact(header, sizeof header, "short header read");
    check(kSpillSection.check_header(header, frame_));
  }

  /// View the next stripe, valid until the next call; an empty view at
  /// section end, after the one-time CRC + footer verification. The CRC
  /// comes last, so the framing fails closed on its own before a view
  /// could read past the buffer: on a row count out of range, a string
  /// column whose end offsets decrease, or a stripe that runs past the body.
  TableView<T> next_stripe() {
    if (rows_read_ == ref_.rows) {
      finish();
      return {};
    }
    ensure(4);
    const std::uint64_t rows = core::LoadLe<4>(buf_.data() + pos_);
    if (rows == 0 || rows > ref_.rows - rows_read_) fail("stripe row count out of range");
    constexpr auto kEncodings = ColumnEncodings<T>();
    std::array<std::uint64_t, kEncodings.size()> column_at{};  // from the stripe's start
    std::uint64_t len = 4;
    for (std::size_t f = 0; f < kEncodings.size(); ++f) {
      column_at[f] = len;
      len += rows * (kEncodings[f] != 0 ? kEncodings[f] : 4);
      if (kEncodings[f] != 0) continue;
      ensure(len);
      const auto blob = StringBlobBytes(buf_.data() + pos_ + column_at[f], rows);
      if (!blob) fail("string end offsets decrease");
      len += *blob;
    }
    ensure(len);
    std::array<const char*, kEncodings.size()> columns{};
    for (std::size_t f = 0; f < columns.size(); ++f) columns[f] = buf_.data() + pos_ + column_at[f];
    pos_ += len;
    rows_read_ += rows;
    return TableView<T>(columns, rows);
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::ostringstream os;
    os << "spill: corrupt section kind=" << ref_.kind << " shard=" << ref_.shard
       << " run=" << ref_.run << " file=" << path_ << " offset=" << ref_.offset
       << " bytes=" << ref_.bytes << ": " << why;
    throw std::runtime_error(os.str());
  }
  void check(const std::string& why) const {
    if (!why.empty()) fail(why);
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (!verify_) return;
    // Every body byte must be accounted for by the stripes we framed.
    if (remaining_file_ != 0 || pos_ != buf_.size()) {
      fail("body length does not match stripe framing");
    }
    char footer[kSectionFooterBytes];
    read_exact(footer, sizeof footer, "truncated footer");
    check(kSpillSection.check_footer(footer, frame_, crc_));
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

  /// Buffer at least `n` bytes past pos_, dropping what precedes it.
  void ensure(std::uint64_t n) {
    const std::size_t have = buf_.size() - pos_;
    if (have >= n) return;
    if (n - have > remaining_file_) fail("stripe runs past the section body");
    buf_.erase(0, pos_);
    pos_ = 0;
    std::size_t read_more = have < read_ahead_ ? read_ahead_ - have : 0;
    if (have + read_more < n) read_more = static_cast<std::size_t>(n - have);  // a long stripe
    if (read_more > remaining_file_) read_more = static_cast<std::size_t>(remaining_file_);
    buf_.resize(have + read_more);
    read_exact(buf_.data() + have, read_more, "short read (file truncated mid-section)");
    if (verify_) crc_ = core::Crc32c(buf_.data() + have, read_more, crc_);
    remaining_file_ -= read_more;
  }

  int fd_;
  std::string path_;
  SectionRef ref_;
  bool verify_;
  std::size_t read_ahead_;
  std::atomic<std::uint64_t>& bytes_read_;
  SectionFrame frame_;      // what the manifest record says the frame holds
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
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    if (kRecordIndexOf<T> != ref.kind) return;
    SectionCursor<T> cursor(fd, path, ref, /*verify=*/true, kMaxReadAhead, bytes_read);
    while (cursor.next_stripe().rows() != 0) {
    }
  });
}

// --- one-level merge --------------------------------------------------------

/// K-way merge of every section of kind T, in canonical stream order. Each
/// cursor's current row lives in `heads_`, decoded from the stripe its
/// source is reading; the heap holds only (key, position) pairs, so the
/// winning row is moved out, never copied. The winner's entry stays at the
/// top: its source's next row takes its key there, or the heap's last entry
/// takes its place once the source is spent, and one sift-down restores the
/// heap, so a row costs one walk down the heap, not a pop and a push.
template <typename T>
class SpilledRowStream<T>::Merge {
 public:
  Merge(SpillDir& dir, const std::vector<SectionRef>& sections)
      : sources_(sections.size()), heads_(sections.size()) {
    const bool verify = dir.config().verify_checksums;
    const std::size_t read_ahead =
        std::clamp(kMergeReadAheadBytes / std::max<std::size_t>(sections.size(), 1),
                   kMinReadAhead, kMaxReadAhead);
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const SectionRef& ref = sections[i];
      sources_[i].cursor = std::make_unique<SectionCursor<T>>(
          dir.read_fd(ref.file), dir.file_path(ref.file), ref, verify, read_ahead,
          dir.bytes_read());
    }
    for (std::uint32_t order = 0; order < sources_.size(); ++order) {
      if (load(order)) heap_.push_back({Schema<T>::SortKey(heads_[order]), order});
    }
    std::sort(heap_.begin(), heap_.end());  // an ascending array is a heap
  }

  /// Move the next row in merged order into `out`; false once exhausted.
  bool next(std::vector<T>& out) {
    if (heap_.empty()) return false;
    const std::uint32_t order = heap_.front().order;
    out.push_back(std::move(heads_[order]));
    if (load(order)) {
      heap_.front().key = Schema<T>::SortKey(heads_[order]);
    } else {
      heap_.front() = heap_.back();
      heap_.pop_back();
    }
    sift_down();
    return true;
  }

 private:
  /// Merge order: SortKey, then stream position. No two entries tie.
  struct Entry {
    decltype(Schema<T>::SortKey(std::declval<const T&>())) key;
    std::uint32_t order;  // position in the canonical stream order
    auto operator<=>(const Entry&) const = default;
  };

  /// One section's cursor and the stripe it is reading.
  struct Source {
    std::unique_ptr<SectionCursor<T>> cursor;
    TableView<T> stripe;
    std::uint64_t row{0};  // the stripe's next row
  };

  /// Move the top entry down past every child that precedes it.
  void sift_down() {
    const std::size_t n = heap_.size();
    if (n < 2) return;
    const Entry top = heap_.front();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < top)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = top;
  }

  /// Decode source `order`'s next row into its head slot, framing its next
  /// stripe once the current one is spent.
  bool load(std::uint32_t order) {
    Source& source = sources_[order];
    if (source.row == source.stripe.rows()) {
      source.stripe = source.cursor->next_stripe();
      source.row = 0;
      if (source.stripe.rows() == 0) return false;
    }
    source.stripe.row(source.row++, &heads_[order]);
    return true;
  }

  std::vector<Source> sources_;
  std::vector<T> heads_;
  std::vector<Entry> heap_;  // a binary min-heap in Entry order
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
#define BISMARK_SPILL_INSTANTIATE(T) \
  template class SpilledRowStream<T>; \
  template SectionRef SegmentLog::append_rows<T>(std::uint32_t, std::uint32_t, std::span<const T>);
BISMARK_FOR_EACH_RECORD_KIND(BISMARK_SPILL_INSTANTIATE)
#undef BISMARK_SPILL_INSTANTIATE

}  // namespace bismark::collect
