// Spill-to-disk segment layer: bounded-memory record storage at fleet scale.
//
// At 100k+ homes the all-in-RAM RecordStore needs tens of gigabytes, so a
// budgeted run streams records to disk instead. Each worker owns one
// append-only segment file; an IngestBatch that crosses its memory budget
// stable-sorts what it holds (per kind, by Schema<T>::SortKey) and appends
// it as one *section* — a sorted run tagged (shard, run sequence). Readers
// never load a data set whole: a SpilledRowStream, the spill arm of the
// repository's RowReader, k-way-merges the sections back into the exact
// canonical order the in-RAM path produces.
//
// Why the merge is byte-exact (DESIGN §11): the in-RAM repository order is
// a stable sort of rows committed in shard-plan order, i.e. ties resolve by
// (shard index, append position). Flush chronology partitions each shard's
// appends into runs with strictly increasing positions, so merging sorted
// runs with the comparator (SortKey, shard, run) — streaming within a run —
// reproduces that order exactly. No per-row position is stored on disk.
//
// Scale: a 100k-home run makes ~25k shards, ~3150 sections per kind. Every
// kind is merged in one level, straight from its sections: cursors pread
// through one read-only descriptor per segment file, which SpillDir opens on
// first use and every merge shares, so open descriptors grow with neither
// sections nor open kinds. A merge's cursors split 4 MiB of read-ahead
// evenly, 1–16 KiB each, and a stripe closes at 1 KiB, so a cursor buffers
// about one share and a merge's memory stays flat up to 4096 sections. No
// row is written twice.
//
// Durability (segment format v3, DESIGN §12): every section wears the
// shared section frame of collect/binio.h (kSpillSection: magic "BSG3",
// tags kind, shard and run; footer rows, body bytes, CRC32C, "END3"), and
// the SpillDir keeps a write-ahead manifest (collect/manifest.h) whose
// records commit sections only after their bytes reached the OS. Those
// records are all a resume reads; a checkpoint is only an fsync barrier
// over them and the segment logs. The body is the snapshot's column
// encoding (collect/column_view.h): SegmentLog::append_rows feeds the
// sorted run through a StripeBuilder and appends each closed stripe — u32
// row count, then each column in Schema<T>::Fields() order — and the
// merge's cursor frames the stripes and decodes rows through TableView.
// All writes go through the injectable core::Io seam; cursors re-check the
// frame, stripe framing and CRC on every read and fail closed on any
// mismatch, and resume recovery verifies a section by reading it with the
// same cursor (VerifySection).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "collect/binio.h"
#include "core/io.h"

namespace bismark::collect {

struct HomeInfo;
class ManifestWriter;
struct ManifestConfig;
struct SpillRecovery;

/// One run's spill settings. The merge takes none: it always reads every
/// section of a kind at once, and its memory is a fixed read-ahead split.
struct SpillConfig {
  /// Directory for segment files; created on demand. The caller owns the
  /// directory's lifetime — segment files are scratch, not an archive.
  std::string dir;
  /// Total record-staging budget across all workers. 0 disables spill.
  std::size_t budget_bytes{0};
  std::size_t workers{1};
  /// Verify section CRCs on read. Only the checksum-overhead bench turns
  /// this off; every production path keeps it on.
  bool verify_checksums{true};

  /// Per-batch flush threshold: half the per-worker share, so one staging
  /// batch plus one in-flight flush stay inside the worker's slice.
  [[nodiscard]] std::size_t flush_threshold() const {
    const std::size_t per_worker = budget_bytes / (2 * (workers ? workers : 1));
    return per_worker > 4096 ? per_worker : 4096;
  }
};

/// Spill sections: the shared frame (collect/binio.h), tagged with the
/// section's kind, shard and run.
inline constexpr SectionFormat kSpillSection{
    0x33475342u, 0x33444E45u, {"kind", "shard", "run"}};  // "BSG3" … "END3"

/// One sorted run of rows of a single kind inside a segment file.
struct SectionRef {
  std::uint32_t file{0};    ///< index into the SpillDir's file table
  std::uint64_t offset{0};  ///< byte offset of the first row (past the header)
  std::uint64_t bytes{0};   ///< body bytes (frame excluded)
  std::uint64_t rows{0};
  std::uint32_t shard{0};  ///< shard-plan index: the canonical tie order
  std::uint32_t run{0};    ///< flush sequence within (shard, kind)
  std::uint32_t kind{0};   ///< record-kind index (variant order)
  std::uint32_t crc{0};    ///< CRC32C of the body bytes
};

/// An append-only segment file, written only by the one worker that owns
/// it while its shard task runs; merges read it through SpillDir's shared
/// read-only descriptor. SpillDir opens it before any worker runs, so its
/// descriptor never changes while a checkpoint fsyncs it. Every write goes
/// through the checked core::Io seam; any I/O failure throws with the path
/// and errno — a full disk aborts the run, it does not truncate it silently.
class SegmentLog {
 public:
  SegmentLog(std::string path, std::uint32_t index);

  /// Create (truncate) the file. Throws on failure.
  void open();

  /// Append `rows` as one section of kind T whose body is their column
  /// stripes, each closed once its columns reach 1 KiB. Defined in
  /// spill.cpp, one instantiation per kind.
  template <typename T>
  SectionRef append_rows(std::uint32_t shard, std::uint32_t run, std::span<const T> rows);

  /// Append one section — header, the fully-encoded body, footer — and
  /// flush it to the OS, so a manifest record appended after this provably
  /// references durable-on-crash bytes.
  SectionRef append(std::uint32_t kind, std::uint32_t shard, std::uint32_t run,
                    std::uint64_t rows, const std::string& body);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return offset_; }
  [[nodiscard]] int fd() const { return out_.fd(); }

  /// Push buffered writes to the OS so cursors can read what was appended.
  void flush();

 private:
  void check(bool ok, const char* op);

  std::string path_;
  std::uint32_t index_;
  std::uint64_t offset_{0};
  core::CheckedFile out_;
};

/// Shared spill state: the segment directory, one log per worker, the
/// per-kind section tables, the write-ahead manifest, and one read-only
/// descriptor per segment file that every merge's cursors share. A resumed
/// run layers a new *generation* of segment files over the recovered ones;
/// the file table spans both.
class SpillDir {
 public:
  explicit SpillDir(SpillConfig config);
  /// Resume construction: adopt a recovered directory's file table and
  /// committed sections, open generation `recovered.config.generation + 1`
  /// logs alongside them, and append to the (already truncated) manifest.
  SpillDir(SpillConfig config, const SpillRecovery& recovered);
  ~SpillDir();

  [[nodiscard]] const SpillConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t generation() const { return generation_; }

  /// The worker's exclusive segment log (no locking: one worker, one log).
  SegmentLog& log_for_worker(std::size_t worker);
  /// Kept only so perfbench's bench_trace still compiles: a log that is
  /// never opened, so its bytes_written() is 0. Remove it, with
  /// bench_trace's merge-scratch counter, in the next benchmark change.
  SegmentLog& scratch_log() { return never_opened_; }
  /// Absolute path of a file-table entry (any generation).
  [[nodiscard]] std::string file_path(std::uint32_t file_index) const;
  /// The read-only descriptor of a file-table entry: opened on first use,
  /// shared by every cursor of every merge, closed with the SpillDir.
  /// Thread-safe. Cursors pread through it, so they share no file position.
  int read_fd(std::uint32_t file_index);
  /// Section bytes, frames included, that cursors have read: every pread
  /// adds to it, so one read of every kind reads bytes_spilled().
  [[nodiscard]] std::atomic<std::uint64_t>& bytes_read() { return bytes_read_; }

  /// Record a flushed section (thread-safe; workers flush concurrently).
  /// Appends the manifest record that commits the section.
  void register_section(std::size_t kind, SectionRef ref);

  /// Write the run-configuration record (once per generation, before any
  /// shard runs). fsynced: a resumable directory always has its config.
  void write_run_config(const ManifestConfig& cfg);
  /// Commit a completed shard: its homes become recoverable and every
  /// section it registered becomes eligible for resume.
  void record_shard_done(std::uint32_t shard, const std::vector<HomeInfo>& homes);
  /// Durability barrier (--checkpoint-every): fsync every segment log,
  /// then the manifest. Appends nothing; the write-ahead records already
  /// say what is committed.
  void checkpoint();

  [[nodiscard]] std::uint64_t rows_of_kind(std::size_t kind) const { return rows_[kind]; }
  [[nodiscard]] std::uint64_t total_rows() const;
  /// Copy of the kind's section table (callers sort it for merging).
  [[nodiscard]] std::vector<SectionRef> sections_of_kind(std::size_t kind) const;

  [[nodiscard]] std::uint64_t sections_written() const;
  [[nodiscard]] std::uint64_t bytes_spilled() const;

  /// Serialises flush_all, which takes it itself: kinds open concurrently
  /// and each flushes every log first.
  [[nodiscard]] std::mutex& merge_mutex() { return merge_mu_; }

  /// Flush every log's buffered writes so cursors see all appended rows.
  void flush_all();

 private:
  void open_generation_logs();

  SpillConfig config_;
  std::uint32_t generation_{0};
  std::vector<std::string> file_names_;            // file table, all generations
  std::vector<std::unique_ptr<SegmentLog>> logs_;  // this generation, one per worker
  SegmentLog never_opened_{std::string(), 0};
  std::unique_ptr<ManifestWriter> manifest_;
  std::array<std::vector<SectionRef>, kRecordKinds> sections_;
  std::array<std::uint64_t, kRecordKinds> rows_{};
  std::vector<int> read_fds_;  // per file-table entry; -1 until first use
  mutable std::mutex mu_;      // guards the four members above
  std::mutex merge_mu_;
  std::atomic<std::uint64_t> bytes_read_{0};
};

/// Read committed section `ref` of the segment file at `path` to its end
/// through a merge's cursor, checking everything a merge checks: the header
/// against `ref`, the framing of its stripes as columns of `ref.kind`, the
/// body CRC32C and the footer. Throws "spill: corrupt …" at the first
/// mismatch. Resume recovery's verifier.
void VerifySection(const std::string& path, const SectionRef& ref);

/// Pull-based reader of kind T's rows in canonical repository order —
/// exactly the sequence `rows<T>()` holds after
/// `finalize_deterministic_order()` on the in-RAM path — and the spill arm
/// of RowReader (collect/repository.h). Construction flushes the logs and
/// opens one cursor per section of the kind over the shared descriptors;
/// reading needs no lock, so kinds merge concurrently. Throws with a
/// precise diagnostic if any section fails its CRC or framing check.
template <typename T>
class SpilledRowStream {
 public:
  explicit SpilledRowStream(SpillDir& dir);
  ~SpilledRowStream();
  SpilledRowStream(const SpilledRowStream&) = delete;
  SpilledRowStream& operator=(const SpilledRowStream&) = delete;

  /// Append up to `max_rows` rows to `out`; returns how many. Fewer than
  /// `max_rows` means the stream is exhausted.
  std::size_t read(std::vector<T>& out, std::size_t max_rows);

 private:
  class Merge;  // the one-level k-way merge (spill.cpp)
  std::unique_ptr<Merge> merge_;
};

}  // namespace bismark::collect
