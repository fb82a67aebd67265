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
// Scale: a 100k-home run makes ~25k shards, so a kind can have tens of
// thousands of sections. The merge is hierarchical with a bounded fan-in:
// adjacent (in canonical order) sections are merged in groups into scratch
// sections until the rest fits one merge, keeping open files and buffers
// bounded regardless of N. Only as many groups are reduced as that takes
// (a contiguous prefix), so a kind just past the fan-in rewrites a
// fraction of its rows into scratch, not all of them.
//
// Durability (segment format v2, DESIGN §12): every section is framed — a
// 16-byte header (magic, kind, shard, run) before the body, a 24-byte
// footer (rows, body bytes, CRC32C, end magic) after it — and the SpillDir
// keeps a write-ahead manifest (collect/manifest.h) whose records commit
// sections only after their bytes reached the OS. All writes go through the
// injectable core::Io seam; cursors re-verify the CRC on every merge pass
// and fail closed on any mismatch.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "collect/binio.h"
#include "core/io.h"

namespace bismark::collect {

struct HomeInfo;
class ManifestWriter;
struct ManifestConfig;
struct ManifestCheckpoint;
struct SpillRecovery;

struct SpillConfig {
  /// Directory for segment files; created on demand. The caller owns the
  /// directory's lifetime — segment files are scratch, not an archive.
  std::string dir;
  /// Total record-staging budget across all workers. 0 disables spill.
  std::size_t budget_bytes{0};
  std::size_t workers{1};
  /// Max sections opened concurrently by one merge level.
  std::size_t merge_fan_in{256};
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

// Section framing constants (shared with manifest recovery and the fuzz
// suite). Header: u32 magic | u32 kind | u32 shard | u32 run. Footer:
// u64 rows | u64 body_bytes | u32 body_crc32c | u32 end magic.
inline constexpr std::uint32_t kSectionMagic = 0x32475342u;     // "BSG2"
inline constexpr std::uint32_t kSectionEndMagic = 0x32444E45u;  // "END2"
inline constexpr std::size_t kSectionHeaderBytes = 16;
inline constexpr std::size_t kSectionFooterBytes = 24;

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

/// An append-only segment file. Owned exclusively by one worker while its
/// shard task runs (or by the merge scratch path, serialised by SpillDir).
/// Rows are u32-length-prefixed EncodeRow payloads so cursors can frame
/// them without schema-dependent sizes. Every write goes through the
/// checked core::Io seam; any I/O failure throws with the path and errno —
/// a full disk aborts the run, it does not truncate it silently.
class SegmentLog {
 public:
  SegmentLog(std::string path, std::uint32_t index);

  /// One-shot append of a fully-encoded section body.
  SectionRef append(std::uint32_t kind, std::uint32_t shard, std::uint32_t run,
                    std::uint64_t rows, const std::string& body);

  /// Streaming append for merge intermediates (bodies can exceed RAM).
  void begin_section(std::uint32_t kind, std::uint32_t shard, std::uint32_t run);
  void write(const char* data, std::size_t n);
  /// Writes the footer and flushes the section to the OS, so a manifest
  /// record appended after this provably references durable-on-crash bytes.
  SectionRef end_section(std::uint64_t rows);

  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return offset_; }
  [[nodiscard]] int fd() const { return out_.fd(); }

  /// Push buffered writes to the OS so cursors can read what was appended.
  void flush();
  /// flush + fsync: checkpoint durability.
  void sync();

 private:
  void ensure_open();
  void check(bool ok, const char* op);

  std::string path_;
  std::uint32_t index_;
  std::uint64_t offset_{0};
  std::uint64_t section_start_{0};  // body start of the in-flight section
  std::uint32_t section_kind_{0};
  std::uint32_t section_shard_{0};
  std::uint32_t section_run_{0};
  std::uint32_t section_crc_{0};
  core::CheckedFile out_;  // opened lazily on first append
};

/// Shared spill state: the segment directory, one log per worker plus a
/// scratch log for merge intermediates, the per-kind section tables, and
/// the write-ahead manifest. A resumed run layers a new *generation* of
/// segment files over the recovered ones; the file table spans both.
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
  /// The merge-scratch log. Callers must hold merge_mutex().
  SegmentLog& scratch_log() { return *logs_.back(); }
  /// Absolute path of a file-table entry (any generation).
  [[nodiscard]] std::string file_path(std::uint32_t file_index) const;

  /// Record a flushed section (thread-safe; workers flush concurrently).
  /// Appends the manifest record that commits the section.
  void register_section(std::size_t kind, SectionRef ref);

  /// Write the run-configuration record (once per generation, before any
  /// shard runs). fsynced: a resumable directory always has its config.
  void write_run_config(const ManifestConfig& cfg);
  /// Commit a completed shard: its homes become recoverable and every
  /// section it registered becomes eligible for resume.
  void record_shard_done(std::uint32_t shard, const std::vector<HomeInfo>& homes);
  /// Durability barrier: fsync every segment log and the manifest, then
  /// append the checkpoint record.
  void write_checkpoint(const ManifestCheckpoint& ckpt);

  [[nodiscard]] std::uint64_t rows_of_kind(std::size_t kind) const { return rows_[kind]; }
  [[nodiscard]] std::uint64_t total_rows() const;
  /// Copy of the kind's section table (callers sort it for merging).
  [[nodiscard]] std::vector<SectionRef> sections_of_kind(std::size_t kind) const;

  [[nodiscard]] std::uint64_t sections_written() const;
  [[nodiscard]] std::uint64_t bytes_spilled() const;

  /// Serialises merge passes (they share the scratch log).
  [[nodiscard]] std::mutex& merge_mutex() { return merge_mu_; }

  /// Flush every log's buffered writes so cursors see all appended rows.
  void flush_all();

 private:
  void open_generation_logs();

  SpillConfig config_;
  std::uint32_t generation_{0};
  std::vector<std::string> file_names_;            // file table, all generations
  std::vector<std::unique_ptr<SegmentLog>> logs_;  // this generation: workers, then scratch
  std::unique_ptr<ManifestWriter> manifest_;
  std::array<std::vector<SectionRef>, kRecordKinds> sections_;
  std::array<std::uint64_t, kRecordKinds> rows_{};
  mutable std::mutex mu_;
  std::mutex merge_mu_;
};

/// Pull-based reader of kind T's rows in canonical repository order —
/// exactly the sequence `rows<T>()` holds after
/// `finalize_deterministic_order()` on the in-RAM path — and the spill arm
/// of RowReader (collect/repository.h). Construction
/// flushes the logs and runs the bounded reduce into the scratch log under
/// merge_mutex(); it then holds at most `merge_fan_in` open sections, and
/// reading needs no lock. Throws with a precise diagnostic if any section
/// fails its CRC or framing check.
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
  class Merge;  // the k-way merge over the final level (spill.cpp)
  std::unique_ptr<Merge> merge_;
};

}  // namespace bismark::collect
