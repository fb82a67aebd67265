// Write-ahead manifest for the spill directory (DESIGN §12).
//
// A fleet run's segment files are only half the durable state — the other
// half is *which byte ranges of them are committed*. The manifest is an
// append-only log of checksummed records, one per durable event, written in
// strict WAL order: section bytes are flushed to the OS before the record
// that references them is appended, so a record's presence proves its data
// exists. Recovery replays the manifest, truncates a torn tail at the first
// record whose length or CRC fails, reads every referenced section back
// through the spill merge's cursor (VerifySection: frame, row framing,
// CRC32C), and quarantines anything that does not check out —
// dropping the owning shard back to "pending" so the resumed run regenerates
// it (per-home content is a pure function of (seed, home id), so a re-run
// shard reproduces the same bytes).
//
// Record framing: u32 body_len | body | u32 crc32c(body), body = u8 type +
// payload. File starts with the 8-byte magic "BSMKMAN2".
//
// Layering: collect/ knows nothing about deployment knobs. The run
// configuration travels as an opaque `options_blob` that home/deployment
// encodes and decodes; the manifest only compares it byte-for-byte on
// resume.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "collect/repository.h"
#include "core/io.h"

namespace bismark::collect {

/// On-disk spill format version (segment framing + manifest records).
inline constexpr std::uint32_t kSpillFormatVersion = 2;

/// Fingerprint of the registered record schemas (kind names, field names,
/// wire order). A resumed run must match the writer's fingerprint exactly —
/// segments are not readable across schema changes.
[[nodiscard]] std::uint64_t SchemaFingerprint();

/// The kConfig record: everything a resume needs to rebuild the run.
struct ManifestConfig {
  std::uint32_t spill_format{kSpillFormatVersion};
  std::uint64_t schema_fingerprint{0};
  std::uint64_t budget_bytes{0};
  std::uint32_t workers{1};     // informational; resume may use any count
  std::uint32_t generation{0};  // bumped once per resume attempt
  std::uint32_t shard_count{0};
  /// Deployment-encoded options (opaque here); resume decodes it and a
  /// mismatching blob on a later generation is a hard error.
  std::string options_blob;
};

/// The kCheckpoint record.
struct ManifestCheckpoint {
  std::int64_t sim_clock_ms{0};   ///< high-water sim-engine clock
  std::uint64_t shards_done{0};   ///< committed shards at checkpoint time
  std::string sketch_blob;        ///< serialized sketches (may be empty)
};

/// Serialised writer for the manifest file. Thread-compatible; SpillDir
/// serialises access under its own mutex. All methods throw on I/O failure
/// — a manifest that cannot be appended means durability is gone.
class ManifestWriter {
 public:
  /// Create (`fresh`) or re-open for append after recovery.
  void open(const std::string& path, bool fresh);

  void config(const ManifestConfig& cfg);
  void file(std::uint32_t file_id, const std::string& name);
  void section(const SectionRef& ref);
  void shard_done(std::uint32_t shard, const std::vector<HomeInfo>& homes);
  void checkpoint(const ManifestCheckpoint& ckpt);

  /// fsync the manifest (checkpoints call this; plain records only flush).
  void sync();

  [[nodiscard]] bool is_open() const { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const { return out_.path(); }

 private:
  void append(std::uint8_t type, const std::string& payload);

  core::CheckedFile out_;
};

/// Everything recovery learned from a spill directory.
struct SpillRecovery {
  bool has_config{false};
  ManifestConfig config;

  bool has_checkpoint{false};
  ManifestCheckpoint checkpoint;

  /// File table: id -> name relative to the spill dir.
  std::vector<std::string> files;
  /// Committed, CRC-verified sections of completed shards, per kind.
  std::array<std::vector<SectionRef>, kRecordKinds> sections;
  /// Homes registered by completed shards, in shard order.
  std::vector<HomeInfo> homes;
  /// Shard-plan indices whose kShardDone record and sections all verified.
  std::vector<std::uint32_t> done_shards;

  // Recovery accounting (mirrored into obs counters by the deployment).
  std::uint64_t manifest_bytes_truncated{0};
  std::uint64_t segment_bytes_truncated{0};
  std::uint64_t sections_verified{0};
  std::uint64_t sections_quarantined{0};
  std::uint64_t shards_dropped{0};
  /// One line per recovery action worth telling the operator about.
  std::vector<std::string> diagnostics;
};

/// Replay `dir`'s manifest and verify every referenced section. Truncates
/// the manifest's torn tail and segment-file garbage past the last committed
/// byte (mutates the directory — recovery is a write operation). Returns
/// false with *error when the directory is not resumable at all (missing or
/// unrecognisable manifest, no committed config, schema mismatch).
bool RecoverSpillDir(const std::string& dir, SpillRecovery* out, std::string* error);

/// Cheap config-only replay: no section verification, no mutation. For CLI
/// startup (`--resume` rebuilds its options from this before committing to
/// a full recovery).
bool ReadManifestConfig(const std::string& dir, ManifestConfig* out, std::string* error);

}  // namespace bismark::collect
