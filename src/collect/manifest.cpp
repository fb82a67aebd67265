#include "collect/manifest.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "collect/binio.h"
#include "core/crc32c.h"

namespace bismark::collect {

namespace {

constexpr char kManifestMagic[8] = {'B', 'S', 'M', 'K', 'M', 'A', 'N', '2'};
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

enum RecordType : std::uint8_t {
  kConfigRecord = 1,
  kFileRecord = 2,
  kSectionRecord = 3,
  kShardDoneRecord = 4,
  kCheckpointRecord = 5,
};

}  // namespace

std::uint64_t SchemaFingerprint() {
  // FNV-1a over kind names and field names in wire order: any rename,
  // reorder, or added field changes the fingerprint, and segments written
  // under a different one are refused at resume.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const char* s) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*s));
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    mix(Schema<T>::kKindName);
    std::apply([&](const auto&... field) { (mix(field.name), ...); }, Schema<T>::Fields());
  });
  return h;
}

// --- ManifestWriter ---------------------------------------------------------

void ManifestWriter::open(const std::string& path, bool fresh) {
  if (!out_.open(path, /*append=*/!fresh)) {
    throw std::runtime_error("spill: cannot open manifest: " + out_.error());
  }
  if (fresh) {
    if (!out_.write(kManifestMagic, sizeof kManifestMagic) || !out_.flush()) {
      throw std::runtime_error("spill: manifest header write failed: " + out_.error());
    }
  }
}

void ManifestWriter::append(std::uint8_t type, const std::string& payload) {
  std::string body;
  body.reserve(payload.size() + 1);
  body.push_back(static_cast<char>(type));
  body.append(payload);
  BinWriter w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.raw(body.data(), body.size());
  w.u32(core::Crc32c(body.data(), body.size()));
  // Flush per record: WAL ordering demands the record reach the OS before
  // anything that depends on it (e.g. a later shard-done for the same
  // shard) does.
  if (!out_.write(w.buffer()) || !out_.flush()) {
    throw std::runtime_error("spill: manifest append failed: " + out_.error());
  }
}

void ManifestWriter::config(const ManifestConfig& cfg) {
  BinWriter w;
  w.u32(cfg.spill_format);
  w.u64(cfg.schema_fingerprint);
  w.u64(cfg.budget_bytes);
  w.u32(cfg.workers);
  w.u32(cfg.generation);
  w.u32(cfg.shard_count);
  w.str(cfg.options_blob);
  append(kConfigRecord, w.buffer());
}

void ManifestWriter::file(std::uint32_t file_id, const std::string& name) {
  BinWriter w;
  w.u32(file_id);
  w.str(name);
  append(kFileRecord, w.buffer());
}

void ManifestWriter::section(const SectionRef& ref) {
  BinWriter w;
  w.u32(ref.kind);
  w.u32(ref.file);
  w.u64(ref.offset);
  w.u64(ref.bytes);
  w.u64(ref.rows);
  w.u32(ref.shard);
  w.u32(ref.run);
  w.u32(ref.crc);
  append(kSectionRecord, w.buffer());
}

void ManifestWriter::shard_done(std::uint32_t shard, const std::vector<HomeInfo>& homes) {
  BinWriter w;
  w.u32(shard);
  w.u32(static_cast<std::uint32_t>(homes.size()));
  for (const HomeInfo& home : homes) EncodeHomeInfo(w, home);
  append(kShardDoneRecord, w.buffer());
}

void ManifestWriter::checkpoint(const ManifestCheckpoint& ckpt) {
  BinWriter w;
  w.i64(ckpt.sim_clock_ms);
  w.u64(ckpt.shards_done);
  w.str(ckpt.sketch_blob);
  append(kCheckpointRecord, w.buffer());
}

void ManifestWriter::sync() {
  if (!out_.sync()) {
    throw std::runtime_error("spill: manifest fsync failed: " + out_.error());
  }
}

// --- replay -----------------------------------------------------------------

namespace {

struct Replay {
  bool has_config{false};
  ManifestConfig config;
  bool has_checkpoint{false};
  ManifestCheckpoint checkpoint;
  std::vector<std::string> files;
  /// Every committed section, all shards, tagged with the generation whose
  /// config record was in effect when it was appended. A shard's sections
  /// only count if their generation matches its shard-done record's: a
  /// shard dropped by one recovery and re-run by the next generation leaves
  /// stale earlier-generation section records behind, and pairing those
  /// with the later done record would duplicate the shard's rows.
  struct GenSection {
    std::uint32_t gen{0};
    SectionRef ref;
  };
  std::vector<GenSection> sections;
  struct DoneShard {
    std::uint32_t gen{0};
    std::vector<HomeInfo> homes;
  };
  std::map<std::uint32_t, DoneShard> shard_homes;
  std::uint32_t current_gen{0};  // generation of the last config record seen
  std::uint64_t keep_bytes{0};       // manifest prefix that replayed cleanly
  std::uint64_t truncated_bytes{0};  // torn tail past keep_bytes
  std::string torn_reason;           // why replay stopped early, if it did
};

/// Replay the manifest bytes. Returns false with *error only for "this is
/// not our manifest" conditions (bad magic on a non-torn header, config
/// conflicts); torn tails are normal and reported via result fields.
bool ReplayManifestBytes(const std::string& bytes, Replay* out, std::string* error) {
  if (bytes.size() < sizeof kManifestMagic) {
    // A kill during creation can tear the 8-byte header itself; an empty
    // or prefix-of-magic file is a torn manifest, not a foreign one.
    if (std::memcmp(bytes.data(), kManifestMagic, bytes.size()) != 0) {
      *error = "not a spill manifest (bad magic)";
      return false;
    }
    out->truncated_bytes = bytes.size();
    out->torn_reason = "manifest header torn";
    return true;
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof kManifestMagic) != 0) {
    *error = "not a spill manifest (bad magic)";
    return false;
  }
  std::size_t pos = sizeof kManifestMagic;
  const auto stop = [&](const std::string& why) {
    out->torn_reason = why;
    out->truncated_bytes = bytes.size() - pos;
    return true;
  };
  while (pos < bytes.size()) {
    out->keep_bytes = pos;
    if (bytes.size() - pos < 4) return stop("torn record length");
    const auto len = static_cast<std::uint32_t>(coldetail::LoadLe<4>(bytes.data() + pos));
    if (len == 0 || len > kMaxRecordBytes) return stop("implausible record length");
    if (bytes.size() - pos < 4ull + len + 4ull) return stop("torn record");
    const char* body = bytes.data() + pos + 4;
    if (core::Crc32c(body, len) != coldetail::LoadLe<4>(body + len)) {
      return stop("record CRC mismatch");
    }

    BinReader r(body + 1, len - 1);
    switch (static_cast<std::uint8_t>(body[0])) {
      case kConfigRecord: {
        ManifestConfig cfg;
        cfg.spill_format = r.u32();
        cfg.schema_fingerprint = r.u64();
        cfg.budget_bytes = r.u64();
        cfg.workers = r.u32();
        cfg.generation = r.u32();
        cfg.shard_count = r.u32();
        cfg.options_blob = r.str();
        if (r.failed() || !r.at_end()) return stop("malformed config record");
        if (!out->has_config) {
          out->has_config = true;
          out->config = cfg;
        } else {
          if (cfg.schema_fingerprint != out->config.schema_fingerprint ||
              cfg.options_blob != out->config.options_blob ||
              cfg.shard_count != out->config.shard_count) {
            *error = "manifest config records disagree across generations";
            return false;
          }
          out->config.generation = std::max(out->config.generation, cfg.generation);
          out->config.workers = cfg.workers;
        }
        out->current_gen = cfg.generation;
        break;
      }
      case kFileRecord: {
        const std::uint32_t id = r.u32();
        std::string name = r.str();
        if (r.failed() || !r.at_end()) return stop("malformed file record");
        if (id != out->files.size()) return stop("file table ids out of order");
        out->files.push_back(std::move(name));
        break;
      }
      case kSectionRecord: {
        SectionRef ref;
        ref.kind = r.u32();
        ref.file = r.u32();
        ref.offset = r.u64();
        ref.bytes = r.u64();
        ref.rows = r.u64();
        ref.shard = r.u32();
        ref.run = r.u32();
        ref.crc = r.u32();
        if (r.failed() || !r.at_end() || ref.kind >= kRecordKinds ||
            ref.file >= out->files.size()) {
          return stop("malformed section record");
        }
        out->sections.push_back(Replay::GenSection{out->current_gen, ref});
        break;
      }
      case kShardDoneRecord: {
        const std::uint32_t shard = r.u32();
        const std::uint32_t count = r.u32();
        std::vector<HomeInfo> homes;
        homes.reserve(count);
        for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
          homes.push_back(DecodeHomeInfo(r));
        }
        if (r.failed() || !r.at_end()) return stop("malformed shard-done record");
        out->shard_homes[shard] = Replay::DoneShard{out->current_gen, std::move(homes)};
        break;
      }
      case kCheckpointRecord: {
        ManifestCheckpoint ckpt;
        ckpt.sim_clock_ms = r.i64();
        ckpt.shards_done = r.u64();
        ckpt.sketch_blob = r.str();
        if (r.failed() || !r.at_end()) return stop("malformed checkpoint record");
        out->has_checkpoint = true;
        out->checkpoint = ckpt;  // last checkpoint wins
        break;
      }
      default:
        return stop("unknown record type");
    }
    pos += 4ull + len + 4ull;
    out->keep_bytes = pos;
  }
  return true;
}

bool LoadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

bool ReadManifestConfig(const std::string& dir, ManifestConfig* out, std::string* error) {
  const std::string path = dir + "/manifest.bsmkman";
  std::string bytes;
  if (!LoadFile(path, &bytes, error)) {
    *error = "no spill manifest at " + path;
    return false;
  }
  Replay replay;
  if (!ReplayManifestBytes(bytes, &replay, error)) return false;
  if (!replay.has_config) {
    *error = "spill manifest at " + path + " has no committed run config";
    return false;
  }
  *out = replay.config;
  return true;
}

bool RecoverSpillDir(const std::string& dir, SpillRecovery* out, std::string* error) {
  namespace fs = std::filesystem;
  const std::string manifest_path = dir + "/manifest.bsmkman";
  SpillRecovery rec;

  std::string bytes;
  std::string load_error;
  if (!LoadFile(manifest_path, &bytes, &load_error)) {
    // No manifest at all (kill before creation, or an empty dir): nothing
    // durable, every shard pending. The caller starts the run fresh.
    rec.diagnostics.push_back("no manifest found; treating directory as empty");
    *out = std::move(rec);
    return true;
  }

  Replay replay;
  if (!ReplayManifestBytes(bytes, &replay, error)) return false;

  if (!replay.torn_reason.empty()) {
    std::ostringstream os;
    os << "truncated torn manifest tail at offset " << replay.keep_bytes << " ("
       << replay.torn_reason << ", " << replay.truncated_bytes << " bytes dropped)";
    rec.diagnostics.push_back(os.str());
    rec.manifest_bytes_truncated = replay.truncated_bytes;
    std::error_code ec;
    fs::resize_file(manifest_path, replay.keep_bytes, ec);
    if (ec) {
      *error = "cannot truncate torn manifest tail: " + ec.message();
      return false;
    }
  }

  rec.has_config = replay.has_config;
  rec.config = replay.config;
  rec.has_checkpoint = replay.has_checkpoint;
  rec.checkpoint = replay.checkpoint;
  rec.files = replay.files;
  if (!replay.has_config) {
    rec.diagnostics.push_back("manifest has no committed run config; all shards pending");
    *out = std::move(rec);
    return true;
  }
  if (replay.config.spill_format != kSpillFormatVersion) {
    *error = "unsupported spill format version " + std::to_string(replay.config.spill_format);
    return false;
  }
  if (replay.config.schema_fingerprint != SchemaFingerprint()) {
    *error =
        "schema fingerprint mismatch: segments were written by an incompatible build and "
        "cannot be resumed";
    return false;
  }

  // Partition committed sections by shard; only shards with a shard-done
  // record can contribute (anything else was mid-flight at the crash).
  std::map<std::uint32_t, std::vector<SectionRef>> by_shard;
  std::uint64_t mid_flight = 0;
  for (const Replay::GenSection& gs : replay.sections) {
    const auto it = replay.shard_homes.find(gs.ref.shard);
    if (it != replay.shard_homes.end() && it->second.gen == gs.gen) {
      by_shard[gs.ref.shard].push_back(gs.ref);
    } else {
      // No shard-done record, or one from a different generation (the
      // shard was dropped by an earlier recovery and re-run later; these
      // are that earlier attempt's stale sections).
      ++mid_flight;
    }
  }
  if (mid_flight > 0) {
    std::ostringstream os;
    os << "dropped " << mid_flight << " committed sections from shards without a "
       << "same-generation shard-done record (mid-flight at a crash, or an earlier "
       << "generation's re-run shards); those shards' rows come from elsewhere";
    rec.diagnostics.push_back(os.str());
  }

  // Verify every section of every candidate shard by reading it through a
  // merge's cursor. One bad section poisons its whole shard: the shard
  // re-runs from the deterministic generator, which is the only way the
  // merged byte stream stays exact.
  std::set<std::uint32_t> bad_shards;
  for (const auto& [shard, refs] : by_shard) {
    for (const SectionRef& ref : refs) {
      try {
        VerifySection(dir + "/" + replay.files[ref.file], ref);
        ++rec.sections_verified;
      } catch (const std::runtime_error& e) {
        ++rec.sections_quarantined;
        bad_shards.insert(shard);
        rec.diagnostics.push_back(std::string("quarantined: ") + e.what() + "; shard " +
                                  std::to_string(shard) + " will re-run");
        break;
      }
    }
  }
  rec.shards_dropped = bad_shards.size();

  for (const auto& [shard, refs] : by_shard) {
    if (bad_shards.count(shard) != 0) continue;
    rec.done_shards.push_back(shard);
    const auto& homes = replay.shard_homes.at(shard).homes;
    rec.homes.insert(rec.homes.end(), homes.begin(), homes.end());
    for (const SectionRef& ref : refs) rec.sections[ref.kind].push_back(ref);
  }

  // Truncate segment-file garbage past the last byte any kept section
  // references: un-manifested tails, dropped shards' runs, and the merge
  // scratch file older builds wrote (it never holds a committed section).
  std::vector<std::uint64_t> keep_end(replay.files.size(), 0);
  for (const auto& kind_sections : rec.sections) {
    for (const SectionRef& ref : kind_sections) {
      keep_end[ref.file] =
          std::max(keep_end[ref.file], ref.offset + ref.bytes + kSectionFooterBytes);
    }
  }
  for (std::size_t i = 0; i < replay.files.size(); ++i) {
    const std::string path = dir + "/" + replay.files[i];
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec) continue;  // file never created (no kept sections, or it would have failed verify)
    if (size > keep_end[i]) {
      fs::resize_file(path, keep_end[i], ec);
      if (ec) {
        *error = "cannot truncate segment tail of " + path + ": " + ec.message();
        return false;
      }
      rec.segment_bytes_truncated += size - keep_end[i];
      std::ostringstream os;
      os << "truncated " << (size - keep_end[i]) << " uncommitted bytes from "
         << replay.files[i];
      rec.diagnostics.push_back(os.str());
    }
  }

  *out = std::move(rec);
  return true;
}

}  // namespace bismark::collect
