#include "net/pcap.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "core/io.h"
#include "core/little_endian.h"

namespace bismark::net {

void PcapBuffer::capture(TimePoint ts, int home, std::span<const std::byte> frame) {
  PcapRecord rec;
  rec.timestamp = ts;
  rec.home = home;
  rec.seq = next_seq_++;
  rec.offset = static_cast<std::uint32_t>(bytes_.size());
  rec.length = static_cast<std::uint32_t>(frame.size());
  bytes_.insert(bytes_.end(), frame.begin(), frame.end());
  records_.push_back(rec);
}

void EncodePcapFileHeader(std::span<std::byte> out) {
  char* p = reinterpret_cast<char*>(out.data());
  core::StoreLe<4>(p, kPcapMagic);
  core::StoreLe<2>(p + 4, kPcapVersionMajor);
  core::StoreLe<2>(p + 6, kPcapVersionMinor);
  core::StoreLe<4>(p + 8, 0);   // thiszone
  core::StoreLe<4>(p + 12, 0);  // sigfigs
  core::StoreLe<4>(p + 16, kPcapSnapLen);
  core::StoreLe<4>(p + 20, kPcapLinkTypeEthernet);
}

void EncodePcapRecordHeader(std::span<std::byte> out, TimePoint ts,
                            std::uint32_t frame_bytes) {
  char* p = reinterpret_cast<char*>(out.data());
  core::StoreLe<4>(p, static_cast<std::uint32_t>(ts.ms / 1000));
  core::StoreLe<4>(p + 4, static_cast<std::uint32_t>(ts.ms % 1000) * 1000);  // µs
  core::StoreLe<4>(p + 8, frame_bytes);   // incl_len: whole frames are captured
  core::StoreLe<4>(p + 12, frame_bytes);  // orig_len
}

std::size_t WritePcapFile(const std::string& path,
                          std::span<const PcapBuffer* const> shard_buffers) {
  // Gather (shard, record) pairs and impose the canonical order. A stable
  // sort on (timestamp, home, shard, seq) makes the output independent of
  // which worker ran which shard, exactly like the record merge.
  struct Entry {
    const PcapBuffer* buf;
    const PcapRecord* rec;
    std::size_t shard;
  };
  std::vector<Entry> entries;
  for (std::size_t s = 0; s < shard_buffers.size(); ++s) {
    const PcapBuffer* buf = shard_buffers[s];
    if (buf == nullptr) continue;
    for (const PcapRecord& rec : buf->records()) entries.push_back({buf, &rec, s});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.rec->timestamp.ms, a.rec->home, a.shard, a.rec->seq) <
           std::tie(b.rec->timestamp.ms, b.rec->home, b.shard, b.rec->seq);
  });

  core::CheckedFile file;
  if (!file.open(path)) throw std::runtime_error("pcap: " + file.error());
  std::byte header[kPcapFileHeaderBytes];
  EncodePcapFileHeader(header);
  file.write(header, sizeof header);
  for (const Entry& e : entries) {
    std::byte rec_header[kPcapRecordHeaderBytes];
    EncodePcapRecordHeader(rec_header, e.rec->timestamp, e.rec->length);
    file.write(rec_header, sizeof rec_header);
    auto frame = e.buf->frame_bytes(*e.rec);
    file.write(frame.data(), frame.size());
  }
  if (!file.close()) throw std::runtime_error("pcap: " + file.error());
  std::size_t body = 0;
  for (const Entry& e : entries) body += kPcapRecordHeaderBytes + e.rec->length;
  return kPcapFileHeaderBytes + body;
}

}  // namespace bismark::net
