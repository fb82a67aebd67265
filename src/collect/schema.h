// One definition per data set: compile-time field reflection.
//
// The paper's Table 2 data sets (plus our throughput/DNS/device-traffic
// extensions) used to be hand-replicated across six layers — the RecordSink
// interface, IngestBatch, DataRepository, export.cpp, import.cpp, and the
// upload path's Record variant. Each Schema<T> specialisation below is now
// the *only* per-dataset definition; everything else derives from it:
//
//   RecordTypes            — the typelist all derived paths expand over
//   Record                 — std::variant over RecordTypes (wire order)
//   Schema<T>::Fields()    — member-pointer field list with exact CSV and
//                            binary codecs (full-fidelity export/import and
//                            the snapshot format iterate this)
//   Schema<T>::Release()   — the historical public-release CSV view, byte-
//                            identical to the original hand-written
//                            exporters: Fields, plus a ReleaseColumn for
//                            each lossy %.3f or derived column. Only kinds
//                            that are released define it; kPublicRelease
//                            says whether the public split includes it
//   Schema<T>::SortKey     — canonical (timestamp, home) repository order
//   Schema<T>::Admit       — collection-window clipping on ingest
//   Schema<T>::Time        — spool arrival / flush-eligibility timestamp
//   kRecordKindNames       — drop-ledger and obs counter labels
//
// Adding a data set is a two-file change: the struct in records.h and one
// Schema<> specialisation + typelist entry here. The static_asserts at the
// bottom make a missing or drifting entry a compile error, not a silently
// unlabeled ledger slot.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>

#include "collect/records.h"
#include "core/intervals.h"
#include "core/time.h"
#include "core/units.h"

namespace bismark::collect {

// --- Typelist and the Record variant ---------------------------------------

template <typename... Ts>
struct TypeList {
  static constexpr std::size_t size = sizeof...(Ts);
};

template <typename T>
struct TypeTag {
  using type = T;
};

/// Every record kind, in wire order. The variant alternative indices key
/// the spool drop ledger and appear in committed artifacts (BENCH tables,
/// metric labels), so this list is append-only.
using RecordTypes =
    TypeList<HeartbeatRun, UptimeRecord, CapacityRecord, DeviceCountRecord, WifiScanRecord,
             TrafficFlowRecord, ThroughputMinute, DnsLogRecord, DeviceTrafficRecord,
             CgnEventRecord>;

/// Every RecordTypes entry as an X-macro, for the explicit per-kind
/// instantiations of templates defined in .cpp files. A kind missing here
/// fails to link wherever it is read.
#define BISMARK_FOR_EACH_RECORD_KIND(X)                                         \
  X(HeartbeatRun) X(UptimeRecord) X(CapacityRecord) X(DeviceCountRecord)       \
  X(WifiScanRecord) X(TrafficFlowRecord) X(ThroughputMinute) X(DnsLogRecord)  \
  X(DeviceTrafficRecord) X(CgnEventRecord)

namespace schema_detail {
template <typename List>
struct VariantOf;
template <typename... Ts>
struct VariantOf<TypeList<Ts...>> {
  using type = std::variant<Ts...>;
};

template <typename T, typename... Ts>
constexpr std::size_t IndexOf(TypeList<Ts...>) {
  constexpr bool match[] = {std::is_same_v<T, Ts>...};
  for (std::size_t i = 0; i < sizeof...(Ts); ++i) {
    if (match[i]) return i;
  }
  return sizeof...(Ts);
}
}  // namespace schema_detail

/// Any one measurement record, as spooled and shipped by the uploader.
using Record = schema_detail::VariantOf<RecordTypes>::type;

inline constexpr std::size_t kRecordKinds = std::variant_size_v<Record>;

/// Variant alternative index of a record type (the ledger/label key).
template <typename T>
inline constexpr std::size_t kRecordIndexOf = schema_detail::IndexOf<T>(RecordTypes{});

/// Apply `fn(TypeTag<T>{})` to every registered record type, in wire order.
template <typename Fn>
constexpr void ForEachRecordType(Fn&& fn) {
  [&fn]<typename... Ts>(TypeList<Ts...>) { (fn(TypeTag<Ts>{}), ...); }(RecordTypes{});
}

// --- Collection windows -----------------------------------------------------

/// Collection windows per data set (Table 2). Defaults reproduce the
/// paper's dates. Lives with the schemas because window admission
/// (Schema<T>::Admit) is part of each data set's definition.
struct DatasetWindows {
  Interval heartbeats;  // Oct 1 2012 – Apr 15 2013
  Interval uptime;      // Mar 6 – Apr 15 2013
  Interval capacity;    // Apr 1 – Apr 15 2013
  Interval devices;     // Mar 6 – Apr 15 2013
  Interval wifi;        // Nov 1 – Nov 15 2012
  Interval traffic;     // Apr 1 – Apr 15 2013

  static DatasetWindows Paper();
  /// A compressed variant for fast tests: same relative structure over a
  /// `scale`-week heartbeat window starting at `start`.
  static DatasetWindows Compressed(TimePoint start, int heartbeat_weeks);
};

// --- Exact CSV codecs, one overload per member type -------------------------
//
// These are lossless: CsvDecode(CsvEncode(v)) == v bit-for-bit, which is
// what lets the full-fidelity export reproduce a repository exactly.

[[nodiscard]] inline bool ParseCsvI64(const std::string& s, std::int64_t& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

[[nodiscard]] inline bool ParseCsvU64(const std::string& s, std::uint64_t& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

[[nodiscard]] inline bool ParseCsvDouble(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

[[nodiscard]] inline std::string CsvEncode(bool v) { return v ? "1" : "0"; }
[[nodiscard]] inline std::string CsvEncode(int v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(std::uint16_t v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(std::int64_t v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(std::uint64_t v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // shortest exact round-trip
  return buf;
}
[[nodiscard]] inline std::string CsvEncode(const std::string& v) { return v; }
[[nodiscard]] inline std::string CsvEncode(HomeId v) { return std::to_string(v.value); }
[[nodiscard]] inline std::string CsvEncode(TimePoint v) { return std::to_string(v.ms); }
[[nodiscard]] inline std::string CsvEncode(Duration v) { return std::to_string(v.ms); }
[[nodiscard]] inline std::string CsvEncode(Bytes v) { return std::to_string(v.count); }
[[nodiscard]] inline std::string CsvEncode(BitRate v) { return CsvEncode(v.bps); }
[[nodiscard]] inline std::string CsvEncode(net::FlowId v) { return std::to_string(v.value); }
[[nodiscard]] inline std::string CsvEncode(net::MacAddress v) { return v.to_string(); }
[[nodiscard]] inline std::string CsvEncode(net::Protocol v) { return net::ProtocolName(v); }
[[nodiscard]] inline std::string CsvEncode(wireless::Band v) {
  return std::string(wireless::BandName(v));
}
[[nodiscard]] inline std::string CsvEncode(net::VendorClass v) {
  return std::string(net::VendorClassName(v));
}

[[nodiscard]] inline bool CsvDecode(const std::string& s, bool& out) {
  if (s == "1") {
    out = true;
  } else if (s == "0") {
    out = false;
  } else {
    return false;
  }
  return true;
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, int& out) {
  std::int64_t v = 0;
  if (!ParseCsvI64(s, v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, std::uint16_t& out) {
  std::uint64_t v = 0;
  if (!ParseCsvU64(s, v) || v > 0xffff) return false;
  out = static_cast<std::uint16_t>(v);
  return true;
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, std::int64_t& out) {
  return ParseCsvI64(s, out);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, std::uint64_t& out) {
  return ParseCsvU64(s, out);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, double& out) {
  return ParseCsvDouble(s, out);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, std::string& out) {
  out = s;
  return true;
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, HomeId& out) {
  return CsvDecode(s, out.value);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, TimePoint& out) {
  return ParseCsvI64(s, out.ms);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, Duration& out) {
  return ParseCsvI64(s, out.ms);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, Bytes& out) {
  return ParseCsvI64(s, out.count);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, BitRate& out) {
  return ParseCsvDouble(s, out.bps);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, net::FlowId& out) {
  return ParseCsvU64(s, out.value);
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, net::MacAddress& out) {
  const auto mac = net::MacAddress::Parse(s);
  if (!mac) return false;
  out = *mac;
  return true;
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, net::Protocol& out) {
  for (const auto p : {net::Protocol::kTcp, net::Protocol::kUdp, net::Protocol::kIcmp}) {
    if (s == net::ProtocolName(p)) {
      out = p;
      return true;
    }
  }
  return false;
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, wireless::Band& out) {
  for (const auto b : {wireless::Band::k2_4GHz, wireless::Band::k5GHz}) {
    if (s == wireless::BandName(b)) {
      out = b;
      return true;
    }
  }
  return false;
}
[[nodiscard]] inline bool CsvDecode(const std::string& s, net::VendorClass& out) {
  for (std::size_t i = 0; i < net::VendorClassCount(); ++i) {
    const auto c = static_cast<net::VendorClass>(i);
    if (s == net::VendorClassName(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

// --- Columns ----------------------------------------------------------------
//
// A CSV view is one column list: a tuple whose every column has a `name`,
// `encode(row)` and `decode(cell, row)`. The export writers, the row
// importer and the header all iterate a column list, never a view.

/// One reflected field: a stable column name and the member it reads. Its
/// CSV codec is the exact one for the member's type.
template <typename T, typename M>
struct Field {
  const char* name;
  M T::* member;

  [[nodiscard]] std::string encode(const T& r) const { return CsvEncode(r.*member); }
  [[nodiscard]] bool decode(const std::string& s, T& r) const { return CsvDecode(s, r.*member); }
};

/// A release column that no member's exact codec writes: a lossy (%.3f)
/// or derived value, with its own encode/decode pair.
template <typename T>
struct ReleaseColumn {
  const char* name;
  std::string (*encode)(const T&);
  bool (*decode)(const std::string&, T&);
};

/// The historical exporters' lossy numeric rendering ("%.3f"), preserved
/// verbatim so the public release stays byte-identical.
[[nodiscard]] inline std::string ReleaseNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// --- Schema specialisations -------------------------------------------------

template <typename T>
struct Schema;  // one specialisation per RecordTypes entry; no primary

template <>
struct Schema<HeartbeatRun> {
  using R = HeartbeatRun;
  static constexpr const char* kKindName = "heartbeat_run";
  static constexpr const char* kCsvFile = "heartbeats.csv";
  /// Part of the public release split; a public kind must define Release().
  static constexpr bool kPublicRelease = true;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home}, Field{"run_start_ms", &R::start},
                      Field{"run_end_ms", &R::end}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.start; }
  [[nodiscard]] static auto SortKey(const R& r) { return std::tuple(r.start.ms, r.home.value); }
  /// Runs are clipped to the heartbeat window; empty clips are rejected.
  static bool Admit(const DatasetWindows& w, R& r) {
    r.start = std::max(r.start, w.heartbeats.start);
    r.end = std::min(r.end, w.heartbeats.end);
    return r.end > r.start;
  }
  /// Fields() plus the derived per-run heartbeat count; import checks that
  /// it parses and that the run is non-empty.
  static constexpr auto Release() {
    return std::tuple_cat(
        Fields(), std::tuple{ReleaseColumn<R>{
                      "heartbeats", [](const R& r) { return std::to_string(r.heartbeat_count()); },
                      [](const std::string& s, R& r) {
                        std::int64_t beats = 0;
                        return ParseCsvI64(s, beats) && r.end > r.start;
                      }}});
  }
};

template <>
struct Schema<UptimeRecord> {
  using R = UptimeRecord;
  static constexpr const char* kKindName = "uptime";
  static constexpr const char* kCsvFile = "uptime.csv";
  static constexpr bool kPublicRelease = true;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home}, Field{"reported_ms", &R::reported},
                      Field{"uptime_ms", &R::uptime}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.reported; }
  [[nodiscard]] static auto SortKey(const R& r) { return std::tuple(r.reported.ms, r.home.value); }
  static bool Admit(const DatasetWindows& w, const R& r) {
    return w.uptime.contains(r.reported);
  }
  /// Uptime in seconds at %.3f; import rejects a negative one.
  static constexpr auto Release() {
    return std::tuple{Field{"home", &R::home}, Field{"reported_ms", &R::reported},
                      ReleaseColumn<R>{"uptime_s",
                                       [](const R& r) { return ReleaseNum(r.uptime.seconds()); },
                                       [](const std::string& s, R& r) {
                                         double v = 0.0;
                                         if (!ParseCsvDouble(s, v) || v < 0) return false;
                                         r.uptime = Seconds(v);
                                         return true;
                                       }}};
  }
};

template <>
struct Schema<CapacityRecord> {
  using R = CapacityRecord;
  static constexpr const char* kKindName = "capacity";
  static constexpr const char* kCsvFile = "capacity.csv";
  static constexpr bool kPublicRelease = true;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home}, Field{"measured_ms", &R::measured},
                      Field{"down_bps", &R::downstream}, Field{"up_bps", &R::upstream}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.measured; }
  [[nodiscard]] static auto SortKey(const R& r) { return std::tuple(r.measured.ms, r.home.value); }
  static bool Admit(const DatasetWindows& w, const R& r) {
    return w.capacity.contains(r.measured);
  }
  /// Both rates in Mbps at %.3f.
  static constexpr auto Release() {
    return std::tuple{Field{"home", &R::home}, Field{"measured_ms", &R::measured},
                      ReleaseColumn<R>{"down_mbps",
                                       [](const R& r) { return ReleaseNum(r.downstream.mbps()); },
                                       [](const std::string& s, R& r) {
                                         double v = 0.0;
                                         if (!ParseCsvDouble(s, v)) return false;
                                         r.downstream = Mbps(v);
                                         return true;
                                       }},
                      ReleaseColumn<R>{"up_mbps",
                                       [](const R& r) { return ReleaseNum(r.upstream.mbps()); },
                                       [](const std::string& s, R& r) {
                                         double v = 0.0;
                                         if (!ParseCsvDouble(s, v)) return false;
                                         r.upstream = Mbps(v);
                                         return true;
                                       }}};
  }
};

template <>
struct Schema<DeviceCountRecord> {
  using R = DeviceCountRecord;
  static constexpr const char* kKindName = "device_count";
  static constexpr const char* kCsvFile = "devices.csv";
  static constexpr bool kPublicRelease = true;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home},
                      Field{"sampled_ms", &R::sampled},
                      Field{"wired", &R::wired},
                      Field{"wireless_24", &R::wireless_24},
                      Field{"wireless_5", &R::wireless_5},
                      Field{"unique_total", &R::unique_total},
                      Field{"unique_24", &R::unique_24},
                      Field{"unique_5", &R::unique_5}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.sampled; }
  [[nodiscard]] static auto SortKey(const R& r) { return std::tuple(r.sampled.ms, r.home.value); }
  static bool Admit(const DatasetWindows& w, const R& r) {
    return w.devices.contains(r.sampled);
  }
  /// The release view is every field.
  static constexpr auto Release() { return Fields(); }
};

template <>
struct Schema<WifiScanRecord> {
  using R = WifiScanRecord;
  static constexpr const char* kKindName = "wifi_scan";
  static constexpr const char* kCsvFile = "wifi.csv";
  static constexpr bool kPublicRelease = true;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home},          Field{"scanned_ms", &R::scanned},
                      Field{"band", &R::band},          Field{"channel", &R::channel},
                      Field{"visible_aps", &R::visible_aps},
                      Field{"associated", &R::associated_clients}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.scanned; }
  [[nodiscard]] static auto SortKey(const R& r) { return std::tuple(r.scanned.ms, r.home.value); }
  static bool Admit(const DatasetWindows& w, const R& r) { return w.wifi.contains(r.scanned); }
  /// The release view is every field.
  static constexpr auto Release() { return Fields(); }
};

template <>
struct Schema<TrafficFlowRecord> {
  using R = TrafficFlowRecord;
  static constexpr const char* kKindName = "traffic_flow";
  static constexpr const char* kCsvFile = "traffic.csv";
  /// Anonymised but PII-bearing: never part of the public release split.
  static constexpr bool kPublicRelease = false;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home},
                      Field{"flow", &R::flow},
                      Field{"first_ms", &R::first_packet},
                      Field{"last_ms", &R::last_packet},
                      Field{"proto", &R::protocol},
                      Field{"dst_port", &R::dst_port},
                      Field{"device_mac", &R::device_mac},
                      Field{"bytes_up", &R::bytes_up},
                      Field{"bytes_down", &R::bytes_down},
                      Field{"packets_up", &R::packets_up},
                      Field{"packets_down", &R::packets_down},
                      Field{"domain", &R::domain},
                      Field{"domain_anonymized", &R::domain_anonymized}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.first_packet; }
  [[nodiscard]] static auto SortKey(const R& r) {
    return std::tuple(r.first_packet.ms, r.home.value);
  }
  static bool Admit(const DatasetWindows& w, const R& r) {
    return w.traffic.contains(r.first_packet);
  }
  /// The release view withholds the flow id and the packet counts.
  static constexpr auto Release() {
    return std::tuple{Field{"home", &R::home},
                      Field{"first_ms", &R::first_packet},
                      Field{"last_ms", &R::last_packet},
                      Field{"proto", &R::protocol},
                      Field{"dst_port", &R::dst_port},
                      Field{"device_mac", &R::device_mac},
                      Field{"bytes_up", &R::bytes_up},
                      Field{"bytes_down", &R::bytes_down},
                      Field{"domain", &R::domain},
                      Field{"domain_anonymized", &R::domain_anonymized}};
  }
};

template <>
struct Schema<ThroughputMinute> {
  using R = ThroughputMinute;
  static constexpr const char* kKindName = "throughput";
  static constexpr const char* kCsvFile = "throughput.csv";
  static constexpr bool kPublicRelease = false;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home},
                      Field{"minute_start_ms", &R::minute_start},
                      Field{"bytes_up", &R::bytes_up},
                      Field{"bytes_down", &R::bytes_down},
                      Field{"peak_up_bps", &R::peak_up_bps},
                      Field{"peak_down_bps", &R::peak_down_bps}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.minute_start; }
  [[nodiscard]] static auto SortKey(const R& r) {
    return std::tuple(r.minute_start.ms, r.home.value);
  }
  static bool Admit(const DatasetWindows& w, const R& r) {
    return w.traffic.contains(r.minute_start);
  }
};

template <>
struct Schema<DnsLogRecord> {
  using R = DnsLogRecord;
  static constexpr const char* kKindName = "dns";
  static constexpr const char* kCsvFile = "dns.csv";
  static constexpr bool kPublicRelease = false;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home},          Field{"when_ms", &R::when},
                      Field{"device_mac", &R::device_mac}, Field{"query", &R::query},
                      Field{"anonymized", &R::anonymized}, Field{"a_records", &R::a_records},
                      Field{"cname_records", &R::cname_records}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.when; }
  [[nodiscard]] static auto SortKey(const R& r) { return std::tuple(r.when.ms, r.home.value); }
  static bool Admit(const DatasetWindows& w, const R& r) { return w.traffic.contains(r.when); }
};

template <>
struct Schema<DeviceTrafficRecord> {
  using R = DeviceTrafficRecord;
  static constexpr const char* kKindName = "device_traffic";
  static constexpr const char* kCsvFile = "device_traffic.csv";
  static constexpr bool kPublicRelease = false;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home}, Field{"device_mac", &R::device_mac},
                      Field{"vendor", &R::vendor}, Field{"bytes_total", &R::bytes_total},
                      Field{"flows", &R::flows}};
  }
  /// Windowless registry rows sort at the epoch; the stable spool sort
  /// keeps their insertion order.
  [[nodiscard]] static TimePoint Time(const R&) { return TimePoint{0}; }
  /// No timestamp: the canonical key is the (home, anonymised MAC) identity.
  [[nodiscard]] static auto SortKey(const R& r) {
    return std::tuple(r.home.value, r.device_mac);
  }
  static bool Admit(const DatasetWindows&, const R&) { return true; }
};

template <>
struct Schema<CgnEventRecord> {
  using R = CgnEventRecord;
  static constexpr const char* kKindName = "cgn_event";
  static constexpr const char* kCsvFile = "cgn_events.csv";
  static constexpr bool kPublicRelease = false;

  static constexpr auto Fields() {
    return std::tuple{Field{"home", &R::home},
                      Field{"when_ms", &R::when},
                      Field{"cgn_id", &R::cgn_id},
                      Field{"port_block", &R::port_block},
                      Field{"port_block_size", &R::port_block_size},
                      Field{"port_blocks_allocated", &R::port_blocks_allocated},
                      Field{"ports_peak", &R::ports_peak},
                      Field{"port_capacity", &R::port_capacity},
                      Field{"translations_out", &R::translations_out},
                      Field{"translations_in", &R::translations_in},
                      Field{"exhaustion_drops", &R::exhaustion_drops},
                      Field{"inbound_drops", &R::inbound_drops}};
  }
  [[nodiscard]] static TimePoint Time(const R& r) { return r.when; }
  [[nodiscard]] static auto SortKey(const R& r) { return std::tuple(r.when.ms, r.home.value); }
  /// CGN accounting is not window-clipped: rows exist only when --cgn is
  /// on, and they summarise whatever traffic the run generated.
  static bool Admit(const DatasetWindows&, const R&) { return true; }
};

// --- Derived names and drift guards -----------------------------------------

namespace schema_detail {
template <typename... Ts>
constexpr std::array<const char*, sizeof...(Ts)> KindNames(TypeList<Ts...>) {
  return {{Schema<Ts>::kKindName...}};
}

constexpr bool StrEq(const char* a, const char* b) {
  for (; *a != '\0' && *a == *b; ++a, ++b) {
  }
  return *a == *b;
}
}  // namespace schema_detail

/// Kind labels in wire order: drop ledgers, bench tables, and the per-kind
/// obs spool-drop counters (`bismark_spool_dropped_total{kind="..."}`) all
/// read from this one array, so they cannot drift from the typelist.
inline constexpr std::array<const char*, RecordTypes::size> kRecordKindNames =
    schema_detail::KindNames(RecordTypes{});

namespace schema_detail {
constexpr bool KindNamesNonEmptyAndDistinct() {
  for (std::size_t i = 0; i < kRecordKindNames.size(); ++i) {
    if (*kRecordKindNames[i] == '\0') return false;
    for (std::size_t j = i + 1; j < kRecordKindNames.size(); ++j) {
      if (StrEq(kRecordKindNames[i], kRecordKindNames[j])) return false;
    }
  }
  return true;
}
}  // namespace schema_detail

static_assert(kRecordKindNames.size() == kRecordKinds,
              "every Record alternative needs a Schema<> specialisation with a kind name");
static_assert(schema_detail::KindNamesNonEmptyAndDistinct(),
              "record kind names label ledger slots and metric series: they must be "
              "non-empty and unique");
// Wire-order stability: ledger indices and committed artifacts hardcode
// these positions. Appending new kinds is fine; reordering is not.
static_assert(kRecordIndexOf<HeartbeatRun> == 0 && kRecordIndexOf<UptimeRecord> == 1 &&
                  kRecordIndexOf<CapacityRecord> == 2 &&
                  kRecordIndexOf<DeviceTrafficRecord> == 8 &&
                  kRecordIndexOf<CgnEventRecord> == kRecordKinds - 1,
              "RecordTypes is append-only: existing variant indices are wire format");

/// Human label for a variant alternative (drop ledgers, bench tables).
[[nodiscard]] constexpr const char* RecordKindName(std::size_t variant_index) {
  return variant_index < kRecordKinds ? kRecordKindNames[variant_index] : "unknown";
}

/// Measurement timestamp of a record — the spool's arrival order and the
/// uploader's flush-eligibility key.
[[nodiscard]] inline TimePoint RecordTime(const Record& r) {
  return std::visit([](const auto& v) { return Schema<std::decay_t<decltype(v)>>::Time(v); },
                    r);
}

/// Comma-joined column names: the CSV header of a column list.
template <typename Columns>
[[nodiscard]] std::string CsvHeader(const Columns& columns) {
  std::string header;
  std::apply(
      [&header](const auto&... col) {
        ((header += header.empty() ? "" : ",", header += col.name), ...);
      },
      columns);
  return header;
}

/// The full-fidelity CSV header for a data set.
template <typename T>
[[nodiscard]] std::string CsvHeader() {
  return CsvHeader(Schema<T>::Fields());
}

/// Which CSV view a file carries: the exact Fields() of every kind, or the
/// Release() columns of the kinds with kPublicRelease.
enum class CsvView { kRelease, kFull };

/// Call `fn(TypeTag<T>{}, columns)`, in wire order, for every kind `view`
/// writes, with that view's column list. Export and import both pick a
/// view's files and columns here.
template <typename Fn>
void ForEachCsvFile(CsvView view, Fn&& fn) {
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    if (view == CsvView::kFull) {
      fn(tag, Schema<T>::Fields());
    } else if constexpr (Schema<T>::kPublicRelease) {
      fn(tag, Schema<T>::Release());
    }
  });
}

}  // namespace bismark::collect
