#include "traffic/apps.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace bismark::traffic {

namespace {
constexpr std::array<std::string_view, kAppTypeCount> kAppNames = {
    "web-browsing", "video-streaming", "audio-streaming", "social-media",
    "cloud-sync",   "email",           "software-update", "online-gaming",
    "voip",         "bulk-upload",     "iot-telemetry",
};

/// Domain-category weights per app. Order matches DomainCategory.
struct CategoryAffinity {
  DomainCategory primary;
  DomainCategory secondary;
  double secondary_prob;
};

CategoryAffinity AffinityFor(AppType app) {
  switch (app) {
    case AppType::kWebBrowsing: return {DomainCategory::kPortal, DomainCategory::kSearch, 0.35};
    case AppType::kVideoStreaming:
      return {DomainCategory::kVideoStreaming, DomainCategory::kCdn, 0.15};
    case AppType::kAudioStreaming:
      return {DomainCategory::kAudioStreaming, DomainCategory::kCdn, 0.1};
    case AppType::kSocialMedia: return {DomainCategory::kSocial, DomainCategory::kCdn, 0.2};
    case AppType::kCloudSync: return {DomainCategory::kCloudSync, DomainCategory::kCloudSync, 0.0};
    case AppType::kEmail: return {DomainCategory::kEmail, DomainCategory::kEmail, 0.0};
    case AppType::kSoftwareUpdate:
      return {DomainCategory::kSoftwareUpdate, DomainCategory::kCdn, 0.3};
    case AppType::kOnlineGaming: return {DomainCategory::kGaming, DomainCategory::kGaming, 0.0};
    case AppType::kVoip: return {DomainCategory::kVoip, DomainCategory::kVoip, 0.0};
    case AppType::kBulkUpload: return {DomainCategory::kCloudSync, DomainCategory::kTail, 0.5};
    case AppType::kIotTelemetry: return {DomainCategory::kTail, DomainCategory::kTail, 0.0};
  }
  return {DomainCategory::kPortal, DomainCategory::kPortal, 0.0};
}

Bytes DrawLognormalBytes(Rng& rng, double median_bytes, double sigma, double cap_bytes) {
  const double v = rng.lognormal(std::log(median_bytes), sigma);
  return Bytes{static_cast<std::int64_t>(std::min(v, cap_bytes))};
}
}  // namespace

std::string_view AppTypeName(AppType t) {
  const auto idx = static_cast<std::size_t>(t);
  return idx < kAppNames.size() ? kAppNames[idx] : "?";
}

Bytes SessionPlan::total_down() const {
  Bytes total;
  for (const auto& f : flows) total += f.bytes_down;
  return total;
}

Bytes SessionPlan::total_up() const {
  Bytes total;
  for (const auto& f : flows) total += f.bytes_up;
  return total;
}

double AppModel::TailProbability(AppType app) {
  switch (app) {
    case AppType::kWebBrowsing: return 0.28;   // long tail of small sites
    case AppType::kVideoStreaming: return 0.12; // unlisted video/CDN hosts
    case AppType::kAudioStreaming: return 0.10;
    case AppType::kSocialMedia: return 0.12;
    case AppType::kCloudSync: return 0.05;
    case AppType::kEmail: return 0.15;
    case AppType::kSoftwareUpdate: return 0.35;  // vendor CDNs
    case AppType::kOnlineGaming: return 0.30;
    case AppType::kVoip: return 0.20;
    case AppType::kBulkUpload: return 0.50;
    case AppType::kIotTelemetry: return 0.90;
  }
  return 0.3;
}

SessionPlan AppModel::PlanSession(AppType app, const DomainCatalog& catalog, Rng& rng) {
  SessionPlan plan;
  plan.app = app;

  // Pick the domain: category affinity, with a chance of landing in the
  // unlisted tail of the same category.
  CategoryAffinity affinity = AffinityFor(app);
  DomainCategory cat = affinity.primary;
  if (affinity.secondary_prob > 0.0 && rng.bernoulli(affinity.secondary_prob)) {
    cat = affinity.secondary;
  }
  std::size_t domain = catalog.sample_in_category(cat, rng);
  if (rng.bernoulli(TailProbability(app))) {
    // Re-draw restricted to unlisted domains of a tail-ish category.
    const DomainCategory tail_cat = (cat == DomainCategory::kVideoStreaming ||
                                     cat == DomainCategory::kCdn)
                                        ? cat
                                        : DomainCategory::kTail;
    const auto& candidates = catalog.in_category(tail_cat);
    std::vector<std::size_t> unlisted;
    for (std::size_t idx : candidates) {
      if (!catalog.domain(idx).whitelisted) unlisted.push_back(idx);
    }
    if (!unlisted.empty()) {
      domain = unlisted[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(unlisted.size()) - 1))];
    }
  }
  plan.domain_index = domain;

  switch (app) {
    case AppType::kWebBrowsing: {
      // Many short connections, few bytes each: a page visit plus assets.
      const int flows = static_cast<int>(rng.uniform_int(4, 24));
      Duration offset{0};
      for (int i = 0; i < flows; ++i) {
        FlowPlan f;
        f.bytes_down = DrawLognormalBytes(rng, 60e3, 1.2, 8e6);
        f.bytes_up = Bytes{static_cast<std::int64_t>(2e3 + rng.uniform(0, 8e3))};
        f.demand_down = Mbps(rng.uniform(3.0, 12.0));
        f.demand_up = Kbps(200);
        f.dst_port = rng.bernoulli(0.6) ? 80 : 443;
        f.start_offset = offset;
        offset += Seconds(rng.exponential(4.0));
        plan.flows.push_back(f);
      }
      break;
    }
    case AppType::kVideoStreaming: {
      // One or two long-running connections carrying hundreds of MB.
      const int flows = rng.bernoulli(0.3) ? 2 : 1;
      // Watch time 15 min – 2.5 h; 2013-era play-out rates (SD through
      // early HD) of 1.2–4.5 Mbps.
      const double watch_s = rng.uniform(900.0, 6600.0);
      const double rate_bps = rng.uniform(1.2e6, 4.5e6);
      for (int i = 0; i < flows; ++i) {
        FlowPlan f;
        const double share = flows == 1 ? 1.0 : (i == 0 ? 0.85 : 0.15);
        f.bytes_down = Bytes{static_cast<std::int64_t>(watch_s * rate_bps / 8.0 * share)};
        f.bytes_up = Bytes{static_cast<std::int64_t>(f.bytes_down.count * 0.012)};
        // Streaming fetches in bursts faster than the play-out rate; the
        // generator duty-cycles long flows, so the *average* lands near
        // the play-out rate while bursts peak at this demand.
        f.demand_down = Bps(rate_bps * rng.uniform(1.15, 1.55) * share);
        f.demand_up = Kbps(120);
        f.dst_port = 443;
        f.start_offset = Seconds(static_cast<double>(i) * 2.0);
        plan.flows.push_back(f);
      }
      break;
    }
    case AppType::kAudioStreaming: {
      FlowPlan f;
      const double listen_s = rng.uniform(600.0, 7200.0);
      const double rate_bps = rng.uniform(96e3, 320e3);
      f.bytes_down = Bytes{static_cast<std::int64_t>(listen_s * rate_bps / 8.0)};
      f.bytes_up = Bytes{static_cast<std::int64_t>(f.bytes_down.count * 0.02)};
      f.demand_down = Bps(rate_bps * 1.5);
      f.demand_up = Kbps(32);
      f.dst_port = 443;
      plan.flows.push_back(f);
      break;
    }
    case AppType::kSocialMedia: {
      const int flows = static_cast<int>(rng.uniform_int(3, 14));
      Duration offset{0};
      for (int i = 0; i < flows; ++i) {
        FlowPlan f;
        f.bytes_down = DrawLognormalBytes(rng, 150e3, 1.4, 30e6);  // photos, short clips
        f.bytes_up = DrawLognormalBytes(rng, 4e3, 1.0, 5e6);
        f.demand_down = Mbps(rng.uniform(2.0, 10.0));
        f.demand_up = Kbps(300);
        f.dst_port = 443;
        f.start_offset = offset;
        offset += Seconds(rng.exponential(10.0));
        plan.flows.push_back(f);
      }
      break;
    }
    case AppType::kCloudSync: {
      // Upload-dominated; occasionally a large photo/video library push.
      const int flows = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < flows; ++i) {
        FlowPlan f;
        f.bytes_up = DrawLognormalBytes(rng, 8e6, 1.8, 2e9);
        f.bytes_down = Bytes{static_cast<std::int64_t>(f.bytes_up.count * 0.05)};
        f.demand_up = Mbps(rng.uniform(1.0, 6.0));
        f.demand_down = Mbps(1.0);
        f.dst_port = 443;
        f.start_offset = Seconds(static_cast<double>(i) * 5.0);
        plan.flows.push_back(f);
      }
      break;
    }
    case AppType::kEmail: {
      const int flows = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < flows; ++i) {
        FlowPlan f;
        f.bytes_down = DrawLognormalBytes(rng, 40e3, 1.3, 20e6);
        f.bytes_up = DrawLognormalBytes(rng, 8e3, 1.5, 20e6);
        f.demand_down = Mbps(3.0);
        f.demand_up = Mbps(1.0);
        f.dst_port = rng.bernoulli(0.5) ? 993 : 443;
        f.start_offset = Seconds(static_cast<double>(i));
        plan.flows.push_back(f);
      }
      break;
    }
    case AppType::kSoftwareUpdate: {
      FlowPlan f;
      f.bytes_down = DrawLognormalBytes(rng, 60e6, 1.2, 1.5e9);
      f.bytes_up = Bytes{static_cast<std::int64_t>(f.bytes_down.count * 0.01)};
      f.demand_down = Mbps(rng.uniform(4.0, 20.0));
      f.demand_up = Kbps(200);
      f.dst_port = 80;
      plan.flows.push_back(f);
      break;
    }
    case AppType::kOnlineGaming: {
      // A low-rate long session plus a possible content download.
      FlowPlan game;
      const double play_s = rng.uniform(1800.0, 10800.0);
      game.bytes_down = Bytes{static_cast<std::int64_t>(play_s * 40e3 / 8.0)};
      game.bytes_up = Bytes{static_cast<std::int64_t>(play_s * 25e3 / 8.0)};
      game.demand_down = Kbps(60);
      game.demand_up = Kbps(40);
      game.protocol = net::Protocol::kUdp;
      game.dst_port = 3074;
      plan.flows.push_back(game);
      if (rng.bernoulli(0.15)) {
        FlowPlan patch;
        patch.bytes_down = DrawLognormalBytes(rng, 300e6, 1.0, 6e9);
        patch.bytes_up = Bytes{static_cast<std::int64_t>(patch.bytes_down.count * 0.005)};
        patch.demand_down = Mbps(rng.uniform(5.0, 25.0));
        patch.demand_up = Kbps(100);
        patch.dst_port = 80;
        plan.flows.push_back(patch);
      }
      break;
    }
    case AppType::kVoip: {
      FlowPlan f;
      const double call_s = rng.uniform(120.0, 2400.0);
      f.bytes_down = Bytes{static_cast<std::int64_t>(call_s * 80e3 / 8.0)};
      f.bytes_up = f.bytes_down;
      f.demand_down = Kbps(80);
      f.demand_up = Kbps(80);
      f.protocol = net::Protocol::kUdp;
      f.dst_port = 5060;
      plan.flows.push_back(f);
      break;
    }
    case AppType::kBulkUpload: {
      // The science-data uploader of Fig. 16a: a sustained upload whose
      // LAN-side demand exceeds the shaped uplink (bufferbloat overdrive).
      FlowPlan f;
      const double push_s = rng.uniform(1800.0, 14400.0);
      const double rate_bps = rng.uniform(2e6, 5e6);
      f.bytes_up = Bytes{static_cast<std::int64_t>(push_s * rate_bps / 8.0)};
      f.bytes_down = Bytes{static_cast<std::int64_t>(f.bytes_up.count * 0.02)};
      f.demand_up = Bps(rate_bps);
      f.demand_down = Kbps(200);
      f.dst_port = 22;
      plan.flows.push_back(f);
      break;
    }
    case AppType::kIotTelemetry: {
      FlowPlan f;
      f.bytes_up = Bytes{static_cast<std::int64_t>(rng.uniform(2e3, 40e3))};
      f.bytes_down = Bytes{static_cast<std::int64_t>(rng.uniform(1e3, 10e3))};
      f.demand_up = Kbps(64);
      f.demand_down = Kbps(64);
      f.dst_port = 8883;
      plan.flows.push_back(f);
      break;
    }
  }
  return plan;
}

Bytes AppModel::ApproxMeanVolume(AppType app) {
  switch (app) {
    case AppType::kWebBrowsing: return MB(2.5);
    case AppType::kVideoStreaming: return MB(1800);
    case AppType::kAudioStreaming: return MB(90);
    case AppType::kSocialMedia: return MB(3);
    case AppType::kCloudSync: return MB(40);
    case AppType::kEmail: return MB(0.2);
    case AppType::kSoftwareUpdate: return MB(70);
    case AppType::kOnlineGaming: return MB(80);
    case AppType::kVoip: return MB(20);
    case AppType::kBulkUpload: return MB(1500);
    case AppType::kIotTelemetry: return KB(30);
  }
  return MB(1);
}

}  // namespace bismark::traffic
