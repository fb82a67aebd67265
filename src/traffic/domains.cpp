#include "traffic/domains.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace bismark::traffic {

namespace {
struct SeedDomain {
  std::string_view name;
  DomainCategory category;
};

// Modelled on the 2013 Alexa US top sites (the paper's default whitelist).
// Popularity weight decays with position; categories drive app affinity.
constexpr std::array<SeedDomain, 96> kSeedDomains = {{
    {"google.com", DomainCategory::kSearch},
    {"youtube.com", DomainCategory::kVideoStreaming},
    {"facebook.com", DomainCategory::kSocial},
    {"amazon.com", DomainCategory::kShopping},
    {"yahoo.com", DomainCategory::kPortal},
    {"wikipedia.org", DomainCategory::kPortal},
    {"twitter.com", DomainCategory::kSocial},
    {"apple.com", DomainCategory::kSoftwareUpdate},
    {"netflix.com", DomainCategory::kVideoStreaming},
    {"bing.com", DomainCategory::kSearch},
    {"ebay.com", DomainCategory::kShopping},
    {"linkedin.com", DomainCategory::kSocial},
    {"pinterest.com", DomainCategory::kSocial},
    {"msn.com", DomainCategory::kPortal},
    {"microsoft.com", DomainCategory::kSoftwareUpdate},
    {"tumblr.com", DomainCategory::kSocial},
    {"hulu.com", DomainCategory::kVideoStreaming},
    {"pandora.com", DomainCategory::kAudioStreaming},
    {"craigslist.org", DomainCategory::kPortal},
    {"paypal.com", DomainCategory::kShopping},
    {"cnn.com", DomainCategory::kNews},
    {"wordpress.com", DomainCategory::kPortal},
    {"imgur.com", DomainCategory::kSocial},
    {"blogspot.com", DomainCategory::kPortal},
    {"instagram.com", DomainCategory::kSocial},
    {"reddit.com", DomainCategory::kSocial},
    {"espn.com", DomainCategory::kNews},
    {"dropbox.com", DomainCategory::kCloudSync},
    {"nytimes.com", DomainCategory::kNews},
    {"imdb.com", DomainCategory::kPortal},
    {"aol.com", DomainCategory::kEmail},
    {"huffingtonpost.com", DomainCategory::kNews},
    {"weather.com", DomainCategory::kNews},
    {"bankofamerica.com", DomainCategory::kPortal},
    {"yelp.com", DomainCategory::kPortal},
    {"netflix-cdn.com", DomainCategory::kCdn},
    {"akamai.net", DomainCategory::kCdn},
    {"cloudfront.net", DomainCategory::kCdn},
    {"fbcdn.net", DomainCategory::kCdn},
    {"googlevideo.com", DomainCategory::kCdn},
    {"chase.com", DomainCategory::kPortal},
    {"walmart.com", DomainCategory::kShopping},
    {"bestbuy.com", DomainCategory::kShopping},
    {"target.com", DomainCategory::kShopping},
    {"etsy.com", DomainCategory::kShopping},
    {"github.com", DomainCategory::kPortal},
    {"stackoverflow.com", DomainCategory::kPortal},
    {"flickr.com", DomainCategory::kSocial},
    {"vimeo.com", DomainCategory::kVideoStreaming},
    {"twitch.tv", DomainCategory::kVideoStreaming},
    {"spotify.com", DomainCategory::kAudioStreaming},
    {"last.fm", DomainCategory::kAudioStreaming},
    {"gmail.com", DomainCategory::kEmail},
    {"outlook.com", DomainCategory::kEmail},
    {"mail.yahoo.com", DomainCategory::kEmail},
    {"icloud.com", DomainCategory::kCloudSync},
    {"drive.google.com", DomainCategory::kCloudSync},
    {"onedrive.com", DomainCategory::kCloudSync},
    {"box.com", DomainCategory::kCloudSync},
    {"steampowered.com", DomainCategory::kGaming},
    {"xboxlive.com", DomainCategory::kGaming},
    {"playstation.com", DomainCategory::kGaming},
    {"nintendo.com", DomainCategory::kGaming},
    {"riotgames.com", DomainCategory::kGaming},
    {"skype.com", DomainCategory::kVoip},
    {"vonage.com", DomainCategory::kVoip},
    {"windowsupdate.com", DomainCategory::kSoftwareUpdate},
    {"adobe.com", DomainCategory::kSoftwareUpdate},
    {"ubuntu.com", DomainCategory::kSoftwareUpdate},
    {"foxnews.com", DomainCategory::kNews},
    {"washingtonpost.com", DomainCategory::kNews},
    {"usatoday.com", DomainCategory::kNews},
    {"bbc.co.uk", DomainCategory::kNews},
    {"reuters.com", DomainCategory::kNews},
    {"bloomberg.com", DomainCategory::kNews},
    {"zillow.com", DomainCategory::kPortal},
    {"tripadvisor.com", DomainCategory::kPortal},
    {"expedia.com", DomainCategory::kPortal},
    {"groupon.com", DomainCategory::kShopping},
    {"ask.com", DomainCategory::kSearch},
    {"duckduckgo.com", DomainCategory::kSearch},
    {"wunderground.com", DomainCategory::kNews},
    {"accuweather.com", DomainCategory::kNews},
    {"nfl.com", DomainCategory::kNews},
    {"mlb.com", DomainCategory::kNews},
    {"deviantart.com", DomainCategory::kSocial},
    {"soundcloud.com", DomainCategory::kAudioStreaming},
    {"rhapsody.com", DomainCategory::kAudioStreaming},
    {"vevo.com", DomainCategory::kVideoStreaming},
    {"dailymotion.com", DomainCategory::kVideoStreaming},
    {"crackle.com", DomainCategory::kVideoStreaming},
    {"vudu.com", DomainCategory::kVideoStreaming},
    {"mozilla.org", DomainCategory::kSoftwareUpdate},
    {"speedtest.net", DomainCategory::kPortal},
    {"wikia.com", DomainCategory::kPortal},
    {"about.com", DomainCategory::kPortal},
}};

constexpr std::array<std::string_view, 14> kCategoryNames = {
    "search", "video", "audio", "social", "shopping", "news", "cloud-sync",
    "email",  "cdn",   "software-update", "gaming", "voip", "portal", "tail",
};
}  // namespace

std::string_view DomainCategoryName(DomainCategory c) {
  const auto idx = static_cast<std::size_t>(c);
  return idx < kCategoryNames.size() ? kCategoryNames[idx] : "?";
}

DomainCatalog DomainCatalog::BuildStandard(std::size_t tail_count, std::uint64_t seed) {
  DomainCatalog catalog;
  Rng rng(seed);

  // Seed whitelist: popularity decays like 1/rank^0.9 so a handful of
  // domains carry most visits (the Fig. 18/19 concentration).
  for (std::size_t i = 0; i < kSeedDomains.size(); ++i) {
    DomainInfo info;
    info.name = std::string(kSeedDomains[i].name);
    info.category = kSeedDomains[i].category;
    info.popularity = 1.0 / std::pow(static_cast<double>(i + 1), 0.9);
    info.whitelisted = true;
    catalog.domains_.push_back(std::move(info));
  }

  // Fill the whitelist out to ~200 entries with plausible long-tail sites.
  static constexpr std::array<DomainCategory, 6> kFillerCats = {
      DomainCategory::kPortal, DomainCategory::kNews,     DomainCategory::kShopping,
      DomainCategory::kSocial, DomainCategory::kVideoStreaming, DomainCategory::kPortal,
  };
  const std::size_t filler = 200 - kSeedDomains.size();
  for (std::size_t i = 0; i < filler; ++i) {
    DomainInfo info;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "popular-site-%03zu.com", i);
    info.name = buf;
    info.category = kFillerCats[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    const std::size_t rank = kSeedDomains.size() + i + 1;
    info.popularity = 1.0 / std::pow(static_cast<double>(rank), 0.9);
    info.whitelisted = true;
    catalog.domains_.push_back(std::move(info));
  }
  catalog.whitelist_size_ = catalog.domains_.size();

  // The unlisted tail: obscure sites, regional CDNs, and the "domains we
  // removed from the whitelist". Collectively these receive ~35 % of
  // traffic volume (Section 6.4: whitelisted traffic is ~65 % of total).
  for (std::size_t i = 0; i < tail_count; ++i) {
    DomainInfo info;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "tail-site-%04zu.net", i);
    info.name = buf;
    // Sprinkle some high-volume tail categories (unlisted video/CDN).
    const double r = rng.uniform();
    if (r < 0.12) {
      info.category = DomainCategory::kVideoStreaming;
    } else if (r < 0.25) {
      info.category = DomainCategory::kCdn;
    } else if (r < 0.4) {
      info.category = DomainCategory::kSocial;
    } else {
      info.category = DomainCategory::kTail;
    }
    info.popularity = 1.0 / std::pow(static_cast<double>(i + 10), 1.1);
    info.whitelisted = false;
    catalog.domains_.push_back(std::move(info));
  }
  for (std::size_t i = 0; i < catalog.domains_.size(); ++i) {
    const auto c = static_cast<std::size_t>(catalog.domains_[i].category);
    catalog.by_category_[c].push_back(i);
    catalog.weights_[c].push_back(catalog.domains_[i].popularity);
  }
  return catalog;
}

bool DomainCatalog::is_whitelisted(const std::string& name) const {
  for (std::size_t i = 0; i < whitelist_size_; ++i) {
    if (domains_[i].name == name) return true;
  }
  return false;
}

std::size_t DomainCatalog::sample_in_category(DomainCategory c, Rng& rng) const {
  const auto& candidates = in_category(c);
  if (candidates.empty()) return 0;
  return candidates[rng.weighted_index(weights_[static_cast<std::size_t>(c)])];
}

void DomainCatalog::install_zones(net::ZoneCatalog& zones, std::uint64_t seed) const {
  Rng rng(seed);
  for (const auto& d : domains_) {
    // Video and CDN properties front their origin with a CDN CNAME, so the
    // firmware's DNS sampler sees realistic CNAME chains.
    const bool cdn_fronted =
        d.category == DomainCategory::kVideoStreaming || d.category == DomainCategory::kCdn;
    const int addr_count = cdn_fronted ? 4 : (rng.bernoulli(0.3) ? 2 : 1);
    std::vector<net::Ipv4Address> addrs;
    for (int i = 0; i < addr_count; ++i) {
      // Public space, deterministic per domain.
      addrs.emplace_back(static_cast<std::uint8_t>(23 + rng.uniform_int(0, 150)),
                         static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                         static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                         static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
    }
    if (cdn_fronted && d.name != "akamai.net") {
      const std::string edge = "edge-" + d.name;
      zones.add_cname(d.name, edge, Minutes(5));
      zones.add_domain(edge, std::move(addrs), Minutes(1));
    } else {
      zones.add_domain(d.name, std::move(addrs), Minutes(5));
    }
  }
}

}  // namespace bismark::traffic
