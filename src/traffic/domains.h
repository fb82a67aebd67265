// The simulated Internet's domain population.
//
// Section 3.2.2: the firmware whitelists the Alexa top-200 US domains (plus
// user additions) and obfuscates DNS lookups to everything else; Section
// 6.4 measures domain popularity against that whitelist. We embed a
// realistic top-of-Alexa catalog (with categories that drive application
// affinity) and a synthetic tail, and project the whole population into a
// net::ZoneCatalog so flows resolve through real DNS machinery.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "net/dns.h"

namespace bismark::traffic {

/// Content category — determines which applications visit a domain and the
/// flow shapes they produce there.
enum class DomainCategory : int {
  kSearch = 0,
  kVideoStreaming,   // youtube, netflix, hulu — high volume, few connections
  kAudioStreaming,   // pandora, spotify
  kSocial,
  kShopping,
  kNews,
  kCloudSync,        // dropbox, icloud — upload heavy
  kEmail,
  kCdn,              // akamai-style; mostly CNAME targets
  kSoftwareUpdate,
  kGaming,
  kVoip,
  kPortal,           // misc popular sites
  kTail,             // outside the whitelist
};

[[nodiscard]] std::string_view DomainCategoryName(DomainCategory c);

struct DomainInfo {
  std::string name;
  DomainCategory category{DomainCategory::kPortal};
  /// Popularity weight (descending with Alexa-style rank).
  double popularity{1.0};
  /// Whether the domain is on the firmware's whitelist (Alexa top 200).
  bool whitelisted{true};
};

/// The full domain population: whitelist + tail.
class DomainCatalog {
 public:
  /// Build the standard catalog: ~200 whitelisted domains modelled on the
  /// 2013 Alexa US list plus `tail_count` synthetic unlisted domains.
  static DomainCatalog BuildStandard(std::size_t tail_count = 400, std::uint64_t seed = 17);

  [[nodiscard]] const std::vector<DomainInfo>& domains() const { return domains_; }
  [[nodiscard]] std::size_t whitelist_size() const { return whitelist_size_; }

  [[nodiscard]] bool is_whitelisted(const std::string& name) const;

  /// Indices of domains in a category (whitelisted and tail).
  [[nodiscard]] const std::vector<std::size_t>& in_category(DomainCategory c) const {
    return by_category_[static_cast<std::size_t>(c)];
  }

  /// Weighted draw of a domain index within one category.
  [[nodiscard]] std::size_t sample_in_category(DomainCategory c, Rng& rng) const;

  [[nodiscard]] const DomainInfo& domain(std::size_t idx) const { return domains_[idx]; }

  /// Populate a DNS zone catalog with A records (and CDN CNAME chains for
  /// video/CDN domains) for every domain. Deterministic in `seed`.
  void install_zones(net::ZoneCatalog& zones, std::uint64_t seed = 23) const;

 private:
  std::vector<DomainInfo> domains_;
  std::size_t whitelist_size_{0};
  // Per category, in catalog order: the domain indices and their
  // popularity weights (sample_in_category's draw list).
  static constexpr std::size_t kCategories = static_cast<std::size_t>(DomainCategory::kTail) + 1;
  std::array<std::vector<std::size_t>, kCategories> by_category_;
  std::array<std::vector<double>, kCategories> weights_;
};

}  // namespace bismark::traffic
