// Wireless bands and channels.
//
// The BISmark WNDR3800 has one 802.11gn radio (2.4 GHz) and one 802.11an
// radio (5 GHz); by default the 2.4 GHz radio sits on channel 11 and the
// 5 GHz radio on channel 36 (Section 3.2.2). Sections 5.2–5.3 compare
// occupancy of the two bands.
#pragma once

#include <string_view>
#include <vector>

namespace bismark::wireless {

enum class Band : int { k2_4GHz = 0, k5GHz = 1 };

[[nodiscard]] std::string_view BandName(Band b);

/// Channels usable in each band (US allocations: 1–11 for 2.4 GHz, the
/// UNII-1 set for 5 GHz — enough for the contention model).
[[nodiscard]] const std::vector<int>& ChannelsFor(Band b);

/// Default channel for each band as BISmark configures its radios.
[[nodiscard]] int DefaultChannel(Band b);

/// Whether transmissions on `a` and `b` interfere within a band. In
/// 2.4 GHz, 20 MHz channels overlap unless they are >= 5 channel numbers
/// apart; 5 GHz channels are non-overlapping.
[[nodiscard]] bool ChannelsOverlap(Band band, int a, int b);

}  // namespace bismark::wireless
