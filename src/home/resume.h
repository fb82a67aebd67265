// Resumable-run options codec (DESIGN §12).
//
// A fleet run's spill manifest records everything a resume needs to rebuild
// the deployment: the content-determining DeploymentOptions travel as the
// manifest's opaque `options_blob`. collect/ compares the blob
// byte-for-byte across generations; this codec is the only place that
// knows what is inside it.
//
// Layout: magic "BSOP" | u32 version, then one field list (resume.cpp's
// OptionFields, windows via collect::WindowFields) that the encoder and the
// decoder both instantiate (collect/binio.h), so the field order is stated
// once. cgn_port_block keeps its u32 width on disk, and the two size_t
// upload knobs their u64.
//
// The blob covers exactly the fields that determine record content and the
// roster/shard plan (seed, windows, roster shape, fault knobs, upload
// policy). Deliberately *not* included: worker count (any value reproduces
// the same bytes), the spill directory (the blob lives inside it), the
// memory budget (recorded separately in ManifestConfig.budget_bytes so the
// CLI can restore it without decoding), and the checkpoint cadence
// (durability policy, not content). RNG stream state is not persisted at
// all: every per-home stream is a pure function of (seed, home id), so a
// re-run shard regenerates identical draws from the seed alone.
#pragma once

#include <string>

#include "home/deployment.h"

namespace bismark::home {

/// Serialise the content-determining subset of `options` (versioned,
/// self-describing; see the header comment for what is covered).
[[nodiscard]] std::string EncodeResumableOptions(const DeploymentOptions& options);

/// Rebuild a DeploymentOptions from EncodeResumableOptions output. Fields
/// outside the blob (budget, workers, spill_dir, checkpoint cadence) keep
/// their defaults — the caller restores them from ManifestConfig / the
/// command line. Returns false with *error on a malformed or
/// incompatible-version blob.
bool DecodeResumableOptions(const std::string& blob, DeploymentOptions* out,
                            std::string* error);

}  // namespace bismark::home
