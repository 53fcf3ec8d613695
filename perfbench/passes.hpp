// passes.hpp — the paper's five batch-analysis passes plus the global
// distinct-IP count, run span-native over one CompactDatasetView and
// folded into one digest, so two representations or two thread counts can
// be compared for equality.
#pragma once

#include <cstdint>

#include "crawler/compact_dataset.hpp"
#include "geo/geo_db.hpp"
#include "trace.hpp"
#include "websim/website.hpp"

namespace perfbench {

struct PassResult {
  std::uint64_t digest = 0;
  std::size_t distinct_ips = 0;  // distinct_ips_global()
  std::size_t demographics_distinct_ips = 0;
  double identity_s = 0, classify_s = 0, seeding_s = 0, demographics_s = 0,
         consumption_s = 0, distinct_ips_s = 0;
};

/// Runs identity → classify → seeding panel → demographics → top-publisher
/// consumption → distinct_ips_global at `threads` workers, each inside an
/// "analysis.*" span. RNG-drawing passes use fixed substreams of `seed`.
PassResult run_passes(const btpub::CompactDatasetView& view,
                      const btpub::GeoDb& geo,
                      const btpub::WebsiteDirectory& websites,
                      std::size_t threads, std::uint64_t seed, Tracer& tracer);

}  // namespace perfbench
