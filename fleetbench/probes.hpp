// Per-layer metrics for traced runs. Every traced run prints every layer
// metric: a layer the traced workload drives is measured on that
// workload's own rounds; a layer it does not drive is measured on a small
// probe round of the workload that does (README.md lists which is which).
// Micro-probes time public calls of one layer in isolation (thread pool
// start lag, wire codec, JSON doubles, columnar reads, query parse and
// render, platform build and service runs). Every timing comes from a span
// the benchmark records around the call.
#pragma once

#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace fleetbench {

/// What the traced workload already ran; null members are probed.
struct Observed {
  const std::vector<ScaleRound>* scale = nullptr;
  double scale_planes_off_s = 0.0;  // one planes-off round, same config
  const IngestInput* ingest_in = nullptr;
  const IngestPass* ingest = nullptr;
};

void layer_metrics(const Args& args, SpanLog& log, const Observed& seen,
                   Report* report);

}  // namespace fleetbench
