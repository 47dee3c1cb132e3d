// Output checks made apart from the program: each checker compares what a
// public entry point returned against figures the benchmark derives from
// its own inputs (config arithmetic, the generator's ground truth, brute
// force). A checker returns one message per violated property; an empty
// list means the output passed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/fleet_scale.hpp"
#include "telemetry/fleet/query.hpp"

namespace fleetbench {

using Errors = std::vector<std::string>;

// --- scale-capture ---------------------------------------------------------

/// Samples the fleet must deliver: every vehicle ticks once per
/// sample_period from its phase offset through run_until inclusive, drawing
/// samples_per_tick samples each tick.
std::size_t expected_scale_samples(const vdap::core::FleetScaleConfig& cfg);

/// enqueued == delivered + dropped, no decode errors, the sample count from
/// the config, and (when capture is on) the capture registry's
/// fleet.shipper.enqueued total equal to the shipper stats with no open span.
Errors check_scale(const vdap::core::FleetScaleOutcome& out,
                   const vdap::core::FleetScaleConfig& cfg);

// --- fleet-chaos -----------------------------------------------------------

/// Service runs released equal vehicles × load_until / release_period with
/// every run reported ok; per vehicle enqueued − acked == dropped; Σ acked
/// equals frames ingested equals the lines of frames_jsonl.
Errors check_chaos(const vdap::core::FleetOutcome& out,
                   const vdap::core::FleetConfig& cfg);

// --- ingest-query ----------------------------------------------------------

/// Ground truth of one range query, folded by the generator.
struct RangeTruth {
  std::size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Min/max over every sample of the columnar blocks the range touches:
  /// the query's percentiles come from whole-block sketches, so they must
  /// lie in this envelope.
  double env_min = 0.0;
  double env_max = 0.0;
  std::size_t rows = 0;  // vehicles expected in per_vehicle
};

Errors check_range(const vdap::telemetry::fleet::QueryResult& r,
                   const RangeTruth& truth);

/// Hits must equal a brute-force scan of the generator's fixes, sorted by
/// distance (vehicle name breaking ties).
Errors check_near(const vdap::telemetry::fleet::QueryResult& r,
                  const std::vector<vdap::telemetry::fleet::QueryNearHit>&
                      expected);

Errors check_outlier(const std::vector<std::string>& anomalous,
                     const std::string& planted);

// --- self-tests ------------------------------------------------------------
// Each feeds its checker corrupted copies of a result that passed and
// returns one message per corruption the checker failed to catch.

Errors self_test_scale(const vdap::core::FleetScaleOutcome& good,
                       const vdap::core::FleetScaleConfig& cfg);
Errors self_test_chaos(const vdap::core::FleetOutcome& good,
                       const vdap::core::FleetConfig& cfg);
Errors self_test_queries(const vdap::telemetry::fleet::QueryResult& range,
                         const RangeTruth& truth,
                         const vdap::telemetry::fleet::QueryResult& near,
                         const std::string& planted);

}  // namespace fleetbench
