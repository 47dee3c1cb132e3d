// The workloads' rounds. A round is one whole unit of client work that a
// run repeats until its measuring time is used up:
//   * scale-capture: one core::run_fleet_scale call (1 shard x 1 thread,
//     capture + flight + prof planes on, ingest off);
//   * ingest-query:  one pass of generated one-sim-second batches through a
//     standalone ShardedIngestBackend, each batch followed by a fixed query
//     mix from a single client.
// scale-capture's query client replays the same query mix against a
// standing store built from the ingest-query generator. The fleet-chaos
// round (one core::run_fleet call on K shards x T threads with full OpenVdap
// platforms, fleet_uplink_chaos_plan and hosted ingest) is run only as a
// probe by traced runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/fleet.hpp"
#include "core/fleet_scale.hpp"
#include "telemetry/fleet/ingest.hpp"

namespace fleetbench {

// --- scale-capture ---------------------------------------------------------

vdap::core::FleetScaleConfig scale_config(std::uint64_t seed, int vehicles,
                                          bool planes);

struct ScaleRound {
  double setup_s = 0.0;  // call entry until the prepare hook fired
  double wall_s = 0.0;   // prepare hook until the call returned
  /// wall_s split at the epoch barriers: each epoch's work and barrier,
  /// then the end-of-run collection.
  std::vector<double> epoch_s;
  vdap::core::FleetScaleOutcome out;
};

ScaleRound scale_round(const vdap::core::FleetScaleConfig& cfg, SpanLog& log);

/// Set-up check: a small fleet gives the same digest at 1x1 and at KxT.
Errors scale_geometry_check(std::uint64_t seed, int threads, SpanLog& log);

// --- fleet-chaos -----------------------------------------------------------

vdap::core::FleetConfig chaos_config(std::uint64_t seed, int vehicles,
                                     int threads, const std::string& dir_tag,
                                     bool prof);

struct ChaosRound {
  double wall_s = 0.0;  // the whole call: construction is inside it
  vdap::core::FleetOutcome out;
};

ChaosRound chaos_round(const vdap::core::FleetConfig& cfg, SpanLog& log);

// --- ingest-query ----------------------------------------------------------

namespace fleet = vdap::telemetry::fleet;

/// Generated fleet telemetry: one frame per vehicle per sim-second carrying
/// latency samples, a loc.x/loc.y fix and a counter, with one planted
/// outlier vehicle; plus the per-batch query plan and the ground truth the
/// checks compare against.
struct IngestInput {
  struct Fix {
    std::int64_t t = 0;
    double x = 0.0;
    double y = 0.0;
  };
  struct SecondAgg {
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  struct VehicleTruth {
    std::string name;
    std::vector<std::pair<std::int64_t, double>> samples;  // append order
    std::vector<SecondAgg> seconds;
    std::vector<Fix> fixes;  // one per second
  };

  int vehicles = 0;
  int batches = 0;  // sim-seconds
  int samples_per_frame = 0;
  std::string planted;
  std::vector<VehicleTruth> truth;
  std::vector<std::vector<std::string>> batch_lines;  // encoded frames
  std::vector<std::vector<fleet::Query>> queries;     // per batch
  std::uint64_t frames = 0;
  std::uint64_t samples = 0;  // every sample, location fixes included
};

IngestInput make_ingest_input(std::uint64_t seed, int vehicles, int batches);

fleet::IngestOptions ingest_options(int threads);

/// Ingest threads of every ingest_pass. ThreadPool workers
/// start late in some periods of a shared 4-vCPU VM and on time in others, so
/// the same 4-thread pass ran at 190k frames/s in one quarter hour and
/// 380k in the next. On one thread the pass has no pool to wait for; the
/// pool is measured on its own by ingest.thread_speedup and
/// sim.pool_start_lag_us.
constexpr int kIngestThreads = 1;

/// Latencies (ms) of one query client, by query type.
struct QueryLatencies {
  std::vector<double> range_fleet;
  std::vector<double> range_vehicle;
  std::vector<double> near;
  std::uint64_t queries = 0;
  // One checked result of each kind, kept for the checkers' self-test.
  fleet::QueryResult sample_range;
  RangeTruth sample_truth;
  fleet::QueryResult sample_near;
  bool have_sample = false;
};

/// Runs batch `b`'s query mix against `backend`, which holds batches
/// [0, horizon], timing each run_query call and checking every result.
void run_query_mix(const fleet::ShardedIngestBackend& backend,
                   const IngestInput& in, int b, int horizon, SpanLog& log,
                   QueryLatencies* lat, Errors* errs);

struct IngestPass {
  std::vector<double> batch_s;  // time inside each ingest_batch call
  double wall_s = 0.0;
  std::uint64_t frames_accepted = 0;
  QueryLatencies lat;
  std::unique_ptr<fleet::ShardedIngestBackend> backend;
};

/// One pass on kIngestThreads ingest threads: every batch through
/// ingest_batch, each followed by its query mix. Appends check failures to
/// *errs.
IngestPass ingest_pass(const IngestInput& in, bool queries,
                       SpanLog& log, Errors* errs);

/// Ingest-side checks after a pass: frames and samples ingested equal those
/// generated, and the planted outlier is flagged.
Errors check_ingest(const fleet::ShardedIngestBackend& backend,
                    const IngestInput& in);

}  // namespace fleetbench
