#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>

#include "core/platform.hpp"
#include "sim/simulator.hpp"
#include "sim/thread_pool.hpp"
#include "telemetry/fleet/wire.hpp"
#include "telemetry/prof/report.hpp"
#include "telemetry/shard_report.hpp"
#include "util/json.hpp"

namespace fleetbench {

namespace core = vdap::core;
namespace sim = vdap::sim;
namespace prof = vdap::telemetry::prof;

namespace {

/// PROF_SCOPE tags of the fleet paths; each gets a prof.self_share metric.
/// PROF_SCOPE tags by the fleet path that drives them: scale-capture's
/// 1 x 1 run, and the sharded run_fleet with hosted ingest.
const std::vector<const char*> kScaleProfTags = {
    "sim/epoch", "sim/merge", "fleet/deliver", "shipper/cut_frame", "flight/fold",
};
const std::vector<const char*> kChaosProfTags = {
    "sim/exchange", "pool/wait", "ingest/decode", "ingest/barrier", "ingest/detect",
};

/// Seconds inside the one span `name` the probe just closed.
double last_span(const SpanLog& log, const std::string& name) {
  const std::vector<double> d = log.durations(name);
  return d.empty() ? 0.0 : d.back();
}

// --- sim -------------------------------------------------------------------

/// Start lag of sim::ThreadPool::run: from the call until the first task
/// starts on a pool worker (not the calling thread), median over batches
/// of short tasks. With no worker threads there is no lag to measure.
double pool_start_lag_us(int threads, SpanLog& log) {
  if (threads <= 1) return 0.0;
  sim::ThreadPool pool(threads);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<double> lags;
  for (int batch = 0; batch < 100; ++batch) {
    std::atomic<std::int64_t> first_worker_ns{INT64_MAX};
    const Clock::time_point t0 = Clock::now();
    std::vector<std::function<void()>> tasks;
    for (int k = 0; k < 2 * threads; ++k) {
      tasks.emplace_back([&first_worker_ns, caller, t0] {
        const Clock::time_point start = Clock::now();
        if (std::this_thread::get_id() != caller) {
          const std::int64_t ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(start - t0)
                  .count();
          std::int64_t cur = first_worker_ns.load();
          while (ns < cur && !first_worker_ns.compare_exchange_weak(cur, ns)) {
          }
        }
        while (Clock::now() - start < std::chrono::microseconds(500)) {
        }
      });
    }
    {
      Scope s(log, "sim.ThreadPool::run");
      pool.run(tasks);
    }
    const std::int64_t ns = first_worker_ns.load();
    lags.push_back(ns == INT64_MAX ? seconds_since(t0) * 1e6
                                   : static_cast<double>(ns) * 1e-3);
  }
  return median(lags);
}

struct ShardSums {
  std::uint64_t events = 0;
  std::uint64_t wheel_peak = 0;
  std::uint64_t overflow_peak = 0;
  double busy_s = 0.0;
  double wait_s = 0.0;
};

ShardSums shard_sums(const std::string& shards_jsonl, Errors* errs) {
  ShardSums s;
  std::vector<vdap::telemetry::ShardRuntimeRow> rows;
  std::string err;
  if (!vdap::telemetry::parse_shards_report(shards_jsonl, &rows, &err)) {
    errs->push_back("shards_jsonl: " + err);
    return s;
  }
  for (const auto& r : rows) {
    s.events += r.events;
    s.wheel_peak = std::max(s.wheel_peak, r.wheel_peak);
    s.overflow_peak = std::max(s.overflow_peak, r.overflow_peak);
    s.busy_s += r.busy_s;
    s.wait_s += r.wait_s;
  }
  return s;
}

/// Each tag's share of the profile's self samples.
void prof_shares(const std::string& profile_jsonl,
                 const std::vector<const char*>& tags, Report* rep,
                 Errors* errs) {
  prof::ProfileData data;
  std::string err;
  if (!prof::parse_profile_jsonl(profile_jsonl, &data, &err)) {
    errs->push_back("profile_jsonl: " + err);
    return;
  }
  const std::vector<prof::FrameStat> stats = prof::frame_stats(data);
  double total = 0.0;
  for (const prof::FrameStat& f : stats) total += static_cast<double>(f.self);
  for (const char* tag : tags) {
    double self = 0.0;
    for (const prof::FrameStat& f : stats) {
      if (f.frame == tag) self = static_cast<double>(f.self);
    }
    std::string name = std::string("prof.self_share.") + tag;
    std::replace(name.begin(), name.end(), '/', '.');  // metric-name charset
    rep->set(name, total > 0.0 ? self / total : 0.0, "share");
  }
}

// --- wire / json -----------------------------------------------------------

/// Frames shaped like scale-capture's: one second of a vehicle sampling
/// 4 latencies every 500 ms, plus its sample counter.
std::vector<fleet::WireFrame> scale_shaped_frames(std::uint64_t seed, int n) {
  std::vector<fleet::WireFrame> frames;
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 12345;
  auto uniform = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < n; ++i) {
    fleet::WireFrame f;
    f.vehicle = "cav-" + std::to_string(i % 2000);
    f.seq = static_cast<std::uint64_t>(i / 2000 + 1);
    f.created = sim::seconds(i / 2000 + 1);
    auto& lat = f.samples["svc.latency_ms"];
    for (int k = 0; k < 8; ++k) {
      const double u = uniform() + uniform() + uniform() - 1.5;  // ~N(0, 0.5)
      lat.push_back({f.created - sim::msec(500) * (k / 4) + 137 * (i % 97),
                     std::max(0.1, 25.0 + 16.0 * u)});
    }
    f.counters["svc.samples"] = 8;
    frames.push_back(std::move(f));
  }
  return frames;
}

void wire_probe(std::uint64_t seed, SpanLog& log, Report* rep, Errors* errs) {
  constexpr int kFrames = 20000;
  const std::vector<fleet::WireFrame> frames = scale_shaped_frames(seed, kFrames);
  std::vector<std::string> lines;
  lines.reserve(frames.size());
  {
    Scope s(log, "wire.wire_encode");
    for (const fleet::WireFrame& f : frames) lines.push_back(fleet::wire_encode(f));
  }
  const double enc = last_span(log, "wire.wire_encode");
  std::size_t decoded = 0;
  {
    Scope s(log, "wire.wire_decode");
    for (const std::string& l : lines) {
      if (fleet::wire_decode(l).has_value()) ++decoded;
    }
  }
  const double dec = last_span(log, "wire.wire_decode");
  if (decoded != lines.size()) errs->push_back("wire probe: decode failures");
  double bytes = 0.0;
  for (const std::string& l : lines) bytes += static_cast<double>(l.size());
  rep->set("wire.encode_us_per_frame", enc / kFrames * 1e6, "us");
  rep->set("wire.decode_us_per_frame", dec / kFrames * 1e6, "us");
  rep->set("wire.bytes_per_frame", bytes / kFrames, "bytes");

  constexpr int kDoubles = 200000;
  std::vector<double> values;
  values.reserve(kDoubles);
  for (const fleet::WireFrame& f : frames) {
    for (const auto& [t, v] : f.samples.at("svc.latency_ms")) {
      if (values.size() < kDoubles) values.push_back(v);
    }
  }
  std::size_t chars = 0;
  {
    Scope s(log, "json.Value::dump(double)");
    for (double v : values) chars += vdap::json::Value(v).dump().size();
  }
  if (chars == 0) errs->push_back("json probe: empty output");
  rep->set("json.dump_double_ns",
           last_span(log, "json.Value::dump(double)") / values.size() * 1e9,
           "ns");
}

// --- platform --------------------------------------------------------------

void platform_probe(std::uint64_t seed, const std::string& tmp, SpanLog& log,
                    Report* rep, Errors* errs) {
  auto config = [&tmp](int k) {
    core::PlatformConfig cfg;
    cfg.vehicle_name = "cav-probe-" + std::to_string(k);
    cfg.ddi_dir = (std::filesystem::path(tmp) / cfg.vehicle_name).string();
    cfg.with_remote_tiers = false;
    cfg.health.enabled = true;
    return cfg;
  };
  std::vector<double> builds;
  for (int k = 0; k < 5; ++k) {
    sim::Simulator s(seed);
    const Clock::time_point t0 = Clock::now();
    {
      Scope sc(log, "core.OpenVdap+install_standard_services");
      core::OpenVdap car(s, config(k));
      car.install_standard_services();
    }
    builds.push_back(seconds_since(t0) * 1e3);
  }
  rep->set("platform.build_ms", median(builds), "ms");

  sim::Simulator s(seed);
  core::OpenVdap car(s, config(9));
  car.install_standard_services();
  const char* services[] = {"license-plate", "obd-diagnostics"};
  constexpr int kReleases = 75;
  int ok = 0;
  int reports = 0;
  for (int k = 1; k <= kReleases; ++k) {
    s.at(sim::seconds(2) * k, [&car, &ok, &reports, name = services[k % 2]] {
      car.run_service(name, [&ok, &reports](const vdap::edgeos::ServiceRunReport& r) {
        ++reports;
        if (r.ok) ++ok;
      });
    });
  }
  {
    Scope sc(log, "core.OpenVdap::run_service");
    s.run_until(sim::minutes(3));
  }
  if (reports != kReleases || ok != kReleases) {
    errs->push_back("platform probe: " + std::to_string(ok) + " of " +
                    std::to_string(kReleases) + " service runs ok");
  }
  rep->set("platform.run_service_us",
           last_span(log, "core.OpenVdap::run_service") / kReleases * 1e6, "us");
}

// --- ingest and query ------------------------------------------------------

double ingest_all(const IngestInput& in, int threads, SpanLog& log,
                  const std::string& span) {
  fleet::ShardedIngestBackend backend(ingest_options(threads));
  std::vector<std::string_view> views;
  double total = 0.0;
  for (const std::vector<std::string>& lines : in.batch_lines) {
    views.assign(lines.begin(), lines.end());
    {
      Scope s(log, span);
      backend.ingest_batch(views);
    }
    total += last_span(log, span);
  }
  return total;
}

void ingest_probe(const IngestInput& in, const IngestPass& pass, int threads,
                  SpanLog& log, Report* rep, Errors* errs) {
  const fleet::ShardedIngestBackend& b = *pass.backend;
  rep->set("ingest.batch_ms_p50", median(pass.batch_s) * 1e3, "ms");

  const double t1 = ingest_all(in, 1, log, "fleet.ingest_batch[1 thread]");
  const double tn = ingest_all(in, threads, log, "fleet.ingest_batch[T threads]");
  rep->set("ingest.thread_speedup", tn > 0.0 ? t1 / tn : 0.0, "ratio");

  // Hosted replay: the same frames through ingest_on_shard on one thread,
  // then an explicit barrier, so decode+append and barrier detection are
  // timed apart.
  {
    fleet::ShardedIngestBackend hosted(ingest_options(1));
    double on_shard = 0.0;
    std::vector<double> barriers;
    for (const std::vector<std::string>& lines : in.batch_lines) {
      {
        Scope s(log, "fleet.ShardedIngestBackend::ingest_on_shard");
        for (const std::string& l : lines) {
          hosted.ingest_on_shard(hosted.shard_of(fleet::wire_peek_vehicle(l)), l);
        }
      }
      on_shard += last_span(log, "fleet.ShardedIngestBackend::ingest_on_shard");
      {
        Scope s(log, "fleet.ShardedIngestBackend::barrier");
        hosted.barrier();
      }
      barriers.push_back(last_span(log, "fleet.ShardedIngestBackend::barrier"));
    }
    if (hosted.frames_ingested() != in.frames) {
      errs->push_back("hosted ingest replay lost frames");
    }
    rep->set("ingest.decode_append_us_per_frame",
             on_shard / static_cast<double>(in.frames) * 1e6, "us");
    rep->set("ingest.barrier_ms_p50", median(barriers) * 1e3, "ms");
  }

  const fleet::ShardedIngestBackend::PoolStats ps = b.pool_stats();
  const double sealed_samples = static_cast<double>(ps.sealed_blocks) *
                                static_cast<double>(ingest_options(1).block.block_samples);
  rep->set("ingest.encoded_bytes_per_sample",
           sealed_samples > 0.0 ? static_cast<double>(ps.encoded_bytes) / sealed_samples
                                : 0.0,
           "bytes");
  const double reuses = static_cast<double>(ps.column_reuses + ps.buffer_reuses);
  const double allocs = static_cast<double>(ps.column_allocs + ps.buffer_allocs);
  rep->set("ingest.pool_reuse_ratio",
           reuses + allocs > 0.0 ? reuses / (reuses + allocs) : 0.0, "ratio");
  rep->set("ingest.detect_scanned", static_cast<double>(b.detect_scanned()),
           "count");

  // Columnar read path, one call per series of the latency metric.
  const int last = in.batches - 1;
  const std::int64_t from = sim::seconds(std::max(0, last - 9));
  const std::int64_t to = sim::seconds(last + 1) - 1;
  std::vector<const fleet::ColumnarSeries*> lat;
  std::vector<const fleet::ColumnarSeries*> locx;
  for (int s = 0; s < b.shards(); ++s) {
    for (const auto& [name, v] : b.shard(s).vehicles()) {
      if (const auto* ser = v.store.series("svc.latency_ms")) lat.push_back(ser);
      if (const auto* ser = v.store.series("loc.x")) locx.push_back(ser);
    }
  }
  std::size_t sink = 0;
  {
    Scope s(log, "fleet.ColumnarSeries::range");
    for (const auto* ser : lat) sink += ser->range(from, to).count;
  }
  rep->set("columnar.range_us_per_series",
           last_span(log, "fleet.ColumnarSeries::range") / lat.size() * 1e6, "us");
  {
    Scope s(log, "fleet.ColumnarSeries::sketch");
    for (const auto* ser : lat) sink += ser->sketch(from, to).count();
  }
  rep->set("columnar.sketch_us_per_series",
           last_span(log, "fleet.ColumnarSeries::sketch") / lat.size() * 1e6, "us");
  constexpr int kReps = 20;
  {
    Scope s(log, "fleet.ColumnarSeries::last_at_or_before");
    for (int r = 0; r < kReps; ++r) {
      for (const auto* ser : locx) {
        if (ser->last_at_or_before(to - r * sim::seconds(1)).has_value()) ++sink;
      }
    }
  }
  rep->set("columnar.last_at_ns",
           last_span(log, "fleet.ColumnarSeries::last_at_or_before") /
               (kReps * static_cast<double>(locx.size())) * 1e9,
           "ns");
  if (sink == 0) errs->push_back("columnar probe: empty reads");

  const std::string texts[] = {
      "range metric=svc.latency_ms from=50s to=59.999999s",
      "range metric=svc.latency_ms vehicle=cav-00007",
      "near x=1500 y=1500 r=100 at=59.999999s within=2s",
  };
  constexpr int kParses = 3000;
  int parsed = 0;
  {
    Scope s(log, "fleet.parse_query");
    for (int k = 0; k < kParses; ++k) {
      fleet::Query q;
      if (fleet::parse_query(texts[k % 3], &q)) ++parsed;
    }
  }
  if (parsed != kParses) errs->push_back("query probe: parse failures");
  rep->set("query.parse_us", last_span(log, "fleet.parse_query") / kParses * 1e6,
           "us");
  const fleet::QueryResult* results[] = {&pass.lat.sample_range,
                                         &pass.lat.sample_near};
  constexpr int kRenders = 20;
  std::size_t rendered = 0;
  {
    Scope s(log, "fleet.QueryResult::to_table");
    for (int k = 0; k < kRenders; ++k) {
      for (const fleet::QueryResult* r : results) rendered += r->to_table().size();
    }
  }
  if (rendered == 0) errs->push_back("query probe: empty render");
  rep->set("query.render_us",
           last_span(log, "fleet.QueryResult::to_table") / (2 * kRenders) * 1e6,
           "us");
}

}  // namespace

void layer_metrics(const Args& args, SpanLog& log, const Observed& seen,
                   Report* rep) {
  Errors errs;
  const std::string tmp = args.out_dir + "/probe-tmp";
  std::filesystem::create_directories(tmp);

  // Scale-capture layers: the calendar queue, the planes, transport bytes.
  std::vector<ScaleRound> scale_probe;
  const std::vector<ScaleRound>* scale = seen.scale;
  double planes_off = seen.scale_planes_off_s;
  if (scale == nullptr) {
    Scope s(log, "probe.scale-capture");
    const core::FleetScaleConfig cfg = scale_config(args.seed, 300, true);
    scale_probe.push_back(scale_round(cfg, log));
    planes_off = scale_round(scale_config(args.seed, 300, false), log).wall_s;
    const Errors e = check_scale(scale_probe.back().out, cfg);
    errs.insert(errs.end(), e.begin(), e.end());
    scale = &scale_probe;
  }
  {
    std::vector<double> ns_per_event;
    std::vector<double> walls;
    for (const ScaleRound& r : *scale) {
      ns_per_event.push_back(r.wall_s / static_cast<double>(r.out.events_fired) * 1e9);
      walls.push_back(r.wall_s);
    }
    const core::FleetScaleOutcome& out = scale->back().out;
    const ShardSums sums = shard_sums(out.shards_jsonl, &errs);
    rep->set("sim.ns_per_event", median(ns_per_event), "ns");
    rep->set("sim.wheel_peak", static_cast<double>(sums.wheel_peak), "count");
    rep->set("sim.overflow_peak", static_cast<double>(sums.overflow_peak), "count");
    rep->set("net.wire_bytes", static_cast<double>(out.wire_bytes), "bytes");
    rep->set("capture.trace_events", static_cast<double>(out.trace_events), "count");
    rep->set("flight.records_folded", static_cast<double>(out.flight_folded), "count");
    rep->set("prof.samples", static_cast<double>(out.prof_samples), "count");
    rep->set("planes.overhead_s", median(walls) - planes_off, "s");
    rep->set("sim.events", static_cast<double>(sums.events), "count");
    prof_shares(out.profile_jsonl, kScaleProfTags, rep, &errs);
  }

  // Fleet-chaos layers: the sharded runtime and the shipper's retry path.
  {
    Scope s(log, "probe.fleet-chaos");
    const core::FleetConfig cfg =
        chaos_config(args.seed, 64, args.threads, "probe", true);
    const core::FleetOutcome out = chaos_round(cfg, log).out;
    for (const Errors& e : {check_chaos(out, cfg), self_test_chaos(out, cfg)}) {
      errs.insert(errs.end(), e.begin(), e.end());
    }
    const ShardSums sums = shard_sums(out.shards_jsonl, &errs);
    rep->set("sim.shard_busy_s", sums.busy_s, "s");
    rep->set("sim.shard_wait_s", sums.wait_s, "s");
    double acked = 0.0;
    double attempts = 0.0;
    for (const auto& [name, v] : out.vehicles) {
      acked += static_cast<double>(v.frames_acked);
      attempts += static_cast<double>(v.send_attempts);
    }
    rep->set("shipper.ack_ratio", attempts > 0.0 ? acked / attempts : 0.0, "ratio");
    prof_shares(out.profile_jsonl, kChaosProfTags, rep, &errs);
  }

  // Ingest and query layers.
  {
    std::unique_ptr<IngestInput> in_probe;
    IngestPass pass_probe;
    const IngestInput* in = seen.ingest_in;
    const IngestPass* pass = seen.ingest;
    if (in == nullptr || pass == nullptr) {
      Scope s(log, "probe.ingest-query");
      in_probe = std::make_unique<IngestInput>(make_ingest_input(args.seed, 200, 60));
      pass_probe = ingest_pass(*in_probe, true, log, &errs);
      in = in_probe.get();
      pass = &pass_probe;
    }
    ingest_probe(*in, *pass, args.threads, log, rep, &errs);
  }

  rep->set("sim.pool_start_lag_us", pool_start_lag_us(args.threads, log), "us");
  wire_probe(args.seed, log, rep, &errs);
  platform_probe(args.seed, tmp, log, rep, &errs);
  rep->fail(errs, "layer probes");
}

}  // namespace fleetbench
