#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "sim/sharded.hpp"
#include "sim/time.hpp"
#include "telemetry/fleet/wire.hpp"

namespace fleetbench {

namespace core = vdap::core;
namespace sim = vdap::sim;

// --- scale-capture ---------------------------------------------------------

core::FleetScaleConfig scale_config(std::uint64_t seed, int vehicles,
                                    bool planes) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = seed;
  cfg.shards = 1;
  cfg.threads = 1;
  cfg.capture = planes;
  cfg.flight = planes;
  cfg.prof = planes;
  cfg.ingest_backend = false;
  return cfg;
}

ScaleRound scale_round(const core::FleetScaleConfig& cfg, SpanLog& log) {
  ScaleRound r;
  core::FleetScaleConfig c = cfg;
  // The prepare hook marks the end of construction; an epoch sink (free
  // while the hosted ingest backend is off) marks every epoch barrier.
  std::vector<Clock::time_point> marks;
  c.prepare = [&marks, ingest = cfg.ingest_backend](sim::ShardedSimulator& ssim) {
    marks.push_back(Clock::now());
    if (ingest) return;
    ssim.set_epoch_sink([&marks](sim::SimTime, std::vector<sim::ShardMessage>&&) {
      marks.push_back(Clock::now());
    });
  };
  const Clock::time_point t0 = Clock::now();
  {
    Scope s(log, "core.run_fleet_scale");
    r.out = core::run_fleet_scale(c);
  }
  marks.push_back(Clock::now());
  r.setup_s = std::chrono::duration<double>(marks.front() - t0).count();
  for (std::size_t i = 1; i < marks.size(); ++i) {
    r.epoch_s.push_back(std::chrono::duration<double>(marks[i] - marks[i - 1]).count());
    r.wall_s += r.epoch_s.back();
  }
  return r;
}

Errors scale_geometry_check(std::uint64_t seed, int threads, SpanLog& log) {
  core::FleetScaleConfig one = scale_config(seed, 200, false);
  core::FleetScaleConfig many = one;
  many.shards = 4;
  many.threads = threads;
  Scope s(log, "setup.geometry_check");
  const core::FleetScaleOutcome a = scale_round(one, log).out;
  const core::FleetScaleOutcome b = scale_round(many, log).out;
  if (a.digest != b.digest || a.summary != b.summary) {
    return {"scale digest differs between 1x1 and 4x" +
            std::to_string(threads) + ": " + a.summary + " vs " + b.summary};
  }
  return {};
}

// --- fleet-chaos -----------------------------------------------------------

constexpr int kChaosShards = 4;

core::FleetConfig chaos_config(std::uint64_t seed, int vehicles, int threads,
                               const std::string& dir_tag, bool prof) {
  core::FleetConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = seed;
  cfg.shards = kChaosShards;
  cfg.threads = threads;
  cfg.dir_tag = dir_tag;
  cfg.prof = prof;
  return cfg;
}

ChaosRound chaos_round(const core::FleetConfig& cfg, SpanLog& log) {
  ChaosRound r;
  const sim::FaultPlan plan = core::fleet_uplink_chaos_plan();
  const Clock::time_point t0 = Clock::now();
  {
    Scope s(log, "core.run_fleet");
    r.out = core::run_fleet(plan, cfg);
  }
  r.wall_s = seconds_since(t0);
  return r;
}

// --- ingest-query ----------------------------------------------------------

namespace {

constexpr int kBlockSamples = 32;
constexpr int kLatencySamples = 4;  // per frame
constexpr double kArea = 3000.0;    // metres, square the fleet drives in
constexpr double kNearRadius = 100.0;
constexpr sim::SimDuration kNearWithin = sim::seconds(2);
const char* const kLatency = "svc.latency_ms";

/// splitmix64-seeded xorshift: the generator's own, independent of every
/// RNG in the program.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double normal(double mean, double sd) {
    const double u1 = std::max(uniform(), 1e-300);
    const double u2 = uniform();
    return mean + sd * std::sqrt(-2.0 * std::log(u1)) *
                      std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

std::string vehicle_name(int i) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "cav-%05d", i);
  return buf;
}

constexpr std::int64_t second_start(int s) { return sim::seconds(s); }
constexpr std::int64_t second_end(int s) { return sim::seconds(s + 1) - 1; }

/// Folds the generator's truth for a range query over batches [0, horizon].
RangeTruth range_truth(const IngestInput& in, const fleet::Query& q,
                       int horizon) {
  RangeTruth t;
  const std::int64_t ingested_to = second_end(horizon);
  const std::int64_t to = std::min(q.to, ingested_to);
  bool have = false;
  bool have_env = false;
  for (const IngestInput::VehicleTruth& v : in.truth) {
    if (!q.vehicle.empty() && v.name != q.vehicle) continue;
    ++t.rows;
    for (int s = 0; s <= horizon; ++s) {
      if (second_start(s) < q.from || second_end(s) > to) continue;
      const IngestInput::SecondAgg& a = v.seconds[static_cast<std::size_t>(s)];
      if (a.count == 0) continue;
      t.count += a.count;
      t.sum += a.sum;
      t.min = have ? std::min(t.min, a.min) : a.min;
      t.max = have ? std::max(t.max, a.max) : a.max;
      have = true;
    }
    // Columnar blocks are consecutive runs of kBlockSamples samples in
    // append order; a block contributes its whole sketch when its time
    // span meets the range.
    const std::size_t n = v.samples.size();
    for (std::size_t b0 = 0; b0 < n; b0 += kBlockSamples) {
      if (v.samples[b0].first > ingested_to) break;
      std::size_t b1 = std::min(n, b0 + kBlockSamples);
      while (b1 > b0 && v.samples[b1 - 1].first > ingested_to) --b1;
      if (v.samples[b1 - 1].first < q.from || v.samples[b0].first > q.to) {
        continue;
      }
      for (std::size_t k = b0; k < b1; ++k) {
        const double x = v.samples[k].second;
        t.env_min = have_env ? std::min(t.env_min, x) : x;
        t.env_max = have_env ? std::max(t.env_max, x) : x;
        have_env = true;
      }
    }
  }
  return t;
}

std::vector<fleet::QueryNearHit> near_truth(const IngestInput& in,
                                            const fleet::Query& q,
                                            int horizon) {
  std::vector<fleet::QueryNearHit> hits;
  const std::int64_t oldest = q.at - q.within;
  for (const IngestInput::VehicleTruth& v : in.truth) {
    const IngestInput::Fix* last = nullptr;
    for (int s = horizon; s >= 0 && last == nullptr; --s) {
      const IngestInput::Fix& f = v.fixes[static_cast<std::size_t>(s)];
      if (f.t <= q.at) last = &f;
    }
    if (last == nullptr || last->t < oldest) continue;
    const double dx = last->x - q.x;
    const double dy = last->y - q.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    if (dist > q.radius) continue;
    fleet::QueryNearHit h;
    h.vehicle = v.name;
    h.x = last->x;
    h.y = last->y;
    h.dist = dist;
    h.at = last->t;
    hits.push_back(h);
  }
  std::sort(hits.begin(), hits.end(),
            [](const fleet::QueryNearHit& a, const fleet::QueryNearHit& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.vehicle < b.vehicle;
            });
  return hits;
}

}  // namespace

IngestInput make_ingest_input(std::uint64_t seed, int vehicles, int batches) {
  IngestInput in;
  in.vehicles = vehicles;
  in.batches = batches;
  in.samples_per_frame = kLatencySamples + 2;
  Gen gen(seed);
  const int planted = static_cast<int>(gen.index(static_cast<std::size_t>(vehicles)));
  in.planted = vehicle_name(planted);

  struct Motion {
    std::int64_t offset = 0;
    double x0 = 0.0, y0 = 0.0, vx = 0.0, vy = 0.0;
  };
  std::vector<Motion> motion(static_cast<std::size_t>(vehicles));
  in.truth.resize(static_cast<std::size_t>(vehicles));
  for (int i = 0; i < vehicles; ++i) {
    Motion& m = motion[static_cast<std::size_t>(i)];
    m.offset = sim::msec(1) + static_cast<std::int64_t>(gen.index(899000));
    m.x0 = gen.uniform(0.0, kArea);
    m.y0 = gen.uniform(0.0, kArea);
    m.vx = gen.uniform(-10.0, 10.0);
    m.vy = gen.uniform(-10.0, 10.0);
    IngestInput::VehicleTruth& t = in.truth[static_cast<std::size_t>(i)];
    t.name = vehicle_name(i);
    t.seconds.resize(static_cast<std::size_t>(batches));
    t.fixes.resize(static_cast<std::size_t>(batches));
  }

  in.batch_lines.resize(static_cast<std::size_t>(batches));
  in.queries.resize(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    std::vector<std::string>& lines = in.batch_lines[static_cast<std::size_t>(b)];
    lines.reserve(static_cast<std::size_t>(vehicles));
    for (int i = 0; i < vehicles; ++i) {
      const Motion& m = motion[static_cast<std::size_t>(i)];
      IngestInput::VehicleTruth& t = in.truth[static_cast<std::size_t>(i)];
      fleet::WireFrame f;
      f.vehicle = t.name;
      f.seq = static_cast<std::uint64_t>(b) + 1;
      f.created = second_start(b) + m.offset;
      IngestInput::SecondAgg& agg = t.seconds[static_cast<std::size_t>(b)];
      std::vector<fleet::WireSample>& lat = f.samples[kLatency];
      for (int k = 0; k < kLatencySamples; ++k) {
        double v = std::max(0.1, gen.normal(25.0, 6.0));
        if (i == planted) v += 40.0;
        const std::int64_t at = f.created + sim::msec(10) * k;
        lat.push_back({at, v});
        t.samples.push_back({at, v});
        agg.min = agg.count == 0 ? v : std::min(agg.min, v);
        agg.max = agg.count == 0 ? v : std::max(agg.max, v);
        agg.sum += v;
        ++agg.count;
      }
      IngestInput::Fix& fix = t.fixes[static_cast<std::size_t>(b)];
      fix.t = f.created;
      fix.x = m.x0 + m.vx * b;
      fix.y = m.y0 + m.vy * b;
      f.samples["loc.x"].push_back({fix.t, fix.x});
      f.samples["loc.y"].push_back({fix.t, fix.y});
      f.counters["svc.frames"] = 1;
      lines.push_back(fleet::wire_encode(f));
      ++in.frames;
      in.samples += static_cast<std::uint64_t>(in.samples_per_frame);
    }

    // The query mix after batch b: two fleet-wide ranges over trailing
    // windows, four single-vehicle ranges over all history, four `near`
    // lookups around a vehicle's current fix.
    std::vector<fleet::Query>& qs = in.queries[static_cast<std::size_t>(b)];
    for (int window : {10, 30}) {
      fleet::Query q;
      q.metric = kLatency;
      q.from = second_start(std::max(0, b - window + 1));
      q.to = second_end(b);
      qs.push_back(q);
    }
    for (int k = 0; k < 4; ++k) {
      fleet::Query q;
      q.metric = kLatency;
      q.vehicle = vehicle_name(static_cast<int>(gen.index(static_cast<std::size_t>(vehicles))));
      qs.push_back(q);
    }
    for (int k = 0; k < 4; ++k) {
      const std::size_t j = gen.index(static_cast<std::size_t>(vehicles));
      const IngestInput::Fix& fix = in.truth[j].fixes[static_cast<std::size_t>(b)];
      fleet::Query q;
      q.kind = fleet::Query::Kind::kNear;
      q.x = fix.x + gen.uniform(-50.0, 50.0);
      q.y = fix.y + gen.uniform(-50.0, 50.0);
      q.radius = kNearRadius;
      q.at = second_end(b);
      q.within = kNearWithin;
      qs.push_back(q);
    }
  }
  return in;
}

fleet::IngestOptions ingest_options(int threads) {
  fleet::IngestOptions o;
  o.shards = 8;
  o.threads = threads;
  o.block.block_samples = kBlockSamples;
  return o;
}

void run_query_mix(const fleet::ShardedIngestBackend& backend,
                   const IngestInput& in, int b, int horizon, SpanLog& log,
                   QueryLatencies* lat, Errors* errs) {
  for (const fleet::Query& q : in.queries[static_cast<std::size_t>(b)]) {
    fleet::QueryResult r;
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(log, "fleet.ShardedIngestBackend::run_query");
      r = backend.run_query(q);
    }
    const double ms = seconds_since(t0) * 1e3;
    ++lat->queries;
    if (q.kind == fleet::Query::Kind::kNear) {
      lat->near.push_back(ms);
      const std::vector<fleet::QueryNearHit> want = near_truth(in, q, horizon);
      const Errors e = check_near(r, want);
      errs->insert(errs->end(), e.begin(), e.end());
      if (e.empty() && r.hits.size() >= lat->sample_near.hits.size()) {
        lat->sample_near = r;
      }
      continue;
    }
    (q.vehicle.empty() ? lat->range_fleet : lat->range_vehicle).push_back(ms);
    const RangeTruth truth = range_truth(in, q, horizon);
    const Errors e = check_range(r, truth);
    errs->insert(errs->end(), e.begin(), e.end());
    if (e.empty() && q.vehicle.empty()) {
      lat->sample_range = r;
      lat->sample_truth = truth;
      lat->have_sample = true;
    }
  }
}

IngestPass ingest_pass(const IngestInput& in, bool queries,
                       SpanLog& log, Errors* errs) {
  IngestPass p;
  const Clock::time_point t0 = Clock::now();
  p.backend = std::make_unique<fleet::ShardedIngestBackend>(ingest_options(kIngestThreads));
  std::vector<std::string_view> views;
  for (int b = 0; b < in.batches; ++b) {
    const std::vector<std::string>& lines = in.batch_lines[static_cast<std::size_t>(b)];
    views.assign(lines.begin(), lines.end());
    std::size_t accepted = 0;
    const Clock::time_point tb = Clock::now();
    {
      Scope s(log, "fleet.ShardedIngestBackend::ingest_batch");
      accepted = p.backend->ingest_batch(views);
    }
    p.batch_s.push_back(seconds_since(tb));
    p.frames_accepted += accepted;
    if (accepted != lines.size()) {
      errs->push_back("batch " + std::to_string(b) + ": accepted " +
                      std::to_string(accepted) + " of " +
                      std::to_string(lines.size()) + " frames");
    }
    if (queries) run_query_mix(*p.backend, in, b, b, log, &p.lat, errs);
  }
  p.wall_s = seconds_since(t0);
  return p;
}

Errors check_ingest(const fleet::ShardedIngestBackend& backend,
                    const IngestInput& in) {
  Errors errs;
  if (backend.frames_ingested() != in.frames) {
    errs.push_back("frames ingested " + std::to_string(backend.frames_ingested()) +
                   ", generated " + std::to_string(in.frames));
  }
  if (backend.samples_ingested() != in.samples) {
    errs.push_back("samples ingested " +
                   std::to_string(backend.samples_ingested()) + ", generated " +
                   std::to_string(in.samples));
  }
  if (backend.decode_errors() != 0) errs.push_back("ingest decode errors");
  const Errors o = check_outlier(backend.anomalous_vehicles(), in.planted);
  errs.insert(errs.end(), o.begin(), o.end());
  return errs;
}

}  // namespace fleetbench
