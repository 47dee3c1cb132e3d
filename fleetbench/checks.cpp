#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "util/json.hpp"

namespace fleetbench {

namespace fleet = vdap::telemetry::fleet;
using vdap::core::FleetConfig;
using vdap::core::FleetOutcome;
using vdap::core::FleetScaleConfig;
using vdap::core::FleetScaleOutcome;

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

void expect_eq(Errors* errs, const std::string& what, std::uint64_t got,
               std::uint64_t want) {
  if (got != want) {
    errs->push_back(what + ": got " + u64(got) + ", want " + u64(want));
  }
}

/// Sum of every capture counter named `name`, whatever its labels.
std::uint64_t counter_total(const std::string& metrics_jsonl,
                            const std::string& name) {
  std::uint64_t total = 0;
  std::size_t pos = 0;
  while (pos < metrics_jsonl.size()) {
    std::size_t end = metrics_jsonl.find('\n', pos);
    if (end == std::string::npos) end = metrics_jsonl.size();
    const std::string_view line(metrics_jsonl.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const vdap::json::Value v = vdap::json::parse(line);
    const vdap::json::Value* counters = v.find("counters");
    if (counters == nullptr) continue;
    for (const auto& [key, val] : counters->as_object()) {
      if (key == name || key.rfind(name + "{", 0) == 0) {
        total += static_cast<std::uint64_t>(val.as_int());
      }
    }
  }
  return total;
}

}  // namespace

std::size_t expected_scale_samples(const FleetScaleConfig& cfg) {
  // Vehicle i first ticks at its de-synchronising phase 137 us * (i % 97),
  // then every sample_period, through run_until inclusive.
  std::size_t ticks = 0;
  for (int i = 0; i < cfg.vehicles; ++i) {
    const std::int64_t phase = 137 * (i % 97);
    ticks += static_cast<std::size_t>((cfg.run_until - phase) / cfg.sample_period + 1);
  }
  return ticks * static_cast<std::size_t>(cfg.samples_per_tick);
}

Errors check_scale(const FleetScaleOutcome& out, const FleetScaleConfig& cfg) {
  Errors errs;
  expect_eq(&errs, "enqueued vs delivered + dropped", out.frames_enqueued,
            out.frames_delivered + out.frames_dropped);
  expect_eq(&errs, "decode errors", out.decode_errors, 0);
  expect_eq(&errs, "samples delivered", out.samples_delivered,
            expected_scale_samples(cfg));
  if (cfg.capture) {
    expect_eq(&errs, "capture fleet.shipper.enqueued",
              counter_total(out.metrics_jsonl, "fleet.shipper.enqueued"),
              out.frames_enqueued);
    expect_eq(&errs, "open spans", out.open_spans, 0);
  }
  return errs;
}

Errors check_chaos(const FleetOutcome& out, const FleetConfig& cfg) {
  Errors errs;
  const std::uint64_t per_vehicle =
      static_cast<std::uint64_t>(cfg.load_until / cfg.release_period);
  const std::uint64_t released =
      static_cast<std::uint64_t>(cfg.vehicles) * per_vehicle;
  expect_eq(&errs, "service runs released", out.releases, released);
  expect_eq(&errs, "service runs reported", out.reports, released);
  expect_eq(&errs, "service runs completed ok", out.completed_ok, released);
  expect_eq(&errs, "vehicles reporting", out.vehicles.size(),
            static_cast<std::uint64_t>(cfg.vehicles));
  std::uint64_t acked = 0;
  for (const auto& [name, v] : out.vehicles) {
    if (v.frames_enqueued != v.frames_acked + v.frames_dropped) {
      errs.push_back(name + ": enqueued " + u64(v.frames_enqueued) +
                     " != acked " + u64(v.frames_acked) + " + dropped " +
                     u64(v.frames_dropped));
    }
    acked += v.frames_acked;
  }
  expect_eq(&errs, "frames ingested vs acked", out.frames_ingested, acked);
  expect_eq(&errs, "frames_jsonl lines vs acked",
            static_cast<std::uint64_t>(std::count(
                out.frames_jsonl.begin(), out.frames_jsonl.end(), '\n')),
            acked);
  expect_eq(&errs, "decode errors", out.decode_errors, 0);
  return errs;
}

Errors check_range(const fleet::QueryResult& r, const RangeTruth& truth) {
  Errors errs;
  const std::string what = "range " + r.query.metric +
                           (r.query.vehicle.empty() ? "" : " " + r.query.vehicle);
  expect_eq(&errs, what + " count", r.fleet.count, truth.count);
  expect_eq(&errs, what + " vehicle rows", r.per_vehicle.size(), truth.rows);
  if (truth.count == 0) return errs;
  if (r.fleet.min != truth.min || r.fleet.max != truth.max) {
    errs.push_back(what + " min/max differ from ground truth");
  }
  const double tol = 1e-9 * std::max(std::fabs(truth.sum), 1.0);
  if (!(std::fabs(r.fleet.sum - truth.sum) <= tol)) {
    errs.push_back(what + " sum differs from ground truth");
  }
  if (!(r.p50 <= r.p95 && r.p95 <= r.p99)) {
    errs.push_back(what + " percentiles out of order");
  }
  if (!(r.p50 >= truth.env_min && r.p99 <= truth.env_max)) {
    errs.push_back(what + " percentiles outside the sampled blocks' range");
  }
  return errs;
}

Errors check_near(const fleet::QueryResult& r,
                  const std::vector<fleet::QueryNearHit>& expected) {
  Errors errs;
  if (r.hits.size() != expected.size()) {
    errs.push_back("near: " + u64(r.hits.size()) + " hits, want " +
                   u64(expected.size()));
    return errs;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const fleet::QueryNearHit& a = r.hits[i];
    const fleet::QueryNearHit& b = expected[i];
    if (a.vehicle != b.vehicle || a.x != b.x || a.y != b.y || a.at != b.at ||
        !(std::fabs(a.dist - b.dist) <= 1e-9 * std::max(b.dist, 1.0))) {
      errs.push_back("near: hit " + u64(i) + " is " + a.vehicle + ", want " +
                     b.vehicle);
      break;
    }
  }
  return errs;
}

Errors check_outlier(const std::vector<std::string>& anomalous,
                     const std::string& planted) {
  if (std::find(anomalous.begin(), anomalous.end(), planted) !=
      anomalous.end()) {
    return {};
  }
  return {"planted outlier " + planted + " not flagged"};
}

namespace {

template <typename T, typename Check>
void expect_caught(Errors* missed, const std::string& what, const T& bad,
                   Check check) {
  if (check(bad).empty()) missed->push_back("self-test: " + what + " passed");
}

}  // namespace

Errors self_test_scale(const FleetScaleOutcome& good,
                       const FleetScaleConfig& cfg) {
  Errors missed;
  auto check = [&cfg](const FleetScaleOutcome& o) { return check_scale(o, cfg); };
  FleetScaleOutcome bad = good;
  bad.frames_dropped += 1;
  expect_caught(&missed, "scale dropped frame", bad, check);
  bad = good;
  bad.samples_delivered -= 1;
  expect_caught(&missed, "scale lost sample", bad, check);
  bad = good;
  bad.decode_errors = 1;
  expect_caught(&missed, "scale decode error", bad, check);
  if (cfg.capture) {
    bad = good;
    bad.open_spans = 1;
    expect_caught(&missed, "scale open span", bad, check);
    bad = good;
    bad.frames_enqueued += 1;
    bad.frames_delivered += 1;
    expect_caught(&missed, "scale registry mismatch", bad, check);
  }
  return missed;
}

Errors self_test_chaos(const FleetOutcome& good, const FleetConfig& cfg) {
  Errors missed;
  auto check = [&cfg](const FleetOutcome& o) { return check_chaos(o, cfg); };
  FleetOutcome bad = good;
  bad.completed_ok -= 1;
  expect_caught(&missed, "chaos failed run", bad, check);
  bad = good;
  bad.vehicles.begin()->second.frames_acked -= 1;
  expect_caught(&missed, "chaos vehicle accounting", bad, check);
  bad = good;
  bad.frames_jsonl.pop_back();
  bad.frames_jsonl.erase(bad.frames_jsonl.rfind('\n') + 1);
  expect_caught(&missed, "chaos missing frame line", bad, check);
  return missed;
}

Errors self_test_queries(const fleet::QueryResult& range,
                         const RangeTruth& truth,
                         const fleet::QueryResult& near,
                         const std::string& planted) {
  Errors missed;
  auto rcheck = [&truth](const fleet::QueryResult& r) {
    return check_range(r, truth);
  };
  fleet::QueryResult bad = range;
  bad.fleet.count += 1;
  expect_caught(&missed, "range count", bad, rcheck);
  bad = range;
  bad.fleet.max = std::nextafter(bad.fleet.max, 1e300);
  expect_caught(&missed, "range max", bad, rcheck);
  bad = range;
  bad.fleet.sum *= 1.0 + 1e-6;
  expect_caught(&missed, "range sum", bad, rcheck);
  bad = range;
  std::swap(bad.p50, bad.p99);
  expect_caught(&missed, "range percentile order", bad, rcheck);
  bad = range;
  bad.p99 = truth.env_max + 1.0;
  expect_caught(&missed, "range percentile envelope", bad, rcheck);

  auto ncheck = [&near](const fleet::QueryResult& r) {
    return check_near(r, near.hits);
  };
  bad = near;
  fleet::QueryNearHit extra;
  extra.vehicle = "cav-extra";
  bad.hits.push_back(extra);
  expect_caught(&missed, "near extra hit", bad, ncheck);
  if (near.hits.size() >= 2) {
    bad = near;
    std::swap(bad.hits[0], bad.hits[1]);
    expect_caught(&missed, "near order", bad, ncheck);
  }
  if (!near.hits.empty()) {
    bad = near;
    bad.hits[0].x += 0.5;
    expect_caught(&missed, "near coordinate", bad, ncheck);
  }
  expect_caught(&missed, "outlier missing", std::vector<std::string>{},
                [&planted](const std::vector<std::string>& a) {
                  return check_outlier(a, planted);
                });
  return missed;
}

}  // namespace fleetbench
