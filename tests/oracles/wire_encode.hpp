// Reference frame encoder as it was before direct-append encoding: the
// frame built as a json::Object tree (std::map, sorted keys) and dumped.
// Tests assert telemetry::fleet::wire_encode is byte-identical to it.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/fleet/wire.hpp"
#include "util/json.hpp"

namespace vdap::oracle {

/// Builds the frame as a json::Object tree (std::map, sorted keys) and
/// dumps it. Its doubles go through json's own formatter, so equality with
/// wire_encode proves the layout; oracle::format_double (json_number.hpp)
/// pins the doubles.
inline std::string wire_encode(const telemetry::fleet::WireFrame& frame) {
  json::Object obj;
  obj["v"] = frame.vehicle;
  obj["seq"] = static_cast<std::int64_t>(frame.seq);
  obj["t"] = frame.created;
  if (!frame.counters.empty()) {
    json::Object counters;
    for (const auto& [name, v] : frame.counters) counters[name] = v;
    obj["counters"] = std::move(counters);
  }
  if (!frame.gauges.empty()) {
    json::Object gauges;
    for (const auto& [name, v] : frame.gauges) gauges[name] = v;
    obj["gauges"] = std::move(gauges);
  }
  if (!frame.samples.empty()) {
    json::Object samples;
    for (const auto& [name, vec] : frame.samples) {
      json::Array arr;
      arr.reserve(vec.size());
      for (const telemetry::fleet::WireSample& s : vec) {
        arr.push_back(json::Array{json::Value(s.first), json::Value(s.second)});
      }
      samples[name] = std::move(arr);
    }
    obj["samples"] = std::move(samples);
  }
  if (!frame.events.empty()) {
    json::Array events;
    for (const telemetry::fleet::WireHealthEvent& ev : frame.events) {
      json::Object e;
      e["at"] = ev.at;
      e["kind"] = ev.kind;
      e["severity"] = ev.severity;
      e["service"] = ev.service;
      e["observed"] = ev.observed;
      e["target"] = ev.target;
      if (!ev.implicated_tier.empty()) e["tier"] = ev.implicated_tier;
      events.push_back(std::move(e));
    }
    obj["events"] = std::move(events);
  }
  return json::Value(std::move(obj)).dump();
}

}  // namespace vdap::oracle
