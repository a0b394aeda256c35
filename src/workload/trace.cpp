#include "workload/trace.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/json_writer.hpp"
#include "workload/json_util.hpp"

namespace seer::workload {

using jsonu::Value;

namespace {

// The RNG words are 16-digit lowercase hex strings (a JSON number would
// lose the low bits of a 64-bit word).
void append_rng(util::json::Writer& w, const RngState& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  w.begin_array("rng");
  for (const std::uint64_t word : s) {
    char hex[16];
    for (int i = 0; i < 16; ++i) hex[i] = kHex[(word >> (60 - 4 * i)) & 0xF];
    w.str(std::string_view(hex, sizeof hex));
  }
  w.end_array();
}

void append_lines(util::json::Writer& w, const char* key,
                  const std::vector<std::uint32_t>& v) {
  w.begin_array(key);
  for (const std::uint32_t line : v) w.u64(line);
  w.end_array();
}

RngState parse_rng(const Value& obj, const std::string& origin) {
  const Value& arr = jsonu::require_array(obj, "rng", origin);
  if (arr.array.size() != 4) {
    jsonu::fail(jsonu::sub(origin, "rng"), "must hold exactly 4 hex words");
  }
  RngState s{};
  for (std::size_t i = 0; i < 4; ++i) {
    const Value& w = arr.array[i];
    const std::string wo = jsonu::at(jsonu::sub(origin, "rng"), i);
    if (!w.is_string() || w.string.empty() || w.string.size() > 16) {
      jsonu::fail(wo, "must be a 1-16 character hex string");
    }
    char* end = nullptr;
    s[i] = std::strtoull(w.string.c_str(), &end, 16);
    if (end != w.string.c_str() + w.string.size()) {
      jsonu::fail(wo, "must be a hex string");
    }
  }
  return s;
}

std::vector<std::uint32_t> parse_lines(const Value& obj, const char* key,
                                       const std::string& origin) {
  const Value& arr = jsonu::require_array(obj, key, origin);
  std::vector<std::uint32_t> out;
  out.reserve(arr.array.size());
  for (std::size_t i = 0; i < arr.array.size(); ++i) {
    const Value& v = arr.array[i];
    const std::string vo = jsonu::at(jsonu::sub(origin, key), i);
    if (!v.is_number() || v.number < 0.0 || v.number >= 4294967296.0) {
      jsonu::fail(vo, "must be a line id in [0, 2^32)");
    }
    const auto line = static_cast<std::uint32_t>(v.as_u64());
    if (!out.empty() && line <= out.back()) {
      jsonu::fail(vo, "line ids must be sorted and unique");
    }
    out.push_back(line);
  }
  return out;
}

}  // namespace

std::string InstanceTrace::to_json() const {
  namespace json = util::json;
  std::string out = "{\n  \"version\": 1,\n  \"workload\": ";
  json::put_string(out, workload);
  out += ",\n  ";
  json::Writer names(out);
  names.begin_array("type_names");
  for (const std::string& n : type_names) names.str(n);
  names.end_array();
  out += ",\n  \"threads\": [\n";
  for (std::size_t t = 0; t < lanes.size(); ++t) {
    const TraceLane& lane = lanes[t];
    out += t > 0 ? ",\n    {\"thread\": " : "    {\"thread\": ";
    json::put_u64(out, t);
    out += ",\n     \"thinks\": [";
    for (std::size_t i = 0; i < lane.thinks.size(); ++i) {
      out += i > 0 ? ",\n       " : "\n       ";
      json::Writer w(out);
      w.begin_object().u64("t", lane.thinks[i]);
      append_rng(w, lane.think_rng[i]);
      w.end_object();
    }
    out += "],\n     \"instances\": [";
    for (std::size_t i = 0; i < lane.instances.size(); ++i) {
      const TxInstance& inst = lane.instances[i];
      out += i > 0 ? ",\n       " : "\n       ";
      json::Writer w(out);
      w.begin_object().u64("type", inst.type).u64("duration", inst.duration);
      append_lines(w, "reads", inst.reads);
      append_lines(w, "writes", inst.writes);
      append_rng(w, lane.instance_rng[i]);
      w.end_object();
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

InstanceTrace InstanceTrace::parse(const Value& doc, const std::string& origin) {
  jsonu::reject_unknown(doc, {"version", "workload", "type_names", "threads"},
                        origin);
  const std::uint64_t version = jsonu::require_u64(doc, "version", origin);
  if (version != 1) {
    jsonu::fail(jsonu::sub(origin, "version"),
                "unsupported trace version " + std::to_string(version));
  }
  InstanceTrace trace;
  trace.workload = jsonu::require_str(doc, "workload", origin);
  const Value& names = jsonu::require_array(doc, "type_names", origin);
  if (names.array.empty()) {
    jsonu::fail(jsonu::sub(origin, "type_names"), "must not be empty");
  }
  for (std::size_t i = 0; i < names.array.size(); ++i) {
    const Value& n = names.array[i];
    if (!n.is_string()) {
      jsonu::fail(jsonu::at(jsonu::sub(origin, "type_names"), i),
                  "must be a string");
    }
    trace.type_names.push_back(n.string);
  }

  const Value& threads = jsonu::require_array(doc, "threads", origin);
  trace.lanes.reserve(threads.array.size());
  for (std::size_t t = 0; t < threads.array.size(); ++t) {
    const std::string to = jsonu::at(jsonu::sub(origin, "threads"), t);
    const Value& th = threads.array[t];
    jsonu::reject_unknown(th, {"thread", "thinks", "instances"}, to);
    if (jsonu::require_u64(th, "thread", to) != t) {
      jsonu::fail(jsonu::sub(to, "thread"),
                  "lanes must be listed in thread order 0..n-1");
    }
    TraceLane lane;
    const Value& thinks = jsonu::require_array(th, "thinks", to);
    for (std::size_t i = 0; i < thinks.array.size(); ++i) {
      const std::string ko = jsonu::at(jsonu::sub(to, "thinks"), i);
      const Value& k = thinks.array[i];
      jsonu::reject_unknown(k, {"t", "rng"}, ko);
      lane.thinks.push_back(jsonu::require_u64(k, "t", ko));
      lane.think_rng.push_back(parse_rng(k, ko));
    }
    const Value& instances = jsonu::require_array(th, "instances", to);
    for (std::size_t i = 0; i < instances.array.size(); ++i) {
      const std::string io = jsonu::at(jsonu::sub(to, "instances"), i);
      const Value& in = instances.array[i];
      jsonu::reject_unknown(in, {"type", "duration", "reads", "writes", "rng"}, io);
      TxInstance inst;
      const std::uint64_t type = jsonu::require_u64(in, "type", io);
      if (type >= trace.type_names.size()) {
        jsonu::fail(jsonu::sub(io, "type"),
                    "type " + std::to_string(type) + " is out of range (" +
                        std::to_string(trace.type_names.size()) + " types)");
      }
      inst.type = static_cast<core::TxTypeId>(type);
      inst.duration = jsonu::require_u64(in, "duration", io);
      if (inst.duration == 0) {
        jsonu::fail(jsonu::sub(io, "duration"), "must be at least 1");
      }
      inst.reads = parse_lines(in, "reads", io);
      inst.writes = parse_lines(in, "writes", io);
      lane.instances.push_back(std::move(inst));
      lane.instance_rng.push_back(parse_rng(in, io));
    }
    trace.lanes.push_back(std::move(lane));
  }
  return trace;
}

InstanceTrace InstanceTrace::load(const std::string& path) {
  std::string error;
  const auto doc = util::json::parse_file(path, &error);
  if (!doc) {
    throw ConfigError("workload trace " + path + ": " + error);
  }
  return parse(*doc, path);
}

bool write_trace_json(const InstanceTrace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = trace.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

InstanceTraceRecorder::InstanceTraceRecorder(std::unique_ptr<Generator> inner,
                                             std::size_t n_threads,
                                             InstanceTrace* out)
    : inner_(std::move(inner)), out_(out) {
  out_->workload = inner_->name();
  out_->type_names.clear();
  for (std::size_t t = 0; t < inner_->n_types(); ++t) {
    out_->type_names.push_back(inner_->type_name(static_cast<core::TxTypeId>(t)));
  }
  out_->lanes.assign(n_threads, {});
}

void InstanceTraceRecorder::init(core::ThreadId thread) {
  out_->lanes[thread] = {};
  inner_->init(thread);
}

void InstanceTraceRecorder::next(core::ThreadId thread, double progress,
                                 util::Xoshiro256& rng, TxInstance& out) {
  inner_->next(thread, progress, rng, out);
  TraceLane& lane = out_->lanes[thread];
  lane.instances.push_back(out);
  lane.instance_rng.push_back(rng.state());
}

std::uint64_t InstanceTraceRecorder::think_time(core::ThreadId thread,
                                                util::Xoshiro256& rng) {
  const std::uint64_t t = inner_->think_time(thread, rng);
  TraceLane& lane = out_->lanes[thread];
  lane.thinks.push_back(t);
  lane.think_rng.push_back(rng.state());
  return t;
}

TraceReplay::TraceReplay(InstanceTrace trace, std::string name)
    : trace_(std::move(trace)),
      name_(name.empty() ? "replay:" + trace_.workload : std::move(name)),
      inst_cursor_(trace_.lanes.size(), 0),
      think_cursor_(trace_.lanes.size(), 0) {}

void TraceReplay::init(core::ThreadId thread) {
  if (thread < trace_.lanes.size()) {
    inst_cursor_[thread] = 0;
    think_cursor_[thread] = 0;
  }
}

bool TraceReplay::exhausted(core::ThreadId thread) const {
  if (thread >= trace_.lanes.size()) return true;
  return inst_cursor_[thread] >= trace_.lanes[thread].instances.size();
}

void TraceReplay::next(core::ThreadId thread, double /*progress*/,
                       util::Xoshiro256& rng, TxInstance& out) {
  if (exhausted(thread)) {
    throw std::runtime_error("TraceReplay::next called past end of stream for thread " +
                             std::to_string(thread));
  }
  const TraceLane& lane = trace_.lanes[thread];
  const std::size_t i = inst_cursor_[thread]++;
  out = lane.instances[i];
  rng.set_state(lane.instance_rng[i]);
}

std::uint64_t TraceReplay::think_time(core::ThreadId thread,
                                      util::Xoshiro256& rng) {
  if (thread >= trace_.lanes.size()) return 0;
  const TraceLane& lane = trace_.lanes[thread];
  const std::size_t i = think_cursor_[thread];
  // Executors may probe one think past the recorded stream (the recording
  // run stopped at its cap); answer 0 without disturbing the RNG.
  if (i >= lane.thinks.size()) return 0;
  ++think_cursor_[thread];
  rng.set_state(lane.think_rng[i]);
  return lane.thinks[i];
}

std::uint64_t TraceReplay::max_instances_per_thread() const noexcept {
  std::uint64_t m = 0;
  for (const TraceLane& lane : trace_.lanes) {
    m = std::max<std::uint64_t>(m, lane.instances.size());
  }
  return m;
}

}  // namespace seer::workload
