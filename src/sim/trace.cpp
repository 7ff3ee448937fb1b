#include "sim/trace.h"

#include <charconv>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

namespace serve::sim {

void TraceRecorder::span(std::string track, std::string name, Time begin, Time end) {
  span(std::move(track), std::move(name), begin, end, SpanArgs{});
}

void TraceRecorder::span(std::string track, std::string name, Time begin, Time end,
                         SpanArgs args) {
  if (end < begin) throw std::invalid_argument("TraceRecorder::span: end before begin");
  if (!admit()) return;
  spans_.push_back(Span{std::move(track), std::move(name), begin, end, std::move(args)});
}

TrackId TraceRecorder::intern(std::string track) {
  const auto next = static_cast<TrackId>(track_names_.size());
  const auto [it, inserted] = track_ids_.try_emplace(track, next);
  if (inserted) track_names_.push_back(std::move(track));
  return it->second;
}

void TraceRecorder::counter(TrackId track, double value, Time t) {
  if (!admit()) return;
  counters_.push_back(CounterSample{track, value, t});
}

void TraceRecorder::instant(std::string track, std::string name, Time t) {
  instant(std::move(track), std::move(name), t, SpanArgs{});
}

void TraceRecorder::instant(std::string track, std::string name, Time t, SpanArgs args) {
  if (!admit()) return;
  instants_.push_back(Instant{std::move(track), std::move(name), t, std::move(args)});
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

/// Shortest round-trip decimal form (std::to_chars), so exported microsecond
/// timestamps reconstruct the exact virtual-time value instead of losing
/// precision to ostream's 6-significant-digit default.
void write_number(std::ostream& os, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

void write_args(std::ostream& os, const SpanArgs& args) {
  os << ",\"args\":{";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) os << ",";
    first = false;
    write_escaped(os, k);
    os << ":";
    write_escaped(os, v);
  }
  os << "}";
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  // Stable thread ids per track, plus metadata naming each one.
  std::map<std::string, int> tids;
  auto tid_of = [&](const std::string& track) {
    auto [it, inserted] = tids.emplace(track, static_cast<int>(tids.size()) + 1);
    return it->second;
  };

  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  for (const auto& s : spans_) {
    sep();
    os << R"({"ph":"X","pid":1,"tid":)" << tid_of(s.track) << ",\"name\":";
    write_escaped(os, s.name);
    os << ",\"ts\":";
    write_number(os, to_microseconds(s.begin));
    os << ",\"dur\":";
    write_number(os, to_microseconds(s.end - s.begin));
    if (!s.args.empty()) write_args(os, s.args);
    os << "}";
  }
  for (const auto& c : counters_) {
    sep();
    const std::string& track = track_names_[static_cast<std::size_t>(c.track)];
    os << R"({"ph":"C","pid":1,"tid":)" << tid_of(track) << ",\"name\":";
    write_escaped(os, track);
    os << ",\"ts\":";
    write_number(os, to_microseconds(c.t));
    os << ",\"args\":{\"value\":";
    write_number(os, c.value);
    os << "}}";
  }
  for (const auto& i : instants_) {
    sep();
    // "s":"t" scopes the marker to its thread (track) lane.
    os << R"({"ph":"i","pid":1,"tid":)" << tid_of(i.track) << ",\"name\":";
    write_escaped(os, i.name);
    os << ",\"ts\":";
    write_number(os, to_microseconds(i.t));
    os << R"(,"s":"t")";
    if (!i.args.empty()) write_args(os, i.args);
    os << "}";
  }
  for (const auto& [track, tid] : tids) {
    sep();
    os << R"({"ph":"M","pid":1,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":)";
    write_escaped(os, track);
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace serve::sim
