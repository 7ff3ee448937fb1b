// TraceRecorder storage tests: the compact chunked store must export exactly
// what a plain event-vector recorder would (round-trip against a reference
// encoder on hostile sequences), a fixed audited run must hash to the value
// recorded before the store was introduced, and the store must state and
// bound its own memory cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "models/model_zoo.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "trace/causal.h"

using namespace serve;

namespace {

std::string to_json(const sim::TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_chrome_json(os);
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Reference: every event verbatim in plain vectors -------------------------

/// Stores events verbatim and exports them the way the event-vector recorder
/// the chunked store replaced did. The store must match it byte for byte.
class ReferenceRecorder {
 public:
  void set_max_events(std::size_t cap) { max_events_ = cap; }

  void span(const std::string& track, const std::string& name, sim::Time begin, sim::Time end,
            sim::SpanArgs args) {
    if (admit()) spans_.push_back({track, name, begin, end, std::move(args)});
  }
  void counter(const std::string& track, double value, sim::Time t) {
    if (admit()) counters_.push_back({track, value, t});
  }
  void instant(const std::string& track, const std::string& name, sim::Time t,
               sim::SpanArgs args) {
    if (admit()) instants_.push_back({track, name, t, std::move(args)});
  }
  void clear() {
    spans_.clear();
    counters_.clear();
    instants_.clear();
    dropped_ = 0;
  }

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t instant_count() const { return instants_.size(); }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    std::map<std::string, int> tids;
    const auto tid_of = [&](const std::string& track) {
      return tids.emplace(track, static_cast<int>(tids.size()) + 1).first->second;
    };
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
      if (!first) os << ",";
      first = false;
      os << "\n";
    };
    for (const auto& s : spans_) {
      sep();
      os << R"({"ph":"X","pid":1,"tid":)" << tid_of(s.track) << ",\"name\":" << quoted(s.name)
         << ",\"ts\":" << number(sim::to_microseconds(s.begin))
         << ",\"dur\":" << number(sim::to_microseconds(s.end - s.begin)) << args(s.args) << "}";
    }
    for (const auto& c : counters_) {
      sep();
      os << R"({"ph":"C","pid":1,"tid":)" << tid_of(c.track) << ",\"name\":" << quoted(c.track)
         << ",\"ts\":" << number(sim::to_microseconds(c.t))
         << ",\"args\":{\"value\":" << number(c.value) << "}}";
    }
    for (const auto& i : instants_) {
      sep();
      os << R"({"ph":"i","pid":1,"tid":)" << tid_of(i.track) << ",\"name\":" << quoted(i.name)
         << ",\"ts\":" << number(sim::to_microseconds(i.t)) << R"(,"s":"t")" << args(i.args)
         << "}";
    }
    for (const auto& [track, tid] : tids) {
      sep();
      os << R"({"ph":"M","pid":1,"tid":)" << tid
         << R"(,"name":"thread_name","args":{"name":)" << quoted(track) << "}}";
    }
    os << "\n]}\n";
    return os.str();
  }

 private:
  struct Event {
    std::string track;
    std::string name;
    sim::Time begin;
    sim::Time end;
    sim::SpanArgs args;
  };
  struct Sample {
    std::string track;
    double value;
    sim::Time t;
  };
  struct Marker {
    std::string track;
    std::string name;
    sim::Time t;
    sim::SpanArgs args;
  };

  bool admit() {
    if (spans_.size() + counters_.size() + instants_.size() >= max_events_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += ch;
          }
      }
    }
    return out + "\"";
  }

  static std::string number(double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }

  static std::string args(const sim::SpanArgs& kv) {
    if (kv.empty()) return "";
    std::string out = ",\"args\":{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) out += ",";
      out += quoted(kv[i].first) + ":" + quoted(kv[i].second);
    }
    return out + "}";
  }

  std::size_t max_events_ = sim::TraceRecorder::kDefaultMaxEvents;
  std::uint64_t dropped_ = 0;
  std::vector<Event> spans_;
  std::vector<Sample> counters_;
  std::vector<Marker> instants_;
};

/// Drives the store and the reference with the same seeded event sequence.
class PairedRecorders {
 public:
  explicit PairedRecorders(std::uint64_t seed) : rng_(seed) {
    // 300 counter tracks, so ids run past one varint byte (>= 128).
    for (int i = 0; i < 300; ++i) tracks_.push_back("dev" + std::to_string(i) + ".busy");
    names_ = {"queue", "preprocess", "", "quote\" back\\slash", "ctl\x01\x1f\n\t", "req.12345",
              "batch x64", std::string(200, 'n')};
  }

  void set_max_events(std::size_t cap) {
    store.set_max_events(cap);
    ref.set_max_events(cap);
  }

  void clear() {
    store.clear();
    ref.clear();
  }

  /// Appends `n` random events of every kind.
  void record(int n) {
    for (int k = 0; k < n; ++k) {
      const auto pick = rng_.uniform_int(0, 9);
      if (pick < 6) {
        const std::string& track = tracks_[static_cast<std::size_t>(rng_.uniform_int(0, 299))];
        const double v = value();
        const sim::Time t = time();
        if (pick == 0) {
          store.counter(track, v, t);  // by name
        } else {
          store.counter(store.intern(track), v, t);
        }
        ref.counter(track, v, t);
      } else if (pick < 9) {
        const std::string& track = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
        const std::string& name = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
        const sim::Time begin = time() / 4;  // keeps end - begin in range
        const sim::Time end = begin + rng_.uniform_int(0, 3) * rng_.uniform_int(0, 5'000'000);
        store.span(track, name, begin, end, args());
        ref.span(track, name, begin, end, args_again());
      } else {
        const std::string& track = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
        const sim::Time t = time();
        store.instant(track, "marker " + std::to_string(k), t, args());
        ref.instant(track, "marker " + std::to_string(k), t, args_again());
      }
    }
  }

  void expect_equal() const {
    EXPECT_EQ(store.span_count(), ref.span_count());
    EXPECT_EQ(store.counter_count(), ref.counter_count());
    EXPECT_EQ(store.instant_count(), ref.instant_count());
    EXPECT_EQ(store.dropped_events(), ref.dropped_events());
    const std::string got = to_json(store);
    const std::string want = ref.json();
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "first difference at byte "
                             << std::mismatch(got.begin(), got.end(), want.begin(), want.end())
                                        .first -
                                    got.begin();
  }

  sim::TraceRecorder store;
  ReferenceRecorder ref;

 private:
  /// Mostly small forward steps, with repeats, backward jumps and extremes.
  sim::Time time() {
    switch (rng_.uniform_int(0, 9)) {
      case 0: break;  // zero delta
      case 1: now_ -= rng_.uniform_int(1, 10'000'000); break;
      case 2: now_ = rng_.uniform_int(0, 1) == 0 ? INT64_MAX / 2 : -(INT64_MAX / 2); break;
      case 3: now_ += rng_.uniform_int(1, INT64_C(1) << 40); break;
      default: now_ += rng_.uniform_int(1, 200'000); break;
    }
    return now_;
  }

  double value() {
    static const double kSpecial[] = {0.0,
                                      -0.0,
                                      std::numeric_limits<double>::quiet_NaN(),
                                      -std::numeric_limits<double>::quiet_NaN(),
                                      std::numeric_limits<double>::infinity(),
                                      -std::numeric_limits<double>::infinity(),
                                      0.5,
                                      0x1p53,
                                      0x1p53 + 2.0,
                                      0x1p53 - 1.0,
                                      -1.0,
                                      std::numeric_limits<double>::denorm_min(),
                                      std::numeric_limits<double>::max(),
                                      1e300};
    const auto pick = rng_.uniform_int(0, 19);
    if (pick < 14) return kSpecial[pick];
    if (pick < 18) return static_cast<double>(rng_.uniform_int(0, 1'000'000));
    return rng_.uniform(-1e6, 1e6);
  }

  /// Random args; args_again() replays the last draw for the reference.
  sim::SpanArgs args() {
    last_args_.clear();
    const auto n = rng_.uniform_int(0, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::string& key = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
      std::string value = rng_.uniform_int(0, 30) == 0
                              ? std::string(static_cast<std::size_t>(rng_.uniform_int(0, 70'000)),
                                            'v')  // may straddle several chunks
                              : std::to_string(rng_());
      last_args_.emplace_back(key, std::move(value));
    }
    return last_args_;
  }
  sim::SpanArgs args_again() const { return last_args_; }

  sim::Rng rng_;
  std::vector<std::string> tracks_;
  std::vector<std::string> names_;
  sim::SpanArgs last_args_;
  sim::Time now_ = 0;
};

// --- Round trip against the reference ----------------------------------------

TEST(TraceStore, RandomSequencesExportLikeTheReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    PairedRecorders r{seed};
    r.record(40'000);  // several chunks per stream
    EXPECT_GT(r.store.memory_bytes(), 3 * sim::TraceRecorder::kChunkBytes);
    r.expect_equal();
    // clear() then re-recording: interned ids persist, time bases restart.
    r.clear();
    r.expect_equal();
    r.record(5'000);
    r.expect_equal();
  }
}

TEST(TraceStore, CounterRecordsStraddlingChunkBoundariesRoundTrip) {
  // Raw-valued samples with track 0 and a zero delta are 11 bytes each,
  // which does not divide the chunk size: records cross every boundary at
  // a different offset.
  sim::TraceRecorder store;
  ReferenceRecorder ref;
  const sim::TrackId id = store.intern("gpu0.compute");
  for (int i = 0; i < 30'000; ++i) {
    const double v = i % 7 == 0 ? 0.5 : static_cast<double>(i);
    store.counter(id, v, 1000);
    ref.counter("gpu0.compute", v, 1000);
  }
  EXPECT_EQ(to_json(store), ref.json());
}

TEST(TraceStore, EventCapDropsTheSameEventsAsTheReference) {
  PairedRecorders r{9};
  r.set_max_events(1'000);
  r.record(3'000);
  EXPECT_EQ(r.store.event_count(), 1'000u);
  EXPECT_EQ(r.store.dropped_events(), 2'000u);
  r.expect_equal();
  r.clear();
  r.record(500);
  r.expect_equal();
}

// --- Golden export and self-cost ----------------------------------------------

/// A short audited run with a 1% hash-sampled causal tracer, a PCIe
/// degradation and a staging-memory shrink: spans with causal args, device
/// counters, fault spans and instants all land in one export.
std::string audited_run_export() {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.audit = true;
  spec.server.trace_sampler.mode = trace::SampleMode::kHash;
  spec.server.trace_sampler.rate = 0.01;
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(1.0);
  spec.seed = 7;
  sim::FaultPlan faults;
  faults.pcie_degradation(sim::seconds(0.4), sim::seconds(0.6), 3.0);
  faults.gpu_memory_shrink(0, sim::seconds(0.7), sim::seconds(0.9), 0.25);
  spec.faults = &faults;
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  spec.trace = &rec;
  spec.tracer = &tracer;
  (void)core::run_experiment(spec);
  return to_json(rec);
}

// The hash was taken from the export of the event-vector recorder this store
// replaced; a change to it means the export is no longer byte-identical.
TEST(TraceStore, AuditedRunExportMatchesGoldenHash) {
  const std::string json = audited_run_export();
  EXPECT_EQ(json.size(), 1549629u);
  EXPECT_EQ(fnv1a(json), 0xf12dc5b715cf3634ULL);
}

TEST(TraceStore, CounterOnlyRunHoldsAtMostEightBytesPerSample) {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(4.0);
  sim::TraceRecorder rec;
  spec.trace = &rec;
  (void)core::run_experiment(spec);
  EXPECT_EQ(rec.span_count(), 0u);
  ASSERT_GT(rec.counter_count(), 50'000u);
  EXPECT_LE(rec.memory_bytes(), 8 * rec.counter_count())
      << static_cast<double>(rec.memory_bytes()) / static_cast<double>(rec.counter_count())
      << " bytes per sample";
  // clear() frees the chunks; only the intern table stays.
  rec.clear();
  EXPECT_LT(rec.memory_bytes(), sim::TraceRecorder::kChunkBytes);
}

}  // namespace
