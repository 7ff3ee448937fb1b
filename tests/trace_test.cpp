// Causal tracing subsystem tests: recorder JSON escaping and memory bounds,
// SpanContext wire format, deterministic sampling, CausalTracer id/arg
// plumbing, critical-path extraction, cross-broker context propagation
// (including FileLogBroker crash recovery), and same-seed reproducibility of
// full pipeline traces; and the tools' JSON parser on hostile input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "broker/file_log_broker.h"
#include "core/experiment.h"
#include "core/face_pipeline.h"
#include "core/observers.h"
#include "core/video_pipeline.h"
#include "hw/image_spec.h"
#include "hw/tracing.h"
#include "metrics/breakdown.h"
#include "metrics/export.h"
#include "models/model_zoo.h"
#include "serving/audit.h"
#include "serving/request.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "trace/causal.h"
#include "trace/critical_path.h"
#include "trace/span_context.h"

#include "../tools/json_mini.h"
#include "xorshift.h"

using namespace serve;
using metrics::Stage;
using serving::RequestAuditor;
using trace::SpanContext;
using trace::SpanRecord;

namespace {

std::string to_json(const sim::TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_chrome_json(os);
  return os.str();
}

jsonmini::Value parse_json(const std::string& text) {
  jsonmini::Parser p{text};
  auto v = p.parse();
  EXPECT_TRUE(v.has_value()) << p.error();
  return v.value_or(jsonmini::Value{});
}

/// Rebuilds SpanRecords from an exported trace the same way `servescope
/// traces` does — the tests assert on the reconstructed trees, not the raw text.
std::vector<SpanRecord> spans_from_json(const std::string& text) {
  const jsonmini::Value doc = parse_json(text);
  const jsonmini::Value* events = doc.find("traceEvents");
  std::vector<SpanRecord> out;
  if (events == nullptr) return out;
  for (const jsonmini::Value& e : events->array) {
    if (e.str_or("ph", "") != "X") continue;
    const jsonmini::Value* args = e.find("args");
    if (args == nullptr) continue;
    const jsonmini::Value* tid = args->find("trace_id");
    if (tid == nullptr) continue;
    SpanRecord s;
    s.trace_id = std::strtoull(tid->str.c_str(), nullptr, 10);
    s.span_id = std::strtoull(args->str_or("span_id", "0").c_str(), nullptr, 10);
    s.parent_span_id =
        std::strtoull(args->str_or("parent_span_id", "0").c_str(), nullptr, 10);
    s.name = e.str_or("name", "");
    s.blame = args->str_or("blame", "");
    s.begin = static_cast<sim::Time>(e.num_or("ts", 0) * 1000.0);
    s.end = s.begin + static_cast<sim::Time>(e.num_or("dur", 0) * 1000.0);
    out.push_back(std::move(s));
  }
  return out;
}

// --- TraceRecorder: JSON escaping + bounded memory ---------------------------

TEST(TraceRecorder, EscapesQuotesBackslashesAndControlChars) {
  sim::TraceRecorder rec;
  const std::string hostile = "quote\" backslash\\ newline\n tab\t cr\r end";
  rec.span("trk", hostile, 0, sim::seconds(0.001), {{"blame", hostile}});
  rec.span("trk", "bell\x07", 0, sim::seconds(0.001));
  const std::string json = to_json(rec);
  // The export must be valid JSON and round-trip the hostile string exactly.
  const jsonmini::Value doc = parse_json(json);
  const jsonmini::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const jsonmini::Value& e : events->array) {
    if (e.str_or("ph", "") != "X" || e.str_or("name", "").rfind("quote", 0) != 0) continue;
    EXPECT_EQ(e.str_or("name", ""), hostile);
    const jsonmini::Value* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->str_or("blame", ""), hostile);
    found = true;
  }
  EXPECT_TRUE(found);
  // Raw control bytes must not appear unescaped in the output (an unescaped
  // 0x07 inside a string literal is what made pre-fix exports unparseable).
  EXPECT_EQ(json.find('\x07'), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
}

TEST(TraceRecorder, EventCapDropsAndCounts) {
  sim::TraceRecorder rec;
  rec.set_max_events(2);
  rec.span("t", "a", 0, 1);
  rec.counter(rec.intern("c"), 1.0, 0);
  rec.span("t", "b", 0, 1);  // over the cap
  rec.instant("t", "i", 0);  // over the cap
  EXPECT_EQ(rec.event_count(), 2u);
  EXPECT_EQ(rec.dropped_events(), 2u);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.dropped_events(), 0u);
  rec.span("t", "after-clear", 0, 1);
  EXPECT_EQ(rec.span_count(), 1u);
}

// --- TraceRecorder: interned counter tracks ----------------------------------

TEST(TraceRecorder, InternedCountersExportInFirstAppearanceOrder) {
  const std::string golden =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"batch x2\",\"ts\":0,\"dur\":2},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":2,\"name\":\"cpu.cores\",\"ts\":0,"
      "\"args\":{\"value\":0}},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"gpu0.compute\",\"ts\":1,"
      "\"args\":{\"value\":1}},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":2,\"name\":\"cpu.cores\",\"ts\":1.5,"
      "\"args\":{\"value\":2.5}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":3,\"name\":\"breaker -> open\",\"ts\":1.75,\"s\":\"t\"},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu.cores\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"gpu0.compute\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"policies\"}}\n"
      "]}\n";

  // Intern order differs from first-use order, and one interned track is
  // never sampled: tids still follow first appearance in the event stream.
  sim::TraceRecorder by_id;
  (void)by_id.intern("never.sampled");
  const sim::TrackId gpu = by_id.intern("gpu0.compute");
  const sim::TrackId cores = by_id.intern("cpu.cores");
  EXPECT_EQ(by_id.intern("cpu.cores"), cores);
  by_id.span("gpu0.compute", "batch x2", 0, 2000);
  by_id.counter(cores, 0.0, 0);
  by_id.counter(gpu, 1.0, 1000);
  by_id.counter(cores, 2.5, 1500);
  by_id.instant("policies", "breaker -> open", 1750);
  EXPECT_EQ(to_json(by_id), golden);
}

TEST(TraceRecorder, AttachedDeviceCountersSurviveClear) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  sim::TraceRecorder rec;
  hw::attach_tracer(platform, rec);
  ASSERT_GT(rec.counter_count(), 0u);
  rec.clear();
  {
    auto token = platform.host_link().try_acquire();
    ASSERT_TRUE(token.holds());
  }
  ASSERT_EQ(rec.counter_count(), 2u);  // acquire + release
  const jsonmini::Value doc = parse_json(to_json(rec));
  std::map<double, std::string> thread_names;
  std::vector<const jsonmini::Value*> samples;
  for (const jsonmini::Value& e : doc.find("traceEvents")->array) {
    if (e.str_or("ph", "") == "M") {
      thread_names[e.num_or("tid", 0)] = e.find("args")->str_or("name", "");
    } else if (e.str_or("ph", "") == "C") {
      samples.push_back(&e);
    }
  }
  ASSERT_EQ(samples.size(), 2u);
  for (const jsonmini::Value* e : samples) {
    EXPECT_EQ(e->str_or("name", ""), "pcie.host");
    EXPECT_EQ(thread_names[e->num_or("tid", 0)], "pcie.host");
  }
  EXPECT_EQ(samples[0]->find("args")->num_or("value", -1), 1.0);
  EXPECT_EQ(samples[1]->find("args")->num_or("value", -1), 0.0);
}

TEST(TraceRecorder, CounterSamplesAreAdmittedOncePerCall) {
  sim::TraceRecorder rec;
  rec.set_max_events(2);
  const sim::TrackId c = rec.intern("c");
  rec.counter(c, 0.0, 0);
  rec.counter(c, 1.0, 1);
  rec.counter(c, 2.0, 2);                // over the cap
  rec.counter(c, 3.0, 3);                // over the cap
  rec.counter(rec.intern("d"), 4.0, 4);  // over the cap
  EXPECT_EQ(rec.event_count(), 2u);
  EXPECT_EQ(rec.counter_count(), 2u);
  EXPECT_EQ(rec.dropped_events(), 3u);
}

TEST(TraceName, JoinsPiecesAndIntegersOnTheStack) {
  using Name = sim::TraceName;
  EXPECT_EQ(std::string_view(Name("req.", std::uint64_t{42})), "req.42");
  EXPECT_EQ(std::string_view(Name("node", std::uint64_t{0}, " ", "ejected")), "node0 ejected");
  EXPECT_EQ(std::string_view(Name("x", UINT64_MAX)), "x18446744073709551615");
  EXPECT_EQ(std::string_view(Name()), "");
  const std::string longest(Name::kCapacity, 'a');
  EXPECT_EQ(std::string_view(Name(longest)), longest);
  EXPECT_THROW(Name(longest, "b"), std::length_error);
  EXPECT_THROW(Name(longest.substr(1), std::uint64_t{10}), std::length_error);
}

// --- tools/json_mini: hostile input ------------------------------------------

TEST(JsonMini, CapsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(jsonmini::Parser{nested(jsonmini::kMaxDepth)}.parse().has_value());
  for (const int depth : {jsonmini::kMaxDepth + 1, 200000}) {
    const std::string text = nested(depth);
    jsonmini::Parser p{text};
    EXPECT_FALSE(p.parse().has_value()) << depth;
    EXPECT_NE(p.error().find("nesting deeper than"), std::string::npos) << p.error();
  }
  std::string objects;
  for (int i = 0; i <= jsonmini::kMaxDepth; ++i) objects += "{\"a\":";
  jsonmini::Parser p{objects};
  EXPECT_FALSE(p.parse().has_value());
  EXPECT_NE(p.error().find("nesting deeper than"), std::string::npos) << p.error();
}

TEST(JsonMini, AcceptsOnlyJsonNumbers) {
  for (const char* ok : {"0", "-0", "12", "-3.25", "1e3", "1E+2", "2.5e-3", "1e9999"}) {
    jsonmini::Parser p{ok};
    EXPECT_TRUE(p.parse().has_value()) << ok << ": " << p.error();
  }
  EXPECT_DOUBLE_EQ(parse_json("[-3.25]").array.at(0).number, -3.25);
  // The exporter writes non-finite values as 1e9999 and null.
  EXPECT_TRUE(std::isinf(parse_json("1e9999").number));
  EXPECT_EQ(parse_json("null").type, jsonmini::Value::Type::kNull);
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity", "0x1p3", "0x10", "+1", "01",
                          ".5", "1.", "1e", "-", "[1, nan]"}) {
    jsonmini::Parser p{bad};
    EXPECT_FALSE(p.parse().has_value()) << bad;
  }
}

TEST(JsonMini, BenchmarkModeAcceptsOnlyGoogleBenchmarkNonfinites) {
  // google-benchmark writes a cv aggregate of an all-zero counter as NaN.
  const auto parse = [](const char* text) {
    jsonmini::Parser p{text, true};
    return p.parse();
  };
  EXPECT_TRUE(std::isnan(parse("NaN")->number));
  EXPECT_TRUE(std::isnan(parse("-NaN")->number));
  EXPECT_EQ(parse("Infinity")->number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse("-Infinity")->number, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(parse("{\"cv\": NaN}")->find("cv")->number));
  for (const char* bad : {"nan", "inf", "-inf", "NaNx", "Inf", "+Infinity", "0x10", "01"}) {
    EXPECT_FALSE(parse(bad).has_value()) << bad;
  }
}

TEST(JsonMini, MutatedDocumentsParseOrError) {
  // Two real documents from one short audited run, a telemetry export and a
  // Chrome trace, under seeded byte flips, truncations, and both. Each
  // mutant either parses or fails with a message; no exception escapes.
  const core::Session session{core::Session::kRecorder | core::Session::kTracer,
                              {.recorder = {.period = sim::milliseconds(50), .capacity = 16}}};
  core::ExperimentSpec spec;
  spec.server.model = models::resnet50();
  spec.server.audit = true;
  spec.concurrency = 4;
  spec.warmup = sim::milliseconds(20);
  spec.measure = sim::milliseconds(50);
  session.attach(spec);
  (void)core::run_experiment(spec);
  metrics::TelemetryExport telemetry;
  session.capture(telemetry);
  std::ostringstream telemetry_json;
  telemetry.write_json(telemetry_json);
  const std::string docs[] = {telemetry_json.str(), to_json(session.trace())};

  int parsed = 0, rejected = 0;
  for (std::uint64_t d = 0; d < std::size(docs); ++d) {
    ASSERT_TRUE(jsonmini::Parser{docs[d]}.parse().has_value()) << "document " << d;
    fuzz::XorShift rng{0x6a736f6e6d696e69ULL + d};
    for (int round = 0; round < 300; ++round) {
      std::string text = docs[d];
      const int kind = round % 3;  // 0: flips, 1: a truncation, 2: a truncation and flips
      if (kind == 1) text.resize(rng.below(text.size()));
      if (kind == 2) text.resize(1 + rng.below(text.size()));
      const std::size_t flips = kind == 1 ? 0 : 1 + rng.below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        text[rng.below(text.size())] ^= static_cast<char>(1 + rng.below(255));
      }
      jsonmini::Parser p{text};
      if (p.parse().has_value()) {
        ++parsed;
      } else {
        ++rejected;
        EXPECT_FALSE(p.error().empty()) << "document " << d << " round " << round;
      }
    }
  }
  // Both outcomes occur: a flip inside a string or a digit still parses.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// --- SpanContext wire format -------------------------------------------------

TEST(SpanContext, WireFormatRoundTrips) {
  const SpanContext ctx{123456789, 42, 7, true};
  const auto parsed = trace::from_wire(trace::to_wire(ctx));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ctx);
  const SpanContext unsampled{1, 2, 0, false};
  EXPECT_EQ(trace::from_wire(trace::to_wire(unsampled)), unsampled);
}

TEST(SpanContext, RejectsMalformedWireForms) {
  EXPECT_FALSE(trace::from_wire("").has_value());
  EXPECT_FALSE(trace::from_wire("svctx1;").has_value());
  EXPECT_FALSE(trace::from_wire("svctx1;1;2;3").has_value());      // missing flag
  EXPECT_FALSE(trace::from_wire("svctx1;1;2;3;2").has_value());    // bad flag
  EXPECT_FALSE(trace::from_wire("svctx1;1;x;3;0").has_value());    // non-digit
  EXPECT_FALSE(trace::from_wire("svctx2;1;2;3;0").has_value());    // bad magic
}

TEST(SpanContext, WrapUnwrapFramesPayloads) {
  const SpanContext ctx{9, 8, 7, true};
  const std::string wrapped = trace::wrap_with_context(ctx, "payload-bytes");
  const auto [got, payload] = trace::unwrap_context(wrapped);
  EXPECT_EQ(got, ctx);
  EXPECT_EQ(payload, "payload-bytes");
  // Unmarked records pass through untouched with an empty context.
  const auto [none, plain] = trace::unwrap_context("plain-record");
  EXPECT_FALSE(none.valid());
  EXPECT_EQ(plain, "plain-record");
}

// --- deterministic sampling --------------------------------------------------

TEST(TraceSampler, HashModeIsDeterministicAcrossInstances) {
  const trace::SamplerOptions opts{.rate = 0.25, .seed = 99, .max_sampled = 1u << 30};
  trace::TraceSampler a{opts};
  trace::TraceSampler b{opts};
  std::uint64_t taken = 0;
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    const bool hit = a.sample(id);
    EXPECT_EQ(hit, b.sample(id));
    taken += hit ? 1 : 0;
  }
  // Unbiased hash: close to the nominal rate over 4000 draws.
  EXPECT_GT(taken, 4000 * 0.25 * 0.7);
  EXPECT_LT(taken, 4000 * 0.25 * 1.3);
  // A different seed flips some decisions.
  trace::TraceSampler c{{.rate = 0.25, .seed = 100, .max_sampled = 1u << 30}};
  std::uint64_t diff = 0;
  trace::TraceSampler a2{opts};
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    diff += a2.sample(id) != c.sample(id) ? 1u : 0u;
  }
  EXPECT_GT(diff, 0u);
}

TEST(TraceSampler, MaxSampledCapsEveryMode) {
  trace::TraceSampler s{{.rate = 1.0, .max_sampled = 3}};
  std::uint64_t taken = 0;
  for (std::uint64_t id = 1; id <= 10; ++id) taken += s.sample(id) ? 1u : 0u;
  EXPECT_EQ(taken, 3u);
}

// --- CausalTracer ------------------------------------------------------------

TEST(CausalTracer, RecordsCausalIdentityAsArgs) {
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  const SpanContext root = tracer.begin_trace(true);
  tracer.record(root, "trk", "root", 0, sim::seconds(0.01));
  const SpanContext child =
      tracer.child_span(root, "trk", "stage", 0, sim::seconds(0.005), {{"blame", "wait"}});
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  const auto spans = spans_from_json(to_json(rec));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, root.trace_id);
  EXPECT_EQ(spans[1].parent_span_id, root.span_id);
  EXPECT_EQ(spans[1].blame, "wait");
}

TEST(CausalTracer, UnsampledContextsAllocateIdsButRecordNothing) {
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  const SpanContext root = tracer.begin_trace(false);
  EXPECT_TRUE(root.valid());
  const SpanContext child = tracer.child_span(root, "trk", "stage", 0, 5);
  EXPECT_NE(child.span_id, 0u);  // id assignment independent of sampling
  tracer.record(root, "trk", "root", 0, 10);
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(CausalTracer, RejectsMoreArgsThanItCanPrependIdsTo) {
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  const SpanContext root = tracer.begin_trace(true);
  std::vector<sim::TraceArg> args(trace::CausalTracer::kMaxArgs, sim::TraceArg{"k", "v"});
  tracer.record(root, "trk", "most", 0, 1, {args.data(), args.size()});
  EXPECT_EQ(rec.span_count(), 1u);
  args.push_back({"k", "v"});
  EXPECT_THROW(tracer.record(root, "trk", "too-many", 0, 1, {args.data(), args.size()}),
               std::length_error);
  EXPECT_EQ(rec.span_count(), 1u);
}

// --- RequestAuditor integration ----------------------------------------------

TEST(RequestAuditor, EmitsParentLinkedStageSpans) {
  sim::Simulator sim;
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  RequestAuditor audit{RequestAuditor::Options{.sampler = {.rate = 1.0}}};
  audit.set_trace(&rec);
  audit.set_causal_tracer(&tracer);
  serving::Request req{sim, 5, hw::kMediumImage};
  audit.on_submit(req);
  EXPECT_TRUE(req.trace_ctx.valid());
  req.charge(Stage::kQueue, sim::seconds(0.3), "host-core");
  req.charge(Stage::kInference, sim::seconds(0.7));
  req.completed = sim::seconds(1.0);
  audit.on_complete(req);
  const auto spans = spans_from_json(to_json(rec));
  ASSERT_EQ(spans.size(), 3u);  // queue + inference + root request span
  std::uint64_t root_span = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "request") root_span = s.span_id;
  }
  ASSERT_NE(root_span, 0u);
  for (const SpanRecord& s : spans) {
    if (s.name == "request") continue;
    EXPECT_EQ(s.parent_span_id, root_span) << s.name;
    if (s.name == "queue") {
      EXPECT_EQ(s.blame, "host-core");
    }
  }
  const auto paths = trace::extract_critical_paths(spans);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].orphan_count, 0u);
}

TEST(RequestAuditor, AdoptsIncomingContextForRetries) {
  sim::Simulator sim;
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  RequestAuditor audit{RequestAuditor::Options{.sampler = {.rate = 0.0}}};
  audit.set_trace(&rec);
  audit.set_causal_tracer(&tracer);
  // The client carries the first attempt's context into the retry; even
  // with a zero sampling rate the adopted trace keeps recording.
  const SpanContext first_attempt = tracer.begin_trace(true);
  serving::Request req{sim, 77, hw::kMediumImage};
  req.trace_ctx = first_attempt;
  audit.on_submit(req);
  EXPECT_EQ(req.trace_ctx.trace_id, first_attempt.trace_id);
  EXPECT_EQ(req.trace_ctx.parent_span_id, first_attempt.span_id);
  req.charge(Stage::kInference, sim::seconds(0.1));
  req.completed = sim::seconds(0.1);
  audit.on_complete(req);
  EXPECT_GT(rec.span_count(), 0u);
}

// --- critical-path extraction ------------------------------------------------

std::vector<SpanRecord> make_tree() {
  // root [0,100]; sequential children A [0,40] and B [50,100]; the 10ns gap
  // between them is the root's own (self) time.
  std::vector<SpanRecord> spans;
  spans.push_back({1, 10, 0, "root", "t", "", 0, 100});
  spans.push_back({1, 11, 10, "A", "t", "", 0, 40});
  spans.push_back({1, 12, 10, "B", "t", "wait", 50, 100});
  return spans;
}

TEST(CriticalPath, AttributesGapsToParentAndTilesExactly) {
  const auto spans = make_tree();
  const auto paths = trace::extract_critical_paths(spans);
  ASSERT_EQ(paths.size(), 1u);
  const trace::CriticalPath& p = paths[0];
  ASSERT_NE(p.root, nullptr);
  EXPECT_EQ(p.total, 100);
  sim::Time sum = 0;
  for (const auto& step : p.steps) sum += step.attributed;
  EXPECT_EQ(sum, p.total);  // exact tiling invariant
  EXPECT_EQ(p.by_name.at("A"), 40);
  EXPECT_EQ(p.by_name.at("B"), 50);
  EXPECT_EQ(p.by_name.at("root"), 10);  // the uncovered gap
}

TEST(CriticalPath, FollowsAsyncDescendantsPastDirectChildren) {
  // The child ending last (C at 60) is NOT on the critical path: child A
  // ends early but its grandchild G runs until 95 — subtree end decides.
  std::vector<SpanRecord> spans;
  spans.push_back({1, 1, 0, "root", "t", "", 0, 100});
  spans.push_back({1, 2, 1, "A", "t", "", 0, 30});
  spans.push_back({1, 3, 2, "G", "t", "", 20, 95});
  spans.push_back({1, 4, 1, "C", "t", "", 10, 60});
  const auto paths = trace::extract_critical_paths(spans);
  ASSERT_EQ(paths.size(), 1u);
  const trace::CriticalPath& p = paths[0];
  EXPECT_GT(p.by_name.at("G"), 0);
  EXPECT_EQ(p.by_name.count("C"), 0u);  // not causally binding
  sim::Time sum = 0;
  for (const auto& step : p.steps) sum += step.attributed;
  EXPECT_EQ(sum, p.total);
}

TEST(CriticalPath, CountsOrphansAndSeparatesTraces) {
  std::vector<SpanRecord> spans = make_tree();
  spans.push_back({1, 13, 999, "lost", "t", "", 5, 9});  // unresolvable parent
  spans.push_back({2, 20, 0, "other-root", "t", "", 0, 50});
  const auto paths = trace::extract_critical_paths(spans);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].orphan_count, 1u);
  EXPECT_EQ(paths[1].orphan_count, 0u);
  EXPECT_EQ(paths[1].total, 50);
}

// --- cross-broker propagation ------------------------------------------------

class TraceLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("servescope_trace_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(TraceLogTest, ContextSurvivesFileLogCrashRecovery) {
  const SpanContext ctx{31, 41, 59, true};
  {
    broker::FileLogBroker log{{.dir = dir_}};
    log.publish("detected-face-0", ctx);
    log.publish("detected-face-1", ctx);
  }
  // Crash mid-append: a torn header at the tail, then Kafka-style recovery.
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) seg = e.path();
  {
    std::ofstream f{seg, std::ios::binary | std::ios::app};
    f.write("\x40\x00", 2);
  }
  broker::FileLogBroker recovered{{.dir = dir_, .tolerate_torn_tail = true}};
  ASSERT_EQ(recovered.size(), 2u);
  const auto rec = recovered.read_traced(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->payload, "detected-face-1");
  EXPECT_EQ(rec->ctx, ctx);  // parent link intact across the crash
  // Untraced publishes still read back with an empty context.
  recovered.publish("plain");
  EXPECT_FALSE(recovered.read_traced(2)->ctx.valid());
}

// --- same-seed reproducibility ----------------------------------------------

std::string traced_face_pipeline_json() {
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  core::FacePipelineSpec spec;
  spec.broker = core::BrokerKind::kKafka;
  spec.faces_per_frame = 3;
  spec.concurrency = 4;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(2.0);
  spec.tracer = &tracer;
  spec.trace_sampler = {.rate = 1.0, .max_sampled = 1u << 20};
  spec.trace_label = "repro";
  const auto r = core::run_face_pipeline(spec);
  EXPECT_GT(r.frames, 0u);
  return to_json(rec);
}

TEST(FacePipelineTrace, SameSeedRunsExportByteIdenticalTraces) {
  const std::string a = traced_face_pipeline_json();
  const std::string b = traced_face_pipeline_json();
  EXPECT_EQ(a, b);  // byte-identical, not merely similar
  EXPECT_NE(a.find("trace_id"), std::string::npos);
}

TEST(VideoPipelineTrace, ClipTracesResolveAndReproduce) {
  auto run = [] {
    sim::TraceRecorder rec;
    trace::CausalTracer tracer{&rec};
    core::VideoPipelineSpec spec;
    spec.concurrency = 4;
    spec.warmup = sim::seconds(0.5);
    spec.measure = sim::seconds(2.0);
    spec.tracer = &tracer;
    spec.trace_sampler = {.rate = 1.0, .max_sampled = 1u << 20};
    spec.trace_label = "video";
    (void)core::run_video_pipeline(spec);
    return to_json(rec);
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  const auto spans = spans_from_json(a);
  ASSERT_FALSE(spans.empty());
  for (const auto& p : trace::extract_critical_paths(spans)) {
    EXPECT_EQ(p.orphan_count, 0u);
    EXPECT_EQ(p.root_count, 1u);
  }
}

TEST(FacePipelineTrace, CascadeFormsOneTreePerFrameAcrossTheBroker) {
  const auto spans = spans_from_json(traced_face_pipeline_json());
  ASSERT_FALSE(spans.empty());
  const auto paths = trace::extract_critical_paths(spans);
  ASSERT_FALSE(paths.empty());
  bool saw_broker = false;
  for (const auto& p : paths) {
    ASSERT_NE(p.root, nullptr);
    EXPECT_EQ(p.orphan_count, 0u);  // every hop's parent link resolves
    EXPECT_EQ(p.root_count, 1u);
    if (p.by_name.count("broker") != 0) saw_broker = true;
    sim::Time sum = 0;
    for (const auto& step : p.steps) sum += step.attributed;
    EXPECT_EQ(sum, p.total);
  }
  EXPECT_TRUE(saw_broker);  // the publish/deliver hop is part of the tree
}

}  // namespace
