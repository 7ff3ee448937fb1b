// Substrate workloads: real JPEG decode -> resize -> normalize behind the
// real in-process and file-log brokers, on wall-clock time.
//
// Threads: a generator publishes requests on a seeded Poisson schedule, one
// at a time at zero load, or as fast as the queue accepts; the calling
// thread consumes up to 16 queued requests per batch and preprocesses them
// on a codec::BatchPreprocessor whose pool is the caller plus one worker.
// Three threads in all, one fewer than the 4 vCPUs the benchmark was built
// on: on a shared host each vCPU's speed drifts on its own (one spinning
// thread pinned to each measured anywhere from 0.2x to 1x of full speed),
// and a batch waits for its slowest thread. With a three-thread pool,
// closed-loop throughput varied by 24% across three identical runs.
//
// substrate-jpeg appends a small result record per image to the log
// (fsync every 64 appends); substrate-durable appends every request's JPEG
// bytes to the log with an fsync each, passes the offset through the
// in-process broker, and the consumer reads the bytes back before decoding.
//
// Every request is checked: its tensor checksum must equal a single-threaded
// reference computed at set-up, bytes read back from the log must equal what
// was appended, and it must be done before the drain ends.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "broker/file_log_broker.h"
#include "broker/in_process_broker.h"
#include "codec/batch_preprocess.h"
#include "codec/jpeg.h"
#include "codec/transform.h"
#include "sim/rng.h"
#include "workload/corpus.h"
#include "workloads.h"

namespace serve::perf {

namespace {

constexpr int kCorpusSize = 64;
constexpr std::size_t kMaxBatch = 16;
constexpr int kPoolThreads = 2;  ///< the consumer plus one worker
constexpr std::size_t kQueueCapacity = 1024;
/// A ladder step's requests count as done only within this grace period
/// after the step ends; the drain itself waits up to kDrainLimit.
constexpr auto kGrace = std::chrono::seconds(1);
constexpr auto kDrainLimit = std::chrono::seconds(30);
constexpr double kLightRate = 250.0;
constexpr double kLadderRates[] = {500.0, 1000.0, 2000.0, 4000.0};

/// Order-sensitive hash of a tensor's bits. It runs once per image on the
/// consumer thread, so it must cost far less than the preprocessing it
/// checks: a byte-wise hash of a 600 KB tensor took ~0.8 ms, most of a
/// decode. Four independent multiply lanes over 64-bit words; each step is
/// a bijection of the lane, so any change to one word changes the result.
std::uint64_t tensor_checksum(const std::vector<float>& t) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t lane[4] = {1, 2, 3, 4};
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const std::size_t n = t.size() * sizeof(float);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (std::size_t k = 0; k < 4; ++k) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes + i + 8 * k, 8);
      lane[k] = (lane[k] ^ w) * kPrime;
    }
  }
  for (; i < n; ++i) lane[0] = (lane[0] ^ bytes[i]) * kPrime;
  std::uint64_t h = n;
  for (std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return h;
}

struct Corpus {
  std::vector<workload::CorpusEntry> entries;
  std::vector<std::string> payloads;       ///< durable ingest: bytes appended to the log
  std::vector<std::uint64_t> checksums;    ///< single-threaded reference tensors
};

Corpus build_corpus(Ingest ingest, std::uint64_t seed) {
  Corpus c;
  c.entries = workload::make_corpus(ingest == Ingest::kJpeg ? hw::kMediumImage : hw::kSmallImage,
                                    kCorpusSize, seed, kPoolThreads);
  for (const auto& e : c.entries) {
    // The same calls, in the same order, as BatchPreprocessor::run.
    const codec::Image img = codec::decode_jpeg(e.jpeg);
    c.checksums.push_back(tensor_checksum(codec::normalize_chw(codec::resize(img, 224, 224))));
    if (ingest == Ingest::kDurable) c.payloads.emplace_back(e.jpeg.begin(), e.jpeg.end());
  }
  return c;
}

/// jpeg ingest's per-image result record: request id and tensor checksum.
std::string result_record(std::uint64_t id, std::uint64_t checksum) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "id=%016llx sum=%016llx\n", static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(checksum));
  return buf;
}

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  Clock::time_point begin{}, end{};
  std::uint64_t req = 0;     ///< request id (0 for batch-level spans)
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
  double arg = 0.0;          ///< pixels for decode, batch size for batches

  [[nodiscard]] double us() const {
    return std::chrono::duration<double, std::micro>(end - begin).count();
  }
};

/// In-memory span store, written out as Chrome trace-event JSON at exit.
/// Callers record only in traced phases; untraced phases pay one branch.
class SpanLog {
 public:
  std::uint32_t reserve() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(const char* name, Clock::time_point b, Clock::time_point e, std::uint64_t req,
              std::uint32_t parent, double arg = 0.0, std::uint32_t id = 0) {
    const Span s{name, b, e, req, id != 0 ? id : reserve(), parent, thread_index(), arg};
    std::lock_guard lock{mu_};
    spans_.push_back(s);
  }

  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const {
    std::vector<double> v;
    for (const auto& s : spans_) {
      if (name == s.name) v.push_back(s.us());
    }
    return v;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write(const std::filesystem::path& path, Clock::time_point epoch) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"req\": %llu, \"span\": %u, \"parent\": %u}}\n",
                   i == 0 ? "" : ",", s.name, s.tid, us(s.begin), s.us(),
                   static_cast<unsigned long long>(s.req), s.id, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t idx = next.fetch_add(1, std::memory_order_relaxed);
    return idx;
  }

  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --- pipeline ----------------------------------------------------------------

/// How a phase's generator sends.
enum class Load : std::uint8_t {
  kOpen,      ///< open loop: Poisson arrivals at `rate` images/s
  kSerial,    ///< closed loop, one request in flight (zero load)
  kSaturate,  ///< closed loop, as fast as the queue accepts
};

struct Phase {
  Load load = Load::kSaturate;
  double rate = 0.0;  ///< kOpen only
  double seconds = 0.0;
  bool traced = false;
  bool alternate = false;  ///< closed loop: trace every other batch
  Clock::time_point start{}, end{};  ///< filled in by the generator
  std::uint64_t first = 0, last = 0; ///< request ids [first, last)
};

struct Request {
  std::uint64_t id = 0;
  std::uint64_t offset = 0;  ///< durable ingest: log offset of the JPEG bytes
};

/// Per-request timeline. The generator writes phase..sent before publishing;
/// the consumer writes the rest after consuming, so the broker's lock orders
/// every access.
struct Record {
  std::size_t phase = 0;
  std::uint32_t entry = 0;
  Clock::time_point due{}, sent{}, dequeued{}, done{};
  std::uint64_t result_offset = 0;  ///< jpeg ingest: where the result record went
  bool finished = false;
  bool ok = false;
};

struct Batch {
  std::size_t phase = 0;
  std::size_t size = 0;
  Clock::time_point done{};
  bool traced = false;
};

struct Substrate {
  Ingest ingest;
  Corpus corpus;
  std::filesystem::path log_dir;
  std::unique_ptr<broker::FileLogBroker> log;
  std::unique_ptr<codec::BatchPreprocessor> pool;
};

Substrate set_up(const RunOptions& opts, Ingest ingest, int index) {
  Substrate s{ingest, build_corpus(ingest, opts.seed),
              opts.work_dir / ("log-" + std::to_string(index)), nullptr, nullptr};
  broker::FileLogBroker::Options lo;
  lo.dir = s.log_dir;
  lo.fsync_interval = ingest == Ingest::kDurable ? 1 : 64;
  s.log = std::make_unique<broker::FileLogBroker>(lo);
  s.pool = std::make_unique<codec::BatchPreprocessor>(kPoolThreads);
  return s;
}

/// kSetupRepeats set-ups (corpus encoding, reference checksums, log open,
/// pool start); the last one is kept.
Substrate timed_set_up(const RunOptions& opts, Ingest ingest, std::vector<double>& setup_s) {
  std::optional<Substrate> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.reset();
    const auto t0 = Clock::now();
    s.emplace(set_up(opts, ingest, i));
    setup_s.push_back(seconds_since(t0));
  }
  return std::move(*s);
}

class Pipeline {
 public:
  Pipeline(Substrate& sub, std::uint64_t seed, SpanLog& spans)
      : sub_(sub), seed_(seed), spans_(spans) {}

  /// Runs every phase in order, draining between phases; returns when the
  /// generator has finished and the queue is empty.
  void run(std::vector<Phase>& phases) {
    std::size_t capacity = 0;
    // Generous upper bounds on what a phase can issue: a zero-load request
    // takes at least 0.1 ms, a saturating generator is held back by the
    // queue. A phase stops issuing when the records run out.
    for (const auto& p : phases) {
      switch (p.load) {
        case Load::kOpen:
          capacity += static_cast<std::size_t>(p.rate * p.seconds * 1.5) + 64;
          break;
        case Load::kSerial:
          capacity += static_cast<std::size_t>(p.seconds * 10'000.0) + 1;
          break;
        case Load::kSaturate:
          capacity += static_cast<std::size_t>(p.seconds * 40'000.0) + kQueueCapacity;
          break;
      }
    }
    records_.resize(capacity);
    std::exception_ptr gen_error;
    std::thread gen([&] {
      try {
        generate(phases);
      } catch (...) {
        gen_error = std::current_exception();
      }
      queue_.close();
    });
    try {
      consume(phases);
    } catch (...) {
      queue_.close();
      gen.join();
      throw;
    }
    gen.join();
    if (gen_error) std::rethrow_exception(gen_error);
  }

  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] const std::vector<Batch>& batches() const { return batches_; }
  [[nodiscard]] std::size_t depth_max() const { return depth_max_; }

 private:
  void generate(std::vector<Phase>& phases) {
    sim::Rng rng{seed_};
    for (std::size_t k = 0; k < phases.size(); ++k) {
      Phase& p = phases[k];
      p.first = issued_;
      p.start = Clock::now();
      const auto stop = p.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(p.seconds));
      if (p.load == Load::kOpen) {
        auto due = p.start;
        for (;;) {
          due += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(rng.exponential(p.rate)));
          if (due >= stop || issued_ >= records_.size()) break;
          std::this_thread::sleep_until(due);
          issue(k, p.traced, due, rng);
        }
        p.end = stop;
      } else if (p.load == Load::kSerial) {
        while (Clock::now() < stop && issued_ < records_.size()) {
          const std::uint64_t id = issued_;
          issue(k, p.traced, Clock::now(), rng);
          // The client polls for its reply, so its own wake-up never delays
          // the next send.
          const auto limit = Clock::now() + kDrainLimit;
          while (done_.load(std::memory_order_acquire) <= id && Clock::now() < limit) {
          }
        }
        p.end = Clock::now();
      } else {
        while (Clock::now() < stop && issued_ < records_.size()) {
          issue(k, p.traced, Clock::now(), rng);
        }
        p.end = Clock::now();
      }
      p.last = issued_;
      // Drain before the next phase so phases never share the queue.
      const auto limit = Clock::now() + kDrainLimit;
      while (done_.load(std::memory_order_acquire) < issued_ && Clock::now() < limit) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }

  void issue(std::size_t phase, bool traced, Clock::time_point due, sim::Rng& rng) {
    const std::uint64_t id = issued_;
    Record& r = records_[id];
    r.phase = phase;
    r.entry = static_cast<std::uint32_t>(rng.uniform_int(0, kCorpusSize - 1));
    r.due = due;
    r.sent = Clock::now();
    Request req{id, 0};
    if (sub_.ingest == Ingest::kDurable) {
      const auto t0 = Clock::now();
      req.offset = sub_.log->publish(sub_.corpus.payloads[r.entry]);
      if (traced) spans_.record("log.append", t0, Clock::now(), id, 0);
    }
    const auto t0 = Clock::now();
    queue_.publish(req);
    if (traced) spans_.record("inproc.publish", t0, Clock::now(), id, 0);
    ++issued_;
  }

  void consume(const std::vector<Phase>& phases) {
    std::vector<Request> batch;
    while (auto first = queue_.consume()) {
      const std::size_t depth = queue_.depth() + 1;
      batch.assign(1, *first);
      while (batch.size() < kMaxBatch) {
        auto more = queue_.try_consume();
        if (!more) break;
        batch.push_back(*more);
      }
      const auto dequeued = Clock::now();
      depth_max_ = std::max(depth_max_, depth);
      for (const auto& q : batch) records_[q.id].dequeued = dequeued;
      const Phase& p = phases[records_[batch.front().id].phase];
      process(batch, p.traced || (p.alternate && ++alternated_ % 2 == 0));
      done_.fetch_add(batch.size(), std::memory_order_release);
    }
  }

  void process(const std::vector<Request>& batch, bool traced) {
    const std::size_t n = batch.size();
    const std::uint32_t batch_span = spans_.reserve();
    std::vector<bool> ok(n, true);
    std::vector<std::string> read_back(sub_.ingest == Ingest::kDurable ? n : 0);
    std::vector<std::span<const std::uint8_t>> jpegs(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Record& r = records_[batch[i].id];
      if (sub_.ingest == Ingest::kJpeg) {
        jpegs[i] = sub_.corpus.entries[r.entry].jpeg;
        continue;
      }
      const auto t0 = Clock::now();
      std::optional<std::string> bytes = sub_.log->read(batch[i].offset);
      if (traced) spans_.record("log.read", t0, Clock::now(), batch[i].id, batch_span);
      if (!bytes || *bytes != sub_.corpus.payloads[r.entry]) {
        ok[i] = false;
        std::fprintf(stderr, "FAILED [substrate]: log read mismatch for request %llu\n",
                     static_cast<unsigned long long>(batch[i].id));
      }
      read_back[i] = bytes ? std::move(*bytes) : std::string{};
      jpegs[i] = {reinterpret_cast<const std::uint8_t*>(read_back[i].data()), read_back[i].size()};
    }

    std::vector<std::vector<float>> tensors;
    const auto tb = Clock::now();
    try {
      if (!traced) {
        tensors = sub_.pool->run(jpegs);
      } else {
        // The calls run() makes, one span per stage.
        tensors.resize(n);
        sub_.pool->parallel_for(n, [&](std::size_t i) {
          const std::uint64_t id = batch[i].id;
          const auto t0 = Clock::now();
          const codec::Image img = codec::decode_jpeg(jpegs[i]);
          const auto t1 = Clock::now();
          const codec::Image resized = codec::resize(img, 224, 224);
          const auto t2 = Clock::now();
          tensors[i] = codec::normalize_chw(resized);
          const auto t3 = Clock::now();
          spans_.record("codec.decode", t0, t1, id, batch_span, static_cast<double>(img.pixels()));
          spans_.record("codec.resize", t1, t2, id, batch_span);
          spans_.record("codec.normalize", t2, t3, id, batch_span);
        });
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAILED [substrate]: preprocessing threw: %s\n", e.what());
      tensors.assign(n, {});
      ok.assign(n, false);
    }
    const auto te = Clock::now();
    if (traced) spans_.record("codec.batch", tb, te, 0, 0, static_cast<double>(n), batch_span);

    for (std::size_t i = 0; i < n; ++i) {
      Record& r = records_[batch[i].id];
      const std::uint64_t sum = tensor_checksum(tensors[i]);
      if (ok[i] && sum != sub_.corpus.checksums[r.entry]) {
        ok[i] = false;
        std::fprintf(stderr, "FAILED [substrate]: tensor checksum mismatch for request %llu\n",
                     static_cast<unsigned long long>(batch[i].id));
      }
      if (sub_.ingest == Ingest::kJpeg) {
        const auto t0 = Clock::now();
        r.result_offset = sub_.log->publish(result_record(batch[i].id, sum));
        r.done = Clock::now();
        if (traced) spans_.record("log.append", t0, r.done, batch[i].id, batch_span);
      } else {
        r.done = te;
      }
      r.ok = ok[i];
      r.finished = true;
    }
    batches_.push_back({records_[batch.front().id].phase, n, te, traced});
  }

  Substrate& sub_;
  std::uint64_t seed_;
  SpanLog& spans_;
  broker::InProcessBroker<Request> queue_{kQueueCapacity};
  std::vector<Record> records_;
  std::uint64_t issued_ = 0;  ///< generator-owned; read after join
  std::atomic<std::uint64_t> done_{0};
  std::vector<Batch> batches_;  ///< consumer-owned
  std::size_t depth_max_ = 0;
  std::uint64_t alternated_ = 0;  ///< batches seen in alternating phases
};

/// Post-run checks, counted per request. jpeg ingest also reads every result
/// record back from the log (timed into `spans` when given).
void verify(const Substrate& sub, const Pipeline& pipe, SpanLog* spans, RunResult& out) {
  std::uint64_t failed = 0;
  for (std::uint64_t id = 0; id < pipe.issued(); ++id) {
    const Record& r = pipe.records()[id];
    bool ok = r.finished && r.ok;
    if (!r.finished) {
      std::fprintf(stderr, "FAILED [substrate]: request %llu not done by the end of the drain\n",
                   static_cast<unsigned long long>(id));
    }
    if (ok && sub.ingest == Ingest::kJpeg) {
      const auto t0 = Clock::now();
      const auto rec = sub.log->read(r.result_offset);
      if (spans != nullptr) spans->record("log.read", t0, Clock::now(), id, 0);
      if (!rec || *rec != result_record(id, sub.corpus.checksums[r.entry])) {
        ok = false;
        std::fprintf(stderr, "FAILED [substrate]: result record mismatch for request %llu\n",
                     static_cast<unsigned long long>(id));
      }
    }
    failed += ok ? 0 : 1;
  }
  out.attempted += pipe.issued();
  out.failed += failed;
}

/// a / b, or 0 when there is nothing to divide by (short probe phases).
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

/// Latency (due -> done, ms) and lateness (due -> sent, us) of a phase.
struct PhaseSamples {
  std::vector<double> latency_ms;
  std::vector<double> late_us;
  std::vector<double> wait_us;  ///< due -> dequeued
  std::size_t done_in_grace = 0;
  std::size_t offered = 0;
};

PhaseSamples samples(const Pipeline& pipe, const Phase& p) {
  PhaseSamples s;
  for (std::uint64_t id = p.first; id < p.last; ++id) {
    const Record& r = pipe.records()[id];
    ++s.offered;
    s.late_us.push_back(us(r.sent - r.due));
    if (!r.finished) continue;
    s.latency_ms.push_back(ms(r.done - r.due));
    s.wait_us.push_back(us(r.dequeued - r.due));
    if (r.ok && r.done <= p.end + kGrace) ++s.done_in_grace;
  }
  return s;
}

/// Closed-loop throughput: median per-batch images/s over the batches of
/// phase `k` that completed while the generator was still publishing. In an
/// alternating phase, `traced` picks the traced or the untraced batches, so
/// both rates come from the same stretch of time.
double closed_loop_rate(const Pipeline& pipe, const std::vector<Phase>& phases, std::size_t k,
                        std::optional<bool> traced = std::nullopt) {
  const Phase& p = phases[k];
  std::vector<double> sizes, done_s;
  std::vector<bool> flags;
  for (const auto& b : pipe.batches()) {
    if (b.phase != k || b.done > p.end) continue;
    sizes.push_back(static_cast<double>(b.size));
    done_s.push_back(std::chrono::duration<double>(b.done - p.start).count());
    flags.push_back(b.traced);
  }
  const std::vector<double> rates = batch_rates(sizes, done_s);
  std::vector<double> kept;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (!traced || flags[i + 1] == *traced) kept.push_back(rates[i]);
  }
  return median(std::move(kept));
}

std::uintmax_t dir_bytes(const std::filesystem::path& dir) {
  std::uintmax_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

}  // namespace

void substrate_end_to_end(const RunOptions& opts, Ingest ingest, RunResult& out) {
  std::vector<double> setup_s;
  Substrate sub = timed_set_up(opts, ingest, setup_s);
  // Half the budget at zero load (latency, the paper's Fig. 6 condition),
  // half saturated (throughput). Latency was first taken at 250 img/s open
  // loop, where the pipeline idles ~4 ms between requests; on a shared host
  // its median then varied by 20% between identical runs, against 5% when
  // the next request follows the last at once.
  std::vector<Phase> phases = {{Load::kSerial, 0.0, 0.5 * opts.seconds},
                               {Load::kSaturate, 0.0, 0.5 * opts.seconds}};
  SpanLog spans;
  Pipeline pipe{sub, opts.seed, spans};
  pipe.run(phases);
  verify(sub, pipe, nullptr, out);

  const PhaseSamples zero_load = samples(pipe, phases[0]);
  const TailPercentile tail = tail_percentile(zero_load.latency_ms);
  out.add("req_per_s", closed_loop_rate(pipe, phases, 1), "req/s");
  out.add("p50_ms", median(zero_load.latency_ms), "ms");
  out.note("tail_ms", tail.value, "ms");
  out.add("setup_s", median(setup_s), "s");
  out.note("zero_load.samples", static_cast<double>(zero_load.latency_ms.size()), "count");
  out.note("tail_pct", tail.percentile, "%");
  out.note("closed.images", static_cast<double>(phases[1].last - phases[1].first), "count");
}

void substrate_layers(const RunOptions& opts, Ingest ingest, double budget_s, RunResult& out) {
  Substrate sub = set_up(opts, ingest, 0);
  std::vector<Phase> phases;
  phases.push_back({Load::kOpen, kLightRate, 0.3 * budget_s, true});
  for (double rate : kLadderRates) phases.push_back({Load::kOpen, rate, 0.075 * budget_s, true});
  const std::size_t closed = phases.size();
  phases.push_back({Load::kSaturate, 0.0, 0.4 * budget_s, false, true});

  SpanLog spans;
  Pipeline pipe{sub, opts.seed, spans};
  pipe.run(phases);
  verify(sub, pipe, &spans, out);  // times the read-back of result records too

  // codec: per-image stage medians, and how busy the pool kept its threads.
  std::vector<double> mpix_s, batch_size, batch_us;
  double busy_us = 0.0;
  for (const auto& s : spans.spans()) {
    const std::string_view name = s.name;
    if (name == "codec.decode") mpix_s.push_back(s.arg / s.us());  // pixels/us == Mpix/s
    if (name == "codec.decode" || name == "codec.resize" || name == "codec.normalize") {
      busy_us += s.us();
    }
    if (name == "codec.batch") {
      batch_size.push_back(s.arg);
      batch_us.push_back(s.us());
    }
  }
  double batch_us_total = 0.0, images = 0.0;
  for (double w : batch_us) batch_us_total += w;
  for (double b : batch_size) images += b;
  out.add("codec.decode_us", median(spans.durations_us("codec.decode")), "us");
  out.add("codec.resize_us", median(spans.durations_us("codec.resize")), "us");
  out.add("codec.normalize_us", median(spans.durations_us("codec.normalize")), "us");
  out.add("codec.decode_mpix_s", median(mpix_s), "Mpix/s");
  out.add("codec.pool.batch_us", median(batch_us), "us");
  out.add("codec.pool.batch_size", ratio(images, static_cast<double>(batch_size.size())), "img");
  out.add("codec.pool.efficiency", ratio(busy_us, batch_us_total * kPoolThreads), "ratio");

  // broker: queue wait at light load, publish blocking, and the log.
  const PhaseSamples light = samples(pipe, phases[0]);
  out.add("broker.inproc.wait_us", median(light.wait_us), "us");
  out.add("broker.inproc.publish_block_us", median(spans.durations_us("inproc.publish")), "us");
  out.add("broker.inproc.depth_max", static_cast<double>(pipe.depth_max()), "count");
  const auto append = spans.durations_us("log.append");
  out.add("broker.log.append_us", median(append), "us");
  out.add("broker.log.append_p99_us", tail_percentile(append).value, "us");
  out.add("broker.log.read_us", median(spans.durations_us("log.read")), "us");
  const double records = static_cast<double>(sub.log->size());
  out.add("broker.log.fsyncs_per_rec", ratio(static_cast<double>(sub.log->fsync_count()), records),
          "fsync/rec");
  out.add("broker.log.bytes_per_rec", ratio(static_cast<double>(dir_bytes(sub.log_dir)), records),
          "B/rec");

  // Load generator and the open-loop rate ladder.
  out.add("loadgen.late_p99_us", tail_percentile(light.late_us).value, "us");
  const auto late_max = std::max_element(light.late_us.begin(), light.late_us.end());
  out.add("loadgen.late_max_us", late_max == light.late_us.end() ? 0.0 : *late_max, "us");
  std::vector<LadderStep> steps;
  for (std::size_t k = 0; k < closed; ++k) {
    const PhaseSamples s = samples(pipe, phases[k]);
    const LadderStep st{phases[k].rate, tail_percentile(s.latency_ms).value,
                        ratio(static_cast<double>(s.done_in_grace), static_cast<double>(s.offered)),
                        tail_percentile(s.late_us).value};
    const std::string prefix = "ladder.r" + std::to_string(static_cast<int>(st.rate));
    out.add(prefix + ".p99_ms", st.p99_ms, "ms");
    out.add(prefix + ".done_ratio", st.done_ratio, "ratio");
    steps.push_back(st);
  }
  out.add("ladder.max_rps_at_slo", max_rate_passing(steps), "img/s");

  const double plain_rate = closed_loop_rate(pipe, phases, closed, false);
  const double traced_rate = closed_loop_rate(pipe, phases, closed, true);
  out.add("trace.overhead_pct", 100.0 * ratio(plain_rate - traced_rate, plain_rate), "%");

  if (!opts.trace_out.empty()) {
    std::filesystem::create_directories(opts.trace_out);
    const auto path = opts.trace_out / (opts.workload + ".substrate.json");
    if (!spans.write(path, phases.front().start)) {
      std::fprintf(stderr, "FAILED [substrate]: cannot write %s\n", path.c_str());
      ++out.failed;
    }
    out.note("trace.spans", static_cast<double>(spans.spans().size()), "count");
  }
}

}  // namespace serve::perf
