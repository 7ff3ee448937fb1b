// Load generation clients.
//
// The paper's load balancer caps the number of concurrent requests per node
// (Section 2.1), which a *closed-loop* client pool models exactly: each of N
// clients keeps one request outstanding, so server concurrency equals N.
// An open-loop Poisson generator is also provided for latency-under-rate
// studies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "hw/image_spec.h"
#include "serving/server.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace serve::serving {

/// What a client attaches to one generated request: the image geometry and
/// an optional stable content identity (zero = unique payload, never matched
/// by the ingress cache). Implicitly constructible from a bare hw::ImageSpec
/// so plain image sources keep working unchanged.
struct RequestDesc {
  hw::ImageSpec image{};
  std::uint64_t content_hash = 0;

  RequestDesc() = default;
  RequestDesc(hw::ImageSpec img) : image(img) {}  // NOLINT(google-explicit-constructor)
  RequestDesc(hw::ImageSpec img, std::uint64_t hash) : image(img), content_hash(hash) {}
};

/// Produces the payload description attached to each generated request.
using ImageSource = std::function<RequestDesc(sim::Rng&)>;

/// Fixed-size image source (the paper's S/M/L experiments).
[[nodiscard]] inline ImageSource fixed_image(hw::ImageSpec spec) {
  return [spec](sim::Rng&) { return RequestDesc{spec}; };
}

/// Client-side resilience engine shared by both client pools. Each run()
/// drives one *logical* request to a terminal verdict under the server's
/// RetryPolicy: per-attempt timeout, capped attempts, exponential backoff
/// with deterministic jitter, and a gRPC-style retry token budget shared by
/// every client in the pool (a success refills a fraction of a token, each
/// retry spends one — retries self-limit when most attempts fail).
class RetryingSubmitter {
 public:
  RetryingSubmitter(InferenceServer& server, sim::Rng& rng)
      : server_(server), rng_(rng), policy_(server.config().retry), budget_(policy_.retry_budget) {
    if (auto* reg = server_.platform().registry()) {
      retries_m_ = reg->counter("client_retries_total");
      timeouts_m_ = reg->counter("client_timeouts_total");
      reg->gauge_fn("client_retry_budget", {}, [this] { return budget_; });
    }
  }

  /// Submits (and re-submits) until an attempt succeeds or the policy gives
  /// up. Every attempt is a fresh Request with its own id; a timed-out
  /// attempt is abandoned, not cancelled — the server still completes it.
  sim::Task<bool> run(RequestDesc desc, std::uint64_t& next_id) {
    auto& sim = server_.platform().sim();
    const int attempts = policy_.enabled ? std::max(1, policy_.max_attempts) : 1;
    trace::SpanContext prev_ctx{};
    for (int attempt = 1;; ++attempt) {
      auto req = make_request(sim, next_id++, desc.image);
      req->content_hash = desc.content_hash;
      req->attempt = attempt;
      // Retry chaining: hand the previous attempt's context to the server so
      // the auditor parents this attempt under the same causal trace instead
      // of starting a fresh one — the whole logical request is one tree.
      if (attempt > 1 && prev_ctx.valid()) req->trace_ctx = prev_ctx;
      server_.submit(req);
      prev_ctx = req->trace_ctx;  // assigned by the auditor during submit
      bool signalled = true;
      if (policy_.enabled && policy_.timeout > 0) {
        signalled = co_await req->done.wait_until(sim.now() + policy_.timeout);
      } else {
        co_await req->done.wait();
      }
      if (!signalled) {
        ++timeouts_;
        timeouts_m_.inc();
      }
      if (signalled && !req->failed && !req->dropped) {
        budget_ = std::min(policy_.retry_budget, budget_ + policy_.budget_refill_per_success);
        co_return true;
      }
      if (attempt >= attempts) co_return false;
      if (budget_ < 1.0) co_return false;  // retry token budget exhausted
      budget_ -= 1.0;
      ++retries_;
      retries_m_.inc();
      sim::Time step = policy_.backoff_base;
      for (int i = 1; i < attempt && step < policy_.backoff_cap; ++i) step *= 2;
      step = std::min(step, policy_.backoff_cap);
      // Deterministic jitter in [step/2, step): spreads retry storms without
      // breaking run-to-run reproducibility.
      const auto jitter =
          static_cast<sim::Time>(rng_.uniform() * static_cast<double>(step - step / 2));
      if (step > 0) co_await sim.wait(step / 2 + jitter);
    }
  }

  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] double budget() const noexcept { return budget_; }

 private:
  InferenceServer& server_;
  sim::Rng& rng_;
  RetryPolicy policy_;
  double budget_;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  metrics::Counter retries_m_;   ///< no-op without a platform registry
  metrics::Counter timeouts_m_;
};

/// Closed-loop client pool: `concurrency` clients, each submitting the next
/// request as soon as the previous one completes.
class ClosedLoopClients {
 public:
  struct Options {
    int concurrency = 1;
    ImageSource image_source;
    std::uint64_t seed = 1;
  };

  ClosedLoopClients(InferenceServer& server, Options opts)
      : server_(server), opts_(std::move(opts)), rng_(opts_.seed) {
    if (opts_.concurrency < 1) throw std::invalid_argument("ClosedLoopClients: concurrency >= 1");
    if (!opts_.image_source) throw std::invalid_argument("ClosedLoopClients: need image source");
  }

  /// Spawns the client processes; they run until stop().
  void start() {
    auto& sim = server_.platform().sim();
    for (int i = 0; i < opts_.concurrency; ++i) sim.spawn(client_loop());
  }

  /// Clients exit after their current request completes.
  void stop() noexcept { stopping_ = true; }

  /// Logical requests issued (retries of the same request not re-counted).
  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retrier_.retries(); }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return retrier_.timeouts(); }

 private:
  sim::Process client_loop() {
    while (!stopping_) {
      const RequestDesc desc = opts_.image_source(rng_);
      ++issued_;
      co_await retrier_.run(desc, next_id_);
    }
  }

  InferenceServer& server_;
  Options opts_;
  sim::Rng rng_;
  RetryingSubmitter retrier_{server_, rng_};
  std::uint64_t next_id_ = 1;
  std::uint64_t issued_ = 0;
  bool stopping_ = false;
};

/// Open-loop arrival generator: requests arrive on a configurable arrival
/// process regardless of completion (models external traffic; pair with
/// workload::poisson_arrivals / mmpp2_arrivals).
class OpenLoopClients {
 public:
  /// Produces the next inter-arrival gap (same signature as
  /// workload::ArrivalProcess).
  using Interarrival = std::function<sim::Time(sim::Rng&)>;

  struct Options {
    Interarrival interarrival;  ///< required
    ImageSource image_source;   ///< required
    std::uint64_t seed = 1;
  };

  OpenLoopClients(InferenceServer& server, Options opts)
      : server_(server), opts_(std::move(opts)), rng_(opts_.seed) {
    if (!opts_.interarrival) throw std::invalid_argument("OpenLoopClients: need arrival process");
    if (!opts_.image_source) throw std::invalid_argument("OpenLoopClients: need image source");
  }

  void start() { server_.platform().sim().spawn(generator()); }
  void stop() noexcept { stopping_ = true; }
  /// Logical requests issued (retries of the same request not re-counted).
  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retrier_.retries(); }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return retrier_.timeouts(); }

 private:
  sim::Process generator() {
    auto& sim = server_.platform().sim();
    while (!stopping_) {
      co_await sim.wait(opts_.interarrival(rng_));
      if (stopping_) break;
      ++issued_;
      sim.spawn(submit_one(opts_.image_source(rng_)));
    }
  }

  /// One detached per-arrival process: open-loop arrivals never block on
  /// completion, but each logical request still runs the retry policy.
  sim::Process submit_one(RequestDesc desc) { co_await retrier_.run(desc, next_id_); }

  InferenceServer& server_;
  Options opts_;
  sim::Rng rng_;
  RetryingSubmitter retrier_{server_, rng_};
  std::uint64_t next_id_ = 1;
  std::uint64_t issued_ = 0;
  bool stopping_ = false;
};

}  // namespace serve::serving
