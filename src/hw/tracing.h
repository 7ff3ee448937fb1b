// Platform-level tracing: streams every device engine's occupancy into a
// TraceRecorder as Chrome-trace counters.
#pragma once

#include <string_view>

#include "hw/devices.h"
#include "sim/trace.h"

namespace serve::hw {

/// Attaches occupancy counters for every engine of the platform. The
/// recorder must outlive the platform's simulation activity.
inline void attach_tracer(Platform& platform, sim::TraceRecorder& trace) {
  auto& sim = platform.sim();
  const auto attach = [&sim, &trace](sim::Resource& res, std::string_view track) {
    const sim::TrackId id = trace.intern(track);
    trace.counter(id, 0.0, sim.now());
    res.set_trace(trace, id);
  };
  attach(platform.cpu().cores(), "cpu.cores");
  attach(platform.cpu().preproc_workers(), "cpu.preproc_workers");
  attach(platform.host_link(), "pcie.host");
  for (std::size_t i = 0; i < platform.gpu_count(); ++i) {
    GpuModel& g = platform.gpu(i);
    attach(g.compute(), sim::TraceName("gpu", i, ".compute"));
    attach(g.preproc(), sim::TraceName("gpu", i, ".preproc"));
    attach(g.copy_h2d(), sim::TraceName("gpu", i, ".copy_h2d"));
    attach(g.copy_d2h(), sim::TraceName("gpu", i, ".copy_d2h"));
  }
}

}  // namespace serve::hw
