// google-benchmark micro-benchmarks of the real preprocessing substrate:
// JPEG encode/decode, resize, normalization, and the DCT kernels.
//
// These ground the CpuCalib rates: the measured MPix/s of this codec on the
// build machine documents what "one preprocessing worker" does, while the
// simulator uses the calibrated i9-13900K/libjpeg-turbo-class rates.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <span>

#include "codec/batch_preprocess.h"
#include "codec/dct.h"
#include "codec/jpeg.h"
#include "codec/synthetic.h"
#include "codec/transform.h"
#include "heap_counter.h"
#include "workload/corpus.h"

using namespace serve;

namespace {

/// Minor page faults of the whole process so far.
std::int64_t minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}

/// Counts what the timed loop of a per-image benchmark costs besides time:
/// `allocs_per_req`, every operator new per image (threads included; a
/// bench-check ceiling), and `minflt_per_img`, minor page faults per image
/// (informational: glibc's trimming makes it vary with the host).
class ImageCost {
 public:
  ImageCost() : allocs_(bench::heap_allocs()), faults_(minor_faults()) {}

  void report(benchmark::State& state, std::int64_t images) const {
    if (images <= 0) return;
    const auto n = static_cast<double>(images);
    state.counters["allocs_per_req"] = static_cast<double>(bench::heap_allocs() - allocs_) / n;
    state.counters["minflt_per_img"] = static_cast<double>(minor_faults() - faults_) / n;
  }

 private:
  std::uint64_t allocs_;
  std::int64_t faults_;
};

const workload::CorpusEntry& corpus_entry(hw::ImageSpec spec) {
  static const auto small = workload::make_corpus(hw::kSmallImage, 1, 7)[0];
  static const auto medium = workload::make_corpus(hw::kMediumImage, 1, 7)[0];
  static const auto large = workload::make_corpus(hw::kLargeImage, 1, 7)[0];
  if (spec == hw::kSmallImage) return small;
  if (spec == hw::kLargeImage) return large;
  return medium;
}

double mpix(const hw::ImageSpec& spec) {
  return static_cast<double>(spec.width) * spec.height / 1e6;
}

void BM_JpegEncodeMedium(benchmark::State& state) {
  const codec::Image img = codec::make_synthetic(500, 375, codec::Pattern::kScene, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::encode_jpeg(img, {.quality = 85}));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["MPix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 500 * 375 / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JpegEncodeMedium);

void BM_JpegDecodeSmall(benchmark::State& state) {
  const auto& entry = corpus_entry(hw::kSmallImage);
  for (auto _ : state) benchmark::DoNotOptimize(codec::decode_jpeg(entry.jpeg));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JpegDecodeSmall);

void BM_JpegDecodeMedium(benchmark::State& state) {
  const auto& entry = corpus_entry(hw::kMediumImage);
  for (auto _ : state) benchmark::DoNotOptimize(codec::decode_jpeg(entry.jpeg));
  state.SetItemsProcessed(state.iterations());
  state.counters["MPix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 500 * 375 / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JpegDecodeMedium);

void BM_ResizeMediumTo224(benchmark::State& state) {
  const codec::Image img = codec::make_synthetic(500, 375, codec::Pattern::kScene, 5);
  for (auto _ : state) benchmark::DoNotOptimize(codec::resize(img, 224, 224));
  state.counters["MPix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 500 * 375 / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResizeMediumTo224);

void BM_Normalize224(benchmark::State& state) {
  const codec::Image img = codec::make_synthetic(224, 224, codec::Pattern::kScene, 5);
  for (auto _ : state) benchmark::DoNotOptimize(codec::normalize_chw(img));
  state.counters["MPix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 224 * 224 / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Normalize224);

void BM_FullPreprocessPipelineMedium(benchmark::State& state) {
  // The paper's complete preprocessing stage: decode -> resize -> normalize.
  const auto& entry = corpus_entry(hw::kMediumImage);
  const ImageCost cost;
  for (auto _ : state) {
    const codec::Image decoded = codec::decode_jpeg(entry.jpeg);
    const codec::Image resized = codec::resize(decoded, 224, 224);
    benchmark::DoNotOptimize(codec::normalize_chw(resized));
  }
  cost.report(state, state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPreprocessPipelineMedium);

void BM_JpegDecodeLarge(benchmark::State& state) {
  const auto& entry = corpus_entry(hw::kLargeImage);
  for (auto _ : state) benchmark::DoNotOptimize(codec::decode_jpeg(entry.jpeg));
  state.SetItemsProcessed(state.iterations());
  state.counters["MPix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * mpix(hw::kLargeImage),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JpegDecodeLarge);

void BM_ResizeLargeTo224(benchmark::State& state) {
  const codec::Image img =
      codec::make_synthetic(hw::kLargeImage.width, hw::kLargeImage.height,
                            codec::Pattern::kScene, 5);
  for (auto _ : state) benchmark::DoNotOptimize(codec::resize(img, 224, 224));
  state.counters["MPix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * mpix(hw::kLargeImage),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResizeLargeTo224);

void BM_NormalizeLarge(benchmark::State& state) {
  const codec::Image img =
      codec::make_synthetic(hw::kLargeImage.width, hw::kLargeImage.height,
                            codec::Pattern::kScene, 5);
  for (auto _ : state) benchmark::DoNotOptimize(codec::normalize_chw(img));
  state.counters["MPix/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * mpix(hw::kLargeImage),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NormalizeLarge);

void BM_FullPreprocessPipelineLarge(benchmark::State& state) {
  const auto& entry = corpus_entry(hw::kLargeImage);
  for (auto _ : state) {
    const codec::Image decoded = codec::decode_jpeg(entry.jpeg);
    const codec::Image resized = codec::resize(decoded, 224, 224);
    benchmark::DoNotOptimize(codec::normalize_chw(resized));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPreprocessPipelineLarge);

void BM_CenterCropMedium(benchmark::State& state) {
  const codec::Image img = codec::make_synthetic(500, 375, codec::Pattern::kScene, 5);
  for (auto _ : state) benchmark::DoNotOptimize(codec::center_crop(img, 256));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CenterCropMedium);

void BM_BatchPreprocessMedium(benchmark::State& state) {
  // Thread-scaling of the decode->resize->normalize worker pool over a
  // 32-image medium corpus (items/s here is images per second).
  static const auto corpus = workload::make_corpus(hw::kMediumImage, 32, 11, 4);
  static const auto jpegs = [] {
    std::vector<std::vector<std::uint8_t>> j;
    j.reserve(corpus.size());
    for (const auto& e : corpus) j.push_back(e.jpeg);
    return j;
  }();
  codec::BatchPreprocessor pool{static_cast<int>(state.range(0))};
  const ImageCost cost;
  for (auto _ : state) benchmark::DoNotOptimize(pool.run(jpegs, {}));
  cost.report(state, state.iterations() * static_cast<std::int64_t>(jpegs.size()));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jpegs.size()));
}
BENCHMARK(BM_BatchPreprocessMedium)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_PreprocessOneImageMedium(benchmark::State& state) {
  // Zero-load latency: one medium JPEG per batch, the substrate benchmark's
  // p50 condition. On two threads the pool runs the image's entropy
  // decoding and the rest of its pipeline side by side.
  const auto& entry = corpus_entry(hw::kMediumImage);
  const std::vector<std::span<const std::uint8_t>> batch{entry.jpeg};
  codec::BatchPreprocessor pool{static_cast<int>(state.range(0))};
  for (auto _ : state) benchmark::DoNotOptimize(pool.run(batch));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreprocessOneImageMedium)->Arg(1)->Arg(2)->UseRealTime();

void BM_JpegEncodeOptimizedHuffman(benchmark::State& state) {
  const codec::Image img = codec::make_synthetic(500, 375, codec::Pattern::kScene, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::encode_jpeg(img, {.quality = 85, .optimize_huffman = true}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JpegEncodeOptimizedHuffman);

void BM_Fdct8x8(benchmark::State& state) {
  float in[64], out[64];
  for (int i = 0; i < 64; ++i) in[i] = static_cast<float>((i * 37) % 255) - 128.0f;
  for (auto _ : state) {
    codec::jpeg::fdct8x8(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fdct8x8);

void BM_Idct8x8(benchmark::State& state) {
  float in[64], out[64];
  for (int i = 0; i < 64; ++i) in[i] = static_cast<float>((i * 17) % 101);
  for (auto _ : state) {
    codec::jpeg::idct8x8(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Idct8x8);

void BM_Idct8x8Scaled(benchmark::State& state) {
  // The decoder's actual inner transform: prescale already folded into the
  // quant tables, SIMD-dispatched (scalar under SERVESCOPE_SIMD=scalar).
  float in[64], out[64];
  const auto& scale = codec::jpeg::idct_prescale();
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<float>((i * 17) % 101) * scale[static_cast<std::size_t>(i)];
  }
  for (auto _ : state) {
    codec::jpeg::idct8x8_scaled(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Idct8x8Scaled);

}  // namespace

// Not BENCHMARK_MAIN(): the app-level build type goes into the JSON context
// so `servescope bench-check` can refuse debug-build numbers (google-benchmark's own
// "library_build_type" describes the system library, not this binary).
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("build_type", "release");
#else
  benchmark::AddCustomContext("build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
