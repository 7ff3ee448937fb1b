// Tests for the broker subsystem: simulated Kafka/Redis profiles, the real
// in-process broker (threads), and the disk-backed log broker (files, CRC,
// recovery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/file_log_broker.h"
#include "broker/in_process_broker.h"
#include "core/face_pipeline.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "xorshift.h"

namespace serve::broker {
namespace {

// --- SimBroker ---------------------------------------------------------------

TEST(SimBroker, DeliversInOrderWithLatency) {
  sim::Simulator sim;
  BrokerProfile profile{.name = "test", .publish_service_s = 1e-3, .consume_latency_s = 0.5e-3,
                        .io_threads = 1};
  SimBroker<int> broker{sim, profile};
  std::vector<int> got;
  std::vector<sim::Time> when;
  auto producer = [&](sim::Simulator&) -> sim::Process {
    for (int i = 0; i < 3; ++i) co_await broker.publish(i);
  };
  auto consumer = [&](sim::Simulator& s) -> sim::Process {
    while (true) {
      auto v = co_await broker.consume();
      if (!v) break;
      got.push_back(*v);
      when.push_back(s.now());
    }
  };
  sim.spawn(producer(sim));
  sim.spawn(consumer(sim));
  sim.schedule_at(sim::seconds(1.0), [&] { broker.close(); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
  // First message visible after publish service (1ms) + consume (0.5ms).
  EXPECT_EQ(when[0], sim::microseconds(1500));
  EXPECT_EQ(broker.published(), 3u);
  EXPECT_EQ(broker.consumed(), 3u);
}

sim::Process publish_once(sim::Simulator& sim, SimBroker<int>& broker, sim::Time& done_at) {
  co_await broker.publish(0);
  done_at = std::max(done_at, sim.now());
}

TEST(SimBroker, IoThreadsBoundPublishRate) {
  // 10 parallel publishers, 1 ms service each: 1 io thread finishes the last
  // publish at 10 ms, 4 io threads at ceil(10/4) = 3 ms.
  sim::Simulator sim;
  SimBroker<int> one{sim, {.name = "one", .publish_service_s = 1e-3, .io_threads = 1}};
  SimBroker<int> four{sim, {.name = "four", .publish_service_s = 1e-3, .io_threads = 4}};
  sim::Time done_one = 0, done_four = 0;
  for (int i = 0; i < 10; ++i) {
    sim.spawn(publish_once(sim, one, done_one));
    sim.spawn(publish_once(sim, four, done_four));
  }
  sim.run();
  EXPECT_EQ(done_one, sim::milliseconds(10));
  EXPECT_EQ(done_four, sim::milliseconds(3));
}

TEST(SimBroker, ProfilesReflectCalibration) {
  const auto calib = hw::default_calibration().broker;
  const auto kafka = kafka_profile(calib);
  const auto redis = redis_profile(calib);
  EXPECT_TRUE(kafka.disk_backed);
  EXPECT_FALSE(redis.disk_backed);
  EXPECT_GT(kafka.publish_service_s, redis.publish_service_s * 10);
}

// --- Face pipeline (Fig. 11 system) -----------------------------------------

TEST(FacePipeline, RedisBeatsKafkaAtHighFaceCounts) {
  core::FacePipelineSpec spec;
  spec.faces_per_frame = 25;
  spec.concurrency = 16;
  spec.measure = sim::seconds(10.0);
  spec.broker = core::BrokerKind::kKafka;
  const auto kafka = core::run_face_pipeline(spec);
  spec.broker = core::BrokerKind::kRedis;
  const auto redis = core::run_face_pipeline(spec);
  // Paper: 125% throughput improvement (2.25x).
  EXPECT_GT(redis.frames_per_s, kafka.frames_per_s * 1.8);
  EXPECT_LT(redis.frames_per_s, kafka.frames_per_s * 2.8);
}

TEST(FacePipeline, FusedWinsAtLowFaceCountsRedisAtHigh) {
  core::FacePipelineSpec spec;
  spec.concurrency = 16;
  spec.measure = sim::seconds(8.0);
  spec.faces_per_frame = 2;
  spec.broker = core::BrokerKind::kFused;
  const auto fused_low = core::run_face_pipeline(spec);
  spec.broker = core::BrokerKind::kRedis;
  const auto redis_low = core::run_face_pipeline(spec);
  EXPECT_GT(fused_low.frames_per_s, redis_low.frames_per_s);

  spec.faces_per_frame = 20;
  const auto redis_high = core::run_face_pipeline(spec);
  spec.broker = core::BrokerKind::kFused;
  const auto fused_high = core::run_face_pipeline(spec);
  EXPECT_GT(redis_high.frames_per_s, fused_high.frames_per_s);
}

TEST(FacePipeline, BrokerLatencyShares) {
  core::FacePipelineSpec spec;
  spec.faces_per_frame = 25;
  spec.concurrency = 1;  // zero load
  spec.measure = sim::seconds(20.0);
  spec.broker = core::BrokerKind::kKafka;
  const auto kafka = core::run_face_pipeline(spec);
  spec.broker = core::BrokerKind::kRedis;
  const auto redis = core::run_face_pipeline(spec);
  // Paper: Kafka ~71% of latency, Redis ~6%.
  EXPECT_GT(kafka.broker_share(), 0.55);
  EXPECT_LT(kafka.broker_share(), 0.85);
  EXPECT_GT(redis.broker_share(), 0.01);
  EXPECT_LT(redis.broker_share(), 0.12);
  // Paper: 67% zero-load latency improvement.
  EXPECT_LT(redis.mean_latency_s, kafka.mean_latency_s * 0.45);
}

TEST(FacePipeline, StochasticFacesRun) {
  core::FacePipelineSpec spec;
  spec.faces_per_frame = 5;
  spec.stochastic_faces = true;
  spec.concurrency = 4;
  spec.measure = sim::seconds(5.0);
  const auto r = core::run_face_pipeline(spec);
  EXPECT_GT(r.frames, 50u);
  EXPECT_GT(r.faces_per_s, r.frames_per_s);  // >1 face per frame on average
}

// --- Real in-process broker ---------------------------------------------------

TEST(InProcessBroker, ThreadedProducerConsumer) {
  InProcessBroker<int> broker{64};
  std::vector<int> got;
  std::thread consumer{[&] {
    while (auto v = broker.consume()) got.push_back(*v);
  }};
  std::thread producer{[&] {
    for (int i = 0; i < 1000; ++i) broker.publish(i);
    broker.close();
  }};
  producer.join();
  consumer.join();
  ASSERT_EQ(got.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(InProcessBroker, TryOpsAndCapacity) {
  InProcessBroker<int> broker{2};
  EXPECT_TRUE(broker.try_publish(1));
  EXPECT_TRUE(broker.try_publish(2));
  EXPECT_FALSE(broker.try_publish(3));  // full
  EXPECT_EQ(broker.depth(), 2u);
  EXPECT_EQ(broker.try_consume().value(), 1);
  EXPECT_TRUE(broker.try_publish(3));
}

TEST(InProcessBroker, PublishAfterCloseThrows) {
  InProcessBroker<int> broker;
  broker.close();
  EXPECT_THROW(broker.publish(1), std::runtime_error);
  EXPECT_EQ(broker.consume(), std::nullopt);
}

// --- Real file-backed log broker ----------------------------------------------

class FileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("servescope_log_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(FileLogTest, PublishReadRoundTrip) {
  FileLogBroker log{{.dir = dir_}};
  EXPECT_EQ(log.publish("hello"), 0u);
  EXPECT_EQ(log.publish("world"), 1u);
  EXPECT_EQ(log.read(0).value(), "hello");
  EXPECT_EQ(log.read(1).value(), "world");
  EXPECT_EQ(log.read(2), std::nullopt);
  EXPECT_EQ(log.size(), 2u);
}

TEST_F(FileLogTest, SurvivesRestart) {
  {
    FileLogBroker log{{.dir = dir_}};
    for (int i = 0; i < 50; ++i) log.publish("msg-" + std::to_string(i));
  }
  FileLogBroker reopened{{.dir = dir_}};
  EXPECT_EQ(reopened.size(), 50u);
  EXPECT_EQ(reopened.read(17).value(), "msg-17");
  // Appends continue after the recovered offset.
  EXPECT_EQ(reopened.publish("after-restart"), 50u);
  EXPECT_EQ(reopened.read(50).value(), "after-restart");
}

TEST_F(FileLogTest, RollsSegments) {
  FileLogBroker log{{.dir = dir_, .segment_bytes = 256}};
  for (int i = 0; i < 40; ++i) log.publish(std::string(32, 'x'));
  EXPECT_GT(log.segment_count(), 3u);
  EXPECT_EQ(log.read(39).value(), std::string(32, 'x'));
}

TEST_F(FileLogTest, DetectsCorruption) {
  {
    FileLogBroker log{{.dir = dir_}};
    log.publish("to-be-corrupted-record-with-some-length");
  }
  // Flip a payload byte on disk.
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) seg = e.path();
  {
    std::fstream f{seg, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(12);
    f.put('X');
  }
  EXPECT_THROW(FileLogBroker({.dir = dir_}), std::runtime_error);
}

TEST_F(FileLogTest, EmptyPayloadAndOptions) {
  EXPECT_THROW(FileLogBroker({.dir = dir_, .fsync_interval = 0}), std::invalid_argument);
  FileLogBroker log{{.dir = dir_, .fsync_interval = 8}};
  log.publish("");
  EXPECT_EQ(log.read(0).value(), "");
}

TEST_F(FileLogTest, TornTailTruncatedWhenTolerant) {
  {
    FileLogBroker log{{.dir = dir_}};
    log.publish("complete-record-one");
    log.publish("complete-record-two");
  }
  // Simulate a crash mid-append: write a partial header at the tail.
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) seg = e.path();
  {
    std::ofstream f{seg, std::ios::binary | std::ios::app};
    f.write("\x40\x00", 2);  // half a length field
  }
  // Strict recovery refuses; tolerant recovery drops the torn tail.
  EXPECT_THROW(FileLogBroker({.dir = dir_}), std::runtime_error);
  FileLogBroker recovered{{.dir = dir_, .tolerate_torn_tail = true}};
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.read(1).value(), "complete-record-two");
  // Appends continue cleanly after truncation.
  recovered.publish("after-crash");
  EXPECT_EQ(recovered.read(2).value(), "after-crash");
}

TEST_F(FileLogTest, MidLogCorruptionStillThrowsWhenTolerant) {
  {
    FileLogBroker log{{.dir = dir_}};
    log.publish("first-record-with-some-payload");
    log.publish("second-record-with-some-payload");
  }
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) seg = e.path();
  {
    std::fstream f{seg, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(12);  // inside the FIRST record's payload
    f.put('X');
  }
  // Not a torn tail: data follows the bad record, so even tolerant recovery
  // must refuse rather than silently lose acknowledged writes.
  EXPECT_THROW(FileLogBroker({.dir = dir_, .tolerate_torn_tail = true}), std::runtime_error);
}

TEST_F(FileLogTest, CorruptedLengthFieldDoesNotAllocateOrTruncateValidRecords) {
  // Regression: recovery used to trust the on-disk length field before
  // validating it — a corrupted header could drive a ~4 GiB allocation, and
  // an inflated length made the torn-tail heuristic classify mid-file
  // corruption as a tail and silently truncate valid later records.
  {
    FileLogBroker log{{.dir = dir_}};
    log.publish("first-record-payload");   // [0, 28)
    log.publish("middle-record-payload");  // [28, 57)
    log.publish("third-record-payload");   // [57, 85)
  }
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) seg = e.path();
  const auto original_size = std::filesystem::file_size(seg);
  {
    // Inflate the MIDDLE record's length field to ~4 GiB.
    std::fstream f{seg, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(28);
    const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};
    f.write(huge, 4);
  }
  // Strict and tolerant recovery must both refuse: the claimed record
  // extends past EOF mid-file, so truncating would discard the (valid)
  // third record — exactly the data loss the old heuristic caused.
  EXPECT_THROW(FileLogBroker({.dir = dir_}), std::runtime_error);
  EXPECT_THROW(FileLogBroker({.dir = dir_, .tolerate_torn_tail = true}), std::runtime_error);
  // The refusal must leave the file untouched (no truncation side effect).
  EXPECT_EQ(std::filesystem::file_size(seg), original_size);
}

TEST_F(FileLogTest, TailRecordExtendingPastEofIsTruncatedWhenTolerant) {
  // A record whose header claims more bytes than the file holds is the
  // shape an interrupted append leaves — tolerant recovery truncates it.
  {
    FileLogBroker log{{.dir = dir_}};
    log.publish("durable-record");
  }
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) seg = e.path();
  {
    // Append a full header promising 64 payload bytes, then only 5 bytes.
    std::ofstream f{seg, std::ios::binary | std::ios::app};
    const std::uint32_t len = 64, crc = 0;
    f.write(reinterpret_cast<const char*>(&len), 4);
    f.write(reinterpret_cast<const char*>(&crc), 4);
    f.write("torns", 5);
  }
  EXPECT_THROW(FileLogBroker({.dir = dir_}), std::runtime_error);
  FileLogBroker recovered{{.dir = dir_, .tolerate_torn_tail = true}};
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.read(0).value(), "durable-record");
  recovered.publish("after-crash");
  EXPECT_EQ(recovered.read(1).value(), "after-crash");
}

TEST_F(FileLogTest, FullyWrittenCorruptTailRecordStillThrowsWhenTolerant) {
  // A record completely on disk with a bad CRC is corruption, not a torn
  // write — tolerant recovery must not silently discard it.
  {
    FileLogBroker log{{.dir = dir_}};
    log.publish("first-record-payload");
    log.publish("last-record-gets-corrupted");
  }
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) seg = e.path();
  {
    std::fstream f{seg, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(-3, std::ios::end);  // inside the LAST record's payload
    f.put('X');
  }
  EXPECT_THROW(FileLogBroker({.dir = dir_, .tolerate_torn_tail = true}), std::runtime_error);
}

TEST_F(FileLogTest, TornWriteAtEveryByteOffsetRecovers) {
  // A crash can cut the segment at any byte. Strict recovery must either
  // recover exactly the complete records (the cut falls on a record
  // boundary) or throw std::runtime_error; tolerant recovery must recover
  // exactly the complete records and then append cleanly. Any other
  // exception escapes and fails the test.
  const std::vector<std::string> records = {"first", "second-record", ""};
  const auto source = dir_ / "source";
  {
    FileLogBroker log{{.dir = source}};
    for (const auto& r : records) log.publish(r);
  }
  const auto segment = source / "00000000.log";
  const auto full_size = std::filesystem::file_size(segment);
  std::vector<std::uintmax_t> ends;  // end offset of each record
  for (const auto& r : records) ends.push_back((ends.empty() ? 0 : ends.back()) + 8 + r.size());
  ASSERT_EQ(ends.back(), full_size);

  const auto cut = dir_ / "cut";
  for (std::uintmax_t size = 0; size <= full_size; ++size) {
    SCOPED_TRACE("segment cut to " + std::to_string(size) + " bytes");
    const auto complete = static_cast<std::uint64_t>(
        std::upper_bound(ends.begin(), ends.end(), size) - ends.begin());
    const bool on_boundary = size == 0 || std::find(ends.begin(), ends.end(), size) != ends.end();
    const auto expect_complete_records = [&](const FileLogBroker& log) {
      ASSERT_EQ(log.size(), complete);
      for (std::uint64_t i = 0; i < complete; ++i) EXPECT_EQ(log.read(i).value(), records[i]);
    };
    const auto fresh_cut = [&] {
      std::filesystem::remove_all(cut);
      std::filesystem::create_directories(cut);
      std::filesystem::copy_file(segment, cut / segment.filename());
      std::filesystem::resize_file(cut / segment.filename(), size);
    };

    fresh_cut();
    try {
      const FileLogBroker strict{{.dir = cut}};
      EXPECT_TRUE(on_boundary) << "strict recovery accepted a torn record";
      expect_complete_records(strict);
    } catch (const std::runtime_error&) {
      EXPECT_FALSE(on_boundary) << "strict recovery refused an intact log";
    }

    fresh_cut();
    {
      FileLogBroker tolerant{{.dir = cut, .tolerate_torn_tail = true}};
      expect_complete_records(tolerant);
      EXPECT_EQ(tolerant.publish("after-crash"), complete);
    }
    const FileLogBroker reopened{{.dir = cut}};
    ASSERT_EQ(reopened.size(), complete + 1);
    EXPECT_EQ(reopened.read(complete).value(), "after-crash");
  }
}

TEST_F(FileLogTest, FsyncCadenceSurvivesSegmentRotation) {
  // Regression: the append counter was not reset when rotation fsynced the
  // old segment, so the new segment's first record could be synced
  // off-cadence. With 32-byte records, 64-byte segments, and interval 3,
  // every sync must come from rotation (2 appends per segment < 3) — the
  // buggy counter produced extra cadence syncs in fresh segments.
  FileLogBroker log{{.dir = dir_, .segment_bytes = 64, .fsync_interval = 3}};
  const std::string payload(24, 'p');  // 8-byte header + 24 = 32 bytes/record
  for (int i = 0; i < 6; ++i) log.publish(payload);
  EXPECT_EQ(log.segment_count(), 3u);
  EXPECT_EQ(log.fsync_count(), 2u);  // exactly the two rotations
}

TEST_F(FileLogTest, TornWriteInTailSegmentKeepsEarlierSegments) {
  // Six 18-byte records in 24-byte segments: two records per segment, three
  // segments. A crash can only tear the tail segment; recovery must keep the
  // two full segments before it. A cut in an earlier segment is corruption,
  // which even tolerant recovery refuses.
  constexpr std::uint64_t kSegmentBytes = 24, kRecordBytes = 18;
  const auto payload = [](std::uint64_t i) { return "payload-0" + std::to_string(i); };
  const auto source = dir_ / "source";
  {
    FileLogBroker log{{.dir = source, .segment_bytes = kSegmentBytes}};
    for (std::uint64_t i = 0; i < 6; ++i) log.publish(payload(i));
    ASSERT_EQ(log.segment_count(), 3u);
  }
  const auto cut = dir_ / "cut";
  const auto fresh_cut = [&](const char* segment, std::uintmax_t size) {
    std::filesystem::remove_all(cut);
    std::filesystem::copy(source, cut);
    std::filesystem::resize_file(cut / segment, size);
  };

  for (std::uint64_t size = 0; size <= 2 * kRecordBytes; ++size) {
    SCOPED_TRACE("tail segment cut to " + std::to_string(size) + " bytes");
    const std::uint64_t kept = 4 + size / kRecordBytes;
    const auto expect_kept_records = [&](const FileLogBroker& log) {
      ASSERT_EQ(log.size(), kept);
      for (std::uint64_t i = 0; i < kept; ++i) EXPECT_EQ(log.read(i).value(), payload(i));
    };
    fresh_cut("00000002.log", size);
    try {
      const FileLogBroker strict{{.dir = cut, .segment_bytes = kSegmentBytes}};
      EXPECT_EQ(size % kRecordBytes, 0u) << "strict recovery accepted a torn record";
      expect_kept_records(strict);
    } catch (const std::runtime_error&) {
      EXPECT_NE(size % kRecordBytes, 0u) << "strict recovery refused an intact log";
    }

    fresh_cut("00000002.log", size);
    {
      FileLogBroker tolerant{
          {.dir = cut, .segment_bytes = kSegmentBytes, .tolerate_torn_tail = true}};
      expect_kept_records(tolerant);
      EXPECT_EQ(tolerant.publish("after-crash"), kept);
    }
    const FileLogBroker reopened{{.dir = cut, .segment_bytes = kSegmentBytes}};
    ASSERT_EQ(reopened.size(), kept + 1);
    EXPECT_EQ(reopened.read(kept).value(), "after-crash");
  }

  for (std::uint64_t size = 1; size < 2 * kRecordBytes; ++size) {
    if (size == kRecordBytes) continue;
    SCOPED_TRACE("first segment cut to " + std::to_string(size) + " bytes");
    fresh_cut("00000000.log", size);
    EXPECT_THROW(FileLogBroker({.dir = cut, .segment_bytes = kSegmentBytes,
                                .tolerate_torn_tail = true}),
                 std::runtime_error);
  }
}

TEST(FileLogCrc, MatchesKnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
  EXPECT_EQ(FileLogBroker::crc32("123456789", 9), 0xCBF43926u);
}

// More IEEE CRC-32 reference values, from the empty input to 1000 bytes.
struct CrcVector {
  std::string input;
  std::uint32_t crc;
};

class FileLogCrcVectorTest : public ::testing::TestWithParam<CrcVector> {};

TEST_P(FileLogCrcVectorTest, MatchesReferenceValue) {
  const auto& [input, crc] = GetParam();
  EXPECT_EQ(FileLogBroker::crc32(input.data(), input.size()), crc) << '"' << input << '"';
}

INSTANTIATE_TEST_SUITE_P(
    Ieee, FileLogCrcVectorTest,
    ::testing::Values(CrcVector{"", 0x00000000u}, CrcVector{"a", 0xE8B7BE43u},
                      CrcVector{"abc", 0x352441C2u}, CrcVector{"message digest", 0x20159D7Fu},
                      CrcVector{"abcdefghijklmnopqrstuvwxyz", 0x4C2750BDu},
                      CrcVector{"The quick brown fox jumps over the lazy dog", 0x414FA339u},
                      CrcVector{std::string(1000, 'a'), 0x9A38DA03u}));

TEST(FileLogCrc, DetectsEveryBurstUpTo32Bits) {
  // A degree-32 generator with a nonzero constant term catches every error
  // burst of at most 32 bits, single-bit flips included. Each burst flips its
  // first and last bit and a seeded mix of the bits between; bit k is bit
  // k % 8 of byte k / 8, the order in which the reflected CRC consumes them.
  const std::string record = "torn-write burst";
  const std::uint32_t clean = FileLogBroker::crc32(record.data(), record.size());
  fuzz::XorShift rng{0x6275727374ULL};
  for (std::size_t len = 1; len <= 32; ++len) {
    const std::uint64_t ends = 1ULL | 1ULL << (len - 1);
    const std::uint64_t inner = len > 2 ? (1ULL << (len - 1)) - 2 : 0;
    for (std::size_t first = 0; first + len <= 8 * record.size(); ++first) {
      for (int draw = 0; draw < 4; ++draw) {
        std::string burst = record;
        const std::uint64_t mask = ends | (rng.next() & inner);
        for (std::size_t b = 0; b < len; ++b) {
          if (mask >> b & 1) burst[(first + b) / 8] ^= static_cast<char>(1 << ((first + b) % 8));
        }
        ASSERT_NE(FileLogBroker::crc32(burst.data(), burst.size()), clean)
            << len << "-bit burst at bit " << first;
      }
    }
  }
}

}  // namespace
}  // namespace serve::broker
