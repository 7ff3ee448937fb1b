#include "sim/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace serve::sim {

namespace {

constexpr std::size_t kMaxVarintBytes = 10;
/// Tag byte of a counter value stored as raw IEEE bytes. Odd, so it never
/// collides with the first byte of varint(2k).
constexpr std::uint8_t kRawValueTag = 1;

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Zigzag varint of t - last, computed modulo 2^64 so any pair of times
/// round-trips.
std::uint8_t* put_delta(std::uint8_t* p, Time t, Time last) noexcept {
  const std::uint64_t d = static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(last);
  return put_varint(p, (d << 1) ^ (0 - (d >> 63)));
}

/// Sequential reader over a ChunkStream's chunks; the caller knows how
/// many records there are, so it never reads past the end.
class ChunkReader {
 public:
  explicit ChunkReader(const std::vector<std::unique_ptr<std::uint8_t[]>>& chunks) noexcept
      : chunks_(chunks) {}

  std::uint64_t varint() noexcept {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = byte();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  /// Decodes a zigzag delta against `last` and advances it.
  Time time(Time& last) noexcept {
    const std::uint64_t z = varint();
    const std::uint64_t d = (z >> 1) ^ (0 - (z & 1));
    last = static_cast<Time>(static_cast<std::uint64_t>(last) + d);
    return last;
  }

  void bytes(void* out, std::size_t n) noexcept {
    auto* dst = static_cast<std::uint8_t*>(out);
    while (n > 0) {
      next_chunk_if_full();
      const std::size_t take = std::min(n, TraceRecorder::kChunkBytes - pos_);
      std::memcpy(dst, chunks_[chunk_].get() + pos_, take);
      dst += take;
      pos_ += take;
      n -= take;
    }
  }

 private:
  std::uint8_t byte() noexcept {
    next_chunk_if_full();
    return chunks_[chunk_][pos_++];
  }

  void next_chunk_if_full() noexcept {
    if (pos_ == TraceRecorder::kChunkBytes) {
      ++chunk_;
      pos_ = 0;
    }
  }

  const std::vector<std::unique_ptr<std::uint8_t[]>>& chunks_;
  std::size_t chunk_ = 0;
  std::size_t pos_ = 0;
};

void write_escaped(std::ostream& os, std::string_view s) {
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

}  // namespace

void TraceRecorder::ChunkStream::append_across_chunks(const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    if (cur == end) {
      chunks.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes));
      cur = chunks.back().get();
      end = cur + kChunkBytes;
    }
    const std::size_t take = std::min(n, static_cast<std::size_t>(end - cur));
    std::memcpy(cur, p, take);
    cur += take;
    p += take;
    n -= take;
  }
}

void TraceRecorder::ChunkStream::clear() noexcept {
  chunks.clear();
  chunks.shrink_to_fit();
  cur = end = nullptr;
  count = 0;
  last = 0;
}

std::uint32_t TraceRecorder::intern_id(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  ids_.emplace(strings_.emplace_back(s), id);
  return id;
}

void TraceRecorder::counter(TrackId track, double value, Time t) {
  const auto k = static_cast<std::uint64_t>(value >= 0.0 && value < 0x1p53 ? value : 0.0);
  if (static_cast<double>(k) == value && !std::signbit(value)) {
    counter(track, k, t);
    return;
  }
  if (!admit()) return;
  std::uint8_t buf[2 * kMaxVarintBytes + 1 + sizeof(double)];
  std::uint8_t* p = put_varint(buf, static_cast<std::uint32_t>(track));
  p = put_delta(p, t, counters_.last);
  counters_.last = t;
  *p++ = kRawValueTag;
  std::memcpy(p, &value, sizeof value);
  p += sizeof value;
  counters_.append(buf, static_cast<std::size_t>(p - buf));
  ++counters_.count;
}

void TraceRecorder::counter(TrackId track, std::uint64_t value, Time t) {
  // Past 2^53 a count is stored as the double it converts to, exactly as
  // the double overload stores it.
  if (value >= (std::uint64_t{1} << 53)) {
    counter(track, static_cast<double>(value), t);
    return;
  }
  if (!admit()) return;
  std::uint8_t buf[3 * kMaxVarintBytes];
  std::uint8_t* p = put_varint(buf, static_cast<std::uint32_t>(track));
  p = put_delta(p, t, counters_.last);
  counters_.last = t;
  p = put_varint(p, value << 1);
  counters_.append(buf, static_cast<std::size_t>(p - buf));
  ++counters_.count;
}

// Record: varint track id, varint name id, zigzag time delta, [varint
// duration, spans only], varint arg count, then per arg a varint key id and
// the value as varint length + bytes (an integer as its decimal digits).
void TraceRecorder::record_event(ChunkStream& stream, std::string_view track,
                                 std::string_view name, Time t, std::optional<Time> end,
                                 TraceArgs args) {
  std::uint8_t buf[5 * kMaxVarintBytes];
  std::uint8_t* p = put_varint(buf, intern_id(track));
  p = put_varint(p, intern_id(name));
  p = put_delta(p, t, stream.last);
  stream.last = t;
  if (end) p = put_varint(p, static_cast<std::uint64_t>(*end) - static_cast<std::uint64_t>(t));
  p = put_varint(p, args.size());
  stream.append(buf, static_cast<std::size_t>(p - buf));
  for (const auto& [key, typed] : args) {
    const auto* n = std::get_if<std::uint64_t>(&typed);
    const TraceName digits = n != nullptr ? TraceName(*n) : TraceName();
    const std::string_view value = n != nullptr ? digits : std::get<std::string_view>(typed);
    p = put_varint(buf, intern_id(key));
    p = put_varint(p, value.size());
    stream.append(buf, static_cast<std::size_t>(p - buf));
    if (!value.empty()) {
      stream.append(reinterpret_cast<const std::uint8_t*>(value.data()), value.size());
    }
  }
  ++stream.count;
}

std::size_t TraceRecorder::memory_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const ChunkStream* s : {&spans_, &counters_, &instants_}) {
    bytes += s->chunks.capacity() * sizeof(s->chunks[0]) + s->chunks.size() * kChunkBytes;
  }
  const std::size_t inline_capacity = std::string().capacity();
  for (const std::string& str : strings_) {
    bytes += sizeof str;
    if (str.capacity() > inline_capacity) bytes += str.capacity() + 1;
  }
  // Buckets plus one node (next pointer, key view, id, cached hash) per id.
  bytes += ids_.bucket_count() * sizeof(void*) +
           ids_.size() * (2 * sizeof(void*) + sizeof(std::pair<std::string_view, std::uint32_t>));
  return bytes;
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  // Thread ids follow each track's first appearance (spans, then counters,
  // then instants); 0 = not seen yet.
  std::vector<int> tids(strings_.size(), 0);
  int next_tid = 0;
  bool first = true;
  // Opens one event object, up to and including its "tid".
  const auto begin_event = [&](const char* ph, std::uint64_t track) {
    os << (first ? "\n" : ",\n");
    first = false;
    int& tid = tids[track];
    if (tid == 0) tid = ++next_tid;
    os << R"({"ph":")" << ph << R"(","pid":1,"tid":)" << tid;
  };

  std::string value;
  const auto write_events = [&](const ChunkStream& stream, bool spans) {
    ChunkReader reader{stream.chunks};
    Time last = 0;
    for (std::size_t n = 0; n < stream.count; ++n) {
      begin_event(spans ? "X" : "i", reader.varint());
      os << ",\"name\":";
      write_escaped(os, strings_[reader.varint()]);
      os << ",\"ts\":";
      write_number(os, to_microseconds(reader.time(last)));
      if (spans) {
        os << ",\"dur\":";
        write_number(os, to_microseconds(static_cast<Time>(reader.varint())));
      } else {
        // "s":"t" scopes the marker to its thread (track) lane.
        os << R"(,"s":"t")";
      }
      const std::uint64_t nargs = reader.varint();
      if (nargs > 0) {
        os << ",\"args\":{";
        for (std::uint64_t a = 0; a < nargs; ++a) {
          if (a > 0) os << ",";
          write_escaped(os, strings_[reader.varint()]);
          os << ":";
          value.resize(reader.varint());
          reader.bytes(value.data(), value.size());
          write_escaped(os, value);
        }
        os << "}";
      }
      os << "}";
    }
  };

  os << "{\"traceEvents\":[";
  write_events(spans_, true);
  ChunkReader reader{counters_.chunks};
  Time last = 0;
  for (std::size_t n = 0; n < counters_.count; ++n) {
    const std::uint64_t track = reader.varint();
    const Time t = reader.time(last);
    const std::uint64_t word = reader.varint();
    double v = static_cast<double>(word >> 1);
    if (word == kRawValueTag) reader.bytes(&v, sizeof v);
    begin_event("C", track);
    os << ",\"name\":";
    write_escaped(os, strings_[track]);
    os << ",\"ts\":";
    write_number(os, to_microseconds(t));
    os << ",\"args\":{\"value\":";
    write_number(os, v);
    os << "}}";
  }
  write_events(instants_, false);

  std::vector<std::uint32_t> named;
  for (std::uint32_t id = 0; id < tids.size(); ++id) {
    if (tids[id] != 0) named.push_back(id);
  }
  std::sort(named.begin(), named.end(),
            [this](std::uint32_t a, std::uint32_t b) { return strings_[a] < strings_[b]; });
  for (const std::uint32_t id : named) {
    begin_event("M", id);
    os << R"(,"name":"thread_name","args":{"name":)";
    write_escaped(os, strings_[id]);
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace serve::sim
