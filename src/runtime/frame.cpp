#include "runtime/frame.h"

#include <cstring>
#include <stdexcept>

namespace deepsecure::runtime {
namespace {

constexpr size_t kMaxFrameBytes = 1 << 20;  // control frames are tiny

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  const size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  const size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

uint32_t get_u32(const std::vector<uint8_t>& in, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, in.data() + at, 4);
  return v;
}

uint64_t get_u64(const std::vector<uint8_t>& in, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, in.data() + at, 8);
  return v;
}

}  // namespace

void send_frame(Channel& ch, FrameType type, const void* payload, size_t n) {
  const uint8_t t = static_cast<uint8_t>(type);
  const uint32_t len = static_cast<uint32_t>(n);
  ch.send_bytes(&t, 1);
  ch.send_bytes(&len, 4);
  if (n > 0) ch.send_bytes(payload, n);
}

Frame recv_frame(Channel& ch) {
  uint8_t t = 0;
  uint32_t len = 0;
  ch.recv_bytes(&t, 1);
  ch.recv_bytes(&len, 4);
  if (t < 1 || t > 12 || len > kMaxFrameBytes)
    throw std::runtime_error("runtime: malformed session frame");
  Frame f;
  f.type = static_cast<FrameType>(t);
  f.payload.resize(len);
  if (len > 0) ch.recv_bytes(f.payload.data(), len);
  if (f.type == FrameType::kError) {
    // v6 payload is [u8 ErrorCode][utf-8 reason]; the code travels on
    // the exception, the message stays "runtime: peer error: <reason>".
    const bool coded = !f.payload.empty();
    throw SessionError(
        coded ? static_cast<ErrorCode>(f.payload[0]) : ErrorCode::kUnspecified,
        "runtime: peer error: " +
            std::string(f.payload.begin() + (coded ? 1 : 0), f.payload.end()));
  }
  return f;
}

void send_id_frame(Channel& ch, FrameType type, uint64_t id) {
  uint8_t payload[8];
  std::memcpy(payload, &id, 8);
  send_frame(ch, type, payload, sizeof(payload));
}

uint64_t parse_id(const Frame& f) {
  if (f.payload.size() != 8)
    throw std::runtime_error("runtime: bad material id payload");
  return get_u64(f.payload, 0);
}

void send_hello(Channel& ch, const Hello& h) {
  std::vector<uint8_t> p;
  put_u64(p, h.magic);
  put_u32(p, h.version);
  put_u64(p, h.fingerprint);
  p.push_back(h.flags.encode());
  send_frame(ch, FrameType::kHello, p.data(), p.size());
}

Hello parse_hello(const Frame& f) {
  if (f.type != FrameType::kHello || f.payload.size() != 8 + 4 + 8 + 1)
    throw std::runtime_error("runtime: bad hello frame");
  Hello h;
  h.magic = get_u64(f.payload, 0);
  h.version = get_u32(f.payload, 8);
  h.fingerprint = get_u64(f.payload, 12);
  h.flags = SessionFlags::decode(f.payload[20]);
  return h;
}

void send_hello_ack(Channel& ch, const HelloAck& a) {
  std::vector<uint8_t> p;
  put_u64(p, a.fingerprint);
  put_u64(p, a.prefetch_quota);
  put_u64(p, a.lane_token);
  p.push_back(static_cast<uint8_t>(a.lane_port & 0xFF));
  p.push_back(static_cast<uint8_t>(a.lane_port >> 8));
  send_frame(ch, FrameType::kHelloAck, p.data(), p.size());
}

HelloAck parse_hello_ack(const Frame& f) {
  if (f.type != FrameType::kHelloAck || f.payload.size() != 8 + 8 + 8 + 2)
    throw std::runtime_error("runtime: bad hello ack frame");
  HelloAck a;
  a.fingerprint = get_u64(f.payload, 0);
  a.prefetch_quota = get_u64(f.payload, 8);
  a.lane_token = get_u64(f.payload, 16);
  a.lane_port = static_cast<uint16_t>(f.payload[24]) |
                (static_cast<uint16_t>(f.payload[25]) << 8);
  return a;
}

void send_error(Channel& ch, ErrorCode code, const std::string& reason) {
  std::vector<uint8_t> p;
  p.reserve(1 + reason.size());
  p.push_back(static_cast<uint8_t>(code));
  p.insert(p.end(), reason.begin(), reason.end());
  send_frame(ch, FrameType::kError, p.data(), p.size());
}

void send_error(Channel& ch, const std::string& reason) {
  send_error(ch, ErrorCode::kUnspecified, reason);
}

void send_busy(Channel& ch, uint32_t retry_after_ms) {
  send_frame(ch, FrameType::kBusy, &retry_after_ms, sizeof(retry_after_ms));
}

uint32_t parse_busy(const Frame& f) {
  if (f.type != FrameType::kBusy || f.payload.size() != 4)
    throw std::runtime_error("runtime: bad busy frame");
  return get_u32(f.payload, 0);
}

uint64_t served_fingerprint(const synth::ServedModel& model) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = fmix64(h ^ v); };
  mix(model.stages.size());
  for (const synth::ServedStage& stage : model.stages) {
    mix(chain_fingerprint(stage.chain));
    const synth::FrontPlan& plan = stage.front;
    mix(plan.fmt.total_bits);
    mix(plan.fmt.frac_bits);
    mix(plan.inputs);
    mix(plan.weights);
    for (const synth::FrontProduct& p : plan.products)
      mix((uint64_t{p.input} << 32) | p.weight);
    for (uint32_t v : plan.first) mix(v);
    for (uint32_t v : plan.bias) mix(v);
  }
  return h;
}

}  // namespace deepsecure::runtime
