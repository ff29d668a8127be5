#include "runtime/client.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>

#include "crypto/prg.h"
#include "obs/trace.h"
#include "runtime/front.h"
#include "support/bits.h"

namespace deepsecure::runtime {
namespace {

// Process-wide self-healing aggregates (Registry::global()): surfaced
// by the server's stats_json "resilience" block. The per-client exact
// counters (retries()/sessions_recovered()) remain the source of truth
// for assertions.
obs::Counter& retries_counter() {
  static obs::Counter& c = obs::Registry::global().counter("client.retries");
  return c;
}
obs::Counter& recovered_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("client.sessions_recovered");
  return c;
}

uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

InferenceClient::InferenceClient(const std::string& host, uint16_t port,
                                 const synth::ModelSpec& spec,
                                 ClientConfig cfg)
    : fmt_(spec.fmt), cfg_(cfg), host_(host), port_(port) {
  synth::ServedModel served = walked_served(spec);
  fingerprint_ = served_fingerprint(served);
  stages_ = std::move(served.stages);
  backoff_rng_ ^= cfg_.chaos.seed;  // deterministic jitter under chaos
  connect_and_handshake();
  open_ = true;

  if (cfg_.pool_target > 0) {
    // Pool seeds derive from the session seed but never collide with
    // the on-demand garbler's label PRG (distinct derivation tweak).
    MaterialPoolConfig pcfg;
    pcfg.target = cfg_.pool_target;
    pcfg.seed =
        cfg_.seed == Block{} ? Block{} : (cfg_.seed ^ Block{0, 0x9e3779b9});
    StageChains chains;
    for (const synth::ServedStage& stage : stages_)
      chains.push_back(std::cref(stage.chain));
    pool_ = std::make_unique<MaterialPool>(
        std::move(chains), served_gc_options(), pcfg);
    if (cfg_.async_prefetch) start_lane(lane_port_, lane_token_);
  }
}

// Primary-session bring-up, shared by the constructor and recovery: a
// kBusy answer (protocol v6 load shedding) is not an error but a
// retry-after hint — back off and try again within the retry budget.
void InferenceClient::connect_and_handshake() {
  for (size_t attempt = 0;; ++attempt) {
    try {
    transport_ =
        std::make_unique<TcpChannel>(TcpChannel::connect(host_, port_));
    fault_.reset();
    Channel* wire = transport_.get();
    if (cfg_.chaos.enabled()) {
      fault_ = std::make_unique<FaultChannel>(
          *transport_, cfg_.chaos, chaos_conn_index_++,
          [t = transport_.get()] { t->shutdown(); });
      wire = fault_.get();
    }
    // Epoch-salted label seed: a rebuilt session must never replay the
    // labels of a dead one (one-shot invariant), even under a fixed
    // cfg.seed — only epoch 0 uses it verbatim.
    const Block seed =
        cfg_.seed == Block{}
            ? Prg::from_os_entropy().next_block()
            : (session_epoch_ == 0
                   ? cfg_.seed
                   : (cfg_.seed ^ Block{session_epoch_, 0xd1f457ull}));
    garbler_ = std::make_unique<StreamingGarbler>(*wire, seed);

    Hello hello;
    // Fingerprint over the walked view this session garbles and the
    // front plan — the server computes the same and a compile,
    // scheduling or plan divergence fails the handshake, not an OT.
    // Hello flags default to framed.
    hello.fingerprint = fingerprint_;
    Channel& ch = garbler_->channel();
    send_hello(ch, hello);
    garbler_->channel().flush();
    // kError from the server throws inside recv_frame.
    const Frame first = recv_frame(ch);
    if (first.type == FrameType::kBusy) {
      const uint32_t hint_ms = parse_busy(first);
      garbler_.reset();
      fault_.reset();
      transport_.reset();
      if (attempt >= cfg_.max_retries)
        throw std::runtime_error(
            "client: server busy (shed), retries exhausted");
      ++retries_;
      retries_counter().add();
      backoff_sleep(attempt, hint_ms);
      continue;
    }
    const HelloAck ack = parse_hello_ack(first);
    if (ack.fingerprint != hello.fingerprint)
      throw SessionError(ErrorCode::kHandshake,
                         "client: server echoed a different model chain");
    server_prefetch_quota_ = ack.prefetch_quota;
    lane_port_ = ack.lane_port;
    lane_token_ = ack.lane_token;  // single-use: fresh every handshake
    ++session_epoch_;
    break;
    } catch (const std::exception& e) {
      // A transport fault mid-handshake (injected or real) is as
      // retryable as a kBusy — nothing one-shot has been consumed yet.
      // A handshake rejected with kHandshake (by the server, or by this
      // side on a mismatched echo) is a configuration error: retrying
      // the same handshake can only fail the same way.
      garbler_.reset();
      fault_.reset();
      transport_.reset();
      const auto* coded = dynamic_cast<const SessionError*>(&e);
      if (attempt >= cfg_.max_retries ||
          (coded != nullptr && coded->code() == ErrorCode::kHandshake))
        throw;
      ++retries_;
      retries_counter().add();
      backoff_sleep(attempt);
    }
  }
}

void InferenceClient::backoff_sleep(size_t attempt, uint64_t floor_ms) {
  uint64_t delay = cfg_.backoff_base_ms << std::min<size_t>(attempt, 20);
  delay = std::min(std::max<uint64_t>(delay, 1), cfg_.backoff_cap_ms);
  // Deterministic jitter: uniform in [delay/2, delay], so concurrent
  // clients recovering from the same outage don't reconnect in phase.
  delay = delay / 2 + splitmix64(backoff_rng_) % (delay / 2 + 1);
  if (delay < floor_ms) delay = floor_ms;
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

// Rebuild after a transport failure: the session that died took its
// server-side state with it, so everything pushed or in flight on it is
// unusable — and, critically, must never be REUSED (one garbled
// artifact = one inference; a replay would hand the evaluator two
// executions under the same labels). Poison first, reconnect second.
void InferenceClient::recover_session() {
  open_ = false;
  // The lane dies with the old connection; an error it parked is part
  // of the same failure being recovered from, so it is cleared, not
  // rethrown.
  if (lane_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      lane_stop_ = true;
    }
    lane_cv_.notify_all();
    lane_thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    lane_stop_ = false;
    lane_up_ = false;
    lane_error_ = nullptr;
  }
  lane_ch_.reset();
  lane_fault_.reset();
  lane_transport_.reset();
  // One-shot invariant: drop every artifact whose transfer or OT
  // touched the dead session. The local pool survives untouched — its
  // artifacts never hit the wire.
  uint64_t dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped = prefetched_.size() + (pooled_in_flight_ ? 1 : 0);
    prefetched_.clear();
    pooled_in_flight_ = false;
  }
  if (dropped > 0) {
    poisoned_ += dropped;
    poisoned_counter().add(dropped);
  }
  garbler_.reset();
  fault_.reset();
  transport_.reset();
  connect_and_handshake();
  if (pool_ != nullptr && cfg_.async_prefetch)
    start_lane(lane_port_, lane_token_);
  open_ = true;
  ++recovered_;
  recovered_counter().add();
}

InferenceClient::~InferenceClient() {
  try {
    close();
  } catch (...) {
    // Destructor during unwind: the transport may already be dead (and
    // a parked lane failure has nowhere to go).
  }
}

size_t InferenceClient::input_bits() const {
  return stages_.front().front.inputs * fmt_.total_bits;
}

size_t InferenceClient::infer(const std::vector<float>& sample) {
  BitVec bits;
  bits.reserve(sample.size() * fmt_.total_bits);
  for (float v : sample) {
    const BitVec b = Fixed::from_double(static_cast<double>(v), fmt_).to_bits();
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return from_bits(infer_bits(bits));
}

// Offline push of one artifact over `ch` (the primary session's
// connection or the prefetch lane): id frame, then per stage its decode
// bits and tables. A stage that is not opened ships no decode bits:
// they are the client's XOR shares of its outputs. Everything here is
// input-independent, and no OT runs: every evaluator input of a served
// chain is a share bit of a front that has not run yet. Files the
// client-side remainder the online phase needs.
//
// The caller-side quota guard must mirror the server's exactly: a
// server-side rejection kills the connection, and with it every
// artifact parked on it. A throw here burns the artifact: the
// connection is unrecoverable at that point anyway.
void InferenceClient::push_material(BufferedChannel& ch, Artifact&& art) {
  const uint64_t id = next_material_id_++;
  send_id_frame(ch, FrameType::kPrefetch, id);
  PrefetchedMaterial pm;
  pm.id = id;
  for (size_t s = 0; s < art.size(); ++s) {
    GarbledMaterial& mat = art[s];
    PrefetchedStage stage{mat.delta, std::move(mat.data_zeros),
                          std::move(mat.eval_zeros), {}};
    if (s + 1 < art.size()) stage.shares.swap(mat.decode_bits);
    // Only the tables and what is left of the decode bits ship (the
    // tables borrowed by the transport until the kernel send completes).
    send_material(ch, std::move(mat));
    pm.stages.push_back(std::move(stage));
  }
  ch.flush();
  const Frame ack = recv_frame(ch);
  if (ack.type != FrameType::kPrefetchAck || parse_id(ack) != id)
    throw std::runtime_error("client: bad prefetch ack");
  {
    std::lock_guard<std::mutex> lock(mu_);
    prefetched_.push_back(std::move(pm));
  }
  caught_up_.notify_all();
}

// Refill ceiling for the background lane (and the clamp for prefetch):
// never park more than pool_target on the server — the pool cannot
// sustain more anyway — and never exceed the advertised quota, whose
// violation would be a session-killing kError.
size_t InferenceClient::lane_target() const {
  return std::min<uint64_t>(cfg_.pool_target, server_prefetch_quota_);
}

void InferenceClient::start_lane(uint16_t lane_port, uint64_t lane_token) {
  lane_transport_ = std::make_unique<TcpChannel>(
      TcpChannel::connect(host_, lane_port));
  lane_fault_.reset();
  Channel* lane_wire = lane_transport_.get();
  if (cfg_.chaos.enabled()) {
    lane_fault_ = std::make_unique<FaultChannel>(
        *lane_transport_, cfg_.chaos, chaos_conn_index_++,
        [t = lane_transport_.get()] { t->shutdown(); });
    lane_wire = lane_fault_.get();
  }
  // The lane garbles nothing (artifacts come from the pool) and runs no
  // OT, so it needs no session: a buffered channel over the transport.
  lane_ch_ = std::make_unique<BufferedChannel>(*lane_wire);
  lane_thread_ = std::thread([this, lane_token] { lane_loop(lane_token); });
}

// Background refill: keep the server-side store at lane_target(). Runs
// until close(); every failure is parked and rethrown there (the
// primary session keeps working either way — a dead lane just means
// drains fall back to on-demand again).
void InferenceClient::lane_loop(uint64_t lane_token) {
  try {
    BufferedChannel& ch = *lane_ch_;
    send_id_frame(ch, FrameType::kAttachLane, lane_token);
    ch.flush();
    const Frame ack = recv_frame(ch);
    if (ack.type != FrameType::kAttachLaneAck || parse_id(ack) != lane_token)
      throw std::runtime_error("client: bad lane attach ack");
    {
      std::lock_guard<std::mutex> lock(mu_);
      lane_up_ = true;
    }
    caught_up_.notify_all();

    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        // Refill wanted AND room under the server's quota (see the file
        // header): without the in-flight term a push racing an
        // unprocessed kInfer on the primary connection would trip it.
        // The lane is the only pusher, so the room seen here cannot
        // shrink before its push lands.
        lane_cv_.wait(lock, [this] {
          return lane_stop_ ||
                 (prefetched_.size() < lane_target() &&
                  prefetched_.size() + pooled_in_flight_ <
                      server_prefetch_quota_);
        });
        if (lane_stop_) break;
      }
      std::optional<Artifact> mat = pool_->try_acquire();
      if (!mat) {
        // Refill wanted but the producers are still garbling: poll
        // gently (a tight spin would steal cycles from the very
        // producers being waited on), staying responsive to stop.
        std::unique_lock<std::mutex> lock(mu_);
        if (lane_stop_) break;
        lane_cv_.wait_for(lock, std::chrono::milliseconds(1));
        continue;
      }
      // The push itself runs unlocked: it is pure lane-connection
      // traffic, concurrent with whatever the primary session is doing.
      obs::Span push_span("client.lane_push");
      push_material(ch, std::move(*mat));
    }
    // Orderly goodbye so the server's lane handler exits cleanly.
    send_frame(ch, FrameType::kBye);
    ch.flush();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    lane_error_ = std::current_exception();
    lane_up_ = false;
  }
  caught_up_.notify_all();
}

bool InferenceClient::lane_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lane_up_ && lane_error_ == nullptr;
}

size_t InferenceClient::prefetch(size_t n) {
  if (!open_) throw std::logic_error("client: session closed");
  if (pool_ == nullptr)
    throw std::logic_error("client: pooling disabled (pool_target = 0)");
  if (lane_thread_.joinable()) {
    // Async mode: the lane owns all pushes — wake it and wait until the
    // store is warm (or the lane parked a failure).
    const size_t want = std::min(n, lane_target());
    std::unique_lock<std::mutex> lock(mu_);
    lane_cv_.notify_all();
    caught_up_.wait(lock, [&] {
      return lane_error_ != nullptr || prefetched_.size() >= want;
    });
    if (lane_error_) std::rethrow_exception(lane_error_);
    return prefetched_.size();
  }
  // Clamp to the quota the hello ack advertised: exceeding it on the
  // wire would be answered with a session-killing kError, and "push up
  // to n" is the contract — the return value reports what's warm.
  for (size_t i = 0; i < n && prefetched() < server_prefetch_quota_; ++i)
    push_material(garbler_->channel(), pool_->acquire());
  return prefetched();
}

void InferenceClient::top_up() {
  if (pool_ == nullptr || !open_) return;
  if (lane_thread_.joinable()) {
    // Async mode: refilling is the lane's job — just make sure it's
    // awake. Nothing here blocks the caller.
    lane_cv_.notify_all();
    return;
  }
  while (prefetched() < lane_target()) {
    auto mat = pool_->try_acquire();
    if (!mat) break;  // producer still garbling: don't block the caller
    push_material(garbler_->channel(), std::move(*mat));
  }
}

void InferenceClient::send_pooled_stage(const PrefetchedMaterial& mat,
                                        size_t s, const BitVec& bits) {
  GarblerSession& session = garbler_->session();
  const PrefetchedStage& stage = mat.stages[s];
  const BitVec share = front_send(session, stages_[s].front, bits);
  // The server's share bits' labels under the stage's delta, then the
  // active labels of the client's own share bits.
  session.send_fixed_labels(stage.front_zeros, stage.delta);
  session.send_online_labels(stage.delta, stage.data_zeros, share);
  garbler_->channel().flush();
}

BitVec InferenceClient::infer_bits(const BitVec& data_bits) {
  if (!open_) throw std::logic_error("client: session closed");
  if (data_bits.size() != input_bits())
    throw std::invalid_argument("client: data bit count mismatch");
  for (size_t attempt = 0;; ++attempt) {
    try {
      return infer_bits_once(data_bits);
    } catch (const std::logic_error&) {
      throw;  // API misuse, not a transport failure — never retried
    } catch (const std::exception&) {
      if (attempt >= cfg_.max_retries) throw;
      ++retries_;
      retries_counter().add();
      backoff_sleep(attempt);
      // Poisons in-flight material, reconnects, re-handshakes, restarts
      // the lane; the retried attempt below draws fresh pool material
      // or (store now empty) falls back to on-demand garbling.
      recover_session();
    }
  }
}

BitVec InferenceClient::infer_bits_once(const BitVec& data_bits) {
  std::optional<PrefetchedMaterial> mat;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!prefetched_.empty()) {
      mat = std::move(prefetched_.front());
      prefetched_.pop_front();
      pooled_in_flight_ = true;
    }
  }
  if (mat) {
    lane_cv_.notify_all();  // room freed: the lane may refill
    // Online phase only: per stage the front and the active labels out,
    // then the result bits back. The flag stays set if this throws, so
    // recovery poisons the artifact.
    send_id_frame(garbler_->channel(), FrameType::kInfer, mat->id);
    for (size_t s = 0; s < mat->stages.size(); ++s)
      send_pooled_stage(*mat, s,
                        s == 0 ? data_bits : mat->stages[s - 1].shares);
    BitVec out = garbler_->session().recv_result();
    {
      // The server consumed the artifact before evaluating, so its
      // store slot is provably free now.
      std::lock_guard<std::mutex> lock(mu_);
      pooled_in_flight_ = false;
    }
    lane_cv_.notify_all();
    ++pooled_inferences_;
    if (cfg_.auto_top_up) top_up();
    return out;
  }
  // Pool drained (or pooling off): garble every stage on the request
  // path (garble_stages, runtime/front.h) and open the last.
  send_frame(garbler_->channel(), FrameType::kInfer);
  GarblerSession& session = garbler_->session();
  const BitVec bits =
      session.open(garble_stages(session, stages_, data_bits));
  garbler_->channel().flush();
  ++ondemand_inferences_;
  if (cfg_.auto_top_up) top_up();
  return bits;
}

std::string InferenceClient::server_stats() {
  if (!open_) throw std::logic_error("client: session closed");
  Channel& ch = garbler_->channel();
  send_frame(ch, FrameType::kStats);
  garbler_->channel().flush();
  const Frame reply = recv_frame(ch);
  if (reply.type != FrameType::kStatsReply)
    throw std::runtime_error("client: bad stats reply");
  return std::string(reply.payload.begin(), reply.payload.end());
}

void InferenceClient::close() {
  if (!open_) return;
  // Stop the lane FIRST, and unconditionally: if the goodbye below
  // throws (dead transport), a still-running lane thread would reach
  // the destructor joinable — std::terminate. This ordering also
  // precedes the primary kBye, so a lane push can never race the
  // server-side session teardown.
  std::exception_ptr lane_err;
  if (lane_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      lane_stop_ = true;
    }
    lane_cv_.notify_all();
    lane_thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    lane_err = lane_error_;
  }
  open_ = false;  // closed either way; a retry cannot succeed
  Channel& ch = garbler_->channel();
  send_frame(ch, FrameType::kBye);
  garbler_->channel().flush();
  // A lane that died mid-session must not fail silently — surface it
  // once the session itself is cleanly down.
  if (lane_err) std::rethrow_exception(lane_err);
}

}  // namespace deepsecure::runtime
