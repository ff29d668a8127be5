#include "runtime/client.h"

#include <algorithm>
#include <chrono>
#include <cstring>
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
    // The prefetch handoff rings (see the header): capacity covers the
    // full quota, and the credit ring starts with every slot's token in
    // circulation — the server's store is empty at handshake time.
    const size_t cap = std::max<size_t>(2, server_prefetch_quota_);
    prefetched_ = std::make_unique<SpscRing<PrefetchedMaterial>>(cap);
    credits_ = std::make_unique<SpscRing<uint64_t>>(cap);
    for (uint64_t i = 0; i < server_prefetch_quota_; ++i)
      credits_->try_push(i + 1);
    // Pool seeds derive from the session seed but never collide with
    // the on-demand garbler's label PRG (distinct derivation tweak).
    MaterialPoolConfig pcfg;
    pcfg.target = cfg_.pool_target;
    pcfg.producer_threads = cfg_.pool_producers;
    pcfg.shard_threads = cfg_.pool_shard_threads;
    pcfg.seed =
        cfg_.seed == Block{} ? Block{} : (cfg_.seed ^ Block{0, 0x9e3779b9});
    StageChains chains;
    for (const synth::ServedStage& stage : stages_)
      chains.push_back(std::cref(stage.chain));
    pool_ = std::make_unique<MaterialPool>(
        std::move(chains), cfg_.stream.gc_options(nullptr), pcfg);
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
    garbler_ =
        std::make_unique<StreamingGarbler>(*wire, seed, cfg_.stream);

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
      throw std::runtime_error("client: server echoed a different model chain");
    server_prefetch_quota_ = ack.prefetch_quota;
    lane_port_ = ack.lane_port;
    lane_token_ = ack.lane_token;  // single-use: fresh every handshake
    ++session_epoch_;
    break;
    } catch (const std::exception& e) {
      // A transport fault mid-handshake (injected or real) is as
      // retryable as a kBusy — nothing one-shot has been consumed yet.
      // A fingerprint mismatch is a configuration error: retrying the
      // same handshake can only fail the same way.
      garbler_.reset();
      fault_.reset();
      transport_.reset();
      if (attempt >= cfg_.max_retries ||
          std::strstr(e.what(), "different model chain") != nullptr)
        throw;
      ++retries_;
      retries_counter().add();
      backoff_sleep(attempt);
    }
  }
  // Fresh session, empty server-side store: every quota slot's credit
  // goes back into circulation. (First bring-up: the rings don't exist
  // yet — the constructor seeds them once the quota is known.)
  if (credits_ != nullptr) {
    uint64_t token;
    while (credits_->try_pop(token)) {
    }
    for (uint64_t i = 0; i < server_prefetch_quota_; ++i)
      credits_->try_push(i + 1);
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
  lane_ring_.reset();
  lane_fault_.reset();
  lane_transport_.reset();
  // One-shot invariant: drop every artifact whose transfer or OT
  // touched the dead session. The local pool survives untouched — its
  // artifacts never hit the wire.
  uint64_t dropped = in_flight();
  begun_.clear();
  results_.clear();
  if (prefetched_ != nullptr) {
    PrefetchedMaterial pm;
    while (prefetched_->try_pop(pm)) ++dropped;
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

void InferenceClient::push_material(Artifact&& art) {
  if (in_flight() > 0)
    throw std::logic_error(
        "client: cannot prefetch with inferences in flight");
  // Sync mode: this thread is both ring roles. A credit is popped
  // before anything hits the wire — mirroring the server's quota check
  // exactly, since a server-side rejection kills the connection (see
  // push_material_over). Callers guard on prefetched() < quota, so a
  // missing token is a bookkeeping bug, not a race.
  uint64_t credit;
  if (credits_ == nullptr || !credits_->try_pop(credit))
    throw std::logic_error("client: prefetch quota exhausted (no credit)");
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_material_id_++;
  }
  // A throw below burns the credit with the artifact: the connection is
  // unrecoverable at that point anyway.
  PrefetchedMaterial pm =
      push_material_over(garbler_->channel(), std::move(art), id);
  if (!prefetched_->try_push(std::move(pm)))
    throw std::logic_error("client: prefetched ring overflow");
}

// Offline push of one artifact over `ch` (the primary session's
// connection or the prefetch lane): id frame, then per stage its decode
// bits and tables. A stage that is not opened ships no decode bits:
// they are the client's XOR shares of its outputs. Everything here is
// input-independent, and no OT runs: every evaluator input of a served
// chain is a share bit of a front that has not run yet. Returns the
// client-side remainder the online phase needs.
//
// The caller-side quota guard must mirror the server's exactly: a
// server-side rejection kills the connection, and with it every
// artifact parked on it.
InferenceClient::PrefetchedMaterial InferenceClient::push_material_over(
    BufferedChannel& ch, Artifact&& art, uint64_t id) {
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
  return pm;
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
  // Async frame writer: artifact bytes land in the RingChannel's SPSC
  // ring and ship from its writer thread, so the lane overlaps the
  // next artifact's serialization with the previous one's kernel
  // sends. Receives drain the ring first, so the acks stay correctly
  // ordered. The lane garbles nothing (artifacts come from the pool)
  // and runs no OT, so it needs no session.
  lane_ring_ = std::make_unique<RingChannel>(*lane_wire);
  lane_ch_ = std::make_unique<BufferedChannel>(*lane_ring_,
                                               cfg_.stream.channel_buffer);
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
        // Refill wanted AND a slot credit available (see credits_ in
        // the header): without the credit check a push racing an
        // unprocessed kInfer on the primary connection would trip the
        // server's quota. The lane is the only credit consumer,
        // so a token seen here cannot vanish before the pop below.
        lane_cv_.wait(lock, [this] {
          return lane_stop_ ||
                 (prefetched_->size() < lane_target() &&
                  !credits_->empty());
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
      // Claim the slot credit only once an artifact is in hand (credits
      // flow one way per thread: pushing a token back from here would
      // make two producers).
      uint64_t credit;
      if (!credits_->try_pop(credit)) continue;  // unreachable; re-check
      uint64_t id;
      {
        std::lock_guard<std::mutex> lock(mu_);
        id = next_material_id_++;
      }
      // The push itself runs unlocked: it is pure lane-connection
      // traffic, concurrent with whatever the primary session is doing.
      // A throw burns the credit with the artifact — the lane is dead.
      {
        obs::Span push_span("client.lane_push");
        PrefetchedMaterial pm =
            push_material_over(*lane_ch_, std::move(*mat), id);
        if (!prefetched_->try_push(std::move(pm)))
          throw std::logic_error("client: prefetched ring overflow");
      }
      // Empty critical section: order the ring push before the notify
      // so a prefetch() predicate under mu_ cannot miss it.
      { std::lock_guard<std::mutex> lock(mu_); }
      caught_up_.notify_all();
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
  // Both modes: no inferences may be in flight. Sync mode would drop an
  // acquired artifact; async mode would deadlock — in-flight artifacts
  // hold their slot credits until finish_infer, which only THIS thread
  // can call, so the lane could never push this wait to completion.
  if (in_flight() > 0)
    throw std::logic_error(
        "client: cannot prefetch with inferences in flight");
  if (lane_thread_.joinable()) {
    // Async mode: the lane owns all pushes — wake it and wait until the
    // store is warm (or the lane parked a failure).
    const size_t want = std::min(n, lane_target());
    std::unique_lock<std::mutex> lock(mu_);
    lane_cv_.notify_all();
    caught_up_.wait(lock, [&] {
      return lane_error_ != nullptr || prefetched_->size() >= want;
    });
    if (lane_error_) std::rethrow_exception(lane_error_);
    return prefetched_->size();
  }
  // Clamp to the quota the hello ack advertised: exceeding it on the
  // wire would be answered with a session-killing kError, and "push up
  // to n" is the contract — the return value reports what's warm.
  for (size_t i = 0; i < n && prefetched() < server_prefetch_quota_; ++i)
    push_material(pool_->acquire());
  return prefetched();
}

void InferenceClient::top_up() {
  if (pool_ == nullptr || !open_ || closing_) return;
  if (lane_thread_.joinable()) {
    // Async mode: refilling is the lane's job — just make sure it's
    // awake. Nothing here blocks the caller.
    lane_cv_.notify_all();
    return;
  }
  if (in_flight() > 0) return;
  while (prefetched() < lane_target()) {
    auto mat = pool_->try_acquire();
    if (!mat) break;  // producer still garbling: don't block the caller
    push_material(std::move(*mat));
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

BitVec InferenceClient::complete_oldest() {
  // Popped only once the result is in: a transport failure leaves the
  // inference counted in flight, so recovery poisons it.
  const PrefetchedMaterial& mat = begun_.front();
  for (size_t s = 1; s < mat.stages.size(); ++s)
    send_pooled_stage(mat, s, mat.stages[s - 1].shares);
  BitVec out = garbler_->session().recv_result();
  begun_.pop_front();
  return out;
}

void InferenceClient::begin_infer_bits(const BitVec& data_bits) {
  if (!open_) throw std::logic_error("client: session closed");
  // This thread is the ring's only consumer, so the peek/pop pair is
  // race-free without a lock.
  if (prefetched_ == nullptr || prefetched_->front() == nullptr)
    throw std::logic_error("client: no prefetched material to pipeline on");
  // Validate before consuming anything: after the id frame is on the
  // wire the artifact is burned and the server is committed to the
  // front, so a size error must fire while the call is still a no-op
  // (a ring pop is destructive).
  if (data_bits.size() != input_bits())
    throw std::invalid_argument("client: data bit count mismatch");
  // The server serves kInfer frames in order: the inferences in flight
  // run their later stages, and their results are read, before this
  // request's front.
  while (!begun_.empty()) results_.push_back(complete_oldest());
  PrefetchedMaterial mat;
  prefetched_->try_pop(mat);
  { std::lock_guard<std::mutex> lock(mu_); }  // order pop before notify
  lane_cv_.notify_all();  // room freed: the lane may refill
  send_id_frame(garbler_->channel(), FrameType::kInfer, mat.id);
  send_pooled_stage(mat, 0, data_bits);
  begun_.push_back(std::move(mat));
}

BitVec InferenceClient::finish_infer() {
  if (in_flight() == 0)
    throw std::logic_error("client: no inference in flight");
  BitVec out;
  if (results_.empty()) {
    out = complete_oldest();
  } else {
    out = std::move(results_.front());
    results_.pop_front();
  }
  ++pooled_inferences_;
  // Credit return: the server consumed this inference's artifact before
  // evaluating, so its store slot is provably free now. Every finished
  // pooled inference corresponds to exactly one popped token, so the
  // push cannot overflow the ring.
  if (credits_) credits_->try_push(uint64_t{1});
  { std::lock_guard<std::mutex> lock(mu_); }  // order push before notify
  lane_cv_.notify_all();
  if (in_flight() == 0 && cfg_.auto_top_up) top_up();
  return out;
}

BitVec InferenceClient::infer_bits(const BitVec& data_bits) {
  if (!open_) throw std::logic_error("client: session closed");
  if (in_flight() > 0)
    throw std::logic_error(
        "client: finish in-flight inferences before a synchronous infer");
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
  const bool warm = prefetched() > 0;
  if (warm) {
    // Online phase only: active data labels out, result bits back.
    // (Only this thread consumes prefetched_, so warm cannot go stale.)
    begin_infer_bits(data_bits);
    return finish_infer();
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
  // A kStatsReply arriving between a kInfer and its result frames would
  // desynchronize finish_infer; the primary connection must be quiet.
  if (in_flight() > 0)
    throw std::logic_error(
        "client: finish in-flight inferences before requesting stats");
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
  closing_ = true;  // don't upload fresh artifacts just to discard them
  // Stop the lane FIRST, and unconditionally: if draining the in-flight
  // inferences below throws (dead transport), a still-running lane
  // thread would reach the destructor joinable — std::terminate. This
  // ordering also precedes the primary kBye, so a lane push can never
  // race the server-side session teardown.
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
  std::exception_ptr drain_err;
  try {
    while (in_flight() > 0) (void)finish_infer();
    Channel& ch = garbler_->channel();
    send_frame(ch, FrameType::kBye);
    garbler_->channel().flush();
  } catch (...) {
    drain_err = std::current_exception();
  }
  open_ = false;  // closed either way; a retry cannot succeed
  if (drain_err) std::rethrow_exception(drain_err);
  // A lane that died mid-session must not fail silently — surface it
  // once the session itself is cleanly down.
  if (lane_err) std::rethrow_exception(lane_err);
}

}  // namespace deepsecure::runtime
