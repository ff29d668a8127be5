// Session-level frame protocol for the streaming inference runtime.
//
// Two framing layers exist in the wire format:
//   1. Garbled-table frames (gc/block_io.h): length-prefixed batch-window
//      payloads inside one garbling pass — the data plane.
//   2. Session frames (this header): typed control messages that bracket
//      protocol runs — hello/ack handshake, per-inference request
//      markers, orderly shutdown, and error reporting — the control
//      plane of runtime/server.h and runtime/client.h.
//
// Session frame encoding (all integers little-endian/host, like every
// other scalar this protocol ships):
//   [u8 type][u32 payload_bytes][payload]
//
// The handshake pins down everything both endpoints must agree on
// before protocol bytes flow: a protocol magic/version, a fingerprint
// of the served model — its compiled stage chains and front plans
// (architecture is public knowledge in the paper's model — both
// sides compile it independently), and the wire-format flags (framed
// tables). A mismatch yields a kError frame
// and connection close instead of a byte-level desync mid-OT.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "gc/material.h"
#include "net/channel.h"
#include "synth/served.h"

namespace deepsecure::runtime {

inline constexpr uint64_t kProtocolMagic = 0x44535255'4e313031ull;  // "DSRUN101"
// v2: offline/online split — kPrefetch/kPrefetchAck frames, pooled
// kInfer (8-byte material id payload), bulk base-OT and packed
// u-column wire encodings.
// v3: width-scheduled gate order (circuit/schedule.h) — the garbled
// tables and tweaks of every inference follow the scheduled netlist by
// default. The hello fingerprint is computed over the walked gate
// order, so endpoints that disagree on scheduling are rejected as a
// fingerprint mismatch (hello flag bit 1 is reserved and ignored).
// v4: async prefetch lane — the hello ack grows a per-session lane
// token and the server's dedicated lane-listener port; a client opens a
// SECOND connection to that port, claims its session with kAttachLane,
// and streams kPrefetch pushes there while kInfer traffic continues
// uninterrupted on the primary connection (the prefetch OT exchange
// is bidirectional, so it cannot be multiplexed with in-flight infer
// results on one socket). Also schedule-aware table frame sizing: the
// garbler cuts table frames at AND-level boundaries instead of every
// batch window (frames self-describe, so this needs no negotiation).
// v5: stats introspection — kStats asks the server for its runtime
// counters; the kStatsReply payload is the self-describing stats_json()
// document (schema may grow freely: the frame is length-prefixed JSON,
// so no renegotiation). Optional: a client that never sends kStats is
// wire-compatible with v4 behavior.
// v6: graceful degradation — kBusy (u32 retry-after-ms payload) sheds
// load at admission instead of silently queueing connections behind
// the backlog, and kError payloads carry a leading machine-readable
// reason code byte (ErrorCode) ahead of the utf-8 reason, so a
// self-healing client can tell "overloaded, retry" from "you are
// speaking the wrong protocol, give up". Malformed input now earns a
// coded kError before teardown rather than a raw disconnect.
// v7: one-block correlated OT (gc/ot.h) — the sender ships one block
// per evaluator-input bit instead of two, and the OT itself draws the
// on-demand evaluator-input zero labels. A kPrefetch push resolves the
// artifact's labels with the same OT plus one relabel block per bit;
// the random-OT correction vector is gone.
// v8: layer 0 by OT multiplication (runtime/front.h) — every kInfer
// opens with the arithmetic-OT front (server u columns, client 4 B per
// OT), and the chain garbles the share circuit (synth/served.h) in
// place of layer 0. A kPrefetch push resolves only layers 1..n's
// evaluator labels; the pooled kInfer resolves the share bits' labels
// online (correlated OT + relabel). The hello fingerprint also hashes
// the front plan.
// v9: every linear layer by OT multiplication — the served model is a
// list of stages (synth/served.h), each a front and a garbled segment
// that ends in XOR shares; a hidden stage's front opens with B2A (one
// arithmetic OT per share bit), and only the last stage is opened. A
// kPrefetch push is per-stage tables and decode bits (non-final stages
// ship none) with no OT; the pooled kInfer resolves each stage's share
// bits' labels online. The hello fingerprint hashes every stage.
// v10: the flipped front — the client is the OT receiver, one vector
// OT per input bit on a reverse extension set up with the session's
// OTs (client u columns, then the server's 4 B per product per bit),
// on XOR input shares, so no stage opens with B2A.
inline constexpr uint32_t kProtocolVersion = 10;

enum class FrameType : uint8_t {
  kHello = 1,     // client -> server: magic, version, fingerprint, flags
  kHelloAck = 2,  // server -> client: fingerprint echo, prefetch quota,
                  // lane token, lane port (see HelloAck)
  kInfer = 3,     // client -> server: one inference, stage by stage,
                  // each opening with its front (v10). Empty payload:
                  // each stage's GC byte stream follows (garble on the
                  // request path). 8-byte payload: a material id — each
                  // stage's share-bit label OT and online phase against
                  // prefetched material follow.
  kBye = 4,       // client -> server: orderly session/lane end
  kError = 5,     // either way: utf-8 reason, then close
  kPrefetch = 6,  // client -> server: 8-byte material id, then the
                  // offline artifact (each stage's tables, the last
                  // stage's decode bits). No OT runs at push time
                  // (v10): the pooled kInfer resolves the labels.
                  // Valid on the primary connection and on an
                  // attached lane.
  kPrefetchAck = 7,  // server -> client: material id echo, stored
  kAttachLane = 8,   // client -> server, first frame on a lane
                     // connection: 8-byte session token from the hello
                     // ack. At most one lane per session.
  kAttachLaneAck = 9,  // server -> client: token echo, lane ready
  kStats = 10,      // client -> server, empty payload: report runtime
                    // counters (v5). Valid between inferences on the
                    // primary connection.
  kStatsReply = 11,  // server -> client: stats_json() bytes (utf-8 JSON,
                     // self-describing — fields may grow without a
                     // version bump)
  kBusy = 12,  // server -> client, instead of kHelloAck: admission shed
               // under overload (v6). Payload: u32 retry-after-ms hint.
               // The server closes after sending; the client backs off
               // and reconnects.
};

/// Machine-readable kError reason codes (v6): the first payload byte,
/// followed by the human-readable utf-8 reason. Values are wire-stable.
enum class ErrorCode : uint8_t {
  kUnspecified = 0,  // unclassified
  kHandshake = 1,    // magic/version/fingerprint/flags mismatch
  kMalformed = 2,    // unparseable or unexpected frame for this state
  kQuota = 3,        // prefetch quota or global byte budget exhausted
  kMaterial = 4,     // unknown/duplicate/mismatched material id
  kLane = 5,         // bad lane token / duplicate lane attach
  kInternal = 6,     // server-side failure while serving the request
};

/// A session failure that carries its ErrorCode. recv_frame throws one
/// for every kError frame, with the message "runtime: peer error:
/// <reason>", so a caller can decide by the code: the client never
/// retries a kHandshake rejection.
class SessionError : public std::runtime_error {
 public:
  SessionError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// Wire-format flags carried in the hello. Bit 0 is framed_tables:
/// the runtime always frames, so a client writes 1 and the server
/// rejects a hello with it clear. Bit 1 is reserved (written 0,
/// ignored).
struct SessionFlags {
  bool framed_tables = true;
  uint8_t encode() const { return framed_tables ? 1u : 0u; }
  static SessionFlags decode(uint8_t v) {
    return SessionFlags{(v & 1u) != 0};
  }
};

struct Hello {
  uint64_t magic = kProtocolMagic;
  uint32_t version = kProtocolVersion;
  uint64_t fingerprint = 0;
  SessionFlags flags;
};

/// Server half of the handshake (kHelloAck payload, 26 bytes): the
/// fingerprint echo, the per-session prefetch quota (so a pooling
/// client can cap pushes instead of discovering the limit as a
/// session-killing error), and the async-prefetch-lane coordinates —
/// an unguessable-by-third-parties token naming this session plus the
/// dedicated lane listener's port (v4).
struct HelloAck {
  uint64_t fingerprint = 0;
  uint64_t prefetch_quota = 0;
  uint64_t lane_token = 0;
  uint16_t lane_port = 0;
};

void send_frame(Channel& ch, FrameType type, const void* payload = nullptr,
                size_t n = 0);
Frame recv_frame(Channel& ch);

/// Frames whose payload is a single u64 (pooled kInfer, kPrefetch,
/// kPrefetchAck carry a material id; kAttachLane/-Ack a session token).
void send_id_frame(Channel& ch, FrameType type, uint64_t id);
uint64_t parse_id(const Frame& f);

void send_hello(Channel& ch, const Hello& h);
Hello parse_hello(const Frame& f);

void send_hello_ack(Channel& ch, const HelloAck& a);
HelloAck parse_hello_ack(const Frame& f);

/// Send a kError frame: the ErrorCode byte, then `reason`. The peer's
/// recv_frame throws a SessionError with that code and "runtime: peer
/// error: <reason>".
void send_error(Channel& ch, ErrorCode code, const std::string& reason);

/// Admission shed (v6): kBusy carrying a retry-after hint. The server
/// closes the connection after sending; parse_busy reads the hint back.
void send_busy(Channel& ch, uint32_t retry_after_ms);
uint32_t parse_busy(const Frame& f);

/// FNV-1a over the full gate list and interface of every circuit in the
/// chain: two endpoints that compiled different netlists (or different
/// layer orders) disagree with overwhelming probability. The canonical
/// implementation lives with the offline artifacts (gc/material.h),
/// which stamp the same fingerprint the handshake checks.
using deepsecure::chain_fingerprint;

/// The hello fingerprint of a served model (v9): chain_fingerprint of
/// every stage's chain mixed with its front plan's hash, so endpoints
/// that share different products fail the handshake even when their
/// share circuits coincide.
uint64_t served_fingerprint(const synth::ServedModel& model);

}  // namespace deepsecure::runtime
