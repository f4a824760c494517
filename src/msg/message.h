// Wire messages for every protocol in the repository.
//
// Each message is a plain struct with Encode/Decode methods and a static
// kType tag. A serialized message is `u16 type` followed by the body; the
// same bytes flow through the simulated network and the TCP transport.
//
// Wire format v2 (hot-path Crx messages only): the frame is
// `u16 (type | kWireV2Flag)` followed by a varint-encoded body produced by
// EncodeV2(). The flag bit makes every frame self-describing — a decoder
// never needs out-of-band knowledge of the sender's configuration, v1
// frames keep decoding after an upgrade, and v2 frames fail cleanly (type
// mismatch) on a v1-only decoder. See DESIGN.md §14.
//
// Naming convention by protocol:
//   Crx*   — ChainReaction (the paper's system)
//   Cr*    — classic Chain Replication baseline (FAWN-KV-style)
//   Craq*  — CRAQ baseline
//   Ev*    — eventual/quorum baseline (Cassandra stand-in)
//   Geo*   — inter-datacenter replication
//   Mem*   — membership / chain repair
#ifndef SRC_MSG_MESSAGE_H_
#define SRC_MSG_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/obs/trace.h"

namespace chainreaction {

enum class MsgType : uint16_t {
  kInvalid = 0,

  // ChainReaction client <-> node.
  kCrxPut = 10,
  kCrxPutAck = 11,
  kCrxGet = 12,
  kCrxGetReply = 13,
  kCrxPutAckBatch = 14,

  // ChainReaction intra-chain.
  kCrxChainPut = 20,
  kCrxStableNotify = 21,
  kCrxStabilityCheck = 22,
  kCrxStabilityConfirm = 23,
  kCrxWatermark = 24,

  // Classic chain replication baseline.
  kCrPut = 30,
  kCrChainPut = 31,
  kCrPutAck = 32,
  kCrGet = 33,
  kCrGetReply = 34,
  kCrChainAck = 35,

  // CRAQ baseline.
  kCraqPut = 40,
  kCraqChainPut = 41,
  kCraqCommit = 42,
  kCraqPutAck = 43,
  kCraqGet = 44,
  kCraqGetReply = 45,
  kCraqVersionQuery = 46,
  kCraqVersionReply = 47,

  // Eventual / quorum baseline.
  kEvPut = 50,
  kEvReplicate = 51,
  kEvReplicateAck = 52,
  kEvPutAck = 53,
  kEvGet = 54,
  kEvGetReply = 55,
  kEvReadQuery = 56,
  kEvReadReply = 57,

  // Geo-replication.
  kGeoLocalStable = 60,
  kGeoShip = 61,
  kGeoApplied = 62,
  kGeoRemotePut = 63,
  kGeoLocalStableAck = 64,
  kGeoShipBatch = 65,

  // Membership / chain repair.
  kMemNewMembership = 70,
  kMemSyncKey = 71,
  kMemHeartbeat = 72,
  kMemSyncDone = 73,

  // Key-range migration (planned topology changes; src/admin/).
  kMigSnapshotRequest = 80,
  kMigKeyBatch = 81,
  kMigSnapshotDone = 82,
  kMigRangeSealed = 83,
  kMigCommit = 84,
  kMigAbort = 85,
};

// High bit of the u16 type tag marks a wire-format-v2 body. Real type tags
// stay far below it, so a flagged tag can never collide with a plain one.
inline constexpr uint16_t kWireV2Flag = 0x8000;

// Returns the type tag of a serialized message (kInvalid if too short).
// The v2 flag bit is masked off, so dispatch switches see the same MsgType
// regardless of the body's wire format.
MsgType PeekType(std::string_view payload);

// Wire format of a serialized message (kV1 if too short — decode will fail
// with a honest error downstream anyway).
WireFormat PeekWireFormat(std::string_view payload);

// Hot-path messages implement EncodedSize() so the writer can allocate the
// final buffer in one shot (no growth reallocations mid-encode). Messages
// with an EncodeV2()/EncodedSizeV2() pair can be asked for a v2 frame;
// types without one (control plane, baselines) always encode v1.
template <typename M>
std::string EncodeMessage(const M& m, WireFormat wf = WireFormat::kV1) {
  ByteWriter w;
  if constexpr (requires(ByteWriter* pw) {
                  m.EncodeV2(pw);
                  m.EncodedSizeV2();
                }) {
    if (wf == WireFormat::kV2) {
      w.Reserve(2 + m.EncodedSizeV2());
      w.PutU16(static_cast<uint16_t>(M::kType) | kWireV2Flag);
      m.EncodeV2(&w);
      return w.Take();
    }
  }
  if constexpr (requires { m.EncodedSize(); }) {
    w.Reserve(2 + m.EncodedSize());
  }
  w.PutU16(static_cast<uint16_t>(M::kType));
  m.Encode(&w);
  return w.Take();
}

// Decodes `payload` into `out`; fails on type mismatch or truncation. A
// frame whose tag carries kWireV2Flag is decoded with DecodeV2() — the
// receiver accepts both formats unconditionally, which is what makes the
// `wire_format` knob safe to flip per deployment (mixed traffic decodes).
//
// Also accepts the *View structs below: their string fields then alias
// `payload`, so the decoded message is valid only while the frame buffer
// is — i.e. within the current OnMessage call.
template <typename M>
bool DecodeMessage(std::string_view payload, M* out) {
  ByteReader r(payload.data(), payload.size());
  uint16_t type = 0;
  if (!r.GetU16(&type)) {
    return false;
  }
  if (type == static_cast<uint16_t>(M::kType)) {
    return out->Decode(&r);
  }
  if constexpr (requires(ByteReader* pr) { out->DecodeV2(pr); }) {
    if (type == (static_cast<uint16_t>(M::kType) | kWireV2Flag)) {
      return out->DecodeV2(&r);
    }
  }
  return false;
}

// Dependency-list codecs, generic over the container (std::vector in the
// owned structs, the inline-capacity DepList in the hot-path view structs).
template <typename List>
void EncodeDeps(const List& deps, ByteWriter* w) {
  w->PutVarU64(deps.size());
  for (const Dependency& d : deps) {
    d.Encode(w);
  }
}

template <typename List>
bool DecodeDeps(ByteReader* r, List* deps) {
  uint64_t n = 0;
  if (!r->GetVarU64(&n) || n > (1u << 20)) {
    return false;
  }
  deps->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!(*deps)[i].Decode(r)) {
      return false;
    }
  }
  return true;
}

template <typename List>
size_t EncodedDepsSize(const List& deps) {
  size_t n = VarU64Size(deps.size());
  for (const Dependency& d : deps) {
    n += d.EncodedSize();
  }
  return n;
}

// v2 variants: varint count, v2-encoded entries.
template <typename List>
void EncodeDepsV2(const List& deps, ByteWriter* w) {
  w->PutVarU64(deps.size());
  for (const Dependency& d : deps) {
    d.EncodeV2(w);
  }
}

template <typename List>
bool DecodeDepsV2(ByteReader* r, List* deps) {
  uint64_t n = 0;
  if (!r->GetVarU64(&n) || n > (1u << 20)) {
    return false;
  }
  deps->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!(*deps)[i].DecodeV2(r)) {
      return false;
    }
  }
  return true;
}

template <typename List>
size_t EncodedDepsSizeV2(const List& deps) {
  size_t n = VarU64Size(deps.size());
  for (const Dependency& d : deps) {
    n += d.EncodedSizeV2();
  }
  return n;
}

// ---------------------------------------------------------------------------
// ChainReaction
// ---------------------------------------------------------------------------

// Client -> head: write request with the client's causal dependencies
// (COPS-style nearest dependencies: everything accessed since its last
// write). The head defers the write until all deps are DC-Write-Stable.
struct CrxPut {
  static constexpr MsgType kType = MsgType::kCrxPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;
  std::vector<Dependency> deps;
  // Observability header: nonzero id marks a sampled request; hops
  // accumulate along the write path (src/obs/trace.h).
  TraceContext trace;
  // Watermark dep compression (v2 frames only): the cluster stable
  // watermark the client compressed `deps` against, and the membership
  // epoch it is valid for. Deps covered by the watermark were dropped
  // (single-DC) or pre-marked local_stable (multi-DC) before sending.
  uint64_t wm_epoch = 0;
  uint64_t dep_wm = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// Node at position k -> client: the write is k-stable.
struct CrxPutAck {
  static constexpr MsgType kType = MsgType::kCrxPutAck;
  RequestId req = 0;
  Key key;
  Version version;
  ChainIndex acked_at = 0;  // chain position that acknowledged (== k)
  TraceContext trace;       // hops up to (and including) the acking node
  // v2 frames piggyback the acking node's cluster stable-watermark estimate
  // (and the epoch it is valid for) so the client can compress future deps.
  uint64_t wm_epoch = 0;
  uint64_t stable_wm = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// Node at position k -> client: cumulative acknowledgement. With ack
// batching on (CrxConfig::ack_batch_window > 0), the acking node coalesces
// the per-put acks destined for one client into a single frame per
// Env::Defer flush (one event-loop cycle on TCP), collapsing the
// k-stability ack storm. `up_to_seq` is the highest chain-pipeline sequence
// number (CrxChainPut::chain_seq) among the batched puts on the incoming
// link; every put with a lower sequence on that link is covered by an entry
// in `acks`. Entries are in ack order, so processing them sequentially is
// identical to receiving individual acks.
struct CrxPutAckBatch {
  static constexpr MsgType kType = MsgType::kCrxPutAckBatch;
  uint64_t up_to_seq = 0;
  std::vector<CrxPutAck> acks;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// Client -> any node in its allowed chain prefix.
struct CrxGet {
  static constexpr MsgType kType = MsgType::kCrxGet;
  RequestId req = 0;
  Address client = 0;
  Key key;
  // The newest version of `key` the client causally depends on (null if
  // none). Nodes that are behind it forward the request toward the head.
  Version min_version;
  // Multi-get read transactions ask for the returned version's write-time
  // dependency list (to compute the causal snapshot; DESIGN.md §3.8).
  bool with_deps = false;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

struct CrxGetReply {
  static constexpr MsgType kType = MsgType::kCrxGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  Version version;
  ChainIndex position = 0;  // chain position of the answering node
  bool stable = false;      // version is DC-Write-Stable
  std::vector<Dependency> deps;  // filled iff the get asked with_deps
  // v2 frames piggyback the answering node's cluster watermark estimate.
  uint64_t wm_epoch = 0;
  uint64_t stable_wm = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// Head -> successor -> ...: down-chain propagation of one write. The node at
// position == ack_at replies to the client; the tail marks the version
// DC-Write-Stable and starts the backward stability notification.
struct CrxChainPut {
  static constexpr MsgType kType = MsgType::kCrxChainPut;
  Key key;
  Value value;
  Version version;
  Address client = 0;     // 0 for remote (geo) updates: no client ack needed
  RequestId req = 0;
  ChainIndex ack_at = 0;  // k; 0 = never ack (remote update)
  uint64_t epoch = 0;     // membership epoch the sender believed in
  // Pipelining sequence number, monotone per (sender, successor) link; 0
  // for out-of-band re-propagation (anti-entropy, chain repair). Receivers
  // use it for cumulative acking (CrxPutAckBatch::up_to_seq).
  uint64_t chain_seq = 0;
  std::vector<Dependency> deps;  // shipped to the geo replicator at the tail
  TraceContext trace;     // per-hop annotations of the traced write
  // v2 frames piggyback the sender's own stable cut (valid for `epoch`) so
  // chain neighbors learn each other's watermark from hot-path traffic.
  uint64_t stable_cut = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// Tail -> predecessor -> ... -> head: version became DC-Write-Stable.
struct CrxStableNotify {
  static constexpr MsgType kType = MsgType::kCrxStableNotify;
  Key key;
  Version version;
  uint64_t epoch = 0;
  // v2 frames piggyback the sender's own stable cut (valid for `epoch`).
  uint64_t stable_cut = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// Head of a writing chain -> tail of a dependency's chain: "tell me when
// `key` reaches `version` (DC-Write-Stable)".
struct CrxStabilityCheck {
  static constexpr MsgType kType = MsgType::kCrxStabilityCheck;
  Key key;
  Version version;
  uint64_t token = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

struct CrxStabilityConfirm {
  static constexpr MsgType kType = MsgType::kCrxStabilityConfirm;
  uint64_t token = 0;
  Key key;  // which dependency this confirms (idempotent per-dep tracking)

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// Node -> every ring peer: low-rate direct gossip of the sender's stable
// cut. Piggybacked cuts on chain traffic only reach ring neighbors that
// happen to share a chain link; this broadcast closes the gap so the
// cluster minimum converges on every node. Sent only while dep_watermark is
// enabled and the node has recently processed protocol traffic (quiescent
// clusters stay quiescent).
struct CrxWatermark {
  static constexpr MsgType kType = MsgType::kCrxWatermark;
  NodeId node = 0;      // sender
  uint64_t epoch = 0;   // membership epoch the cut is valid for
  uint64_t cut = 0;     // all local-origin versions with lamport <= cut are
                        // DC-Write-Stable at the sender

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// ---------------------------------------------------------------------------
// Zero-copy view decoding for the hot-path Crx structs
// ---------------------------------------------------------------------------
//
// The *View structs mirror their owned counterparts field for field, but
// key/value are std::string_view aliases into the frame buffer and the
// dependency list is an inline-capacity DepList — decoding a common put
// touches the allocator zero times. They decode BOTH wire formats (the
// DecodeMessage dispatch is format-blind) and encode byte-identically to
// the owned structs, which is what lets a chain node re-encode its forward
// frame straight from the inbound views without materializing the value.
//
// LIFETIME RULES (DESIGN.md §15):
//   * A decoded view is valid only while the source buffer is alive and
//     unmodified — in practice, only within the OnMessage call that decoded
//     it. Both transports guarantee the receive buffer outlives the call.
//   * Anything that must survive the call (parked puts, rejoin buffers,
//     deferred retries) materializes via ToOwned() at the park boundary.
//   * Encoding a view (chain forward, get reply) copies the viewed bytes
//     into the new frame, so the encoded frame never aliases the source.

struct CrxPutView {
  static constexpr MsgType kType = MsgType::kCrxPut;
  RequestId req = 0;
  Address client = 0;
  std::string_view key;
  std::string_view value;
  DepList deps;
  TraceContext trace;
  uint64_t wm_epoch = 0;
  uint64_t dep_wm = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;

  // Materializes an owned copy (for parking past the view's lifetime).
  CrxPut ToOwned() const;
  // Views into an owned message (single code path for park-and-replay).
  static CrxPutView From(const CrxPut& m);
};

struct CrxChainPutView {
  static constexpr MsgType kType = MsgType::kCrxChainPut;
  std::string_view key;
  std::string_view value;
  Version version;
  Address client = 0;
  RequestId req = 0;
  ChainIndex ack_at = 0;
  uint64_t epoch = 0;
  uint64_t chain_seq = 0;
  DepList deps;
  TraceContext trace;
  uint64_t stable_cut = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;

  CrxChainPut ToOwned() const;
  static CrxChainPutView From(const CrxChainPut& m);
};

struct CrxGetView {
  static constexpr MsgType kType = MsgType::kCrxGet;
  RequestId req = 0;
  Address client = 0;
  std::string_view key;
  Version min_version;
  bool with_deps = false;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;

  // Materializes an owned copy (for parking past the view's lifetime).
  CrxGet ToOwned() const;
  // Views into an owned message (single code path for park-and-replay).
  static CrxGetView From(const CrxGet& m);
};

struct CrxGetReplyView {
  static constexpr MsgType kType = MsgType::kCrxGetReply;
  RequestId req = 0;
  std::string_view key;
  bool found = false;
  std::string_view value;  // may alias the answering node's store
  Version version;
  ChainIndex position = 0;
  bool stable = false;
  DepList deps;
  uint64_t wm_epoch = 0;
  uint64_t stable_wm = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const;
};

// ---------------------------------------------------------------------------
// Classic chain replication (linearizable; FAWN-KV baseline)
// ---------------------------------------------------------------------------

struct CrPut {
  static constexpr MsgType kType = MsgType::kCrPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CrChainPut {
  static constexpr MsgType kType = MsgType::kCrChainPut;
  Key key;
  Value value;
  uint64_t seq = 0;
  Address client = 0;
  RequestId req = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CrPutAck {
  static constexpr MsgType kType = MsgType::kCrPutAck;
  RequestId req = 0;
  Key key;
  uint64_t seq = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Tail -> ... -> head: FAWN-KV propagates write acks back up the chain (the
// head answers the client), which is the extra write latency the paper's
// baseline pays.
struct CrChainAck {
  static constexpr MsgType kType = MsgType::kCrChainAck;
  Key key;
  uint64_t seq = 0;
  Address client = 0;
  RequestId req = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CrGet {
  static constexpr MsgType kType = MsgType::kCrGet;
  RequestId req = 0;
  Address client = 0;
  Key key;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CrGetReply {
  static constexpr MsgType kType = MsgType::kCrGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  uint64_t seq = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// ---------------------------------------------------------------------------
// CRAQ
// ---------------------------------------------------------------------------

struct CraqPut {
  static constexpr MsgType kType = MsgType::kCraqPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CraqChainPut {
  static constexpr MsgType kType = MsgType::kCraqChainPut;
  Key key;
  Value value;
  uint64_t seq = 0;
  Address client = 0;
  RequestId req = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Tail -> ... -> head after commit so nodes can mark the version clean.
struct CraqCommit {
  static constexpr MsgType kType = MsgType::kCraqCommit;
  Key key;
  uint64_t seq = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CraqPutAck {
  static constexpr MsgType kType = MsgType::kCraqPutAck;
  RequestId req = 0;
  Key key;
  uint64_t seq = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CraqGet {
  static constexpr MsgType kType = MsgType::kCraqGet;
  RequestId req = 0;
  Address client = 0;
  Key key;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CraqGetReply {
  static constexpr MsgType kType = MsgType::kCraqGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  uint64_t seq = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Non-tail node with a dirty version -> tail: which seq is committed?
struct CraqVersionQuery {
  static constexpr MsgType kType = MsgType::kCraqVersionQuery;
  Key key;
  RequestId req = 0;    // original client request, echoed in the reply
  Address client = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct CraqVersionReply {
  static constexpr MsgType kType = MsgType::kCraqVersionReply;
  Key key;
  uint64_t committed_seq = 0;
  RequestId req = 0;
  Address client = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// ---------------------------------------------------------------------------
// Eventual / quorum baseline (Cassandra stand-in)
// ---------------------------------------------------------------------------

struct EvPut {
  static constexpr MsgType kType = MsgType::kEvPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct EvReplicate {
  static constexpr MsgType kType = MsgType::kEvReplicate;
  Key key;
  Value value;
  Version version;
  uint64_t token = 0;  // nonzero when the coordinator counts acks (quorum)

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct EvReplicateAck {
  static constexpr MsgType kType = MsgType::kEvReplicateAck;
  uint64_t token = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct EvPutAck {
  static constexpr MsgType kType = MsgType::kEvPutAck;
  RequestId req = 0;
  Key key;
  Version version;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct EvGet {
  static constexpr MsgType kType = MsgType::kEvGet;
  RequestId req = 0;
  Address client = 0;
  Key key;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct EvGetReply {
  static constexpr MsgType kType = MsgType::kEvGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  Version version;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct EvReadQuery {
  static constexpr MsgType kType = MsgType::kEvReadQuery;
  uint64_t token = 0;
  Key key;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

struct EvReadReply {
  static constexpr MsgType kType = MsgType::kEvReadReply;
  uint64_t token = 0;
  Key key;
  bool found = false;
  Value value;
  Version version;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// ---------------------------------------------------------------------------
// Geo-replication
// ---------------------------------------------------------------------------

// Tail -> local geo replicator: a version became DC-Write-Stable here.
// Carries the value and deps only for locally-originated writes (those must
// be shipped to peers); remote-origin notifications resolve dependency waits
// and produce GeoApplied acks.
struct GeoLocalStable {
  static constexpr MsgType kType = MsgType::kGeoLocalStable;
  Key key;
  Version version;
  bool has_payload = false;
  Value value;
  std::vector<Dependency> deps;
  TraceContext trace;  // carried so geo shipping extends the put's trace

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
};

// Replicator -> tail: the GeoLocalStable notification for (key, version)
// was processed; the tail stops resending it.
struct GeoLocalStableAck {
  static constexpr MsgType kType = MsgType::kGeoLocalStableAck;
  Key key;
  Version version;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Origin replicator -> peer replicator, FIFO per channel.
struct GeoShip {
  static constexpr MsgType kType = MsgType::kGeoShip;
  DcId origin_dc = 0;
  uint64_t channel_seq = 0;
  Key key;
  Value value;
  Version version;
  std::vector<Dependency> deps;
  TraceContext trace;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
};

// Origin replicator -> peer replicator: several stable versions shipped in
// one frame. With CrxConfig::geo_ship_batch_window > 0, outgoing GeoShips
// for one peer are coalesced until the next Env::Defer flush; the receiver
// processes the entries in order, exactly as if they had arrived as
// individual GeoShip frames (channel FIFO order is preserved,
// retransmission remains per-entry).
struct GeoShipBatch {
  static constexpr MsgType kType = MsgType::kGeoShipBatch;
  std::vector<GeoShip> ships;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
};

// Peer replicator -> origin replicator: the update is applied (and locally
// stable) at dest_dc. Origin marks Global-Write-Stable when all peers acked.
struct GeoApplied {
  static constexpr MsgType kType = MsgType::kGeoApplied;
  DcId dest_dc = 0;
  uint64_t channel_seq = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Remote replicator -> local chain head: inject a dependency-cleared remote
// update into the local chain.
struct GeoRemotePut {
  static constexpr MsgType kType = MsgType::kGeoRemotePut;
  Key key;
  Value value;
  Version version;
  std::vector<Dependency> deps;  // preserved for multi-get snapshots
  TraceContext trace;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const;
};

// ---------------------------------------------------------------------------
// Membership / chain repair
// ---------------------------------------------------------------------------

// Membership service -> every node: the ring changed.
struct MemNewMembership {
  static constexpr MsgType kType = MsgType::kMemNewMembership;
  uint64_t epoch = 0;
  std::vector<NodeId> nodes;  // live nodes, ring placement derived from ids
  // Per-node vnode counts, parallel to `nodes`. Empty means every node uses
  // the configured default — the pre-rebalance wire behavior.
  std::vector<uint32_t> weights;
  // Nodes whose new key ranges were pre-streamed by a planned migration
  // before this epoch was committed: chain repair skips the per-key
  // MemSyncKey pushes to them (the migration already transferred the data).
  std::vector<NodeId> pre_synced;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Node -> membership service: liveness heartbeat (when failure detection
// is enabled; by default the membership service is an oracle).
struct MemHeartbeat {
  static constexpr MsgType kType = MsgType::kMemHeartbeat;
  NodeId node = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Chain predecessor -> newly added chain member: state transfer of one key.
struct MemSyncKey {
  static constexpr MsgType kType = MsgType::kMemSyncKey;
  uint64_t epoch = 0;
  Key key;
  Value value;
  Version version;
  bool stable = false;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Established node -> node added in `epoch`: all repair pushes for that
// epoch have been sent (links are FIFO, so this arrives after them). A
// rejoining node holds client traffic until every established peer's marker
// arrives — completion-based, because under load the repair sync storm can
// far outlast any fixed grace window.
struct MemSyncDone {
  static constexpr MsgType kType = MsgType::kMemSyncDone;
  uint64_t epoch = 0;
  NodeId from = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// ---------------------------------------------------------------------------
// Key-range migration (src/admin/ — planned join / drain / rebalance)
// ---------------------------------------------------------------------------

// Coordinator -> source node: start streaming the key ranges that change
// hands under the planned ring. The source computes the planned ring locally
// from (planned_nodes, planned_weights) and, for every key it currently
// heads, streams the key's versions to each node that is in the planned
// chain but not the current one. Until the planned epoch commits (or the
// migration aborts) the source also mirrors new writes to those targets —
// the CATCHUP window that ships the WAL tail.
struct MigSnapshotRequest {
  static constexpr MsgType kType = MsgType::kMigSnapshotRequest;
  uint64_t migration_id = 0;
  uint64_t epoch = 0;          // ring epoch the plan was made against
  uint64_t planned_epoch = 0;  // epoch the coordinator will commit
  std::vector<NodeId> planned_nodes;
  std::vector<uint32_t> planned_weights;  // parallel to planned_nodes; may be empty
  Address coordinator = 0;
  uint32_t batch_keys = 64;      // keys streamed per self-scheduled tick
  uint64_t batch_interval = 0;   // microseconds between ticks (0 = back-to-back)

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// One migrated version: full causal metadata (version, stability, write-time
// dependency list) so the target can serve reads and geo shipping exactly as
// the source would. has_value=false carries a pure stability mark for a
// version the target already holds.
struct MigEntry {
  Key key;
  bool has_value = true;
  Value value;
  Version version;
  bool stable = false;
  std::vector<Dependency> deps;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Source -> target: a batch of migrated versions. `last` marks the end of
// the bulk snapshot for this (source, target) stream; the target then acks
// the seal to the coordinator. Catchup mirror entries keep flowing after
// `last` until the epoch flips (links are FIFO, so everything mirrored
// before the source observes the flip lands before the source's
// MemSyncDone marker).
struct MigKeyBatch {
  static constexpr MsgType kType = MsgType::kMigKeyBatch;
  uint64_t migration_id = 0;
  uint64_t epoch = 0;  // source's ring epoch at send time
  NodeId source = 0;
  NodeId target = 0;
  Address coordinator = 0;
  uint64_t seq = 0;  // per-(source,target) batch sequence
  bool last = false;
  std::vector<MigEntry> entries;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Source -> coordinator: the bulk snapshot scan finished (`targets` lists
// the nodes this source streamed to), or the request was refused
// (aborted=true, e.g. stale epoch).
struct MigSnapshotDone {
  static constexpr MsgType kType = MsgType::kMigSnapshotDone;
  uint64_t migration_id = 0;
  NodeId from = 0;
  uint64_t keys_streamed = 0;
  std::vector<NodeId> targets;
  bool aborted = false;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Target -> coordinator: every batch of one (source, target) stream up to
// and including the `last` one has been applied; the stream is SEALED.
struct MigRangeSealed {
  static constexpr MsgType kType = MsgType::kMigRangeSealed;
  uint64_t migration_id = 0;
  NodeId source = 0;
  NodeId target = 0;
  uint64_t entries_applied = 0;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Coordinator -> membership service: every stream is sealed; commit the
// planned topology as `planned_epoch` and broadcast it (with `pre_synced`
// so chain repair skips re-pushing what the migration already moved).
struct MigCommit {
  static constexpr MsgType kType = MsgType::kMigCommit;
  uint64_t migration_id = 0;
  uint64_t planned_epoch = 0;
  std::vector<NodeId> nodes;
  std::vector<uint32_t> weights;
  std::vector<NodeId> pre_synced;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

// Coordinator -> sources: stop streaming/mirroring for this migration (a
// node died mid-transfer, the epoch moved underneath the plan, or the
// migration timed out). Targets keep whatever they already applied — the
// entries are real versions, idempotent and harmless outside the chain.
struct MigAbort {
  static constexpr MsgType kType = MsgType::kMigAbort;
  uint64_t migration_id = 0;
  std::string reason;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
};

}  // namespace chainreaction

#endif  // SRC_MSG_MESSAGE_H_
