// Serialization round-trip and robustness tests for every wire message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/msg/message.h"

// Per-thread allocation accounting for the decode-bound test: only the
// thread that turns counting on is measured.
namespace {
thread_local bool t_count_allocs = false;
thread_local size_t t_alloc_bytes = 0;

void* CountedAlloc(size_t size) {
  if (t_count_allocs) {
    t_alloc_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace chainreaction {
namespace {

Version SampleVersion() {
  Version v;
  v.vv = VersionVector(2);
  v.vv.Set(0, 3);
  v.vv.Set(1, 1);
  v.lamport = 123456;
  v.origin = 1;
  return v;
}

std::vector<Dependency> SampleDeps() {
  Dependency d1{"dep-key-1", SampleVersion()};
  Dependency d2{"dep-key-2", Version{}};
  return {d1, d2};
}

TEST(Message, PeekType) {
  CrxPut put;
  put.key = "k";
  const std::string payload = EncodeMessage(put);
  EXPECT_EQ(PeekType(payload), MsgType::kCrxPut);
  EXPECT_EQ(PeekType(""), MsgType::kInvalid);
  EXPECT_EQ(PeekType("x"), MsgType::kInvalid);
}

TEST(Message, TypeMismatchRejected) {
  CrxPut put;
  put.key = "k";
  const std::string payload = EncodeMessage(put);
  CrxGet get;
  EXPECT_FALSE(DecodeMessage(payload, &get));
}

TEST(Message, CrxPutRoundTrip) {
  CrxPut m;
  m.req = 77;
  m.client = 1234;
  m.key = "the-key";
  m.value = std::string(300, 'v');
  m.deps = SampleDeps();
  CrxPut out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out));
  EXPECT_EQ(out.req, m.req);
  EXPECT_EQ(out.client, m.client);
  EXPECT_EQ(out.key, m.key);
  EXPECT_EQ(out.value, m.value);
  ASSERT_EQ(out.deps.size(), 2u);
  EXPECT_EQ(out.deps[0].key, "dep-key-1");
  EXPECT_TRUE(out.deps[0].version == SampleVersion());
  EXPECT_TRUE(out.deps[1].version.IsNull());
}

TEST(Message, CrxPutAckRoundTrip) {
  CrxPutAck m;
  m.req = 9;
  m.key = "k";
  m.version = SampleVersion();
  m.acked_at = 2;
  CrxPutAck out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out));
  EXPECT_EQ(out.acked_at, 2u);
  EXPECT_TRUE(out.version == m.version);
}

TEST(Message, CrxGetAndReplyRoundTrip) {
  CrxGet g;
  g.req = 5;
  g.client = 42;
  g.key = "k";
  g.min_version = SampleVersion();
  CrxGet gout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(g), &gout));
  EXPECT_TRUE(gout.min_version == g.min_version);

  CrxGetReply r;
  r.req = 5;
  r.key = "k";
  r.found = true;
  r.value = "val";
  r.version = SampleVersion();
  r.position = 3;
  r.stable = true;
  CrxGetReply rout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(r), &rout));
  EXPECT_TRUE(rout.found);
  EXPECT_TRUE(rout.stable);
  EXPECT_EQ(rout.position, 3u);
}

TEST(Message, CrxChainPutRoundTrip) {
  CrxChainPut m;
  m.key = "k";
  m.value = "v";
  m.version = SampleVersion();
  m.client = 17;
  m.req = 3;
  m.ack_at = 2;
  m.epoch = 8;
  m.deps = SampleDeps();
  CrxChainPut out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out));
  EXPECT_EQ(out.epoch, 8u);
  EXPECT_EQ(out.ack_at, 2u);
  EXPECT_EQ(out.deps.size(), 2u);
}

TEST(Message, StabilityMessagesRoundTrip) {
  CrxStableNotify n;
  n.key = "k";
  n.version = SampleVersion();
  n.epoch = 2;
  CrxStableNotify nout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(n), &nout));
  EXPECT_EQ(nout.key, "k");

  CrxStabilityCheck c;
  c.key = "k";
  c.version = SampleVersion();
  c.token = 99;
  CrxStabilityCheck cout_;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(c), &cout_));
  EXPECT_EQ(cout_.token, 99u);

  CrxStabilityConfirm f;
  f.token = 99;
  CrxStabilityConfirm fout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(f), &fout));
  EXPECT_EQ(fout.token, 99u);
}

TEST(Message, CrMessagesRoundTrip) {
  CrPut p;
  p.req = 1;
  p.client = 2;
  p.key = "k";
  p.value = "v";
  CrPut pout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(p), &pout));
  EXPECT_EQ(pout.value, "v");

  CrChainPut cp;
  cp.key = "k";
  cp.value = "v";
  cp.seq = 12;
  cp.client = 2;
  cp.req = 1;
  CrChainPut cpout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(cp), &cpout));
  EXPECT_EQ(cpout.seq, 12u);

  CrGetReply gr;
  gr.req = 1;
  gr.key = "k";
  gr.found = true;
  gr.value = "v";
  gr.seq = 12;
  CrGetReply grout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(gr), &grout));
  EXPECT_EQ(grout.seq, 12u);
}

TEST(Message, CraqMessagesRoundTrip) {
  CraqVersionQuery q;
  q.key = "k";
  q.req = 4;
  q.client = 5;
  CraqVersionQuery qout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(q), &qout));
  EXPECT_EQ(qout.client, 5u);

  CraqVersionReply r;
  r.key = "k";
  r.committed_seq = 10;
  r.req = 4;
  r.client = 5;
  CraqVersionReply rout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(r), &rout));
  EXPECT_EQ(rout.committed_seq, 10u);

  CraqCommit c;
  c.key = "k";
  c.seq = 10;
  CraqCommit cout_;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(c), &cout_));
  EXPECT_EQ(cout_.seq, 10u);
}

TEST(Message, EventualMessagesRoundTrip) {
  EvReplicate m;
  m.key = "k";
  m.value = "v";
  m.version = SampleVersion();
  m.token = 6;
  EvReplicate out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out));
  EXPECT_EQ(out.token, 6u);

  EvReadReply rr;
  rr.token = 6;
  rr.key = "k";
  rr.found = true;
  rr.value = "v";
  rr.version = SampleVersion();
  EvReadReply rrout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(rr), &rrout));
  EXPECT_TRUE(rrout.found);
}

TEST(Message, GeoMessagesRoundTrip) {
  GeoShip s;
  s.origin_dc = 1;
  s.channel_seq = 44;
  s.key = "k";
  s.value = "v";
  s.version = SampleVersion();
  s.deps = SampleDeps();
  GeoShip sout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(s), &sout));
  EXPECT_EQ(sout.origin_dc, 1u);
  EXPECT_EQ(sout.channel_seq, 44u);
  EXPECT_EQ(sout.deps.size(), 2u);

  GeoLocalStable ls;
  ls.key = "k";
  ls.version = SampleVersion();
  ls.has_payload = true;
  ls.value = "v";
  ls.deps = SampleDeps();
  GeoLocalStable lsout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(ls), &lsout));
  EXPECT_TRUE(lsout.has_payload);

  GeoApplied a;
  a.dest_dc = 2;
  a.channel_seq = 44;
  GeoApplied aout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(a), &aout));
  EXPECT_EQ(aout.dest_dc, 2u);

  GeoRemotePut rp;
  rp.key = "k";
  rp.value = "v";
  rp.version = SampleVersion();
  GeoRemotePut rpout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(rp), &rpout));
  EXPECT_EQ(rpout.key, "k");
}

TEST(Message, MembershipMessagesRoundTrip) {
  MemNewMembership m;
  m.epoch = 3;
  m.nodes = {1, 2, 3, 99};
  MemNewMembership out;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(m), &out));
  EXPECT_EQ(out.nodes, m.nodes);

  MemSyncKey s;
  s.epoch = 3;
  s.key = "k";
  s.value = "v";
  s.version = SampleVersion();
  s.stable = true;
  MemSyncKey sout;
  ASSERT_TRUE(DecodeMessage(EncodeMessage(s), &sout));
  EXPECT_TRUE(sout.stable);
}

TEST(Message, TruncationNeverCrashes) {
  CrxChainPut m;
  m.key = "some-key";
  m.value = "some-value";
  m.version = SampleVersion();
  m.deps = SampleDeps();
  const std::string payload = EncodeMessage(m);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    CrxChainPut out;
    const std::string truncated = payload.substr(0, cut);
    EXPECT_FALSE(DecodeMessage(truncated, &out)) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Fuzz-lite property harness. Every wire struct gets, on random contents:
//   (a) a byte-stable round trip — encode, decode, re-encode, compare bytes
//       (stronger than field equality: catches lossy or non-canonical
//       encodings that would defeat dedup and retransmission comparison);
//   (b) decode failure at every truncation point (all fields are mandatory
//       sequential reads, so no strict prefix may parse);
//   (c) crash-free handling of single-byte corruptions — if a mutated
//       payload happens to decode, the result must re-encode cleanly;
//   (d) crash-free rejection of pure random garbage.
// ---------------------------------------------------------------------------

Key FuzzKey(Rng* rng) {
  Key k = "fk";
  const size_t len = rng->NextBelow(24);
  for (size_t i = 0; i < len; ++i) {
    k.push_back(static_cast<char>('a' + rng->NextBelow(26)));
  }
  return k;
}

Value FuzzValue(Rng* rng) {
  Value v;
  const size_t len = rng->NextBelow(300);
  for (size_t i = 0; i < len; ++i) {
    v.push_back(static_cast<char>(rng->NextBelow(256)));
  }
  return v;
}

Version FuzzVersion(Rng* rng) {
  Version v;
  if (rng->NextBelow(8) == 0) {
    return v;  // null version
  }
  const uint32_t n = 1 + static_cast<uint32_t>(rng->NextBelow(4));
  v.vv = VersionVector(n);
  for (uint32_t i = 0; i < n; ++i) {
    v.vv.Set(i, rng->NextBelow(1u << 20));
  }
  v.lamport = rng->NextBelow(1ull << 40);
  v.origin = static_cast<DcId>(rng->NextBelow(4));
  return v;
}

std::vector<Dependency> FuzzDeps(Rng* rng) {
  std::vector<Dependency> deps;
  const size_t n = rng->NextBelow(4);
  for (size_t i = 0; i < n; ++i) {
    deps.push_back(Dependency{FuzzKey(rng), FuzzVersion(rng)});
  }
  return deps;
}

TraceContext FuzzTrace(Rng* rng) {
  TraceContext t;
  if (rng->NextBool(0.5)) {
    return t;  // untraced request
  }
  t.id = rng->Next() | 1;
  const size_t n = rng->NextBelow(5);
  for (size_t i = 0; i < n; ++i) {
    t.Annotate(static_cast<HopKind>(1 + rng->NextBelow(10)),
               static_cast<uint32_t>(rng->Next()), static_cast<uint16_t>(rng->Next()),
               static_cast<uint32_t>(rng->Next()),
               static_cast<Time>(rng->NextBelow(1ull << 40)));
  }
  return t;
}

// Runs the (a)/(b)/(c) properties for one struct type. `fill` populates a
// default-constructed message from the rng.
template <typename M, typename FillFn>
void FuzzStruct(const char* name, uint64_t seed, FillFn fill) {
  Rng rng(seed);
  for (int trial = 0; trial < 15; ++trial) {
    M m;
    fill(&m, &rng);
    const std::string payload = EncodeMessage(m);
    M out;
    ASSERT_TRUE(DecodeMessage(payload, &out)) << name << " trial=" << trial;
    EXPECT_EQ(EncodeMessage(out), payload) << name << " trial=" << trial;
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      M t;
      EXPECT_FALSE(DecodeMessage(payload.substr(0, cut), &t))
          << name << " trial=" << trial << " cut=" << cut;
    }
    for (int mut = 0; mut < 10; ++mut) {
      std::string corrupted = payload;
      const size_t pos = rng.NextBelow(corrupted.size());
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ static_cast<char>(1 + rng.NextBelow(255)));
      M c;
      if (DecodeMessage(corrupted, &c)) {
        (void)EncodeMessage(c);
      }
    }
  }
}

// Same properties for every hot-path struct (all varint-coded), with the
// watermark fields populated.
TEST(MessageFuzz, ChainReactionStructsV2) {
  FuzzStruct<CrxPut>(
      "CrxPutV2", 111,
      [](CrxPut* m, Rng* rng) {
        m->req = rng->Next();
        m->client = static_cast<Address>(rng->Next());
        m->key = FuzzKey(rng);
        m->value = FuzzValue(rng);
        m->deps = FuzzDeps(rng);
        m->wm_epoch = rng->NextBelow(100);
        m->dep_wm = rng->NextBelow(1ull << 40);
        m->trace = FuzzTrace(rng);
      });
  FuzzStruct<CrxPutAck>(
      "CrxPutAckV2", 112,
      [](CrxPutAck* m, Rng* rng) {
        m->req = rng->Next();
        m->key = FuzzKey(rng);
        m->version = FuzzVersion(rng);
        m->acked_at = static_cast<ChainIndex>(rng->NextBelow(8));
        m->wm_epoch = rng->NextBelow(100);
        m->stable_wm = rng->NextBelow(1ull << 40);
        m->trace = FuzzTrace(rng);
      });
  FuzzStruct<CrxPutAckBatch>(
      "CrxPutAckBatchV2", 113,
      [](CrxPutAckBatch* m, Rng* rng) {
        m->up_to_seq = rng->NextBelow(1ull << 40);
        const size_t n = rng->NextBelow(5);
        for (size_t i = 0; i < n; ++i) {
          CrxPutAck a;
          a.req = rng->Next();
          a.key = FuzzKey(rng);
          a.version = FuzzVersion(rng);
          a.acked_at = static_cast<ChainIndex>(rng->NextBelow(8));
          a.stable_wm = rng->NextBelow(1ull << 40);
          a.trace = FuzzTrace(rng);
          m->acks.push_back(a);
        }
      });
  FuzzStruct<CrxGet>(
      "CrxGetV2", 114,
      [](CrxGet* m, Rng* rng) {
        m->req = rng->Next();
        m->client = static_cast<Address>(rng->Next());
        m->key = FuzzKey(rng);
        m->min_version = FuzzVersion(rng);
        m->with_deps = rng->NextBool(0.5);
      });
  FuzzStruct<CrxGetReply>(
      "CrxGetReplyV2", 115,
      [](CrxGetReply* m, Rng* rng) {
        m->req = rng->Next();
        m->key = FuzzKey(rng);
        m->found = rng->NextBool(0.5);
        m->value = FuzzValue(rng);
        m->version = FuzzVersion(rng);
        m->position = static_cast<ChainIndex>(rng->NextBelow(8));
        m->stable = rng->NextBool(0.5);
        m->deps = FuzzDeps(rng);
        m->wm_epoch = rng->NextBelow(100);
        m->stable_wm = rng->NextBelow(1ull << 40);
      });
  FuzzStruct<CrxChainPut>(
      "CrxChainPutV2", 116,
      [](CrxChainPut* m, Rng* rng) {
        m->key = FuzzKey(rng);
        m->value = FuzzValue(rng);
        m->version = FuzzVersion(rng);
        m->client = static_cast<Address>(rng->Next());
        m->req = rng->Next();
        m->ack_at = static_cast<ChainIndex>(rng->NextBelow(8));
        m->epoch = rng->NextBelow(100);
        m->chain_seq = rng->NextBelow(1ull << 40);
        m->deps = FuzzDeps(rng);
        m->stable_cut = rng->NextBelow(1ull << 40);
        m->trace = FuzzTrace(rng);
      });
  FuzzStruct<CrxStableNotify>(
      "CrxStableNotifyV2", 117,
      [](CrxStableNotify* m, Rng* rng) {
        m->key = FuzzKey(rng);
        m->version = FuzzVersion(rng);
        m->epoch = rng->NextBelow(100);
        m->stable_cut = rng->NextBelow(1ull << 40);
      });
  FuzzStruct<CrxStabilityCheck>(
      "CrxStabilityCheckV2", 118,
      [](CrxStabilityCheck* m, Rng* rng) {
        m->key = FuzzKey(rng);
        m->version = FuzzVersion(rng);
        m->token = rng->Next();
      });
  FuzzStruct<CrxStabilityConfirm>(
      "CrxStabilityConfirmV2", 119,
      [](CrxStabilityConfirm* m, Rng* rng) {
        m->token = rng->Next();
        m->key = FuzzKey(rng);
      });
  FuzzStruct<CrxWatermark>(
      "CrxWatermarkV2", 121,
      [](CrxWatermark* m, Rng* rng) {
        m->node = static_cast<NodeId>(rng->NextBelow(1u << 16));
        m->epoch = rng->NextBelow(100);
        m->cut = rng->NextBelow(1ull << 40);
      });
}

// ---------------------------------------------------------------------------
// Varint edge cases: maximal encodings, overlong (non-canonical) encodings,
// and truncated continuation chains. The decoder must never crash, must
// reject every strict prefix, and must accept the 10-byte maximum.
// ---------------------------------------------------------------------------

TEST(Varint, MaximalTenByteEncoding) {
  ByteWriter w;
  w.PutVarU64(UINT64_MAX);
  EXPECT_EQ(w.size(), 10u);
  EXPECT_EQ(VarU64Size(UINT64_MAX), 10u);
  ByteReader r(w.data());
  uint64_t v = 0;
  ASSERT_TRUE(r.GetVarU64(&v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_EQ(r.remaining(), 0u);

  // Every power of two hits a distinct length bucket.
  for (int shift = 0; shift < 64; ++shift) {
    const uint64_t x = 1ull << shift;
    ByteWriter w2;
    w2.PutVarU64(x);
    EXPECT_EQ(w2.size(), VarU64Size(x)) << "shift=" << shift;
    ByteReader r2(w2.data());
    uint64_t y = 0;
    ASSERT_TRUE(r2.GetVarU64(&y)) << "shift=" << shift;
    EXPECT_EQ(y, x) << "shift=" << shift;
  }
}

TEST(Varint, TruncatedContinuationAlwaysFails) {
  // A continuation bit with no following byte must fail, at every length.
  for (size_t len = 1; len <= 9; ++len) {
    std::string buf(len, static_cast<char>(0x80));
    ByteReader r(buf);
    uint64_t v = 0;
    EXPECT_FALSE(r.GetVarU64(&v)) << "len=" << len;
  }
  // Same through the full varint encoding of a large value.
  ByteWriter w;
  w.PutVarU64(UINT64_MAX);
  const std::string full(w.data());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r(full.data(), cut);
    uint64_t v = 0;
    EXPECT_FALSE(r.GetVarU64(&v)) << "cut=" << cut;
  }
}

TEST(Varint, ContinuationPastTenBytesFails) {
  // 10 continuation bytes followed by a terminator would need shift >= 70:
  // the decoder must reject rather than silently wrap.
  std::string buf(10, static_cast<char>(0xFF));
  buf.push_back(0x01);
  ByteReader r(buf);
  uint64_t v = 0;
  EXPECT_FALSE(r.GetVarU64(&v));
}

TEST(Varint, OverlongEncodingDecodesWithoutCrashing) {
  // Non-canonical (overlong) encodings of small values: {0x80, 0x00} is a
  // two-byte zero. The decoder accepts them (receivers are liberal); the
  // byte-stability fuzz property separately guarantees our own encoder
  // never produces them.
  const std::string two_byte_zero("\x80\x00", 2);
  ByteReader r(two_byte_zero);
  uint64_t v = 99;
  ASSERT_TRUE(r.GetVarU64(&v));
  EXPECT_EQ(v, 0u);

  // Maximal overlong zero: nine 0x80 bytes + 0x00.
  std::string long_zero(9, static_cast<char>(0x80));
  long_zero.push_back(0x00);
  ByteReader r2(long_zero);
  v = 99;
  ASSERT_TRUE(r2.GetVarU64(&v));
  EXPECT_EQ(v, 0u);
}

TEST(Varint, ZigZagRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MAX, INT64_MIN, -123456789, 123456789};
  for (const int64_t x : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(x)), x);
    ByteWriter w;
    w.PutVarI64(x);
    EXPECT_EQ(w.size(), VarI64Size(x));
    ByteReader r(w.data());
    int64_t y = 0;
    ASSERT_TRUE(r.GetVarI64(&y));
    EXPECT_EQ(y, x);
  }
  // Small magnitudes stay small on the wire regardless of sign.
  EXPECT_EQ(VarI64Size(-1), 1u);
  EXPECT_EQ(VarI64Size(63), 1u);
  EXPECT_EQ(VarI64Size(-64), 1u);
}

TEST(MessageFuzz, ChainReplicationStructs) {
  FuzzStruct<CrPut>("CrPut", 201, [](CrPut* m, Rng* rng) {
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
  });
  FuzzStruct<CrChainPut>("CrChainPut", 202, [](CrChainPut* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->req = rng->Next();
  });
  FuzzStruct<CrPutAck>("CrPutAck", 203, [](CrPutAck* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CrChainAck>("CrChainAck", 204, [](CrChainAck* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->req = rng->Next();
  });
  FuzzStruct<CrGet>("CrGet", 205, [](CrGet* m, Rng* rng) {
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->key = FuzzKey(rng);
  });
  FuzzStruct<CrGetReply>("CrGetReply", 206, [](CrGetReply* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
  });
}

TEST(MessageFuzz, CraqStructs) {
  FuzzStruct<CraqPut>("CraqPut", 301, [](CraqPut* m, Rng* rng) {
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
  });
  FuzzStruct<CraqChainPut>("CraqChainPut", 302, [](CraqChainPut* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->req = rng->Next();
  });
  FuzzStruct<CraqCommit>("CraqCommit", 303, [](CraqCommit* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CraqPutAck>("CraqPutAck", 304, [](CraqPutAck* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CraqGet>("CraqGet", 305, [](CraqGet* m, Rng* rng) {
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->key = FuzzKey(rng);
  });
  FuzzStruct<CraqGetReply>("CraqGetReply", 306, [](CraqGetReply* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CraqVersionQuery>("CraqVersionQuery", 307, [](CraqVersionQuery* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
  });
  FuzzStruct<CraqVersionReply>("CraqVersionReply", 308, [](CraqVersionReply* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->committed_seq = rng->Next();
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
  });
}

TEST(MessageFuzz, EventualStructs) {
  FuzzStruct<EvPut>("EvPut", 401, [](EvPut* m, Rng* rng) {
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
  });
  FuzzStruct<EvReplicate>("EvReplicate", 402, [](EvReplicate* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->token = rng->Next();
  });
  FuzzStruct<EvReplicateAck>("EvReplicateAck", 403,
                             [](EvReplicateAck* m, Rng* rng) { m->token = rng->Next(); });
  FuzzStruct<EvPutAck>("EvPutAck", 404, [](EvPutAck* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
  });
  FuzzStruct<EvGet>("EvGet", 405, [](EvGet* m, Rng* rng) {
    m->req = rng->Next();
    m->client = static_cast<Address>(rng->Next());
    m->key = FuzzKey(rng);
  });
  FuzzStruct<EvGetReply>("EvGetReply", 406, [](EvGetReply* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
  });
  FuzzStruct<EvReadQuery>("EvReadQuery", 407, [](EvReadQuery* m, Rng* rng) {
    m->token = rng->Next();
    m->key = FuzzKey(rng);
  });
  FuzzStruct<EvReadReply>("EvReadReply", 408, [](EvReadReply* m, Rng* rng) {
    m->token = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
  });
}

TEST(MessageFuzz, GeoStructs) {
  FuzzStruct<GeoLocalStable>("GeoLocalStable", 501, [](GeoLocalStable* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
    m->has_payload = rng->NextBool(0.5);
    if (m->has_payload) {
      m->value = FuzzValue(rng);
      m->deps = FuzzDeps(rng);
    }
    m->trace = FuzzTrace(rng);
  });
  FuzzStruct<GeoLocalStableAck>("GeoLocalStableAck", 502, [](GeoLocalStableAck* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
  });
  FuzzStruct<GeoShip>("GeoShip", 503, [](GeoShip* m, Rng* rng) {
    m->origin_dc = static_cast<DcId>(rng->NextBelow(4));
    m->channel_seq = rng->NextBelow(1ull << 40);
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->deps = FuzzDeps(rng);
    m->trace = FuzzTrace(rng);
  });
  FuzzStruct<GeoShipBatch>("GeoShipBatch", 504, [](GeoShipBatch* m, Rng* rng) {
    const size_t n = rng->NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      GeoShip s;
      s.origin_dc = static_cast<DcId>(rng->NextBelow(4));
      s.channel_seq = rng->NextBelow(1ull << 40);
      s.key = FuzzKey(rng);
      s.value = FuzzValue(rng);
      s.version = FuzzVersion(rng);
      s.deps = FuzzDeps(rng);
      s.trace = FuzzTrace(rng);
      m->ships.push_back(s);
    }
  });
  FuzzStruct<GeoApplied>("GeoApplied", 505, [](GeoApplied* m, Rng* rng) {
    m->dest_dc = static_cast<DcId>(rng->NextBelow(4));
    m->channel_seq = rng->NextBelow(1ull << 40);
  });
  FuzzStruct<GeoRemotePut>("GeoRemotePut", 506, [](GeoRemotePut* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->deps = FuzzDeps(rng);
    m->trace = FuzzTrace(rng);
  });
}

TEST(MessageFuzz, MembershipStructs) {
  FuzzStruct<MemNewMembership>("MemNewMembership", 601, [](MemNewMembership* m, Rng* rng) {
    m->epoch = rng->NextBelow(100);
    const size_t n = rng->NextBelow(12);
    for (size_t i = 0; i < n; ++i) {
      m->nodes.push_back(static_cast<NodeId>(rng->NextBelow(256)));
      if (rng->NextBool(0.8)) {
        m->weights.push_back(1 + static_cast<uint32_t>(rng->NextBelow(64)));
      }
    }
    const size_t p = rng->NextBelow(4);
    for (size_t i = 0; i < p; ++i) {
      m->pre_synced.push_back(static_cast<NodeId>(rng->NextBelow(256)));
    }
  });
  FuzzStruct<MemHeartbeat>("MemHeartbeat", 602, [](MemHeartbeat* m, Rng* rng) {
    m->node = static_cast<NodeId>(rng->NextBelow(256));
  });
  FuzzStruct<MemSyncKey>("MemSyncKey", 603, [](MemSyncKey* m, Rng* rng) {
    m->epoch = rng->NextBelow(100);
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->stable = rng->NextBool(0.5);
  });
  FuzzStruct<MemSyncDone>("MemSyncDone", 604, [](MemSyncDone* m, Rng* rng) {
    m->epoch = rng->NextBelow(100);
    m->from = static_cast<NodeId>(rng->NextBelow(256));
  });
}

TEST(MessageFuzz, MigrationStructs) {
  FuzzStruct<MigSnapshotRequest>("MigSnapshotRequest", 701, [](MigSnapshotRequest* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->epoch = rng->NextBelow(100);
    m->planned_epoch = m->epoch + 1;
    const size_t n = rng->NextBelow(12);
    for (size_t i = 0; i < n; ++i) {
      m->planned_nodes.push_back(static_cast<NodeId>(rng->NextBelow(256)));
      m->planned_weights.push_back(1 + static_cast<uint32_t>(rng->NextBelow(64)));
    }
    m->coordinator = static_cast<Address>(rng->Next());
    m->batch_keys = 1 + static_cast<uint32_t>(rng->NextBelow(256));
    m->batch_interval = rng->NextBelow(1ull << 30);
  });
  auto fuzz_entry = [](Rng* rng) {
    MigEntry e;
    e.key = FuzzKey(rng);
    e.has_value = rng->NextBool(0.7);
    e.value = e.has_value ? FuzzValue(rng) : Value();
    e.version = FuzzVersion(rng);
    e.stable = rng->NextBool(0.5);
    e.deps = FuzzDeps(rng);
    return e;
  };
  FuzzStruct<MigKeyBatch>("MigKeyBatch", 702, [&](MigKeyBatch* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->epoch = rng->NextBelow(100);
    m->source = static_cast<NodeId>(rng->NextBelow(256));
    m->target = static_cast<NodeId>(rng->NextBelow(256));
    m->coordinator = static_cast<Address>(rng->Next());
    m->seq = rng->NextBelow(1ull << 30);
    m->last = rng->NextBool(0.3);
    const size_t n = rng->NextBelow(5);
    for (size_t i = 0; i < n; ++i) {
      m->entries.push_back(fuzz_entry(rng));
    }
  });
  FuzzStruct<MigSnapshotDone>("MigSnapshotDone", 703, [](MigSnapshotDone* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->from = static_cast<NodeId>(rng->NextBelow(256));
    m->keys_streamed = rng->NextBelow(1ull << 30);
    const size_t n = rng->NextBelow(6);
    for (size_t i = 0; i < n; ++i) {
      m->targets.push_back(static_cast<NodeId>(rng->NextBelow(256)));
    }
    m->aborted = rng->NextBool(0.2);
  });
  FuzzStruct<MigRangeSealed>("MigRangeSealed", 704, [](MigRangeSealed* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->source = static_cast<NodeId>(rng->NextBelow(256));
    m->target = static_cast<NodeId>(rng->NextBelow(256));
    m->entries_applied = rng->NextBelow(1ull << 30);
  });
  FuzzStruct<MigCommit>("MigCommit", 705, [](MigCommit* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->planned_epoch = rng->NextBelow(100);
    const size_t n = rng->NextBelow(12);
    for (size_t i = 0; i < n; ++i) {
      m->nodes.push_back(static_cast<NodeId>(rng->NextBelow(256)));
      m->weights.push_back(1 + static_cast<uint32_t>(rng->NextBelow(64)));
    }
    const size_t p = rng->NextBelow(4);
    for (size_t i = 0; i < p; ++i) {
      m->pre_synced.push_back(static_cast<NodeId>(rng->NextBelow(256)));
    }
  });
  FuzzStruct<MigAbort>("MigAbort", 706, [](MigAbort* m, Rng* rng) {
    m->migration_id = rng->NextBool(0.2) ? 0 : rng->Next();  // 0 = wildcard
    const size_t len = rng->NextBelow(40);
    for (size_t i = 0; i < len; ++i) {
      m->reason.push_back(static_cast<char>('a' + rng->NextBelow(26)));
    }
  });
}

// Decodes `garbage` into each struct type; none may crash.
template <typename M>
void DecodeGarbageInto(const std::string& garbage) {
  M m;
  (void)DecodeMessage(garbage, &m);
}

template <typename... Ms>
void DecodeGarbageIntoAll(const std::string& garbage) {
  (DecodeGarbageInto<Ms>(garbage), ...);
}

TEST(MessageFuzz, GarbageNeverCrashes) {
  Rng rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const size_t len = rng.NextBelow(200);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    DecodeGarbageIntoAll<CrxPut, CrxPutAck, CrxPutAckBatch, CrxGet, CrxGetReply, CrxChainPut,
                         CrxStableNotify, CrxStabilityCheck, CrxStabilityConfirm, CrPut,
                         CrChainPut, CrPutAck, CrChainAck, CrGet, CrGetReply, CraqPut,
                         CraqChainPut, CraqCommit, CraqPutAck, CraqGet, CraqGetReply,
                         CraqVersionQuery, CraqVersionReply, EvPut, EvReplicate, EvReplicateAck,
                         EvPutAck, EvGet, EvGetReply, EvReadQuery, EvReadReply, GeoLocalStable,
                         GeoLocalStableAck, GeoShip, GeoShipBatch, GeoApplied, GeoRemotePut,
                         MemNewMembership, MemHeartbeat, MemSyncKey, MemSyncDone,
                         MigSnapshotRequest, MigKeyBatch, MigSnapshotDone, MigRangeSealed,
                         MigCommit, MigAbort>(garbage);
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Zero-copy view decoders (CrxPutView / CrxChainPutView / CrxGetView /
// CrxGetReplyView): parity with the owned decoders, buffer-lifetime
// discipline, and fuzz-lite robustness.
// ---------------------------------------------------------------------------

CrxPut SampleCrxPut() {
  CrxPut m;
  m.req = 77;
  m.client = 1234;
  m.key = "view-key";
  m.value = std::string(300, 'v');
  m.deps = SampleDeps();
  m.wm_epoch = 4;
  m.dep_wm = 99;
  m.trace.id = 0xabcdef;
  m.trace.Annotate(HopKind::kClientPut, 1234, 0, 2, 17);
  return m;
}

CrxChainPut SampleCrxChainPut() {
  CrxChainPut m;
  m.key = "chain-key";
  m.value = std::string(128, 'c');
  m.version = SampleVersion();
  m.client = 17;
  m.req = 3;
  m.ack_at = 2;
  m.epoch = 8;
  m.chain_seq = 41;
  m.deps = SampleDeps();
  m.stable_cut = 12345;
  return m;
}

CrxGet SampleCrxGet() {
  CrxGet m;
  m.req = 5;
  m.client = 42;
  m.key = "get-key";
  m.min_version = SampleVersion();
  m.with_deps = true;
  return m;
}

CrxGetReply SampleCrxGetReply() {
  CrxGetReply m;
  m.req = 5;
  m.key = "get-key";
  m.found = true;
  m.value = std::string(64, 'r');
  m.version = SampleVersion();
  m.position = 3;
  m.stable = true;
  m.deps = SampleDeps();
  m.wm_epoch = 2;
  m.stable_wm = 10;
  return m;
}

// Each hot-path struct: the view decoder must see exactly what the owned
// decoder sees, and encode-from-view must produce byte-identical frames to
// encode-from-owned.
template <typename Owned, typename View>
void CheckViewParity(const Owned& m) {
  const std::string frame = EncodeMessage(m);

  Owned owned;
  View view;
  ASSERT_TRUE(DecodeMessage(frame, &owned));
  ASSERT_TRUE(DecodeMessage(frame, &view));

  // Encode parity: the view round-trips to the identical byte stream.
  EXPECT_EQ(EncodeMessage(view), frame);
  // And ToOwned() produces a struct that re-encodes identically too.
  EXPECT_EQ(EncodeMessage(view.ToOwned()), frame);

  // The view's string fields alias the frame (zero-copy, not a copy that
  // happens to compare equal).
  const char* lo = frame.data();
  const char* hi = frame.data() + frame.size();
  EXPECT_TRUE(view.key.data() >= lo && view.key.data() + view.key.size() <= hi);
}

TEST(MessageView, ParityAllHotPathStructs) {
  CheckViewParity<CrxPut, CrxPutView>(SampleCrxPut());
  CheckViewParity<CrxChainPut, CrxChainPutView>(SampleCrxChainPut());
  CheckViewParity<CrxGet, CrxGetView>(SampleCrxGet());
  // CrxGetReplyView has no ToOwned (replies are consumed within the call);
  // check decode + encode parity by hand.
  const std::string frame = EncodeMessage(SampleCrxGetReply());
  CrxGetReplyView view;
  ASSERT_TRUE(DecodeMessage(frame, &view));
  EXPECT_EQ(EncodeMessage(view), frame);
  EXPECT_EQ(view.value, SampleCrxGetReply().value);
  ASSERT_EQ(view.deps.size(), 2u);
  EXPECT_EQ(std::string(view.deps[0].key), "dep-key-1");
}

TEST(MessageView, FromOwnedMatchesDecodedView) {
  const CrxChainPut m = SampleCrxChainPut();
  const CrxChainPutView v = CrxChainPutView::From(m);
  EXPECT_EQ(v.key, m.key);
  EXPECT_EQ(v.value, m.value);
  EXPECT_EQ(v.chain_seq, m.chain_seq);
  EXPECT_EQ(v.deps.size(), m.deps.size());
  // From() aliases the owned struct's strings — same zero-copy contract.
  EXPECT_EQ(v.key.data(), m.key.data());
  EXPECT_EQ(v.value.data(), m.value.data());
}

// Lifetime rule: a view dies with its buffer; anything that must outlive
// the buffer goes through ToOwned() *before* the buffer is mutated or
// freed. Under ASan this test additionally proves ToOwned() shares no
// storage with the frame: the frame is heap-freed and every owned byte is
// then read.
TEST(MessageView, ToOwnedSurvivesBufferDestruction) {
  const CrxPut original = SampleCrxPut();
  auto frame = std::make_unique<std::string>(EncodeMessage(original));
  CrxPutView view;
  ASSERT_TRUE(DecodeMessage(*frame, &view));
  CrxPut owned = view.ToOwned();
  frame.reset();  // view is now dangling; owned must not be
  EXPECT_EQ(owned.key, original.key);
  EXPECT_EQ(owned.value, original.value);
  ASSERT_EQ(owned.deps.size(), original.deps.size());
  EXPECT_EQ(owned.deps[0].key, original.deps[0].key);
  EXPECT_TRUE(owned.trace.id == original.trace.id);
}

// Mutating the buffer after decode changes what the view reads (it aliases,
// never snapshots) — while a pre-mutation ToOwned() copy is unaffected.
// This pins the aliasing contract the node relies on: all view reads happen
// before any store GC or buffer reuse can touch the frame.
TEST(MessageView, ViewAliasesMutatedBufferButOwnedCopyDoesNot) {
  std::string frame = EncodeMessage(SampleCrxChainPut());
  CrxChainPutView view;
  ASSERT_TRUE(DecodeMessage(frame, &view));
  const CrxChainPut owned = view.ToOwned();
  ASSERT_FALSE(view.value.empty());
  const size_t value_off = static_cast<size_t>(view.value.data() - frame.data());
  frame[value_off] = 'X';  // in-place mutation, no reallocation
  EXPECT_EQ(view.value[0], 'X');            // the view tracks the buffer
  EXPECT_EQ(owned.value[0], 'c');           // the owned copy does not
}

// Fuzz-lite: every truncation of a valid frame and 300 random single-byte
// mutations must never crash the view decoders (failure is fine; memory
// errors are not — this runs under ASan in CI).
template <typename View>
void FuzzViewDecoder(const std::string& frame, Rng* rng) {
  for (size_t len = 0; len < frame.size(); ++len) {
    View v;
    DecodeMessage(std::string_view(frame.data(), len), &v);
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = frame;
    mutated[rng->NextBelow(mutated.size())] =
        static_cast<char>(rng->NextBelow(256));
    View v;
    DecodeMessage(mutated, &v);
  }
}

TEST(MessageView, FuzzLiteTruncationAndMutation) {
  Rng rng(99);
  FuzzViewDecoder<CrxPutView>(EncodeMessage(SampleCrxPut()), &rng);
  FuzzViewDecoder<CrxChainPutView>(EncodeMessage(SampleCrxChainPut()), &rng);
  FuzzViewDecoder<CrxGetView>(EncodeMessage(SampleCrxGet()), &rng);
  FuzzViewDecoder<CrxGetReplyView>(EncodeMessage(SampleCrxGetReply()), &rng);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Golden frames: one fixed sample of every message type, compared with hex
// recorded from the per-struct hand-written codecs that the field lists
// replaced. Every other msg test checks a re-encode against an encode; these
// pin the exact bytes, so a layout edit that changes the wire (or the WAL
// and checkpoint formats that share the fixed-width leaf codecs) fails
// here. Hot-path Crx frames are varint-coded and flag-tagged; every other
// protocol keeps fixed-width integers.
// ---------------------------------------------------------------------------

template <typename M>
std::string Frame(const M& m) {
  return EncodeMessage(m);
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// Multi-byte varints everywhere they can appear: a 3-DC vector, a lamport
// above 2^14, and a nonzero origin.
Version GoldenVersion() {
  Version v;
  v.vv = VersionVector(3);
  v.vv.Set(0, 300);
  v.vv.Set(1, 1);
  v.vv.Set(2, 70000);
  v.lamport = 20000;
  v.origin = 2;
  return v;
}

std::vector<Dependency> GoldenDeps() {
  return {Dependency{"dep-a", GoldenVersion(), true}, Dependency{"dep-bb", Version{}, false}};
}

TraceContext GoldenTrace() {
  TraceContext t;
  t.id = 0x1234567;
  t.Annotate(HopKind::kClientPut, 70000, 1, 3, 1000);
  t.Annotate(HopKind::kChainRecv, 5, 0, 2, -7, 300);
  return t;
}

CrxPut GoldenCrxPut() {
  CrxPut m;
  m.req = 300;
  m.client = 70000;
  m.key = "gk";
  m.value = "golden-value";
  m.deps = GoldenDeps();
  m.trace = GoldenTrace();
  m.wm_epoch = 3;
  m.dep_wm = 150;
  return m;
}

CrxPutAck GoldenCrxPutAck(RequestId req) {
  CrxPutAck m;
  m.req = req;
  m.key = "gk";
  m.version = GoldenVersion();
  m.acked_at = 2;
  m.trace = GoldenTrace();
  m.wm_epoch = 3;
  m.stable_wm = 129;
  return m;
}

CrxGet GoldenCrxGet() {
  CrxGet m;
  m.req = 301;
  m.client = 70000;
  m.key = "gk";
  m.min_version = GoldenVersion();
  m.with_deps = true;
  return m;
}

CrxGetReply GoldenCrxGetReply() {
  CrxGetReply m;
  m.req = 301;
  m.key = "gk";
  m.found = true;
  m.value = "reply-value";
  m.version = GoldenVersion();
  m.position = 200;
  m.stable = true;
  m.deps = GoldenDeps();
  m.wm_epoch = 3;
  m.stable_wm = 129;
  return m;
}

CrxChainPut GoldenCrxChainPut() {
  CrxChainPut m;
  m.key = "gk";
  m.value = "golden-value";
  m.version = GoldenVersion();
  m.client = 70000;
  m.req = 300;
  m.ack_at = 2;
  m.epoch = 9;
  m.chain_seq = 1000;
  m.deps = GoldenDeps();
  m.trace = GoldenTrace();
  m.stable_cut = 19999;
  return m;
}

GeoShip GoldenGeoShip(uint64_t seq) {
  GeoShip m;
  m.origin_dc = 2;
  m.channel_seq = seq;
  m.key = "gk";
  m.value = "ship";
  m.version = GoldenVersion();
  m.deps = GoldenDeps();
  m.trace = GoldenTrace();
  return m;
}

MigEntry GoldenMigEntry(bool has_value) {
  MigEntry e;
  e.key = "mk";
  e.has_value = has_value;
  e.value = has_value ? "mv" : "";
  e.version = GoldenVersion();
  e.stable = true;
  e.deps = GoldenDeps();
  return e;
}

struct GoldenFrame {
  const char* name;
  std::string frame;
  const char* hex;
};

std::vector<GoldenFrame> GoldenFrames() {
  std::vector<GoldenFrame> g;
  g.push_back({"CrxPut", Frame(GoldenCrxPut()),
               "0a80ac02f0a20402676b0c676f6c64656e2d76616c756502056465702d6103ac0201f0a204a09c01"
               "0201066465702d626200000000e78a8d090201f0a2040103d00f000d0500020dac02039601"});
  g.push_back({"CrxPutAck", Frame(GoldenCrxPutAck(300)),
               "0b80ac0202676b03ac0201f0a204a09c010202e78a8d090201f0a2040103d00f000d0500020dac02"
               "038101"});
  {
    CrxPutAckBatch m;
    m.up_to_seq = 1000;
    m.acks = {GoldenCrxPutAck(300), GoldenCrxPutAck(301)};
    g.push_back({"CrxPutAckBatch", Frame(m),
                 "0e80e80702ac0202676b03ac0201f0a204a09c010202e78a8d090201f0a2040103d00f000d050002"
                 "0dac02038101ad0202676b03ac0201f0a204a09c010202e78a8d090201f0a2040103d00f000d0500"
                 "020dac02038101"});
  }
  g.push_back({"CrxGet", Frame(GoldenCrxGet()),
               "0c80ad02f0a20402676b03ac0201f0a204a09c010201"});
  g.push_back({"CrxGetReply", Frame(GoldenCrxGetReply()),
               "0d80ad0202676b010b7265706c792d76616c756503ac0201f0a204a09c0102c8010102056465702d"
               "6103ac0201f0a204a09c010201066465702d626200000000038101"});
  g.push_back({"CrxChainPut", Frame(GoldenCrxChainPut()),
               "148002676b0c676f6c64656e2d76616c756503ac0201f0a204a09c0102f0a204ac020209e8070205"
               "6465702d6103ac0201f0a204a09c010201066465702d626200000000e78a8d090201f0a2040103d0"
               "0f000d0500020dac029f9c01"});
  {
    CrxStableNotify m;
    m.key = "gk";
    m.version = GoldenVersion();
    m.epoch = 9;
    m.stable_cut = 19999;
    g.push_back({"CrxStableNotify", Frame(m),
                 "158002676b03ac0201f0a204a09c0102099f9c01"});
  }
  {
    CrxStabilityCheck m;
    m.key = "gk";
    m.version = GoldenVersion();
    m.token = 1ull << 40;
    g.push_back({"CrxStabilityCheck", Frame(m),
                 "168002676b03ac0201f0a204a09c0102808080808020"});
  }
  {
    CrxStabilityConfirm m;
    m.token = 1ull << 40;
    m.key = "gk";
    g.push_back({"CrxStabilityConfirm", Frame(m),
                 "178080808080802002676b"});
  }
  {
    CrxWatermark m;
    m.node = 70000;
    m.epoch = 9;
    m.cut = 19999;
    g.push_back({"CrxWatermark", Frame(m),
                 "1880f0a204099f9c01"});
  }
  g.push_back({"CrPut", Frame(CrPut{300, 70000, "gk", "v"}),
               "1e002c010000000000007011010002000000676b0100000076"});
  g.push_back({"CrChainPut", Frame(CrChainPut{"gk", "v", 1000, 70000, 300}),
               "1f0002000000676b0100000076e803000000000000701101002c01000000000000"});
  g.push_back({"CrPutAck", Frame(CrPutAck{300, "gk", 1000}),
               "20002c0100000000000002000000676be803000000000000"});
  g.push_back({"CrChainAck", Frame(CrChainAck{"gk", 1000, 70000, 300}),
               "230002000000676be803000000000000701101002c01000000000000"});
  g.push_back({"CrGet", Frame(CrGet{300, 70000, "gk"}),
               "21002c010000000000007011010002000000676b"});
  g.push_back({"CrGetReply", Frame(CrGetReply{300, "gk", true, "v", 1000}),
               "22002c0100000000000002000000676b010100000076e803000000000000"});
  g.push_back({"CraqPut", Frame(CraqPut{300, 70000, "gk", "v"}),
               "28002c010000000000007011010002000000676b0100000076"});
  g.push_back({"CraqChainPut", Frame(CraqChainPut{"gk", "v", 1000, 70000, 300}),
               "290002000000676b0100000076e803000000000000701101002c01000000000000"});
  g.push_back({"CraqCommit", Frame(CraqCommit{"gk", 1000}),
               "2a0002000000676be803000000000000"});
  g.push_back({"CraqPutAck", Frame(CraqPutAck{300, "gk", 1000}),
               "2b002c0100000000000002000000676be803000000000000"});
  g.push_back({"CraqGet", Frame(CraqGet{300, 70000, "gk"}),
               "2c002c010000000000007011010002000000676b"});
  g.push_back({"CraqGetReply", Frame(CraqGetReply{300, "gk", true, "v", 1000}),
               "2d002c0100000000000002000000676b010100000076e803000000000000"});
  g.push_back({"CraqVersionQuery", Frame(CraqVersionQuery{"gk", 300, 70000}),
               "2e0002000000676b2c0100000000000070110100"});
  g.push_back({"CraqVersionReply", Frame(CraqVersionReply{"gk", 1000, 300, 70000}),
               "2f0002000000676be8030000000000002c0100000000000070110100"});
  g.push_back({"EvPut", Frame(EvPut{300, 70000, "gk", "v"}),
               "32002c010000000000007011010002000000676b0100000076"});
  g.push_back({"EvReplicate", Frame(EvReplicate{"gk", "v", GoldenVersion(), 1000}),
               "330002000000676b010000007603ac0201f0a204a09c010200e803000000000000"});
  g.push_back({"EvReplicateAck", Frame(EvReplicateAck{1000}),
               "3400e803000000000000"});
  g.push_back({"EvPutAck", Frame(EvPutAck{300, "gk", GoldenVersion()}),
               "35002c0100000000000002000000676b03ac0201f0a204a09c010200"});
  g.push_back({"EvGet", Frame(EvGet{300, 70000, "gk"}),
               "36002c010000000000007011010002000000676b"});
  g.push_back({"EvGetReply", Frame(EvGetReply{300, "gk", true, "v", GoldenVersion()}),
               "37002c0100000000000002000000676b01010000007603ac0201f0a204a09c010200"});
  g.push_back({"EvReadQuery", Frame(EvReadQuery{1000, "gk"}),
               "3800e80300000000000002000000676b"});
  g.push_back({"EvReadReply", Frame(EvReadReply{1000, "gk", true, "v", GoldenVersion()}),
               "3900e80300000000000002000000676b01010000007603ac0201f0a204a09c010200"});
  g.push_back({"GeoLocalStable",
               Frame(GeoLocalStable{"gk", GoldenVersion(), true, "v", GoldenDeps(), GoldenTrace()}),
               "3c0002000000676b03ac0201f0a204a09c01020001010000007602050000006465702d6103ac0201"
               "f0a204a09c01020001060000006465702d62620000000000e78a8d09020170110100010003000000"
               "e803000000000000000d05000000000002000000f9ffffffffffffffac02"});
  g.push_back({"GeoLocalStableAck", Frame(GeoLocalStableAck{"gk", GoldenVersion()}),
               "400002000000676b03ac0201f0a204a09c010200"});
  g.push_back({"GeoShip", Frame(GoldenGeoShip(1000)),
               "3d000200e80300000000000002000000676b040000007368697003ac0201f0a204a09c0102000205"
               "0000006465702d6103ac0201f0a204a09c01020001060000006465702d62620000000000e78a8d09"
               "020170110100010003000000e803000000000000000d05000000000002000000f9ffffffffffffff"
               "ac02"});
  g.push_back({"GeoShipBatch", Frame(GeoShipBatch{{GoldenGeoShip(1000), GoldenGeoShip(1001)}}),
               "4100020200e80300000000000002000000676b040000007368697003ac0201f0a204a09c01020002"
               "050000006465702d6103ac0201f0a204a09c01020001060000006465702d62620000000000e78a8d"
               "09020170110100010003000000e803000000000000000d05000000000002000000f9ffffffffffff"
               "ffac020200e90300000000000002000000676b040000007368697003ac0201f0a204a09c01020002"
               "050000006465702d6103ac0201f0a204a09c01020001060000006465702d62620000000000e78a8d"
               "09020170110100010003000000e803000000000000000d05000000000002000000f9ffffffffffff"
               "ffac02"});
  g.push_back({"GeoApplied", Frame(GeoApplied{2, 1000}),
               "3e000200e803000000000000"});
  g.push_back({"GeoRemotePut",
               Frame(GeoRemotePut{"gk", "v", GoldenVersion(), GoldenDeps(), GoldenTrace()}),
               "3f0002000000676b010000007603ac0201f0a204a09c01020002050000006465702d6103ac0201f0"
               "a204a09c01020001060000006465702d62620000000000e78a8d09020170110100010003000000e8"
               "03000000000000000d05000000000002000000f9ffffffffffffffac02"});
  g.push_back({"MemNewMembership", Frame(MemNewMembership{9, {1, 2, 70000}, {16, 32, 16}, {70000}}),
               "46000900000000000000030100000002000000701101000310000000200000001000000001701101"
               "00"});
  g.push_back({"MemHeartbeat", Frame(MemHeartbeat{70000}),
               "480070110100"});
  g.push_back({"MemSyncKey", Frame(MemSyncKey{9, "gk", "v", GoldenVersion(), true}),
               "4700090000000000000002000000676b010000007603ac0201f0a204a09c01020001"});
  g.push_back({"MemSyncDone", Frame(MemSyncDone{9, 70000}),
               "4900090000000000000070110100"});
  g.push_back({"MigSnapshotRequest",
               Frame(MigSnapshotRequest{77, 9, 10, {1, 2, 70000}, {16, 32, 16}, 70001, 64, 5000}),
               "50004d0000000000000009000000000000000a000000000000000301000000020000007011010003"
               "10000000200000001000000071110100400000008813000000000000"});
  g.push_back({"MigKeyBatch",
               Frame(MigKeyBatch{77, 9, 1, 70000, 70001, 300, true,
                                 {GoldenMigEntry(true), GoldenMigEntry(false)}}),
               "51004d0000000000000009000000000000000100000070110100711101002c010000000000000102"
               "020000006d6b01020000006d7603ac0201f0a204a09c0102000102050000006465702d6103ac0201"
               "f0a204a09c01020001060000006465702d62620000000000020000006d6b000000000003ac0201f0"
               "a204a09c0102000102050000006465702d6103ac0201f0a204a09c01020001060000006465702d62"
               "620000000000"});
  g.push_back({"MigSnapshotDone", Frame(MigSnapshotDone{77, 1, 1000, {2, 70000}, true}),
               "52004d0000000000000001000000e80300000000000002020000007011010001"});
  g.push_back({"MigRangeSealed", Frame(MigRangeSealed{77, 1, 70000, 1000}),
               "53004d000000000000000100000070110100e803000000000000"});
  g.push_back({"MigCommit", Frame(MigCommit{77, 10, {1, 2, 70000}, {16, 32, 16}, {70000}}),
               "54004d000000000000000a0000000000000003010000000200000070110100031000000020000000"
               "100000000170110100"});
  g.push_back({"MigAbort", Frame(MigAbort{77, "node died"}),
               "55004d00000000000000090000006e6f64652064696564"});
  return g;
}

// Hex of the golden frame called `name`; empty (and a test failure) if
// there is none.
std::string GoldenHex(const std::vector<GoldenFrame>& golden, std::string_view name) {
  for (const GoldenFrame& g : golden) {
    if (g.name == name) {
      return g.hex;
    }
  }
  ADD_FAILURE() << "no golden frame named " << name;
  return "";
}

TEST(GoldenFrames, EveryMessageTypeEncodesTheRecordedBytes) {
  const std::vector<GoldenFrame> golden = GoldenFrames();
  EXPECT_EQ(golden.size(), 48u);
  for (const GoldenFrame& g : golden) {
    EXPECT_EQ(Hex(g.frame), g.hex) << "GOLDEN " << g.name;
  }
}

// Decoding the recorded bytes and re-encoding reproduces them: the
// decoders read exactly the layout the encoders write.
template <typename M>
void ExpectGoldenRoundTrip(const std::vector<GoldenFrame>& golden, const char* name) {
  const std::string hex = GoldenHex(golden, name);
  M m;
  ASSERT_TRUE(DecodeMessage(Unhex(hex), &m)) << name;
  EXPECT_EQ(Hex(Frame(m)), hex) << name;
}

TEST(GoldenFrames, EveryMessageTypeDecodesTheRecordedBytes) {
  const std::vector<GoldenFrame> g = GoldenFrames();
  ExpectGoldenRoundTrip<CrxPut>(g, "CrxPut");
  ExpectGoldenRoundTrip<CrxPutAck>(g, "CrxPutAck");
  ExpectGoldenRoundTrip<CrxPutAckBatch>(g, "CrxPutAckBatch");
  ExpectGoldenRoundTrip<CrxGet>(g, "CrxGet");
  ExpectGoldenRoundTrip<CrxGetReply>(g, "CrxGetReply");
  ExpectGoldenRoundTrip<CrxChainPut>(g, "CrxChainPut");
  ExpectGoldenRoundTrip<CrxStableNotify>(g, "CrxStableNotify");
  ExpectGoldenRoundTrip<CrxStabilityCheck>(g, "CrxStabilityCheck");
  ExpectGoldenRoundTrip<CrxStabilityConfirm>(g, "CrxStabilityConfirm");
  ExpectGoldenRoundTrip<CrxWatermark>(g, "CrxWatermark");
  ExpectGoldenRoundTrip<CrPut>(g, "CrPut");
  ExpectGoldenRoundTrip<CrChainPut>(g, "CrChainPut");
  ExpectGoldenRoundTrip<CrPutAck>(g, "CrPutAck");
  ExpectGoldenRoundTrip<CrChainAck>(g, "CrChainAck");
  ExpectGoldenRoundTrip<CrGet>(g, "CrGet");
  ExpectGoldenRoundTrip<CrGetReply>(g, "CrGetReply");
  ExpectGoldenRoundTrip<CraqPut>(g, "CraqPut");
  ExpectGoldenRoundTrip<CraqChainPut>(g, "CraqChainPut");
  ExpectGoldenRoundTrip<CraqCommit>(g, "CraqCommit");
  ExpectGoldenRoundTrip<CraqPutAck>(g, "CraqPutAck");
  ExpectGoldenRoundTrip<CraqGet>(g, "CraqGet");
  ExpectGoldenRoundTrip<CraqGetReply>(g, "CraqGetReply");
  ExpectGoldenRoundTrip<CraqVersionQuery>(g, "CraqVersionQuery");
  ExpectGoldenRoundTrip<CraqVersionReply>(g, "CraqVersionReply");
  ExpectGoldenRoundTrip<EvPut>(g, "EvPut");
  ExpectGoldenRoundTrip<EvReplicate>(g, "EvReplicate");
  ExpectGoldenRoundTrip<EvReplicateAck>(g, "EvReplicateAck");
  ExpectGoldenRoundTrip<EvPutAck>(g, "EvPutAck");
  ExpectGoldenRoundTrip<EvGet>(g, "EvGet");
  ExpectGoldenRoundTrip<EvGetReply>(g, "EvGetReply");
  ExpectGoldenRoundTrip<EvReadQuery>(g, "EvReadQuery");
  ExpectGoldenRoundTrip<EvReadReply>(g, "EvReadReply");
  ExpectGoldenRoundTrip<GeoLocalStable>(g, "GeoLocalStable");
  ExpectGoldenRoundTrip<GeoLocalStableAck>(g, "GeoLocalStableAck");
  ExpectGoldenRoundTrip<GeoShip>(g, "GeoShip");
  ExpectGoldenRoundTrip<GeoShipBatch>(g, "GeoShipBatch");
  ExpectGoldenRoundTrip<GeoApplied>(g, "GeoApplied");
  ExpectGoldenRoundTrip<GeoRemotePut>(g, "GeoRemotePut");
  ExpectGoldenRoundTrip<MemNewMembership>(g, "MemNewMembership");
  ExpectGoldenRoundTrip<MemHeartbeat>(g, "MemHeartbeat");
  ExpectGoldenRoundTrip<MemSyncKey>(g, "MemSyncKey");
  ExpectGoldenRoundTrip<MemSyncDone>(g, "MemSyncDone");
  ExpectGoldenRoundTrip<MigSnapshotRequest>(g, "MigSnapshotRequest");
  ExpectGoldenRoundTrip<MigKeyBatch>(g, "MigKeyBatch");
  ExpectGoldenRoundTrip<MigSnapshotDone>(g, "MigSnapshotDone");
  ExpectGoldenRoundTrip<MigRangeSealed>(g, "MigRangeSealed");
  ExpectGoldenRoundTrip<MigCommit>(g, "MigCommit");
  ExpectGoldenRoundTrip<MigAbort>(g, "MigAbort");
}

// The zero-copy views share their owned struct's layout: a view built from
// the golden sample encodes the recorded bytes, and a view decoded from
// them re-encodes them unchanged.
template <typename Owned, typename View>
void ExpectGoldenView(const std::vector<GoldenFrame>& golden, const Owned& sample,
                      const char* name) {
  const std::string hex = GoldenHex(golden, name);
  if constexpr (requires { View::From(sample); }) {
    EXPECT_EQ(Hex(Frame(View::From(sample))), hex) << name;
  }
  const std::string bytes = Unhex(hex);
  View view;
  ASSERT_TRUE(DecodeMessage(bytes, &view)) << name;
  EXPECT_EQ(Hex(Frame(view)), hex) << name;
}

TEST(GoldenFrames, ViewsMatchTheRecordedBytes) {
  const std::vector<GoldenFrame> g = GoldenFrames();
  ExpectGoldenView<CrxPut, CrxPutView>(g, GoldenCrxPut(), "CrxPut");
  ExpectGoldenView<CrxChainPut, CrxChainPutView>(g, GoldenCrxChainPut(), "CrxChainPut");
  ExpectGoldenView<CrxGet, CrxGetView>(g, GoldenCrxGet(), "CrxGet");
  ExpectGoldenView<CrxGetReply, CrxGetReplyView>(g, GoldenCrxGetReply(), "CrxGetReply");
}


// Hot-path frames exist only in the varint coding: the same body under the
// bare type tag (no kWireV2Flag) is rejected by every Crx struct and view.
template <typename M>
void ExpectBareTagRejected(const std::vector<GoldenFrame>& golden, const char* name) {
  const std::string flagged = Unhex(GoldenHex(golden, name));
  ASSERT_GE(flagged.size(), 2u) << name;
  std::string bare = flagged;
  const uint16_t tag = static_cast<uint16_t>(M::kType);
  ASSERT_NE(tag, WireTag(M::kType)) << name;
  std::memcpy(bare.data(), &tag, sizeof(tag));
  M accepted;
  EXPECT_TRUE(DecodeMessage(flagged, &accepted)) << name;
  M rejected;
  EXPECT_FALSE(DecodeMessage(bare, &rejected)) << name;
  EXPECT_EQ(PeekType(bare), PeekType(flagged)) << name;
}

TEST(Message, HotPathFramesWithoutV2FlagRejected) {
  const std::vector<GoldenFrame> g = GoldenFrames();
  ExpectBareTagRejected<CrxPut>(g, "CrxPut");
  ExpectBareTagRejected<CrxPutView>(g, "CrxPut");
  ExpectBareTagRejected<CrxPutAck>(g, "CrxPutAck");
  ExpectBareTagRejected<CrxPutAckBatch>(g, "CrxPutAckBatch");
  ExpectBareTagRejected<CrxGet>(g, "CrxGet");
  ExpectBareTagRejected<CrxGetView>(g, "CrxGet");
  ExpectBareTagRejected<CrxGetReply>(g, "CrxGetReply");
  ExpectBareTagRejected<CrxGetReplyView>(g, "CrxGetReply");
  ExpectBareTagRejected<CrxChainPut>(g, "CrxChainPut");
  ExpectBareTagRejected<CrxChainPutView>(g, "CrxChainPut");
  ExpectBareTagRejected<CrxStableNotify>(g, "CrxStableNotify");
  ExpectBareTagRejected<CrxStabilityCheck>(g, "CrxStabilityCheck");
  ExpectBareTagRejected<CrxStabilityConfirm>(g, "CrxStabilityConfirm");
  ExpectBareTagRejected<CrxWatermark>(g, "CrxWatermark");
}

// Decodes `frame` into a fresh M with allocation counting on; returns the
// bytes allocated by the decode alone.
template <typename M>
size_t FailedDecodeAllocBytes(const std::string& frame) {
  M m;
  t_alloc_bytes = 0;
  t_count_allocs = true;
  const bool ok = DecodeMessage(frame, &m);
  t_count_allocs = false;
  EXPECT_FALSE(ok);
  return t_alloc_bytes;
}

// A list count larger than the rest of the frame could hold is rejected
// before anything is allocated for it: a few bytes claiming 2^20 entries
// must not cost megabytes.
TEST(Message, ListCountBoundedByRemainingBytes) {
  // CrxPut: tag, req 0, client 0, empty key, empty value, 2^20 deps.
  ByteWriter put;
  put.PutU16(WireTag(MsgType::kCrxPut));
  for (int i = 0; i < 4; ++i) {
    put.PutVarU64(0);
  }
  put.PutVarU64(1u << 20);
  ASSERT_EQ(put.size(), 9u);
  EXPECT_LT(FailedDecodeAllocBytes<CrxPut>(put.data()), 4096u);
  EXPECT_LT(FailedDecodeAllocBytes<CrxPutView>(put.data()), 4096u);

  // CrxPutAckBatch: tag, up_to_seq 0, 2^20 acks.
  ByteWriter batch;
  batch.PutU16(WireTag(MsgType::kCrxPutAckBatch));
  batch.PutVarU64(0);
  batch.PutVarU64(1u << 20);
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_LT(FailedDecodeAllocBytes<CrxPutAckBatch>(batch.data()), 4096u);

  // Fixed-coded lists go through the same bound: 2^20 member ids.
  ByteWriter membership;
  membership.PutU16(WireTag(MsgType::kMemNewMembership));
  membership.PutU64(7);
  membership.PutVarU64(1u << 20);
  EXPECT_LT(FailedDecodeAllocBytes<MemNewMembership>(membership.data()), 4096u);

  // A count that exactly fits still decodes: two u32 ids in eight bytes.
  ByteWriter fits;
  fits.PutU16(WireTag(MsgType::kMemNewMembership));
  fits.PutU64(7);
  fits.PutVarU64(2);
  fits.PutU32(1);
  fits.PutU32(2);
  fits.PutVarU64(0);
  fits.PutVarU64(0);
  MemNewMembership m;
  ASSERT_TRUE(DecodeMessage(fits.data(), &m));
  EXPECT_EQ(m.nodes, (std::vector<NodeId>{1, 2}));
}

}  // namespace
}  // namespace chainreaction
