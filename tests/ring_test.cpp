// Unit tests for the consistent-hashing ring and chain composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/ring/ring.h"
#include "src/ycsb/workload.h"

// Per-thread allocation counting for the no-allocation test: only the
// thread that turns counting on is measured (gtest's own threads and
// bookkeeping are not).
namespace {
thread_local bool t_count_allocs = false;
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(size_t size) {
  if (t_count_allocs) {
    ++t_allocs;
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

std::vector<NodeId> MakeNodes(uint32_t n, NodeId base = 0) {
  std::vector<NodeId> nodes;
  for (uint32_t i = 0; i < n; ++i) {
    nodes.push_back(base + i);
  }
  return nodes;
}

TEST(Ring, ChainHasRDistinctNodes) {
  const Ring ring(MakeNodes(10), 16, 3);
  for (int i = 0; i < 500; ++i) {
    const auto& chain = ring.ChainFor(RecordKey(i));
    EXPECT_EQ(chain.size(), 3u);
    std::set<NodeId> unique(chain.begin(), chain.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(Ring, DeterministicChains) {
  const Ring a(MakeNodes(10), 16, 3);
  const Ring b(MakeNodes(10), 16, 3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.ChainFor(RecordKey(i)), b.ChainFor(RecordKey(i)));
  }
}

TEST(Ring, PositionConsistentWithChain) {
  const Ring ring(MakeNodes(8), 8, 3);
  for (int i = 0; i < 200; ++i) {
    const Key key = RecordKey(i);
    const auto& chain = ring.ChainFor(key);
    for (size_t p = 0; p < chain.size(); ++p) {
      EXPECT_EQ(ring.PositionOf(key, chain[p]), p + 1);
    }
    EXPECT_EQ(ring.PositionOf(key, 9999), 0u);
    EXPECT_EQ(ring.HeadFor(key), chain.front());
    EXPECT_EQ(ring.TailFor(key), chain.back());
  }
}

TEST(Ring, SuccessorPredecessor) {
  const Ring ring(MakeNodes(8), 8, 3);
  const Key key = RecordKey(7);
  const auto& chain = ring.ChainFor(key);
  EXPECT_EQ(ring.SuccessorFor(key, chain[0]), chain[1]);
  EXPECT_EQ(ring.SuccessorFor(key, chain[1]), chain[2]);
  EXPECT_EQ(ring.SuccessorFor(key, chain[2]), kInvalidNode);
  EXPECT_EQ(ring.PredecessorFor(key, chain[0]), kInvalidNode);
  EXPECT_EQ(ring.PredecessorFor(key, chain[2]), chain[1]);
}

TEST(Ring, ReplicationOne) {
  const Ring ring(MakeNodes(4), 8, 1);
  const Key key = RecordKey(3);
  EXPECT_EQ(ring.ChainFor(key).size(), 1u);
  EXPECT_EQ(ring.HeadFor(key), ring.TailFor(key));
}

TEST(Ring, LoadRoughlyBalanced) {
  const uint32_t n = 16;
  const Ring ring(MakeNodes(n), 64, 3);
  std::map<NodeId, int> head_count;
  const int keys = 20000;
  for (int i = 0; i < keys; ++i) {
    head_count[ring.HeadFor(RecordKey(i))]++;
  }
  // Every node heads some chains; no node heads more than 4x its fair share.
  EXPECT_EQ(head_count.size(), n);
  for (const auto& [node, count] : head_count) {
    EXPECT_GT(count, keys / static_cast<int>(n) / 4) << "node " << node;
    EXPECT_LT(count, keys * 4 / static_cast<int>(n)) << "node " << node;
  }
}

TEST(Ring, RemovingNodeOnlyDisturbsItsChains) {
  const Ring before(MakeNodes(12), 32, 3, 1);
  std::vector<NodeId> smaller = MakeNodes(12);
  const NodeId removed = 5;
  smaller.erase(smaller.begin() + removed);
  const Ring after(smaller, 32, 3, 2);

  int moved = 0, total = 2000;
  for (int i = 0; i < total; ++i) {
    const Key key = RecordKey(i);
    const auto& a = before.ChainFor(key);
    const auto& b = after.ChainFor(key);
    const bool involved =
        std::find(a.begin(), a.end(), removed) != a.end();
    if (!involved) {
      EXPECT_EQ(a, b) << "chain for uninvolved key " << key << " changed";
    } else {
      moved++;
      EXPECT_TRUE(std::find(b.begin(), b.end(), removed) == b.end());
    }
  }
  // Removed node participated in roughly R/N of chains.
  EXPECT_NEAR(static_cast<double>(moved) / total, 3.0 / 12.0, 0.1);
}

TEST(Ring, ContainsAndEpoch) {
  const Ring ring(MakeNodes(5), 8, 2, 42);
  EXPECT_TRUE(ring.Contains(3));
  EXPECT_FALSE(ring.Contains(77));
  EXPECT_EQ(ring.epoch(), 42u);
  EXPECT_EQ(ring.replication(), 2u);
}

TEST(Ring, TailDistributionBalanced) {
  // The CR baseline serves all reads at tails; tails must be spread out.
  const uint32_t n = 16;
  const Ring ring(MakeNodes(n), 64, 3);
  std::map<NodeId, int> tail_count;
  const int keys = 20000;
  for (int i = 0; i < keys; ++i) {
    tail_count[ring.TailFor(RecordKey(i))]++;
  }
  EXPECT_EQ(tail_count.size(), n);
}

// Reference placement written out independently of Ring: every (node, v)
// point sits at Mix64(node << 20 | v), sorted by (hash, node); a key's chain
// is the first R distinct nodes clockwise from the first point >= its hash,
// found by a linear scan and wrapping past the last point.
class ReferenceRing {
 public:
  ReferenceRing(const std::vector<NodeId>& nodes, const std::vector<uint32_t>& weights,
                uint32_t replication)
      : replication_(replication) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (uint32_t v = 0; v < weights[i]; ++v) {
        points_.emplace_back(Mix64((static_cast<uint64_t>(nodes[i]) << 20) | v), nodes[i]);
      }
    }
    std::sort(points_.begin(), points_.end());
  }

  // Returns the chain; sets *wrapped when the key hashed past the last point.
  std::vector<NodeId> Chain(const Key& key, bool* wrapped = nullptr) const {
    const uint64_t h = Mix64(Fnv1a64(key));
    size_t start = 0;
    while (start < points_.size() && points_[start].first < h) {
      ++start;
    }
    if (wrapped != nullptr) {
      *wrapped = start == points_.size();
    }
    std::vector<NodeId> chain;
    for (size_t step = 0; step < points_.size() && chain.size() < replication_; ++step) {
      const NodeId n = points_[(start + step) % points_.size()].second;
      if (std::find(chain.begin(), chain.end(), n) == chain.end()) {
        chain.push_back(n);
      }
    }
    return chain;
  }

 private:
  std::vector<std::pair<uint64_t, NodeId>> points_;
  uint32_t replication_;
};

void ExpectMatchesReference(const std::vector<NodeId>& nodes,
                            const std::vector<uint32_t>& weights, uint64_t seed) {
  const Ring ring(nodes, 16, 3, 0, weights);
  const ReferenceRing reference(nodes, weights, 3);
  Rng rng(seed);
  int wrapped_keys = 0;
  for (int i = 0; i < 100000; ++i) {
    const Key key = "k" + std::to_string(rng.Next());
    bool wrapped = false;
    const std::vector<NodeId> want = reference.Chain(key, &wrapped);
    wrapped_keys += wrapped ? 1 : 0;
    ASSERT_EQ(ring.ChainFor(key), want) << "key " << key;
  }
  // ~1/points of uniform hashes land past the last point; the wrap must be
  // exercised, not just possible.
  EXPECT_GT(wrapped_keys, 0);
}

TEST(Ring, ChainForMatchesReferenceWalk) {
  {
    SCOPED_TRACE("default ring");
    ExpectMatchesReference(MakeNodes(8), std::vector<uint32_t>(8, 16), 1);
  }
  {
    SCOPED_TRACE("weighted ring");
    ExpectMatchesReference(MakeNodes(6, 10), {4, 16, 32, 8, 1, 20}, 2);
  }
  {
    // A rebalance moves arcs by shifting weight between nodes of the
    // default ring: the heavier node gains points, the lighter one loses.
    SCOPED_TRACE("rebalanced ring");
    std::vector<uint32_t> weights(8, 16);
    weights[2] = 32;
    weights[5] = 4;
    ExpectMatchesReference(MakeNodes(8), weights, 3);
  }
}

TEST(Ring, ChainForDoesNotAllocate) {
  const Ring ring(MakeNodes(8), 16, 3);
  std::vector<Key> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(RecordKey(i));
  }
  t_allocs = 0;
  t_count_allocs = true;
  uint64_t sum = 0;
  for (const Key& key : keys) {
    sum += ring.ChainFor(key).front();
    sum += ring.PositionOf(key, 3) + ring.SuccessorFor(key, 4) + ring.PredecessorFor(key, 5);
  }
  t_count_allocs = false;
  EXPECT_EQ(t_allocs, 0u);
  EXPECT_GT(sum, 0u);
}

TEST(Ring, ConcurrentReadersOfConstRing) {
  // One const Ring read from two threads at once (a data race while lookups
  // filled a per-key memo; run under TSan in CI).
  const Ring ring(MakeNodes(8), 16, 3);
  const ReferenceRing reference(ring.nodes(), ring.weights(), 3);
  std::vector<std::vector<NodeId>> expected;
  for (int i = 0; i < 2000; ++i) {
    expected.push_back(reference.Chain(RecordKey(i)));
  }
  int mismatches[2] = {0, 0};
  auto reader = [&](int t) {
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 2000; ++i) {
        if (ring.ChainFor(RecordKey(i)) != expected[static_cast<size_t>(i)]) {
          mismatches[t]++;
        }
      }
    }
  };
  std::thread a(reader, 0);
  std::thread b(reader, 1);
  a.join();
  b.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

TEST(RingDeathTest, EmptyRingAborts) {
  const Ring ring;
  EXPECT_DEATH(ring.ChainFor("k"), "");
}

}  // namespace
}  // namespace chainreaction
