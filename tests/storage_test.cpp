// Unit tests for the multi-version store: LWW ordering, idempotent applies,
// stability marking, dependency predicates, garbage collection, the stored
// record's size budget, and dependency lists surviving every durable path.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/disk_engine.h"
#include "src/storage/checkpoint.h"
#include "src/storage/versioned_store.h"
#include "src/wal/wal.h"

namespace chainreaction {
namespace {

Version V(uint64_t lamport, DcId origin = 0, std::initializer_list<uint64_t> vv = {}) {
  Version v;
  v.lamport = lamport;
  v.origin = origin;
  v.vv = VersionVector(vv.size());
  size_t i = 0;
  for (uint64_t c : vv) {
    v.vv.Set(static_cast<DcId>(i++), c);
  }
  return v;
}

TEST(VersionedStore, ApplyAndLatest) {
  VersionedStore store;
  EXPECT_EQ(store.Latest("k"), nullptr);
  EXPECT_TRUE(store.Apply("k", "v1", V(1, 0, {1})));
  ASSERT_NE(store.Latest("k"), nullptr);
  EXPECT_EQ(store.Latest("k")->value, "v1");
}

TEST(VersionedStore, DuplicateApplyIgnored) {
  VersionedStore store;
  EXPECT_TRUE(store.Apply("k", "v1", V(1)));
  EXPECT_FALSE(store.Apply("k", "v1", V(1)));
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(VersionedStore, LwwOrderDecidesLatest) {
  VersionedStore store;
  store.Apply("k", "newer", V(10, 1, {0, 1}));
  store.Apply("k", "older", V(5, 0, {1, 0}));
  EXPECT_EQ(store.Latest("k")->value, "newer");
  // Origin breaks lamport ties deterministically.
  store.Apply("k", "tie-higher-origin", V(10, 2, {0, 0, 1}));
  EXPECT_EQ(store.Latest("k")->value, "tie-higher-origin");
}

TEST(VersionedStore, FindExactVersion) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  const StoredVersion* sv = store.Find("k", V(1, 0, {1}));
  ASSERT_NE(sv, nullptr);
  EXPECT_EQ(sv->value, "a");
  EXPECT_EQ(store.Find("k", V(3, 0, {3})), nullptr);
  EXPECT_EQ(store.Find("missing", V(1)), nullptr);
}

TEST(VersionedStore, MarkStableAndLatestStable) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  EXPECT_EQ(store.LatestStable("k"), nullptr);
  EXPECT_TRUE(store.MarkStable("k", V(1, 0, {1})));
  ASSERT_NE(store.LatestStable("k"), nullptr);
  EXPECT_EQ(store.LatestStable("k")->value, "a");
  EXPECT_FALSE(store.Latest("k")->stable);
}

TEST(VersionedStore, MarkStableUnknownVersionFails) {
  VersionedStore store;
  EXPECT_FALSE(store.MarkStable("k", V(1)));
  store.Apply("k", "a", V(1, 0, {1}));
  EXPECT_FALSE(store.MarkStable("k", V(9, 0, {9})));
}

TEST(VersionedStore, StabilityIsPrefixClosed) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  // Marking the causally-later version stable stabilizes the earlier one.
  EXPECT_TRUE(store.MarkStable("k", V(2, 0, {2})));
  EXPECT_EQ(store.LatestStable("k")->value, "b");
}

TEST(VersionedStore, HasAtLeast) {
  VersionedStore store;
  EXPECT_TRUE(store.HasAtLeast("k", Version{}));  // null version: trivially
  EXPECT_FALSE(store.HasAtLeast("k", V(1, 0, {1})));
  store.Apply("k", "a", V(1, 0, {1}));
  EXPECT_TRUE(store.HasAtLeast("k", V(1, 0, {1})));
  EXPECT_FALSE(store.HasAtLeast("k", V(2, 0, {2})));
  store.Apply("k", "b", V(2, 0, {2}));
  EXPECT_TRUE(store.HasAtLeast("k", V(2, 0, {2})));
}

TEST(VersionedStore, HasAtLeastMergesAcrossVersions) {
  // Applied {1,0} and {0,1} separately: together they cover {1,1}.
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1, 0}));
  store.Apply("k", "b", V(2, 1, {0, 1}));
  Version need = V(3, 0, {1, 1});
  EXPECT_TRUE(store.HasAtLeast("k", need));
}

TEST(VersionedStore, GcDropsVersionsOlderThanNewestStable) {
  VersionedStore store;
  for (uint64_t i = 1; i <= 5; ++i) {
    store.Apply("k", "v" + std::to_string(i), V(i, 0, {i}));
  }
  EXPECT_EQ(store.VersionCount("k"), 5u);
  store.MarkStable("k", V(4, 0, {4}));
  // Versions 1..3 are collectible; 4 (stable) and 5 (unstable) remain.
  EXPECT_EQ(store.VersionCount("k"), 2u);
  EXPECT_EQ(store.Latest("k")->value, "v5");
  EXPECT_EQ(store.LatestStable("k")->value, "v4");
  // Causal knowledge is preserved even after GC.
  EXPECT_TRUE(store.HasAtLeast("k", V(1, 0, {1})));
}

TEST(VersionedStore, UnstableVersionsOldestFirst) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  store.Apply("k", "c", V(3, 0, {3}));
  store.MarkStable("k", V(1, 0, {1}));
  auto unstable = store.UnstableVersions("k");
  ASSERT_EQ(unstable.size(), 2u);
  EXPECT_EQ(unstable[0].value, "b");
  EXPECT_EQ(unstable[1].value, "c");
  EXPECT_TRUE(store.UnstableVersions("missing").empty());
}

TEST(VersionedStore, ForEachKeyVisitsLatest) {
  VersionedStore store;
  store.Apply("a", "1", V(1, 0, {1}));
  store.Apply("b", "2", V(2, 0, {1}));
  store.Apply("b", "3", V(3, 0, {2}));
  int seen = 0;
  store.ForEachKey([&](const Key& key, const StoredVersion& latest) {
    seen++;
    if (key == "b") {
      EXPECT_EQ(latest.value, "3");
    }
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(store.KeyCount(), 2u);
}

TEST(VersionedStore, ConcurrentVersionsBothKept) {
  VersionedStore store;
  store.Apply("k", "dc0", V(10, 0, {1, 0}));
  store.Apply("k", "dc1", V(11, 1, {0, 1}));
  EXPECT_EQ(store.VersionCount("k"), 2u);
  EXPECT_EQ(store.Latest("k")->value, "dc1");  // LWW winner
  const VersionVector* vv = store.AppliedVv("k");
  ASSERT_NE(vv, nullptr);
  EXPECT_EQ(vv->Get(0), 1u);
  EXPECT_EQ(vv->Get(1), 1u);
}

TEST(VersionedStore, TotalVersionsAccounting) {
  VersionedStore store;
  store.Apply("a", "1", V(1, 0, {1}));
  store.Apply("a", "2", V(2, 0, {2}));
  store.Apply("b", "3", V(3, 0, {1}));
  EXPECT_EQ(store.total_versions(), 3u);
  store.MarkStable("a", V(2, 0, {2}));  // GCs version 1
  EXPECT_EQ(store.total_versions(), 2u);
}

TEST(StoredVersionLayout, RecordFitsBudget) {
  // Every key-replica holds a vector of these (capacity settles at two), so
  // the record's size is the per-version floor of store memory. Field costs
  // on LP64 libstdc++:
  //   value    std::string                                       32
  //   version  VersionVector 56 (4 inline DCs) + lamport 8
  //            + origin 2 (+6 padding)                           72
  //   stable, resident, cached (+5 padding)                        8
  //   deps     SmallVector<Dependency, 1>: 24 + one inline 112   136
  //   handle   ValueHandle (segment, offset, length)             24
  //   lru_it   std::list iterator                                 8
  //                                                        total 280
  EXPECT_LE(sizeof(StoredVersion), 288u);
}

TEST(VersionedStore, MetaBytesCountsSlotsKeysAndSpilledDeps) {
  VersionedStore store;
  EXPECT_EQ(store.MetaBytes(), 0u);
  store.Apply("key-a", "1", V(1, 0, {1}));
  const std::vector<Dependency> three = {Dependency{"x", V(1, 0, {1}), false},
                                         Dependency{"y", V(2, 0, {2}), false},
                                         Dependency{"z", V(3, 0, {3}), false}};
  store.Apply("b", "2", V(2, 0, {1}), three);
  const StoredVersion* b = store.LatestMeta("b");
  ASSERT_NE(b, nullptr);
  ASSERT_GT(b->deps.capacity(), StoredVersion::kInlineDeps);
  // One slot per key (each vector holds one version), the key bytes, and
  // the spilled three-entry list of "b".
  EXPECT_EQ(store.MetaBytes(), 2 * sizeof(StoredVersion) + 5 + 1 +
                                   b->deps.capacity() * sizeof(Dependency));
}

// Dependency lists of 0, 1 and 3 entries (the last spills past the inline
// capacity) must survive Apply/Find, a checkpoint v3 save/load, and WAL
// recovery byte for byte, under both storage engines.
class DepRoundTripTest : public ::testing::TestWithParam<bool> {
 protected:
  DepRoundTripTest() {
    dir_ = ::testing::TempDir() + "crx_storage_deps_" + (GetParam() ? "disk_" : "mem_") +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  ~DepRoundTripTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // A store over the engine under test; the disk engine's value log lives in
  // `vlog` (reopened by later stores to recover it).
  std::unique_ptr<VersionedStore> MakeStore(const std::string& vlog) {
    auto store = std::make_unique<VersionedStore>();
    if (GetParam()) {
      std::unique_ptr<StorageEngine> engine;
      const Status st = OpenDiskEngine(vlog, DiskEngineOptions{}, &engine);
      EXPECT_TRUE(st.ok()) << st.ToString();
      store->AttachEngine(std::move(engine));
    }
    return store;
  }

  struct Entry {
    Key key;
    Value value;
    Version version;
    std::vector<Dependency> deps;
  };

  static std::vector<Entry> Entries() {
    return {
        {"none", "v-none", V(1, 0, {1, 0}), {}},
        {"one", "v-one", V(2, 1, {0, 2}), {Dependency{"none", V(1, 0, {1, 0}), true}}},
        {"three",
         "v-three",
         V(3, 0, {3, 1}),
         {Dependency{"none", V(1, 0, {1, 0}), false},
          Dependency{"one", V(2, 1, {0, 2}), true},
          Dependency{"a-longer-dependency-key-past-sso", V(7, 1, {4, 5}), false}}},
    };
  }

  static void ExpectEntries(const VersionedStore& store, const std::string& where) {
    for (const Entry& e : Entries()) {
      SCOPED_TRACE(where + " key " + e.key);
      const StoredVersion* sv = store.Find(e.key, e.version);
      ASSERT_NE(sv, nullptr);
      EXPECT_EQ(sv->value, e.value);
      EXPECT_TRUE(sv->version == e.version);
      ASSERT_EQ(sv->deps.size(), e.deps.size());
      for (size_t i = 0; i < e.deps.size(); ++i) {
        EXPECT_EQ(sv->deps[i].key, e.deps[i].key);
        EXPECT_TRUE(sv->deps[i].version == e.deps[i].version);
        EXPECT_EQ(sv->deps[i].local_stable, e.deps[i].local_stable);
      }
    }
  }

  std::string dir_;
};

TEST_P(DepRoundTripTest, ApplyFind) {
  auto store = MakeStore(dir_ + "/vlog");
  for (const Entry& e : Entries()) {
    ASSERT_TRUE(store->Apply(e.key, e.value, e.version, e.deps));
  }
  ExpectEntries(*store, "apply");
  EXPECT_GT(store->FindMeta("three", Entries()[2].version)->deps.capacity(),
            StoredVersion::kInlineDeps);
}

TEST_P(DepRoundTripTest, CheckpointV3) {
  const std::string vlog = dir_ + "/vlog";
  const std::string path = dir_ + "/checkpoint.crx";
  {
    auto store = MakeStore(vlog);
    for (const Entry& e : Entries()) {
      ASSERT_TRUE(store->Apply(e.key, e.value, e.version, e.deps));
    }
    ASSERT_TRUE(SaveCheckpoint(*store, path).ok());
  }
  auto restored = MakeStore(vlog);
  const Status st = LoadCheckpoint(path, restored.get());
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectEntries(*restored, "checkpoint");
}

TEST_P(DepRoundTripTest, WalRecovery) {
  const std::string wal_dir = dir_ + "/wal";
  {
    WalOptions options;
    options.policy = FsyncPolicy::kNone;
    options.start_flusher_thread = false;
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(wal_dir, options, &wal).ok());
    for (const Entry& e : Entries()) {
      ASSERT_TRUE(wal->Append(WalRecord::Apply(e.key, e.value, e.version, e.deps)).ok());
    }
    ASSERT_TRUE(wal->Flush().ok());
  }
  // Replay the way a restarting node does: every kApply through Apply.
  auto recovered = MakeStore(dir_ + "/vlog");
  WalReplayStats stats;
  const Status st = Wal::Replay(
      wal_dir, 0,
      [&](const WalRecord& record) {
        ASSERT_EQ(record.type, WalRecordType::kApply);
        recovered->Apply(record.key, record.value, record.version, record.deps);
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.records, Entries().size());
  ExpectEntries(*recovered, "wal");
}

INSTANTIATE_TEST_SUITE_P(Engines, DepRoundTripTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return std::string(param.param ? "Disk" : "Mem");
                         });

}  // namespace
}  // namespace chainreaction
