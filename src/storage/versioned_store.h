// Per-node multi-version key-value store over a pluggable value engine.
//
// Each key holds a small list of versions ordered by the convergent LWW
// order (lamport, origin). Nodes apply versions idempotently (duplicates
// from chain-repair re-propagation are absorbed), track which versions are
// DC-Write-Stable, and keep the componentwise-max version vector of all
// applied versions per key — the predicate used for causal dependency
// checks ("has this node applied at least version v of key k?").
//
// Version garbage collection keeps the newest stable version and anything
// newer, bounding per-key memory.
//
// Value storage is delegated to a StorageEngine (src/engine/). The default
// mem engine keeps values inline in the index entries — the historical
// behavior, byte for byte. With a disk engine attached, values live in an
// append-only log and index entries carry a ValueHandle; a bounded LRU
// residency cache keeps hot values materialized in memory, so Latest/Find/
// LatestStable still hand out `const StoredVersion*` with a filled `value`.
//
// Pointer lifetime with a disk engine: a materialized value stays resident
// at least until eight further values are materialized (the most recent
// materializations are pinned against eviction), so the usual pattern —
// look up, read fields, drop the pointer before the next store call — is
// safe. Callers that only need version metadata should use the *Meta
// accessors, which never touch the engine or the cache.
#ifndef SRC_STORAGE_VERSIONED_STORE_H_
#define SRC_STORAGE_VERSIONED_STORE_H_

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/node_cache.h"
#include "src/common/small_vector.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/engine/storage_engine.h"

namespace chainreaction {

// One retained version of one key. Its size is the per-version floor of
// the store's memory (every key-replica keeps a vector of these, with
// capacity settling at two), so fields are ordered to leave no padding
// holes and the inline dependency capacity is one (DESIGN.md §11).
struct StoredVersion {
  Value value;  // empty when a disk engine holds the bytes and !resident
  Version version;
  bool stable = false;
  // Engine bookkeeping flags (disk engine only; dormant under the mem
  // engine). Packed here, into the padding after `version`.
  bool resident = true;  // `value` holds the bytes
  bool cached = false;   // on the store's LRU list
  // Write-time dependency list (served to multi-get read transactions).
  // Inline capacity 1: with the stable watermark the client's accessed-set
  // collapses to the last acked write, so a stored list is almost always
  // 0 or 1 entries; longer lists spill to one heap block.
  static constexpr size_t kInlineDeps = 1;
  SmallVector<Dependency, kInlineDeps> deps;

  // Engine bookkeeping (disk engine only; dormant under the mem engine).
  ValueHandle handle;
  std::list<std::pair<Key, Version>>::iterator lru_it{};
};

class VersionedStore {
 public:
  VersionedStore();
  ~VersionedStore();
  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  // Replaces the default mem engine. Must be called before any data is
  // applied; calling with data present aborts.
  void AttachEngine(std::unique_ptr<StorageEngine> engine);
  StorageEngine* engine() const { return engine_.get(); }

  // Residency-cache budget (disk engine only): total bytes of materialized
  // values kept in memory. The most recently materialized entries are
  // pinned regardless of budget (see file comment).
  void SetCacheBudget(uint64_t bytes) { cache_budget_ = bytes; }
  uint64_t cache_budget() const { return cache_budget_; }

  // Inserts (value, version) for key. Returns true if newly applied, false
  // if this exact version was already present. `value` may alias a transport
  // receive buffer (the zero-copy put path): the store makes its own copy —
  // the only one on the apply path — before returning. `deps` is borrowed
  // for the call (any contiguous Dependency range: vector or DepList).
  bool Apply(const Key& key, std::string_view value, const Version& version,
             std::span<const Dependency> deps = {});

  // Re-registers an already-logged version during checkpoint recovery: the
  // engine holds the bytes at `handle`; nothing is written. Returns false
  // if the handle cannot be adopted (log/checkpoint mismatch).
  bool Adopt(const Key& key, const Version& version, std::vector<Dependency> deps,
             const ValueHandle& handle);

  // Marks `version` (and every older version of the key) stable. Returns
  // true if the key/version exists.
  bool MarkStable(const Key& key, const Version& version);

  // Newest version in LWW order, or nullptr if the key is absent. The
  // returned entry has `value` materialized (engine read on cache miss).
  const StoredVersion* Latest(const Key& key) const;

  // Exact version lookup, or nullptr. Value materialized.
  const StoredVersion* Find(const Key& key, const Version& version) const;

  // Newest stable version, or nullptr. Value materialized.
  const StoredVersion* LatestStable(const Key& key) const;

  // Metadata-only variants: same lookups, but `value` may be empty (never
  // materialized, never an engine read). For callers that only need the
  // version / stable bit / deps.
  const StoredVersion* LatestMeta(const Key& key) const;
  const StoredVersion* FindMeta(const Key& key, const Version& version) const;
  const StoredVersion* LatestStableMeta(const Key& key) const;

  // True iff the key has at least one not-yet-stable version.
  bool HasUnstable(const Key& key) const;

  // True iff this node has applied versions of `key` whose merged version
  // vector dominates `min.vv` — i.e. it has the causal past `min` denotes.
  bool HasAtLeast(const Key& key, const Version& min) const;

  // Merged version vector of all versions of `key` ever applied here.
  const VersionVector* AppliedVv(const Key& key) const;

  size_t KeyCount() const { return table_.size(); }
  size_t VersionCount(const Key& key) const;
  uint64_t total_versions() const { return total_versions_; }

  // Iterates all keys. Metadata only: `latest.value` may be empty under a
  // disk engine (used for chain-repair key discovery and recovery scans).
  void ForEachKey(const std::function<void(const Key&, const StoredVersion& latest)>& fn) const;

  // Iterates every retained version of every key with values materialized
  // (mem-engine checkpointing; O(data) under a disk engine).
  void ForEachVersion(const std::function<void(const Key&, const StoredVersion&)>& fn) const;

  // Same iteration, metadata + handles only — no engine reads. This is what
  // an incremental (index-only) checkpoint walks.
  void ForEachVersionRaw(
      const std::function<void(const Key&, const StoredVersion&)>& fn) const;

  // Versions of `key` that are not yet stable (oldest first), values
  // materialized; used by chain heads to re-propagate after a
  // reconfiguration.
  std::vector<StoredVersion> UnstableVersions(const Key& key) const;

  // Runs one engine compaction round if the garbage threshold is met,
  // repointing index handles at moved records. Returns true if a segment
  // was compacted.
  bool CompactEngine();

  // Deletes fully-dead log segments. Call only after a checkpoint that no
  // longer references them has been durably written.
  void PurgeEngineGarbage() { engine_->PurgeDeadSegments(); }

  // Stable-watermark tracking (dep_watermark; DESIGN.md §14) --------------
  // Tracks the multiset of lamport timestamps of not-yet-stable versions
  // whose origin DC is `origin`, across ALL keys. A node's stable cut is
  // bounded by MinTrackedUnstableLamport() - 1: every replica holding an
  // unstable copy of a locally-minted version caps the cluster watermark,
  // so the minimum over the ring never admits an unstable dependency even
  // if the version's head died. Enable before applying data.
  void TrackStabilityFor(DcId origin) {
    wm_tracking_ = true;
    wm_origin_ = origin;
  }
  bool HasTrackedUnstable() const { return !unstable_lamports_.empty(); }
  // Smallest tracked unstable lamport; only meaningful if HasTrackedUnstable().
  uint64_t MinTrackedUnstableLamport() const {
    return unstable_lamports_.begin()->first;
  }

  // Residency stats. Under the mem engine, resident == everything.
  uint64_t resident_versions() const;
  uint64_t resident_bytes() const { return inline_bytes_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

  // Bytes of per-key metadata: version-record slots (vector capacity) x
  // sizeof(StoredVersion), plus key bytes, plus dependency lists spilled past
  // the inline capacity. Walks every key — O(keys) — so it is for scrapes,
  // not the apply path.
  uint64_t MetaBytes() const;

 private:
  struct KeyState {
    std::vector<StoredVersion> versions;  // ascending LWW order
    VersionVector applied_vv;
  };

  void Trim(KeyState* ks);
  void DropEntry(StoredVersion* sv);  // cache + engine accounting on erase
  void TrackUnstable(const Version& v);
  void UntrackUnstable(const Version& v);
  StoredVersion* Materialize(const Key& key, StoredVersion* sv);
  void TouchLru(const Key& key, StoredVersion* sv);
  void EvictOverBudget();
  StoredVersion* FindEntry(const Key& key, const Version& version);

  std::unordered_map<Key, KeyState> table_;
  uint64_t total_versions_ = 0;

  // Watermark tracking: lamport -> count of unstable versions carrying it
  // (distinct keys may collide on a lamport).
  bool wm_tracking_ = false;
  DcId wm_origin_ = 0;
  std::map<uint64_t, uint32_t> unstable_lamports_;
  // Every apply inserts a lamport here and every stabilization erases one;
  // recycling the map node keeps watermark tracking off the allocator.
  MapNodeCache<std::map<uint64_t, uint32_t>> unstable_lamports_cache_;

  std::unique_ptr<StorageEngine> engine_;
  uint64_t cache_budget_ = 64u << 20;
  uint64_t ops_since_compact_ = 0;

  // Residency cache (disk engine): MRU-first list of materialized entries.
  // Mutable because materialization happens inside const accessors.
  mutable std::list<std::pair<Key, Version>> lru_;
  mutable uint64_t inline_bytes_ = 0;  // bytes held in resident `value`s
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;
};

}  // namespace chainreaction

#endif  // SRC_STORAGE_VERSIONED_STORE_H_
