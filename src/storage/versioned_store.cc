#include "src/storage/versioned_store.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/logging.h"

namespace chainreaction {

namespace {
// Materialized entries newer than this many materializations are never
// evicted, so a caller-held `const StoredVersion*` stays valid across the
// handful of store calls a single message handler makes.
constexpr size_t kPinnedRecent = 8;
// Apply()s between opportunistic compaction checks.
constexpr uint64_t kCompactCheckInterval = 512;
}  // namespace

VersionedStore::VersionedStore() : engine_(MakeMemEngine()) {}

VersionedStore::~VersionedStore() = default;

void VersionedStore::AttachEngine(std::unique_ptr<StorageEngine> engine) {
  if (!table_.empty()) {
    LOG_ERROR("AttachEngine on a non-empty store");
    std::abort();
  }
  engine_ = std::move(engine);
}

bool VersionedStore::Apply(const Key& key, std::string_view value, const Version& version,
                           std::span<const Dependency> deps) {
  KeyState& ks = table_[key];
  // Insertion point in ascending LWW order.
  auto it = std::lower_bound(
      ks.versions.begin(), ks.versions.end(), version,
      [](const StoredVersion& sv, const Version& v) { return sv.version.LwwLess(v); });
  if (it != ks.versions.end() && it->version == version) {
    return false;  // duplicate (e.g. repair re-propagation)
  }
  StoredVersion sv;
  sv.version = version;
  sv.deps.assign(deps.begin(), deps.end());
  TrackUnstable(version);
  if (!engine_->inline_values()) {
    sv.handle = engine_->Append(key, version, value);
  }
  const size_t value_bytes = value.size();
  sv.value.assign(value.data(), value.size());  // the single owned copy
  sv.resident = true;
  auto inserted = ks.versions.insert(it, std::move(sv));
  inline_bytes_ += value_bytes;
  if (!engine_->inline_values()) {
    TouchLru(key, &*inserted);
  }
  ks.applied_vv.MergeMax(version.vv);
  total_versions_++;
  Trim(&ks);
  if (!engine_->inline_values()) {
    EvictOverBudget();
    if (++ops_since_compact_ >= kCompactCheckInterval) {
      ops_since_compact_ = 0;
      CompactEngine();
    }
  }
  return true;
}

bool VersionedStore::Adopt(const Key& key, const Version& version,
                           std::vector<Dependency> deps, const ValueHandle& handle) {
  KeyState& ks = table_[key];
  auto it = std::lower_bound(
      ks.versions.begin(), ks.versions.end(), version,
      [](const StoredVersion& sv, const Version& v) { return sv.version.LwwLess(v); });
  if (it != ks.versions.end() && it->version == version) {
    return true;  // idempotent
  }
  if (!engine_->AdoptLive(handle)) {
    return false;
  }
  StoredVersion sv;
  sv.version = version;
  sv.deps.assign(deps.begin(), deps.end());  // recovery path; copy is cold
  TrackUnstable(version);
  sv.handle = handle;
  sv.resident = false;
  ks.versions.insert(it, std::move(sv));
  ks.applied_vv.MergeMax(version.vv);
  total_versions_++;
  return true;
}

bool VersionedStore::MarkStable(const Key& key, const Version& version) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return false;
  }
  bool found = false;
  for (StoredVersion& sv : it->second.versions) {
    if (sv.version == version || version.CausallyIncludes(sv.version)) {
      // Stability is prefix-closed along the chain: everything the stable
      // version causally includes is stable too.
      if (!sv.stable) {
        sv.stable = true;
        UntrackUnstable(sv.version);
      }
      found = found || sv.version == version;
    }
  }
  if (found) {
    Trim(&it->second);
  }
  return found;
}

StoredVersion* VersionedStore::FindEntry(const Key& key, const Version& version) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return nullptr;
  }
  for (StoredVersion& sv : it->second.versions) {
    if (sv.version == version) {
      return &sv;
    }
  }
  return nullptr;
}

StoredVersion* VersionedStore::Materialize(const Key& key, StoredVersion* sv) {
  if (engine_->inline_values()) {
    return sv;
  }
  if (sv->resident) {
    cache_hits_++;
    TouchLru(key, sv);
    return sv;
  }
  cache_misses_++;
  const Status st = engine_->Read(sv->handle, &sv->value);
  if (!st.ok()) {
    // The index says this version exists but its log record is unreadable:
    // the value log is corrupt, which is not survivable.
    LOG_ERROR("value log read failed for key '%s': %s", key.c_str(),
              st.ToString().c_str());
    std::abort();
  }
  sv->resident = true;
  inline_bytes_ += sv->value.size();
  TouchLru(key, sv);
  EvictOverBudget();
  return sv;
}

void VersionedStore::TouchLru(const Key& key, StoredVersion* sv) {
  if (sv->cached) {
    lru_.splice(lru_.begin(), lru_, sv->lru_it);
  } else {
    lru_.emplace_front(key, sv->version);
    sv->lru_it = lru_.begin();
    sv->cached = true;
  }
}

void VersionedStore::EvictOverBudget() {
  while (inline_bytes_ > cache_budget_ && lru_.size() > kPinnedRecent) {
    const auto& [key, version] = lru_.back();
    StoredVersion* sv = FindEntry(key, version);
    if (sv != nullptr && sv->resident) {
      inline_bytes_ -= sv->value.size();
      sv->value.clear();
      sv->value.shrink_to_fit();
      sv->resident = false;
      sv->cached = false;
    }
    lru_.pop_back();
  }
}

const StoredVersion* VersionedStore::Latest(const Key& key) const {
  auto* self = const_cast<VersionedStore*>(this);
  auto it = self->table_.find(key);
  if (it == self->table_.end() || it->second.versions.empty()) {
    return nullptr;
  }
  return self->Materialize(key, &it->second.versions.back());
}

const StoredVersion* VersionedStore::Find(const Key& key, const Version& version) const {
  auto* self = const_cast<VersionedStore*>(this);
  StoredVersion* sv = self->FindEntry(key, version);
  return sv == nullptr ? nullptr : self->Materialize(key, sv);
}

const StoredVersion* VersionedStore::LatestStable(const Key& key) const {
  auto* self = const_cast<VersionedStore*>(this);
  auto it = self->table_.find(key);
  if (it == self->table_.end()) {
    return nullptr;
  }
  auto& versions = it->second.versions;
  for (auto rit = versions.rbegin(); rit != versions.rend(); ++rit) {
    if (rit->stable) {
      return self->Materialize(key, &*rit);
    }
  }
  return nullptr;
}

const StoredVersion* VersionedStore::LatestMeta(const Key& key) const {
  auto it = table_.find(key);
  if (it == table_.end() || it->second.versions.empty()) {
    return nullptr;
  }
  return &it->second.versions.back();
}

const StoredVersion* VersionedStore::FindMeta(const Key& key, const Version& version) const {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return nullptr;
  }
  for (const StoredVersion& sv : it->second.versions) {
    if (sv.version == version) {
      return &sv;
    }
  }
  return nullptr;
}

const StoredVersion* VersionedStore::LatestStableMeta(const Key& key) const {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return nullptr;
  }
  const auto& versions = it->second.versions;
  for (auto rit = versions.rbegin(); rit != versions.rend(); ++rit) {
    if (rit->stable) {
      return &*rit;
    }
  }
  return nullptr;
}

bool VersionedStore::HasUnstable(const Key& key) const {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return false;
  }
  for (const StoredVersion& sv : it->second.versions) {
    if (!sv.stable) {
      return true;
    }
  }
  return false;
}

bool VersionedStore::HasAtLeast(const Key& key, const Version& min) const {
  if (min.IsNull()) {
    return true;
  }
  auto it = table_.find(key);
  if (it == table_.end()) {
    return false;
  }
  return it->second.applied_vv.Dominates(min.vv);
}

const VersionVector* VersionedStore::AppliedVv(const Key& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second.applied_vv;
}

size_t VersionedStore::VersionCount(const Key& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? 0 : it->second.versions.size();
}

void VersionedStore::ForEachKey(
    const std::function<void(const Key&, const StoredVersion&)>& fn) const {
  for (const auto& [key, ks] : table_) {
    if (!ks.versions.empty()) {
      fn(key, ks.versions.back());
    }
  }
}

void VersionedStore::ForEachVersion(
    const std::function<void(const Key&, const StoredVersion&)>& fn) const {
  auto* self = const_cast<VersionedStore*>(this);
  for (auto& [key, ks] : self->table_) {
    for (StoredVersion& sv : ks.versions) {
      fn(key, *self->Materialize(key, &sv));
    }
  }
}

void VersionedStore::ForEachVersionRaw(
    const std::function<void(const Key&, const StoredVersion&)>& fn) const {
  for (const auto& [key, ks] : table_) {
    for (const StoredVersion& sv : ks.versions) {
      fn(key, sv);
    }
  }
}

std::vector<StoredVersion> VersionedStore::UnstableVersions(const Key& key) const {
  auto* self = const_cast<VersionedStore*>(this);
  std::vector<StoredVersion> out;
  auto it = self->table_.find(key);
  if (it == self->table_.end()) {
    return out;
  }
  for (StoredVersion& sv : it->second.versions) {
    if (!sv.stable) {
      out.push_back(*self->Materialize(key, &sv));
    }
  }
  return out;
}

bool VersionedStore::CompactEngine() {
  return engine_->MaybeCompact(
      [this](const Key& key, const Version& version, const ValueHandle& old_handle,
             const ValueHandle& new_handle) {
        StoredVersion* sv = FindEntry(key, version);
        if (sv != nullptr && sv->handle.segment == old_handle.segment &&
            sv->handle.offset == old_handle.offset) {
          sv->handle = new_handle;
        }
      });
}

uint64_t VersionedStore::resident_versions() const {
  return engine_->inline_values() ? total_versions_ : lru_.size();
}

uint64_t VersionedStore::MetaBytes() const {
  uint64_t bytes = 0;
  for (const auto& [key, ks] : table_) {
    bytes += ks.versions.capacity() * sizeof(StoredVersion) + key.size();
    for (const StoredVersion& sv : ks.versions) {
      if (sv.deps.capacity() > StoredVersion::kInlineDeps) {
        bytes += sv.deps.capacity() * sizeof(Dependency);
      }
    }
  }
  return bytes;
}

void VersionedStore::TrackUnstable(const Version& v) {
  if (wm_tracking_ && v.origin == wm_origin_) {
    auto [it, fresh] = unstable_lamports_cache_.Claim(unstable_lamports_, v.lamport);
    if (fresh) {
      it->second = 1;  // recycled nodes keep the old count; reset it
    } else {
      it->second++;
    }
  }
}

void VersionedStore::UntrackUnstable(const Version& v) {
  if (!wm_tracking_ || v.origin != wm_origin_) {
    return;
  }
  auto it = unstable_lamports_.find(v.lamport);
  if (it != unstable_lamports_.end() && --it->second == 0) {
    unstable_lamports_cache_.Erase(unstable_lamports_, it);
  }
}

void VersionedStore::DropEntry(StoredVersion* sv) {
  // An unstable version dropped by GC is LWW-superseded by a stable newer
  // one — the same condition under which dependency checks treat it as
  // satisfied — so it stops capping the watermark.
  if (!sv->stable) {
    UntrackUnstable(sv->version);
  }
  if (sv->resident) {
    inline_bytes_ -= sv->value.size();
  }
  if (sv->cached) {
    lru_.erase(sv->lru_it);
    sv->cached = false;
  }
  if (sv->handle.valid()) {
    engine_->Release(sv->handle);
  }
}

void VersionedStore::Trim(KeyState* ks) {
  // Drop everything older than the newest stable version.
  auto& versions = ks->versions;
  size_t newest_stable = versions.size();
  for (size_t i = versions.size(); i-- > 0;) {
    if (versions[i].stable) {
      newest_stable = i;
      break;
    }
  }
  if (newest_stable != versions.size() && newest_stable > 0) {
    for (size_t i = 0; i < newest_stable; ++i) {
      DropEntry(&versions[i]);
    }
    total_versions_ -= newest_stable;
    versions.erase(versions.begin(), versions.begin() + static_cast<long>(newest_stable));
  }
}

}  // namespace chainreaction
