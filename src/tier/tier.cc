#include "src/tier/tier.h"

#include "src/rdma/verbs.h"
#include "src/tier/compress.h"

namespace dilos {

CompressedTier::Admit CompressedTier::AdmitPage(uint64_t page_va, const uint8_t* page,
                                                bool dirty, uint32_t* csize) {
  size_t cap = static_cast<size_t>(cfg_.max_ratio * static_cast<double>(kPageSize));
  if (cap > kPageSize) {
    cap = kPageSize;
  }
  if (scratch_.size() < cap) {
    scratch_.resize(cap);
  }
  size_t n = TierCompress(page, kPageSize, scratch_.data(), cap);
  if (n == 0) {
    return Admit::kIncompressible;
  }
  Drop(page_va);  // Replace any stale entry for the same page.
  Entry e;
  e.h = pool_.Alloc(scratch_.data(), static_cast<uint32_t>(n));
  e.csize = static_cast<uint32_t>(n);
  e.dirty = dirty;
  lru_.push_back(page_va);
  e.lru_it = std::prev(lru_.end());
  if (dirty) {
    dirty_.push_back(page_va);
    e.dirty_it = std::prev(dirty_.end());
  }
  entries_.emplace(page_va, e);
  if (csize != nullptr) {
    *csize = e.csize;
  }
  return Admit::kStored;
}

bool CompressedTier::Take(uint64_t page_va, uint8_t* out, bool* was_dirty) {
  auto it = entries_.find(page_va);
  if (it == entries_.end()) {
    return false;
  }
  const Entry& e = it->second;
  if (TierDecompress(pool_.Data(e.h), e.csize, out, kPageSize) != kPageSize) {
    // Corrupt blob: the content is unrecoverable, so keeping the entry
    // would only leak its pool blocks against the capacity budget and fail
    // every later Take()/Read() the same way. Drop it; the caller falls
    // back to the remote copy and accounts the loss.
    Remove(it);
    return false;
  }
  if (was_dirty != nullptr) {
    *was_dirty = e.dirty;
  }
  Remove(it);
  return true;
}

bool CompressedTier::Read(uint64_t page_va, uint8_t* out) const {
  auto it = entries_.find(page_va);
  if (it == entries_.end()) {
    return false;
  }
  const Entry& e = it->second;
  return TierDecompress(pool_.Data(e.h), e.csize, out, kPageSize) == kPageSize;
}

void CompressedTier::MarkClean(uint64_t page_va) {
  auto it = entries_.find(page_va);
  if (it != entries_.end() && it->second.dirty) {
    dirty_.erase(it->second.dirty_it);
    it->second.dirty = false;
  }
}

void CompressedTier::Drop(uint64_t page_va) {
  auto it = entries_.find(page_va);
  if (it != entries_.end()) {
    Remove(it);
  }
}

void CompressedTier::Remove(std::unordered_map<uint64_t, Entry>::iterator it) {
  Entry& e = it->second;
  pool_.Free(e.h, e.csize);
  lru_.erase(e.lru_it);
  if (e.dirty) {
    dirty_.erase(e.dirty_it);
  }
  entries_.erase(it);
}

bool CompressedTier::Oldest(uint64_t* page_va, bool* dirty) const {
  if (lru_.empty()) {
    return false;
  }
  uint64_t va = lru_.front();
  const Entry& e = entries_.at(va);
  *page_va = va;
  *dirty = e.dirty;
  return true;
}

void CompressedTier::CollectDirty(size_t max, std::vector<uint64_t>* out) const {
  for (uint64_t va : dirty_) {
    if (out->size() >= max) {
      return;
    }
    out->push_back(va);
  }
}

void CompressedTier::Requeue(uint64_t page_va) {
  auto it = entries_.find(page_va);
  if (it == entries_.end()) {
    return;
  }
  // Splicing keeps both iterators valid; a dirty entry also moves to the
  // back of the dirty list, preserving its order relative to lru_.
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  if (it->second.dirty) {
    dirty_.splice(dirty_.end(), dirty_, it->second.dirty_it);
  }
}

}  // namespace dilos
