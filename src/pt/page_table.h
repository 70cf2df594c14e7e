// Software 4-level radix page table with the x86 walk structure
// (9+9+9+9 index bits over VA bits [47:12]). The MMU's role — walking the
// table, setting accessed/dirty bits — is performed in software by the
// runtimes' pin path.
#ifndef DILOS_SRC_PT_PAGE_TABLE_H_
#define DILOS_SRC_PT_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/pt/pte.h"

namespace dilos {

class PageTable {
 public:
  PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Returns the PTE for the page containing `vaddr` (0 if no leaf exists).
  Pte Get(uint64_t vaddr) const;

  // Returns a pointer to the leaf PTE slot, materializing intermediate
  // levels when `create` is true; nullptr if absent and !create. Tables are
  // never freed, so a returned slot stays valid for the table's lifetime.
  Pte* Entry(uint64_t vaddr, bool create);

  void Set(uint64_t vaddr, Pte pte) { *Entry(vaddr, /*create=*/true) = pte; }

  // Number of leaf tables allocated (for memory-footprint assertions).
  size_t leaf_count() const { return leaf_count_; }

 private:
  static constexpr uint32_t kIndexBits = 9;
  static constexpr uint32_t kFanout = 1u << kIndexBits;

  struct L1 {
    std::array<Pte, kFanout> pte{};
  };
  struct L2 {
    std::array<std::unique_ptr<L1>, kFanout> e;
  };
  struct L3 {
    std::array<std::unique_ptr<L2>, kFanout> e;
  };
  struct L4 {
    std::array<std::unique_ptr<L3>, kFanout> e;
  };

  static uint32_t Idx(uint64_t vaddr, uint32_t level) {
    return static_cast<uint32_t>((vaddr >> (12 + kIndexBits * level)) & (kFanout - 1));
  }

  L4 root_;
  size_t leaf_count_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_PT_PAGE_TABLE_H_
