// The runtime interface unmodified applications program against.
//
// DiLOS' compatibility story (Sec. 3.3, 5 "Compatibility layer") is that an
// application just mmaps disaggregated memory (ddc_mmap / patched malloc)
// and dereferences pointers; faults are transparent. In the simulation the
// MMU is software, so "dereference" is the Pin() call: it performs the page
// walk, charges the fast-path cost for local pages, and invokes the fault
// machinery for everything else. Both paged systems (DiLOS and the Fastswap
// baseline) implement this interface, so every workload in src/apps runs on
// either system without modification — the paper's compatibility claim in
// code form.
#ifndef DILOS_SRC_SIM_FAR_RUNTIME_H_
#define DILOS_SRC_SIM_FAR_RUNTIME_H_

#include <cstdint>
#include <cstring>

#include "src/sim/clock.h"
#include "src/sim/stats.h"

namespace dilos {

class FarRuntime {
 public:
  virtual ~FarRuntime() = default;

  // ddc_mmap: reserves `bytes` of far virtual address space and returns its
  // base address. Pages are zero-fill-on-first-touch.
  virtual uint64_t AllocRegion(uint64_t bytes) = 0;

  // ddc_munmap: discards [addr, addr+bytes) — local frames are freed, remote
  // copies dropped, and the pages return to zero-fill state.
  virtual void FreeRegion(uint64_t addr, uint64_t bytes) {
    (void)addr;
    (void)bytes;
  }

  // Pins [vaddr, vaddr+len) — which must lie within one page — into local
  // DRAM and returns a host pointer to it, charging simulated time for the
  // walk and any fault handling. The pointer is valid until the next Pin
  // call that may evict (treat it as immediately consumed).
  virtual uint8_t* Pin(uint64_t vaddr, uint32_t len, bool write, int core) = 0;

  // Waits until no fault is left in flight: with a fault pipeline deeper
  // than 1, parked demand faults may still be awaiting their batched PTE
  // install when a measurement phase ends; Quiesce advances each core's
  // clock to the last completion and commits the remaining installs.
  // Runtimes that resolve every fault inside Pin keep the default no-op.
  virtual void Quiesce() {}

  virtual Clock& clock(int core) = 0;
  virtual RuntimeStats& stats() = 0;
  virtual int num_cores() const = 0;

  Clock& clock() { return clock(0); }

  // Highest clock across cores — the wall-clock of a parallel phase.
  uint64_t MaxWorkerTimeNs() {
    uint64_t t = 0;
    for (int c = 0; c < num_cores(); ++c) {
      t = clock(c).now() > t ? clock(c).now() : t;
    }
    return t;
  }

  // ---- Non-virtual convenience accessors (handle page crossings) ----------

  void ReadBytes(uint64_t vaddr, void* dst, uint64_t len, int core = 0) {
    Transfer(vaddr, dst, len, /*write=*/false, core);
  }
  void WriteBytes(uint64_t vaddr, const void* src, uint64_t len, int core = 0) {
    Transfer(vaddr, const_cast<void*>(src), len, /*write=*/true, core);
  }

  template <typename T>
  T Read(uint64_t vaddr, int core = 0) {
    T v;
    ReadBytes(vaddr, &v, sizeof(T), core);
    return v;
  }
  template <typename T>
  void Write(uint64_t vaddr, const T& v, int core = 0) {
    WriteBytes(vaddr, &v, sizeof(T), core);
  }

 private:
  void Transfer(uint64_t vaddr, void* host, uint64_t len, bool write, int core) {
    auto* p = static_cast<uint8_t*>(host);
    while (len > 0) {
      uint32_t in_page = static_cast<uint32_t>(4096 - (vaddr & 4095));
      uint32_t chunk = len < in_page ? static_cast<uint32_t>(len) : in_page;
      uint8_t* frame = Pin(vaddr, chunk, write, core);
      if (write) {
        std::memcpy(frame, p, chunk);
      } else {
        std::memcpy(p, frame, chunk);
      }
      vaddr += chunk;
      p += chunk;
      len -= chunk;
    }
  }
};

// Typed fixed-size array living in far memory.
template <typename T>
class FarArray {
 public:
  FarArray(FarRuntime& rt, uint64_t count)
      : rt_(&rt), base_(rt.AllocRegion(count * sizeof(T))), count_(count) {}
  // Adopts an existing region.
  FarArray(FarRuntime& rt, uint64_t base, uint64_t count)
      : rt_(&rt), base_(base), count_(count) {}

  T Get(uint64_t i, int core = 0) const { return rt_->Read<T>(Addr(i), core); }
  void Set(uint64_t i, const T& v, int core = 0) { rt_->Write<T>(Addr(i), v, core); }
  uint64_t Addr(uint64_t i) const { return base_ + i * sizeof(T); }

  uint64_t size() const { return count_; }
  uint64_t base() const { return base_; }
  FarRuntime& runtime() const { return *rt_; }

 private:
  FarRuntime* rt_;
  uint64_t base_;
  uint64_t count_;
};

}  // namespace dilos

#endif  // DILOS_SRC_SIM_FAR_RUNTIME_H_
