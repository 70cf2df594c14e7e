// Calibrated timing constants for the simulated disaggregation testbed.
//
// Every constant is traceable to a measurement reported in the DiLOS paper
// (EuroSys '23); the citations are given per field. The defaults model the
// paper's testbed: Xeon E5-2670 v3 @ 2.3 GHz compute node, ConnectX-5
// 100 GbE RoCE link, one-sided RDMA verbs.
#ifndef DILOS_SRC_SIM_COST_MODEL_H_
#define DILOS_SRC_SIM_COST_MODEL_H_

#include <cstdint>

namespace dilos {

struct CostModel {
  // --- RDMA fabric (paper Fig. 2) -----------------------------------------
  // One-sided READ latency is ~1.8 us for 128 B and ~2.4 us for 4 KB, i.e.
  // a fixed pipeline latency plus ~0.155 ns per payload byte.
  uint64_t rdma_read_base_ns = 1750;
  uint64_t rdma_write_base_ns = 1300;  // One-sided writes post cheaper.
  double rdma_per_byte_ns = 0.155;
  // Each additional scatter/gather segment beyond the first costs extra WQE
  // processing; the paper observed a "significant slowdown" beyond three
  // segments (Sec. 6.3), modeled as a superlinear step at >3.
  uint64_t rdma_per_seg_ns = 120;
  uint64_t rdma_seg_penalty_ns = 900;  // Added per segment beyond 3.
  // RC transport retry timeout: an op posted toward a crashed node occupies
  // the QP for this long before completing with WcStatus::kTimeout (the
  // simulated analogue of IBV_WC_RETRY_EXC_ERR). Real RNIC retransmit
  // timers run to milliseconds; the model compresses that to a few op
  // latencies so failure detection costs are visible but not dominant.
  uint64_t rdma_op_timeout_ns = 10'000;

  // --- Link serialization ---------------------------------------------------
  // The wire is shared by all queue pairs; each op occupies it for a per-op
  // overhead plus per-byte time. Effective payload bandwidth ~6.4 GB/s,
  // consistent with DiLOS' 3.7 GB/s end-to-end sequential read (Table 2)
  // after software costs.
  uint64_t link_per_op_ns = 200;
  double link_per_byte_ns = 0.155;

  // --- TCP emulation (paper Sec. 6.2, footnote 2) --------------------------
  // AIFM uses TCP; the paper charges 14,000 cycles @2.3 GHz = ~6087 ns per
  // completion to emulate it.
  uint64_t tcp_delay_ns = 6087;

  // --- Page fault exception path (paper Fig. 1: 0.57 us, 9%) ---------------
  uint64_t hw_exception_ns = 450;   // Hardware exception delay.
  uint64_t os_trap_entry_ns = 120;  // OS exception entry/dispatch.

  // --- Fastswap software path (paper Fig. 1 breakdown) ----------------------
  uint64_t fsw_swapcache_mgmt_ns = 550;  // Swap-cache radix tree bookkeeping.
  uint64_t fsw_page_alloc_ns = 450;      // Page allocation inside swap path.
  uint64_t fsw_swap_entry_ns = 500;      // Swap entry / frontswap bookkeeping.
  uint64_t fsw_direct_reclaim_ns = 2800;  // Direct reclamation when offload lags.
  uint64_t fsw_minor_fault_sw_ns = 600;   // Swap-cache lookup + map on minor fault.
  // Fraction of reclaiming faults whose reclamation the dedicated offload
  // thread failed to absorb (Fig. 1 "Average" vs "No reclamation": ~29% of
  // total latency is reclamation even with offloading enabled).
  double fsw_direct_reclaim_fraction = 0.65;

  // --- DiLOS software path (paper Fig. 6: ~49% lower total than Fastswap) ---
  uint64_t dilos_pte_check_ns = 60;   // Unified-page-table tag check.
  uint64_t dilos_map_ns = 60;         // Mapping a fetched frame (PTE store + TLB).
  uint64_t dilos_prefetch_issue_ns = 80;  // Issuing one async prefetch request.
  uint64_t dilos_hit_tracker_ns = 150;    // Scanning accessed bits of one window.

  // --- Common post-arrival work ---------------------------------------------
  uint64_t map_tlb_flush_ns = 90;  // Kernel-side mapping cost shared by systems.

  // --- Async fault pipeline (src/sim/fiber.h, DESIGN.md §12) -----------------
  // Atlas-style user-space swapping reports sub-µs context switches for its
  // green threads (vs multi-µs kernel thread switches): a faulting fiber
  // saves registers and yields in a few hundred ns, and resuming it costs
  // about the same. Coalesced CQ polling amortizes one poll over a whole
  // batch of completions. Charged only with fault_pipeline.depth > 1 —
  // depth == 1 is the blocking fault path and has no fiber to switch to.
  uint64_t fiber_park_ns = 150;    // Save continuation + switch to next fiber.
  uint64_t fiber_resume_ns = 100;  // Reschedule a ready fiber after harvest.
  uint64_t cq_poll_ns = 120;       // One coalesced completion-queue poll.

  // --- Erasure coding (src/recovery/ec.h) -----------------------------------
  // GF(2^8) decode of one 4 KB page from k survivors: table-driven XOR/mul
  // runs at several GB/s per core on this class of CPU, so a page costs well
  // under a microsecond; charged once per reconstructed page on top of the
  // k parallel survivor reads.
  uint64_t ec_decode_page_ns = 600;

  // --- Compressed local tier (src/tier) --------------------------------------
  // LZ4/Snappy-class byte-LZ on this CPU class runs ~2.5 GB/s compressing and
  // ~8 GB/s decompressing: ~1.6 us to squeeze a 4 KB page, ~0.5 us to expand
  // it. Compression runs on the background reclaim path (spare cores) except
  // under direct reclaim; decompression is charged in the fault path — it is
  // the entire miss penalty of a tier hit, vs the RDMA round trip of a cold
  // miss that goes remote.
  uint64_t tier_compress_page_ns = 1600;
  uint64_t tier_decompress_page_ns = 500;

  // --- Local (non-faulting) access path --------------------------------------
  // Cost of a pin that hits a present PTE: the amortized cache/TLB cost of a
  // local access (sequential accesses mostly hit cache lines; DRAM latency
  // on the miss fraction averages out to a few ns per touch).
  uint64_t local_pin_ns = 2;
  double local_per_byte_ns = 0.03;  // Streaming bandwidth ~33 GB/s.
  uint64_t zero_fill_ns = 350;      // Anonymous first-touch fault service.

  // --- Memory node -----------------------------------------------------------
  // With 2 MB huge pages the whole RNIC page table fits in NIC cache
  // (Sec. 5); with 4 KB pages, PCIe round-trips for page-table walks add
  // latency on a fraction of ops.
  uint64_t memnode_4k_walk_penalty_ns = 250;
  bool memnode_huge_pages = true;

  // Returns the default testbed model.
  static CostModel Default() { return CostModel{}; }

  // Far memory over a modern NVMe drive instead of RDMA (paper Sec. 5.1:
  // "Modern NVMe drives provide enough performance to be used for far
  // memory; thereby DiLOS' design would be valid for NVMe drives").
  // ~12 us 4 KB random read, ~3.2 GB/s streaming.
  static CostModel Nvme() {
    CostModel m;
    m.rdma_read_base_ns = 11'000;
    m.rdma_write_base_ns = 9'000;  // Writes land in the drive's buffer.
    m.rdma_per_byte_ns = 0.30;
    m.link_per_op_ns = 700;  // Submission/completion queue doorbells.
    m.link_per_byte_ns = 0.30;
    return m;
  }

  // Far memory over a SATA SSD — the "traditional block devices are much
  // slower" regime where IO dominates and kernel-path savings wash out.
  static CostModel SataSsd() {
    CostModel m;
    m.rdma_read_base_ns = 90'000;
    m.rdma_write_base_ns = 70'000;
    m.rdma_per_byte_ns = 1.8;  // ~550 MB/s.
    m.link_per_op_ns = 4'000;
    m.link_per_byte_ns = 1.8;
    return m;
  }

  // Fabric latency of a one-sided op carrying `bytes` across `nsegs`
  // scatter/gather segments (excludes link serialization, which rdma::Link
  // accounts for).
  uint64_t ReadLatencyNs(uint64_t bytes, uint32_t nsegs = 1) const {
    return OpLatencyNs(rdma_read_base_ns, bytes, nsegs);
  }
  uint64_t WriteLatencyNs(uint64_t bytes, uint32_t nsegs = 1) const {
    return OpLatencyNs(rdma_write_base_ns, bytes, nsegs);
  }

 private:
  uint64_t OpLatencyNs(uint64_t base, uint64_t bytes, uint32_t nsegs) const {
    uint64_t lat = base + static_cast<uint64_t>(rdma_per_byte_ns * static_cast<double>(bytes));
    if (nsegs > 1) {
      lat += rdma_per_seg_ns * (nsegs - 1);
    }
    if (nsegs > 3) {
      lat += rdma_seg_penalty_ns * (nsegs - 3);
    }
    if (!memnode_huge_pages) {
      lat += memnode_4k_walk_penalty_ns;
    }
    return lat;
  }
};

}  // namespace dilos

#endif  // DILOS_SRC_SIM_COST_MODEL_H_
