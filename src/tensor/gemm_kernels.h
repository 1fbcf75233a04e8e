// Tiered INT8 GEMM kernels with runtime CPU dispatch.
//
// Three implementations of the same bit-exact contract, best one picked per
// process by probing CPUID at first use (overridable for tests and A/B runs):
//
//  * kAvx512 — 512-bit vpdpbusd (AVX-512 VNNI) microkernel, 8 rows x 32 cols
//    of int32 accumulators, for CPUs with AVX-512F + AVX-512BW + AVX-512VNNI.
//    One vpdpbusd retires 64 multiply-accumulates.
//  * kAvx2   — 256-bit vpmaddwd microkernel (4 rows x 16 cols), for every
//    other AVX2 CPU (an AVX-512 CPU without VNNI runs this tier).
//  * kPortable — the blocked scalar i-k-j loop (autovectorizable), always
//    available; the reference the SIMD tiers are cross-checked against.
//
// Each SIMD tier packs B into column panels of its microkernel width NR, held
// as bytes (PackedB::raw_panels) in one of two layouts:
//
//  * kAvx512, int8 quads, biased: panel[p][q][4j+t] = b(4q+t, 32p+j) ^ 0x80,
//    i.e. W+128 as u8, with W = 0 past the k or n edge. vpdpbusd multiplies
//    a panel row (u8) by a broadcast A quad (a[i][4q..4q+3], s8, taken from
//    a zero-padded copy of the row block) and adds four k-steps into each
//    int32 lane. The pass that copies A also computes 128·Σ_k a[i][k], which
//    the kernel subtracts from the register tile before the store and the
//    fused folds below: Σ a·(w+128) − 128·Σ a = Σ a·w exactly.
//  * kAvx2, int16 pairs: panel[p][kp][2j+t] = b(2kp+t, 16p+j) sign-extended
//    to int16 (0 past the edge), one vpmaddwd against a broadcast int16 A
//    pair per two k-steps. These panels are read only through unaligned
//    vector loads.
//
// Overflow. Neither tier saturates or wraps anywhere for k <= 2^16 (see
// tensor::kMaxK): the vpmaddwd path has |a*b| <= 2^14, a pair sums to <=
// 2^15, and the int32 accumulator stays within 2^30. The vpdpbusd path has
// |Σ (w+128)·a| <= 255·128·2^16 < 2^31 and |128·Σ a| <= 2^30, and the
// corrected result is the true product, again within 2^30.
//
// Every tier produces bit-identical results to every other tier and at every
// thread count: integer addition is associative, each output element's
// k-reduction is computed in full by exactly one thread, and row shards are
// disjoint. The macro-loop is row-sharded across util::global_pool().
//
// C is FULLY OVERWRITTEN and never read — callers need not (and should not)
// zero it first. This is the contract tensor::gemm_i8 exposes.
//
// Fused eᵀC reduction: every entry point takes an optional `col_sums` buffer
// (length n). When non-null it is fully overwritten with the per-column int64
// sums of the C this call writes, accumulated in the microkernel store phase
// from the register tiles — the checksum screen's observed/predicted column
// reduction without a second pass over C. Row shards accumulate into private
// partials merged under a lock; int64 addition is associative and
// commutative, so the fused sums are bit-identical to col_sums(C) at every
// tier, thread count, and merge order.
//
// Each entry point also takes an optional `wcol_sums` buffer (length n): the
// WEIGHTED column reduction uᵀC with u = [1,2,3,…] — the second checksum
// basis of the multi-fault ABFT construction (src/detect/correct.h). It is
// folded per row shard right after the shard's C rows are stored (the rows
// are still cache-hot), merged under the same lock, and carries the same
// bit-identity guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

namespace realm::tensor::kernels {

enum class Tier : std::uint8_t {
  kPortable = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

[[nodiscard]] const char* to_string(Tier t) noexcept;

/// Best tier the running CPU (and OS state-save support) can execute,
/// probed once via CPUID/XGETBV. Always at least kPortable.
[[nodiscard]] Tier best_supported_tier() noexcept;

/// Tier used by gemm_i8/gemm_i8_prepacked. Defaults to best_supported_tier(); the
/// REALM_KERNEL environment variable (portable|avx2|avx512) overrides the
/// default at first use.
[[nodiscard]] Tier active_tier() noexcept;

/// Force a tier (tests cross-checking SIMD vs scalar drive this). Throws
/// std::invalid_argument if the CPU cannot execute it.
void set_active_tier(Tier t);

/// c[m x n] = a[m x k] * b[k x n], all row-major, int8 inputs, int32
/// accumulation. c is fully overwritten. Dimension/overflow validation is the
/// caller's job (tensor::gemm_i8 enforces kMaxK). Non-null `col_sums`
/// (length n) receives the fused eᵀC reduction; non-null `wcol_sums`
/// (length n) the fused weighted uᵀC reduction (see file comment).
void gemm_i8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::size_t m,
             std::size_t k, std::size_t n, std::int64_t* col_sums = nullptr,
             std::int64_t* wcol_sums = nullptr);

/// Cache-line-aligned allocator for panel bytes, so no 64-byte panel load
/// splits a cache line.
template <typename T>
struct LineAlignedAllocator {
  using value_type = T;
  LineAlignedAllocator() = default;
  template <typename U>
  explicit LineAlignedAllocator(const LineAlignedAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t count) {
    return static_cast<T*>(::operator new(count * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t /*count*/) noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
  friend bool operator==(const LineAlignedAllocator&, const LineAlignedAllocator&) noexcept {
    return true;
  }
};

using PanelBytes = std::vector<std::int8_t, LineAlignedAllocator<std::int8_t>>;

/// Pre-packed SIMD panels of a stationary B operand (the accelerator's
/// weight-resident model: pay the O(k*n) pack once per weight tile, not once
/// per GEMM). Opaque; tied to the tier it was packed for — a tier or shape
/// mismatch at use time simply falls back to packing fresh. Cheap to move,
/// empty (and always a fallback) on the portable tier.
///
/// Immutability contract (load-bearing for realm::serve): pack_b is the only
/// writer — once returned, a PackedB is never mutated by any gemm_i8_*
/// call, so any number of concurrent GEMMs (every worker of a serving
/// engine, plus recompute replays) may read the same panels with no
/// synchronization. Destroying or reassigning it while a GEMM reads it is,
/// of course, a race — ProtectedGemm keeps panels alive with the weights.
class PackedB {
 public:
  PackedB() = default;

  [[nodiscard]] bool valid_for(Tier t, std::size_t k, std::size_t n) const noexcept {
    return !panels_.empty() && tier_ == t && k_ == k && n_ == n;
  }

  /// Raw panel bytes, for the memory-hierarchy fault model (at-rest panel
  /// corruption) and the repack-compare scrub. Empty on the portable tier,
  /// which consumes B directly.
  [[nodiscard]] std::span<const std::int8_t> raw_panels() const noexcept { return panels_; }

  /// Mutable view for fault injection ONLY. Writing through this view on a
  /// PackedB that concurrent GEMMs read violates the immutability contract
  /// above — callers must hold an exclusively-owned copy (ProtectedGemm::
  /// corrupt_panels mutates its own member before the tile is shared).
  [[nodiscard]] std::span<std::int8_t> mutable_panels() noexcept { return panels_; }

 private:
  friend PackedB pack_b(const std::int8_t* b, std::size_t k, std::size_t n);
  friend void gemm_i8_prepacked(const std::int8_t* a, const std::int8_t* b, const PackedB& pb,
                                std::int32_t* c, std::size_t m, std::size_t k, std::size_t n,
                                std::int64_t* col_sums, std::int64_t* wcol_sums);

  Tier tier_ = Tier::kPortable;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  PanelBytes panels_;
};

/// Pack b[k x n] (row-major) for the active tier.
[[nodiscard]] PackedB pack_b(const std::int8_t* b, std::size_t k, std::size_t n);

/// True when `pb` holds exactly pack_b(b, k, n)'s bytes for the active tier:
/// the repack-compare weight scrub, done a slice of every panel at a time so
/// it needs no second full-size image. False whenever `pb` is not valid for
/// the active tier and this shape (on the portable tier, always).
[[nodiscard]] bool panels_match(const std::int8_t* b, std::size_t k, std::size_t n,
                                const PackedB& pb);

/// gemm_i8 that reuses pre-packed panels when `pb` matches the active tier
/// and shape; otherwise identical to gemm_i8(a, b, c, ...). Bit-exact with
/// the non-prepacked path in every case.
void gemm_i8_prepacked(const std::int8_t* a, const std::int8_t* b, const PackedB& pb,
                       std::int32_t* c, std::size_t m, std::size_t k, std::size_t n,
                       std::int64_t* col_sums = nullptr, std::int64_t* wcol_sums = nullptr);

}  // namespace realm::tensor::kernels
