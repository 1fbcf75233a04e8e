// Algebraic in-place fault correction (the multi-fault ABFT solve).
//
// The checksum screen localizes faults; this module repairs them without the
// O(m·k·n) recompute replay. Both solves rest on the linearity of the
// checksum identities. Write the error matrix E = C_observed − C_true. Then
//
//   plain column deviation   dc[j]  = Σ_i E(i,j)
//   weighted column deviation wdc[j] = Σ_i (i+1)·E(i,j)   (basis u = [1,2,…])
//   plain row deviation      dr[i]  = Σ_j E(i,j)
//   weighted row deviation   wdr[i] = Σ_j (j+1)·E(i,j)    (basis v = [1,2,…])
//
// For a column j holding exactly one error at row r of magnitude δ:
// dc[j] = δ and wdc[j] = (r+1)·δ, so r = wdc[j]/dc[j] − 1 and the patch is
// C(r,j) −= dc[j] — position AND magnitude from two numbers, the classic
// weighted-basis ABFT construction. Because the solve is per column, any
// number of simultaneous faults in DISTINCT columns (including several
// sharing a row) patch independently. The row-side solve is the transpose
// (c = wdr[i]/dr[i] − 1, patch C(i,c) −= dr[i]) and catches what the column
// solve cannot see: faults sharing a column, including pairs whose column
// deviations cancel.
//
// Every input is already paid for: the plain deviations are the screen's
// own (ScreenDeviations), the predicted uᵀ(A·W) is the GEMM's fused
// store-phase sum, and (A·W)·v = A·(W·v) uses the resident weighted weight
// basis ProtectedGemm::set_weights precomputes — formed only when the column
// solve leaves a row residual for the row solve. Total patch cost is
// O(m·n + m·k), the m·k term being the row predictions of the row solve and
// the re-screen — orders of magnitude below the O(m·k·n) recompute replay,
// with no O(k·n) term.
//
// State machine: detect → try_patch → full re-screen → serve (kPatched), or
// on any inconsistency (inexact division, out-of-range index, dirty recheck)
// → kFailed → caller recomputes. The mandatory re-screen is what makes an
// accidentally-divisible wrong solve safe: a mispatch perturbs checksums the
// patch did not balance, the recheck stays dirty, and the recompute replay
// overwrites the accumulator wholesale (no undo needed).
//
// Known hole, found and not fixed: a mispatch can leave a residual error the
// re-screen cannot see. With MagFreqInjector(2^20, 24) on m=8, k=4096,
// n=256 tiles, 4 to 5 of 4000 came back kPatched but wrong, depending on the
// seed (0 to 2 of 4000 at m=16). Every such residual was
// 2^20·[1,−2,1]ᵀ⊗[1,−2,1] on evenly spaced rows and columns. That pattern
// zeroes the plain AND the linear-weighted checksums on both sides, so
// neither this re-screen nor a weighted one catches it; closing the hole
// needs a check outside those four sums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/detect.h"
#include "tensor/tensor.h"

namespace realm::detect::correct {

enum class PatchOutcome : std::uint8_t {
  kNoFault,  ///< every deviation is zero; accumulator left untouched
  kPatched,  ///< patches applied and the full re-screen came back clean
  kFailed,   ///< no consistent solve, or recheck still dirty: recompute
};

struct PatchResult {
  PatchOutcome outcome = PatchOutcome::kNoFault;
  std::size_t patches_applied = 0;  ///< elements mutated (0 for kNoFault)
  bool used_row_solve = false;      ///< the row-side (Plan B) solve fired
  /// Verdict of the mandatory post-patch re-screen (default-initialized for
  /// kNoFault, where nothing was mutated and nothing needs re-certifying).
  DetectionVerdict recheck;
};

/// Solve the weighted-basis equation for one line (a column or a row):
/// a single fault at weighted position p satisfies weighted = (p+1)·plain,
/// so p = weighted/plain − 1. Inexact division or an index outside
/// [0, extent) means the line does not hold exactly one fault (or the fault
/// pattern aliases); the caller leaves it for the recompute fallback. Shared
/// with the reduced-width patch model in realm::sa.
[[nodiscard]] bool solve_line(std::int64_t plain, std::int64_t weighted, std::size_t extent,
                              std::size_t& index);

/// Attempt the algebraic in-place correction of `acc` against the predicted
/// column checksums (eᵀA)·W and (uᵀA)·W. `devs` are the plain deviations of
/// `acc` against those predictions and against A·(W·e) for this `a8`, as
/// screen_accumulator hands them back. Also reads the resident weighted basis
/// W·v. Mutates `acc` only through solved patches; on kFailed the caller must
/// recompute (which overwrites `acc` entirely). Never claims kPatched without
/// a clean full re-screen.
[[nodiscard]] PatchResult try_patch(const DetectionConfig& cfg,
                                    const std::vector<std::int64_t>& predicted_cols,
                                    const std::vector<std::int64_t>& predicted_wcols,
                                    const tensor::MatI8& a8,
                                    const std::vector<std::int64_t>& w_row_basis,
                                    const std::vector<std::int64_t>& w_row_wbasis,
                                    ScreenDeviations devs, tensor::MatI32& acc);

}  // namespace realm::detect::correct
