#include "detect/correct.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tensor/checksum.h"
#include "util/bitmath.h"

namespace realm::detect::correct {

namespace {

/// One solved fault: subtract `delta` from acc(row, col).
struct Patch {
  std::size_t row = 0;
  std::size_t col = 0;
  std::int64_t delta = 0;
};

}  // namespace

bool solve_line(std::int64_t plain, std::int64_t weighted, std::size_t extent,
                std::size_t& index) {
  if (plain == 0 || weighted % plain != 0) return false;
  const std::int64_t pos1 = weighted / plain;  // 1-based position
  if (pos1 < 1 || static_cast<std::uint64_t>(pos1) > extent) return false;
  index = static_cast<std::size_t>(pos1) - 1;
  return true;
}

PatchResult try_patch(const DetectionConfig& cfg,
                      const std::vector<std::int64_t>& predicted_cols,
                      const std::vector<std::int64_t>& predicted_wcols, const tensor::MatI8& a8,
                      const std::vector<std::int64_t>& w_row_basis,
                      const std::vector<std::int64_t>& w_row_wbasis, ScreenDeviations devs,
                      tensor::MatI32& acc) {
  PatchResult res;
  const std::size_t m = acc.rows();
  const std::size_t n = acc.cols();
  const std::vector<std::int64_t>& dc = devs.cols;
  std::vector<std::int64_t>& dr = devs.rows;  // becomes the row residual
  if (dc.size() != n || dr.size() != m || predicted_wcols.size() != n) {
    throw std::invalid_argument("try_patch: deviation or checksum length mismatch");
  }
  const auto nonzero = [](std::int64_t d) { return d != 0; };
  if (std::none_of(dc.begin(), dc.end(), nonzero) &&
      std::none_of(dr.begin(), dr.end(), nonzero)) {
    // A "detected" verdict with zero deviations on both sides has nothing to
    // solve against; refuse to touch the accumulator.
    res.outcome = PatchOutcome::kNoFault;
    return res;
  }

  // Plan A — column solve: every column with a nonzero deviation is solved
  // independently, so simultaneous faults in distinct columns (including
  // several sharing one row) all patch in one pass. Each accepted patch is
  // subtracted from the row residuals so Plan B only chases what the column
  // solve could not see.
  const std::vector<std::int64_t> obs_wcols = tensor::weighted_col_sums(acc);
  std::vector<Patch> patches;
  for (std::size_t j = 0; j < n; ++j) {
    if (dc[j] == 0) continue;
    const std::int64_t wdc = util::sat_sub_i64(obs_wcols[j], predicted_wcols[j]);
    std::size_t r = 0;
    if (!solve_line(dc[j], wdc, m, r)) continue;
    patches.push_back({r, j, dc[j]});
    dr[r] = util::sat_sub_i64(dr[r], dc[j]);
  }

  // Plan B — row solve over the residuals: catches the fault classes whose
  // column statistics alias (two faults sharing a column, opposite-sign
  // pairs that cancel in every column sum) but whose row deviations do not.
  // Its weighted row terms, (A·W)·v = A·(W·v) against the observed C·v less
  // the Plan A patches, are formed only when a residual is left to solve.
  if (std::any_of(dr.begin(), dr.end(), nonzero)) {
    const std::vector<std::int64_t> pred_wrows = tensor::predict_row_checksum(a8, w_row_wbasis);
    const std::vector<std::int64_t> obs_wrows = tensor::weighted_row_sums(acc);
    std::vector<std::int64_t> wdr(m);
    for (std::size_t i = 0; i < m; ++i) {
      wdr[i] = util::sat_sub_i64(obs_wrows[i], pred_wrows[i]);
    }
    for (const Patch& p : patches) {
      wdr[p.row] = util::sat_sub_i64(wdr[p.row], static_cast<std::int64_t>(p.col + 1) * p.delta);
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (dr[i] == 0) continue;
      std::size_t c = 0;
      if (!solve_line(dr[i], wdr[i], n, c)) continue;
      patches.push_back({i, c, dr[i]});
      res.used_row_solve = true;
    }
  }

  // Apply. The patched value is the algebraically reconstructed true
  // element, which by construction fits int32 when the solve was right; a
  // value off the rails proves the solve was wrong, so skip it and let the
  // recheck fail into recompute.
  for (const Patch& p : patches) {
    const std::int64_t patched =
        util::sat_sub_i64(static_cast<std::int64_t>(acc(p.row, p.col)), p.delta);
    if (patched < INT32_MIN || patched > INT32_MAX) continue;
    acc(p.row, p.col) = static_cast<std::int32_t>(patched);
    ++res.patches_applied;
  }

  // Mandatory full re-screen: a patch is only trusted when the complete
  // criteria (MSD threshold, per-column deviations, row-side identity) come
  // back clean. This is what defuses an accidentally-divisible wrong solve —
  // a mispatch leaves some checksum unbalanced and lands here as kFailed.
  res.recheck = screen_accumulator(cfg, predicted_cols, a8, w_row_basis, acc);
  res.outcome = (res.patches_applied > 0 && res.recheck.verdict == Verdict::kClean)
                    ? PatchOutcome::kPatched
                    : PatchOutcome::kFailed;
  return res;
}

}  // namespace realm::detect::correct
