// End-to-end property tests for the memory-hierarchy fault model: randomized
// (shape, component set, BER, seed) trials drive weight/panel/activation/
// accumulator strikes through the full detect + serve stack and assert the
// certified-or-recompute invariant — every corrected verdict's output is
// bit-equal to the fault-free reference, and every net weight/panel fault is
// caught by the load/rest-time scrub. Every trial is a pure function of its
// printed seed tuple, so a failure line replays exactly.
#include "fault/memory.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "detect/correct.h"
#include "detect/detect.h"
#include "fault/fault.h"
#include "realm_test.h"
#include "serve/engine.h"
#include "serve/tile_grid.h"
#include "tensor/checksum.h"
#include "tensor/checksum_kernels.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace realm::detect;
using namespace realm::fault;
using namespace realm::tensor;
using realm::util::Rng;

namespace {

MatI8 random_i8(std::size_t rows, std::size_t cols, Rng& rng) {
  MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

constexpr std::size_t idx(Component c) { return static_cast<std::size_t>(c); }

}  // namespace

REALM_TEST(fuzz_certified_or_recompute_invariant) {
  // Randomized end-to-end sweep. The meta stream only PICKS trial parameters;
  // each trial's fault draws come from its own printed seed, so any failing
  // trial replays bit-identically from the tuple on stderr.
  const double kBers[] = {0.0, 1e-3, 1e-2, 0.05};
  Rng meta(0xf072);
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const std::size_t m = 4 + meta.uniform_u64(13);
    const std::size_t k = 8 + meta.uniform_u64(57);
    const std::size_t n = 8 + meta.uniform_u64(57);
    const std::uint64_t seed = meta.uniform_u64(std::uint64_t{1} << 30);
    MemoryFaultConfig mfc;
    mfc.seed = seed;
    mfc.weights.ber = kBers[meta.uniform_u64(4)];
    mfc.packed_panels.ber = kBers[meta.uniform_u64(4)];
    mfc.activations.ber = kBers[meta.uniform_u64(4)];
    const bool acc_faults = meta.uniform_u64(2) == 1;
    const MemoryFaultModel model(mfc);

    const auto require = [&](bool cond, const char* what) {
      if (!cond) {
        std::fprintf(stderr,
                     "replay tuple: trial=%zu m=%zu k=%zu n=%zu seed=%llu wber=%g pber=%g "
                     "aber=%g acc=%d\n",
                     trial, m, k, n, static_cast<unsigned long long>(seed), mfc.weights.ber,
                     mfc.packed_panels.ber, mfc.activations.ber, acc_faults ? 1 : 0);
        throw realm::test::Failure{std::string("fault-model invariant violated: ") + what};
      }
    };

    Rng data(seed);
    const MatI8 w8 = random_i8(k, n, data);
    const MatI8 a8 = random_i8(m, k, data);
    const QuantParams qw{0.02f}, qa{0.05f};
    ProtectedGemm pg;
    pg.set_weights_quantized(w8, qw);

    // Fault-free reference (output is injector- and rng-independent).
    ProtectedGemmResult ref;
    const NullInjector none;
    Rng ref_rng = Rng(seed).fork(1);
    pg.run_quantized_into(a8, qa, none, ref_rng, ref);
    require(ref.report.verdict == Verdict::kClean, "golden run screened dirty");
    const MatI32 ref_acc = ref.acc;

    // Load-time weight strike: a net-corrupted image MUST fail the scrub;
    // a scrub pass certifies the image is bit-equal clean.
    (void)pg.corrupt_weights(model, trial);
    const bool w_changed = !(pg.weights() == w8);
    if (w_changed) {
      require(!pg.verify_weight_integrity(), "weight fault escaped the scrub");
    } else {
      require(pg.verify_weight_integrity(), "scrub flagged a clean (net-zero) weight image");
    }
    pg.set_weights_quantized(w8, qw);  // reload from the golden host copy

    // At-rest panel strike: the repack-compare leg is exact at every width,
    // so ANY net panel corruption must fail the scrub. (Vacuous on the
    // portable tier, which holds no panels.)
    const std::vector<std::int16_t> clean_panels(pg.weight_panels().raw_panels().begin(),
                                                 pg.weight_panels().raw_panels().end());
    (void)pg.corrupt_panels(model, trial);
    const auto aged = pg.weight_panels().raw_panels();
    const bool p_changed =
        !std::equal(aged.begin(), aged.end(), clean_panels.begin(), clean_panels.end());
    if (p_changed) {
      require(!pg.verify_weight_integrity(), "panel fault escaped the repack-compare scrub");
    } else {
      require(pg.verify_weight_integrity(), "scrub flagged clean panels");
    }
    pg.set_weights_quantized(w8, qw);

    // Request phase: activation strikes from the memory model plus (half the
    // trials) accumulator upsets from the injector. Certified-or-recompute:
    // a corrected verdict's accumulator must be bit-equal to the fault-free
    // reference, and correction must never give up (kDetected) with
    // recompute_on_detect enabled.
    const RandomBitFlipInjector acc_inj(acc_faults ? 1e-4 : 0.0, 16, 31);
    ProtectedGemmResult res;
    Rng req_rng = Rng(seed).fork(1);
    pg.run_quantized_into(a8, qa, acc_inj, req_rng, res, &model, trial);
    require(res.report.verdict != Verdict::kDetected, "uncertified detection leaked out");
    if (corrected(res.report.verdict)) {
      require(res.acc == ref_acc, "corrected output differs from fault-free reference");
    }
    const std::uint64_t total_flips = res.report.component_flips[idx(Component::kActivations)] +
                                      res.report.component_flips[idx(Component::kAccumulator)];
    if (total_flips == 0) {
      require(res.report.verdict == Verdict::kClean, "flip-free run screened dirty");
      require(res.acc == ref_acc, "flip-free run changed the output");
    }
  }
}

REALM_TEST(weight_faults_always_caught_by_scrub) {
  // Deterministic grid over seeds and BERs: every net weight corruption must
  // trip verify_weight_integrity, and the sweep must actually exercise
  // non-vacuous corruption (catching nothing would make the test a no-op).
  const QuantParams qw{0.02f};
  std::size_t caught = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const double ber : {1e-3, 1e-2, 0.05, 1.0}) {
      Rng data(0x9a0 + seed);
      const MatI8 w8 = random_i8(32, 48, data);
      MemoryFaultConfig mfc;
      mfc.seed = seed;
      mfc.weights.ber = ber;
      const MemoryFaultModel model(mfc);
      ProtectedGemm pg;
      pg.set_weights_quantized(w8, qw);
      const std::uint64_t flips = pg.corrupt_weights(model, 0);
      if (pg.weights() == w8) continue;  // net-zero (re-upsets cancelled)
      REALM_CHECK(flips > 0);
      if (pg.verify_weight_integrity()) {
        std::fprintf(stderr, "scrub miss: seed=%llu ber=%g\n",
                     static_cast<unsigned long long>(seed), ber);
        REALM_CHECK(false);
      }
      ++caught;
    }
  }
  REALM_CHECK(caught >= 30);  // the grid is overwhelmingly non-vacuous
}

REALM_TEST(activation_saturation_detected_and_recovered) {
  // BER=1 over the full lane window inverts every activation byte
  // (x -> ~x = -x-1), so the column deviation against the clean prediction is
  // -3*m*colsum(W) per column — with all-ones operands, guaranteed nonzero.
  // The screen must flag it and correction must certify an output bit-equal
  // to the fault-free reference (recompute re-fetches the golden copy).
  const std::size_t m = 6, k = 33, n = 17;
  MatI8 w8(k, n), a8(m, k);
  for (auto& v : w8.flat()) v = 1;
  for (auto& v : a8.flat()) v = 1;
  const QuantParams qw{0.02f}, qa{0.05f};
  ProtectedGemm pg;
  pg.set_weights_quantized(w8, qw);

  const NullInjector none;
  ProtectedGemmResult ref;
  Rng rng(4);
  pg.run_quantized_into(a8, qa, none, rng, ref);
  REALM_CHECK(ref.report.verdict == Verdict::kClean);

  MemoryFaultConfig mfc;
  mfc.seed = 0xa11;
  mfc.activations.ber = 1.0;
  const MemoryFaultModel model(mfc);
  ProtectedGemmResult res;
  pg.run_quantized_into(a8, qa, none, rng, res, &model, 0);
  REALM_CHECK_EQ(res.report.component_flips[idx(Component::kActivations)],
                 std::uint64_t{m * k * 8});
  REALM_CHECK(corrected(res.report.verdict));
  REALM_CHECK(res.acc == ref.acc);
  REALM_CHECK(res.output == ref.output);
}

REALM_TEST(activation_strikes_match_full_weight_prediction_reference) {
  // The pipeline predicts from the GEMM's fused sums plus the sparse ΔA fold
  // (tensor::fold_operand_delta). Pin it against the full-weight formulas
  // recomputed here: (eᵀA)·W and (uᵀA)·W over the whole clean a8, and row
  // deviations taken against the clean a8. Verdicts and accumulators must
  // agree on every request, with and without accumulator upsets on top.
  const std::size_t m = 8, k = 64, n = 32;
  Rng data(0xde17a);
  const MatI8 w8 = random_i8(k, n, data);
  ProtectedGemm pg;
  pg.set_weights_quantized(w8, {0.02f});
  const DetectionConfig& cfg = pg.config();
  MemoryFaultConfig mfc;
  mfc.seed = 0x5eed;
  mfc.activations.ber = 4e-4;  // ~1.6 flips per request
  const MemoryFaultModel model(mfc);
  const MagFreqInjector acc_inj(1 << 20, 1);
  const NullInjector none;
  std::size_t act_patched = 0;
  std::size_t act_recomputed = 0;
  for (std::uint64_t op = 0; op < 200; ++op) {
    const MatI8 a8 = random_i8(m, k, data);
    const FaultInjector& inj = op % 2 == 1 ? static_cast<const FaultInjector&>(acc_inj) : none;
    ProtectedGemmResult res;
    Rng rng = Rng(op).fork(3);
    pg.run_quantized_into(a8, {0.05f}, inj, rng, res, &model, op);

    MatI8 work = a8;
    (void)model.corrupt(Component::kActivations, op, work.flat());
    MatI32 acc = gemm_i8(work, w8);
    Rng ref_rng = Rng(op).fork(3);
    (void)inj.inject(acc.flat(), ref_rng);
    const std::vector<std::int64_t> pred = predict_col_checksum(a8, w8);
    std::vector<std::int64_t> ua(k, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<std::int64_t>(i + 1);
      for (std::size_t kk = 0; kk < k; ++kk) ua[kk] += u * a8(i, kk);
    }
    std::vector<std::int64_t> pred_w(n);
    kernels::predict_col_checksum(ua.data(), w8.data(), k, n, pred_w.data());
    const std::vector<std::int64_t>& we = pg.weight_row_basis();
    const std::vector<std::int64_t>& wv = pg.weight_row_wbasis();
    Verdict want = screen_accumulator(cfg, pred, work, we, acc).verdict;
    if (want == Verdict::kDetected) {
      ScreenDeviations devs;
      (void)screen_accumulator(cfg, pred, a8, we, acc, &devs);
      const correct::PatchResult patched =
          correct::try_patch(cfg, pred, pred_w, a8, we, wv, std::move(devs), acc);
      if (patched.outcome == correct::PatchOutcome::kPatched) {
        want = Verdict::kPatched;
      } else {
        acc = gemm_i8(a8, w8);
        if (screen_accumulator(cfg, pred, a8, we, acc).verdict == Verdict::kClean) {
          want = Verdict::kRecomputed;
        }
      }
    }
    REALM_CHECK(res.report.verdict == want);
    REALM_CHECK(res.acc == acc);
    if (res.report.component_flips[idx(Component::kActivations)] > 0) {
      act_patched += want == Verdict::kPatched ? 1 : 0;
      act_recomputed += want == Verdict::kRecomputed ? 1 : 0;
    }
  }
  // Both correction modes ran on struck activations: the pin is not vacuous.
  REALM_CHECK(act_patched > 0);
  REALM_CHECK(act_recomputed > 0);
}

REALM_TEST(grid_swap_scrub_rejects_faulted_load) {
  // BER=1 pinned to bit 0 flips the LSB of every byte of the candidate DMA —
  // a guaranteed net fault — so the scrub-on-swap must reject the load and
  // keep the old tile serving. A clean swap afterwards still installs.
  Rng rng(0x51a9);
  const std::size_t k = 48, n = 64;
  const QuantParams qw{0.02f};
  realm::serve::TileGridConfig gcfg;
  gcfg.tile_cols = 32;  // two tiles
  realm::serve::TileGrid grid(random_i8(k, n, rng), qw, gcfg);
  REALM_CHECK_EQ(grid.tile_count(), std::size_t{2});

  MemoryFaultConfig mfc;
  mfc.seed = 0xdead;
  mfc.weights.ber = 1.0;
  mfc.weights.bit_lo = 0;
  mfc.weights.bit_hi = 0;
  const MemoryFaultModel model(mfc);

  const auto before = grid.tile(1);
  const MatI8 slice = random_i8(k, grid.tile_width(1), rng);
  REALM_CHECK(!grid.swap_tile(1, slice, qw, model, 7));
  REALM_CHECK(grid.tile(1).get() == before.get());  // old tile kept serving
  REALM_CHECK_EQ(grid.swap_epoch(), std::uint64_t{0});
  REALM_CHECK_EQ(grid.memory_flips()[idx(Component::kWeights)],
                 std::uint64_t{k * grid.tile_width(1)});
  REALM_CHECK(grid.verify_weight_integrity());  // the grid itself stayed clean

  // The same candidate through a clean swap installs fine.
  REALM_CHECK(grid.swap_tile(1, slice, qw));
  REALM_CHECK_EQ(grid.swap_epoch(), std::uint64_t{1});
  REALM_CHECK(grid.tile(1)->weights() == slice);
}

REALM_TEST(grid_age_panels_detected_by_scrub) {
  // At-rest panel aging installs corrupted panels WITHOUT a scrub (that is
  // the fault being modelled); the grid-level scrub must then flag it via
  // the repack-compare leg. Portable tier holds no panels — vacuously clean.
  Rng rng(0x99);
  const QuantParams qw{0.02f};
  realm::serve::TileGridConfig gcfg;
  gcfg.tile_cols = 40;
  realm::serve::TileGrid grid(random_i8(64, 80, rng), qw, gcfg);

  MemoryFaultConfig mfc;
  mfc.seed = 0xbeef;
  mfc.packed_panels.ber = 1.0;  // saturation: every panel bit flips
  const MemoryFaultModel model(mfc);
  const std::uint64_t flips = grid.age_panels(model, 0);
  REALM_CHECK_EQ(grid.memory_flips()[idx(Component::kPackedPanels)], flips);
  if (flips > 0) {
    REALM_CHECK(!grid.verify_weight_integrity());
  } else {
    REALM_CHECK(grid.verify_weight_integrity());  // portable tier: no panels
  }
}

REALM_TEST(component_tallies_deterministic_across_worker_counts) {
  // The whole request path — outputs, verdicts, per-component tallies — must
  // be a pure function of (seed, stream, op), identical at 1, 2, and 8
  // workers. Requests carry pinned streams; the stream doubles as the memory
  // op, so activation strikes replay per request regardless of which worker
  // claims it.
  namespace sv = realm::serve;
  Rng rng(0x7d3);
  const std::size_t m = 8, k = 64, n = 96;
  const QuantParams qw{0.02f}, qa{0.05f};
  sv::TileGridConfig gcfg;
  gcfg.tile_cols = 32;  // three tiles
  const sv::TileGrid grid(random_i8(k, n, rng), qw, gcfg);
  const MatI8 act = random_i8(m, k, rng);
  const RandomBitFlipInjector inj(2e-4, 16, 31);

  MemoryFaultConfig mfc;
  mfc.seed = 0xc0de;
  mfc.activations.ber = 5e-3;
  const MemoryFaultModel model(mfc);

  const std::size_t requests = 24;
  struct Outcome {
    MatF output;
    Verdict verdict;
    ComponentFlips flips;
  };
  const auto run_with_workers = [&](std::size_t workers) {
    sv::ServeConfig scfg;
    scfg.workers = workers;
    scfg.seed = 0xba5e;
    sv::ServeEngine engine(grid, scfg);
    std::vector<sv::Ticket> tickets;
    for (std::size_t i = 0; i < requests; ++i) {
      sv::SubmitOptions opt;
      opt.stream = i;
      tickets.push_back(engine.submit(
          sv::Request::borrow(act, qa, (i % 3 == 0) ? &inj : nullptr, &model), opt));
    }
    std::vector<Outcome> out;
    for (auto& t : tickets) {
      sv::Response rsp = engine.wait(t);
      out.push_back({rsp.output, rsp.verdict.verdict, rsp.verdict.component_flips});
    }
    ComponentFlips totals = engine.stats().component_flips;
    return std::pair<std::vector<Outcome>, ComponentFlips>(std::move(out), totals);
  };

  const auto [base, base_totals] = run_with_workers(1);
  std::uint64_t act_flips = 0;
  for (const Outcome& o : base) act_flips += o.flips[idx(Component::kActivations)];
  REALM_CHECK(act_flips > 0);  // the model actually struck
  REALM_CHECK_EQ(base_totals[idx(Component::kActivations)], act_flips);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    const auto [got, totals] = run_with_workers(workers);
    REALM_CHECK_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      REALM_CHECK(got[i].output == base[i].output);
      REALM_CHECK(got[i].verdict == base[i].verdict);
      REALM_CHECK(got[i].flips == base[i].flips);
    }
    REALM_CHECK(totals == base_totals);
  }
}

REALM_TEST(component_streams_independent_of_other_components) {
  // Grid-level restatement of the stream-forking contract: a request's
  // activation strikes (and therefore its output and verdict) are identical
  // whether or not the weight/panel components are enabled in the config.
  namespace sv = realm::serve;
  Rng rng(0x1ce);
  const QuantParams qw{0.02f}, qa{0.05f};
  const sv::TileGrid grid(random_i8(48, 64, rng), qw);
  const MatI8 act = random_i8(8, 48, rng);
  const NullInjector none;

  MemoryFaultConfig act_only;
  act_only.seed = 0xf00d;
  act_only.activations.ber = 1e-2;
  MemoryFaultConfig act_plus = act_only;
  act_plus.weights.ber = 0.5;
  act_plus.packed_panels.ber = 0.5;
  const MemoryFaultModel model_a(act_only);
  const MemoryFaultModel model_b(act_plus);

  std::vector<ProtectedGemmResult> scratch;
  MatF out_a, out_b;
  sv::BatchVerdict va, vb;
  grid.run_into(act, qa, none, Rng(1).fork(3), scratch, out_a, va, &model_a, 9);
  grid.run_into(act, qa, none, Rng(1).fork(3), scratch, out_b, vb, &model_b, 9);
  REALM_CHECK(out_a == out_b);
  REALM_CHECK(va.verdict == vb.verdict);
  REALM_CHECK(va.component_flips == vb.component_flips);
  REALM_CHECK(va.component_flips[idx(Component::kActivations)] > 0);
}

REALM_TEST_MAIN()
