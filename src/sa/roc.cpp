#include "sa/roc.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>

#include "fault/memory.h"
#include "tensor/gemm.h"
#include "util/threadpool.h"

namespace realm::sa {

namespace {

/// Disjoint fork-tag spaces: cells take the low tags, per-shape weight
/// synthesis the high ones, so no cell stream can collide with a weight
/// stream however large the grid grows.
constexpr std::uint64_t kWeightTagBase = 0x77e1647'00000000ULL;

void validate(const SweepConfig& cfg) {
  if (cfg.shapes.empty() || cfg.widths.empty() || cfg.bers.empty() ||
      cfg.bit_positions.empty()) {
    throw std::invalid_argument("run_sweep: shapes/widths/bers/bit_positions must be non-empty");
  }
  if (cfg.components.empty()) {
    throw std::invalid_argument("run_sweep: components must be non-empty");
  }
  if (cfg.trials == 0) throw std::invalid_argument("run_sweep: trials must be >= 1");
  for (const auto& s : cfg.shapes) {
    if (s.m == 0 || s.n == 0 || s.k == 0 || s.k > tensor::kMaxK) {
      throw std::invalid_argument("run_sweep: shape dims must be > 0 with k <= 2^16");
    }
  }
  for (const double b : cfg.bers) {
    if (!(b >= 0.0 && b <= 1.0)) throw std::invalid_argument("run_sweep: BER must be in [0,1]");
  }
  for (const int b : cfg.bit_positions) {
    if (b < 0 || b > 31) throw std::invalid_argument("run_sweep: bit position must be in [0,31]");
  }
  // Width range is validated by the DatapathConfig/Reg construction below.
}

void tally(WidthTally& t, bool flagged, bool truth_faulty, bool patched, bool single_fault) {
  if (truth_faulty) {
    ++(flagged ? t.detected : t.missed);
    if (patched) ++t.patched;
    if (single_fault) {
      ++t.single_fault;
      if (patched) ++t.single_patched;
    }
  } else if (flagged) {
    ++t.false_pos;
  }
}

tensor::MatI8 random_i8(std::size_t rows, std::size_t cols, util::Rng& rng) {
  tensor::MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

std::string rate_cell(const WidthTally& t, std::size_t faulty) {
  return faulty == 0 ? "-" : util::TablePrinter::num(t.detection_rate(faulty), 3);
}

/// The load/rest weight scrub at one register width: recompute W's plain
/// row+col checksums from the corrupted image through `Reg`s of the
/// datapath's width and compare against the clean-captured bases at the same
/// width. At bits == 64 (wrap) this is the exact int64 scrub
/// detect::ProtectedGemm::verify_weight_integrity runs.
bool weight_scrub_catches(const tensor::MatI8& clean, const tensor::MatI8& corrupt,
                          const DatapathConfig& dp) {
  for (std::size_t i = 0; i < clean.rows(); ++i) {
    Reg base(dp.bits, dp.overflow), resident(dp.bits, dp.overflow);
    for (std::size_t j = 0; j < clean.cols(); ++j) {
      base.add(clean(i, j));
      resident.add(corrupt(i, j));
    }
    if (base.value() != resident.value()) return true;
  }
  for (std::size_t j = 0; j < clean.cols(); ++j) {
    Reg base(dp.bits, dp.overflow), resident(dp.bits, dp.overflow);
    for (std::size_t i = 0; i < clean.rows(); ++i) {
      base.add(clean(i, j));
      resident.add(corrupt(i, j));
    }
    if (base.value() != resident.value()) return true;
  }
  return false;
}

/// Per-cell fault model attacking exactly one component: BER from the cell,
/// pinned bit = cell.bit % 8 within every byte (the operand-image analogue of
/// the accumulator sweep's pinned-bit protocol).
fault::MemoryFaultModel cell_fault_model(const SweepConfig& cfg, fault::Component comp,
                                         double ber, int bit) {
  fault::MemoryFaultConfig mfc;
  mfc.seed = cfg.seed;
  fault::ComponentParams cp;
  cp.ber = ber;
  cp.bit_lo = cp.bit_hi = bit % 8;
  switch (comp) {
    case fault::Component::kWeights: mfc.weights = cp; break;
    case fault::Component::kPackedPanels: mfc.packed_panels = cp; break;
    case fault::Component::kActivations: mfc.activations = cp; break;
    case fault::Component::kAccumulator: break;  // not driven by this model
  }
  return fault::MemoryFaultModel(mfc);
}

}  // namespace

SweepResult run_sweep(const SweepConfig& cfg) {
  validate(cfg);

  std::vector<DatapathConfig> datapaths;
  datapaths.reserve(cfg.widths.size());
  for (const int w : cfg.widths) {
    datapaths.push_back({w, cfg.overflow, cfg.msd_threshold, cfg.two_sided});
  }

  const util::Rng base(cfg.seed);

  // One model per shape, weights synthesized from a shape-tagged stream and
  // resident (bases + SIMD panels) for every cell of that shape.
  std::vector<SaProtectedGemm> models;
  models.reserve(cfg.shapes.size());
  for (std::size_t s = 0; s < cfg.shapes.size(); ++s) {
    detect::DetectionConfig ref_cfg;
    ref_cfg.msd_threshold = cfg.msd_threshold;
    ref_cfg.mode = cfg.two_sided ? detect::CheckMode::kTwoSided : detect::CheckMode::kMsdOnly;
    models.emplace_back(datapaths, ref_cfg);
    util::Rng wrng = base.fork(kWeightTagBase + s);
    models[s].set_weights_quantized(random_i8(cfg.shapes[s].k, cfg.shapes[s].n, wrng),
                                    tensor::QuantParams{0.02f});
  }

  SweepResult result;
  result.cfg = cfg;
  const std::size_t num_e = cfg.bers.size();
  const std::size_t num_b = cfg.bit_positions.size();
  const std::size_t num_q = cfg.components.size();
  const std::size_t cell_count = cfg.shapes.size() * num_q * num_b * num_e;
  result.cells.resize(cell_count);

  // Exact reference datapath for the operand-corruption components: 64-bit
  // wrap is plain int64 arithmetic, so this screen/patch pair is what the
  // software reference concludes about the same truth/faulted accumulators.
  const DatapathConfig ref_dp{64, Overflow::kWrap, cfg.msd_threshold, cfg.two_sided};

  // Cells shard over the global pool; each owns its result slot and draws
  // from its own forked stream, so the sweep is bit-identical at any thread
  // count (the per-cell GEMMs run inline on the worker per the nesting rule).
  util::global_pool().parallel_for(cell_count, 1, [&](std::size_t c0, std::size_t c1) {
    SaRunResult run;
    SaRunScratch scratch;
    tensor::MatI8 w_corrupt, a_corrupt;
    tensor::MatI32 truth, faulted;
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t e = c % num_e;
      const std::size_t b = (c / num_e) % num_b;
      const std::size_t q = (c / (num_e * num_b)) % num_q;
      const std::size_t s = c / (num_e * num_b * num_q);
      // Component-free stream index: equal to c under the default single-
      // component config (preserving the classic streams bit-for-bit), and
      // independent of WHICH components are swept — a cell's draws never
      // shift when components are added or removed around it.
      const std::size_t qfree = (s * num_b + b) * num_e + e;

      CellResult& cell = result.cells[c];
      cell.shape_index = s;
      cell.component = cfg.components[q];
      cell.bit = cfg.bit_positions[b];
      cell.ber = cfg.bers[e];
      cell.trials = cfg.trials;
      cell.reference.bits = 64;
      cell.widths.resize(cfg.widths.size());
      for (std::size_t w = 0; w < cfg.widths.size(); ++w) cell.widths[w].bits = cfg.widths[w];

      util::Rng rng = base.fork(qfree);
      if (cell.component == fault::Component::kAccumulator) {
        const fault::SingleBitFlipInjector injector(cell.ber, cell.bit);
        for (std::size_t t = 0; t < cfg.trials; ++t) {
          const tensor::MatI8 a8 = random_i8(cfg.shapes[s].m, cfg.shapes[s].k, rng);
          models[s].run_into(a8, injector, rng, run, scratch);
          if (run.truth_faulty) ++cell.faulty_trials;
          const bool single = run.faulty_elems == 1;
          tally(cell.reference, run.reference.faulty(), run.truth_faulty, run.reference_patched,
                single);
          for (std::size_t w = 0; w < run.by_width.size(); ++w) {
            tally(cell.widths[w], run.by_width[w].flagged, run.truth_faulty,
                  run.by_width[w].patched, single);
          }
        }
        continue;
      }

      // Operand-corruption components: strike the named image pre-GEMM from
      // its own counter-based stream, compare the corrupted product against
      // the clean one through every screen width, and (for the at-rest
      // components) tally whether the load/rest scrub would have caught the
      // image damage before the request even ran.
      const fault::MemoryFaultModel mem = cell_fault_model(cfg, cell.component, cell.ber,
                                                           cell.bit);
      const detect::ProtectedGemm& ref = models[s].reference();
      const tensor::MatI8& w8 = ref.weights();
      const tensor::kernels::PackedB& panels = ref.weight_panels();
      for (std::size_t t = 0; t < cfg.trials; ++t) {
        const tensor::MatI8 a8 = random_i8(cfg.shapes[s].m, cfg.shapes[s].k, rng);
        const std::uint64_t op = fault::compose_op(qfree, t);
        bool image_corrupted = false;
        tensor::gemm_i8_prepacked(a8, w8, panels, truth);
        switch (cell.component) {
          case fault::Component::kWeights: {
            w_corrupt = w8;
            mem.corrupt(fault::Component::kWeights, op, w_corrupt.flat());
            const auto cl = w8.flat();
            const auto co = w_corrupt.flat();
            image_corrupted = !std::equal(cl.begin(), cl.end(), co.begin());
            tensor::gemm_i8(a8, w_corrupt, faulted);
            break;
          }
          case fault::Component::kPackedPanels: {
            tensor::kernels::PackedB pb = panels;
            mem.corrupt(fault::Component::kPackedPanels, op, pb.mutable_panels());
            const auto cl = panels.raw_panels();
            const auto co = pb.raw_panels();
            image_corrupted = !std::equal(cl.begin(), cl.end(), co.begin());
            tensor::gemm_i8_prepacked(a8, w8, pb, faulted);
            break;
          }
          case fault::Component::kActivations: {
            a_corrupt = a8;
            mem.corrupt(fault::Component::kActivations, op, a_corrupt.flat());
            tensor::gemm_i8_prepacked(a_corrupt, w8, panels, faulted);
            break;
          }
          case fault::Component::kAccumulator: break;  // handled above
        }

        const auto tf = truth.flat();
        const auto ff = faulted.flat();
        std::size_t faulty_elems = 0;
        for (std::size_t i = 0; i < tf.size(); ++i) {
          if (tf[i] != ff[i]) ++faulty_elems;
        }
        const bool truth_faulty = faulty_elems != 0;
        if (truth_faulty) ++cell.faulty_trials;
        const bool single = faulty_elems == 1;

        const ScreenResult ref_screen = screen_into(truth, faulted, ref_dp, scratch.screen);
        const bool ref_patched =
            ref_screen.flagged && truth_faulty && simulate_patch(truth, faulted, ref_dp);
        tally(cell.reference, ref_screen.flagged, truth_faulty, ref_patched, single);
        for (std::size_t w = 0; w < datapaths.size(); ++w) {
          const ScreenResult sr = screen_into(truth, faulted, datapaths[w], scratch.screen);
          const bool patched =
              sr.flagged && truth_faulty && simulate_patch(truth, faulted, datapaths[w]);
          tally(cell.widths[w], sr.flagged, truth_faulty, patched, single);
        }

        if (image_corrupted) {
          if (cell.component == fault::Component::kWeights) {
            ++(weight_scrub_catches(w8, w_corrupt, ref_dp) ? cell.reference.scrub_caught
                                                           : cell.reference.scrub_missed);
            for (std::size_t w = 0; w < datapaths.size(); ++w) {
              ++(weight_scrub_catches(w8, w_corrupt, datapaths[w]) ? cell.widths[w].scrub_caught
                                                                   : cell.widths[w].scrub_missed);
            }
          } else {
            // Panel scrub = repack-compare: byte-exact at every width, so a
            // net-corrupted panel image is always caught.
            ++cell.reference.scrub_caught;
            for (std::size_t w = 0; w < datapaths.size(); ++w) ++cell.widths[w].scrub_caught;
          }
        }
      }
    }
  });
  return result;
}

CoverageSummary summarize(const SweepResult& r) {
  CoverageSummary sum;
  sum.reference.bits = 64;
  sum.widths.resize(r.cfg.widths.size());
  for (std::size_t w = 0; w < r.cfg.widths.size(); ++w) sum.widths[w].bits = r.cfg.widths[w];
  for (const CellResult& cell : r.cells) {
    sum.trials += cell.trials;
    sum.faulty += cell.faulty_trials;
    sum.reference.detected += cell.reference.detected;
    sum.reference.missed += cell.reference.missed;
    sum.reference.false_pos += cell.reference.false_pos;
    sum.reference.patched += cell.reference.patched;
    sum.reference.single_fault += cell.reference.single_fault;
    sum.reference.single_patched += cell.reference.single_patched;
    sum.reference.scrub_caught += cell.reference.scrub_caught;
    sum.reference.scrub_missed += cell.reference.scrub_missed;
    for (std::size_t w = 0; w < cell.widths.size(); ++w) {
      sum.widths[w].detected += cell.widths[w].detected;
      sum.widths[w].missed += cell.widths[w].missed;
      sum.widths[w].false_pos += cell.widths[w].false_pos;
      sum.widths[w].patched += cell.widths[w].patched;
      sum.widths[w].single_fault += cell.widths[w].single_fault;
      sum.widths[w].single_patched += cell.widths[w].single_patched;
      sum.widths[w].scrub_caught += cell.widths[w].scrub_caught;
      sum.widths[w].scrub_missed += cell.widths[w].scrub_missed;
    }
  }
  return sum;
}

util::TablePrinter critical_region_table(const SweepResult& r, std::size_t shape_index,
                                         int bits) {
  return critical_region_table(r, shape_index, std::size_t{0}, bits);
}

util::TablePrinter critical_region_table(const SweepResult& r, std::size_t shape_index,
                                         std::size_t component_index, int bits) {
  if (shape_index >= r.cfg.shapes.size()) {
    throw std::invalid_argument("critical_region_table: shape_index out of range");
  }
  if (component_index >= r.cfg.components.size()) {
    throw std::invalid_argument("critical_region_table: component_index out of range");
  }
  std::size_t width_index = r.cfg.widths.size();
  if (bits != -1) {
    for (std::size_t w = 0; w < r.cfg.widths.size(); ++w) {
      if (r.cfg.widths[w] == bits) width_index = w;
    }
    if (width_index == r.cfg.widths.size()) {
      throw std::invalid_argument("critical_region_table: width not swept");
    }
  }

  const SweepShape& shape = r.cfg.shapes[shape_index];
  const fault::Component component = r.cfg.components[component_index];
  const std::string datapath =
      bits == -1 ? "int64 reference"
                 : std::to_string(bits) + "-bit " + to_string(r.cfg.overflow);
  util::TablePrinter table("critical region — detection rate, shape " + std::to_string(shape.m) +
                           "x" + std::to_string(shape.k) + "x" + std::to_string(shape.n) + ", " +
                           fault::to_string(component) + ", " + datapath);
  std::vector<std::string> header{"bit\\ber"};
  for (const double ber : r.cfg.bers) header.push_back(util::TablePrinter::sci(ber, 0));
  table.header(std::move(header));

  for (std::size_t b = 0; b < r.cfg.bit_positions.size(); ++b) {
    std::vector<std::string> row{std::to_string(r.cfg.bit_positions[b])};
    for (std::size_t e = 0; e < r.cfg.bers.size(); ++e) {
      const std::size_t c = ((shape_index * r.cfg.components.size() + component_index) *
                                 r.cfg.bit_positions.size() +
                             b) *
                                r.cfg.bers.size() +
                            e;
      const CellResult& cell = r.cells[c];
      const WidthTally& t = bits == -1 ? cell.reference : cell.widths[width_index];
      row.push_back(rate_cell(t, cell.faulty_trials));
    }
    table.row(std::move(row));
  }
  return table;
}

void write_csv(std::ostream& os, const SweepResult& r) {
  util::TablePrinter table;
  table.header({"shape", "m", "k", "n", "bit", "ber", "width", "model", "component", "trials",
                "faulty", "detected", "missed", "false_pos", "detection_rate", "patched",
                "single_fault", "single_patched", "patch_rate", "single_patch_rate",
                "scrub_caught", "scrub_missed"});
  const auto emit = [&](const CellResult& cell, const WidthTally& t, const char* model) {
    const SweepShape& shape = r.cfg.shapes[cell.shape_index];
    table.row({std::to_string(cell.shape_index), std::to_string(shape.m), std::to_string(shape.k),
               std::to_string(shape.n), std::to_string(cell.bit),
               util::TablePrinter::sci(cell.ber, 3), std::to_string(t.bits), model,
               fault::to_string(cell.component), std::to_string(cell.trials),
               std::to_string(cell.faulty_trials), std::to_string(t.detected),
               std::to_string(t.missed), std::to_string(t.false_pos),
               util::TablePrinter::num(t.detection_rate(cell.faulty_trials), 4),
               std::to_string(t.patched), std::to_string(t.single_fault),
               std::to_string(t.single_patched),
               util::TablePrinter::num(t.patch_rate(cell.faulty_trials), 4),
               util::TablePrinter::num(t.single_patch_rate(), 4),
               std::to_string(t.scrub_caught), std::to_string(t.scrub_missed)});
  };
  for (const CellResult& cell : r.cells) {
    emit(cell, cell.reference, "reference");
    for (const WidthTally& t : cell.widths) emit(cell, t, to_string(r.cfg.overflow));
  }
  table.print_csv(os);
}

void write_json(std::ostream& os, const SweepResult& r) {
  const auto tally_json = [&os](const WidthTally& t, std::size_t faulty) {
    os << "{\"bits\": " << t.bits << ", \"detected\": " << t.detected
       << ", \"missed\": " << t.missed << ", \"false_pos\": " << t.false_pos
       << ", \"detection_rate\": " << util::TablePrinter::num(t.detection_rate(faulty), 4)
       << ", \"patched\": " << t.patched << ", \"single_fault\": " << t.single_fault
       << ", \"single_patched\": " << t.single_patched
       << ", \"patch_rate\": " << util::TablePrinter::num(t.patch_rate(faulty), 4)
       << ", \"single_patch_rate\": " << util::TablePrinter::num(t.single_patch_rate(), 4)
       << ", \"scrub_caught\": " << t.scrub_caught << ", \"scrub_missed\": " << t.scrub_missed
       << "}";
  };
  os << "{\n  \"schema_version\": 1,\n";
  os << "  \"overflow\": \"" << to_string(r.cfg.overflow) << "\",\n";
  os << "  \"seed\": " << r.cfg.seed << ",\n";
  os << "  \"trials_per_cell\": " << r.cfg.trials << ",\n";
  os << "  \"msd_threshold\": " << r.cfg.msd_threshold << ",\n";
  os << "  \"two_sided\": " << (r.cfg.two_sided ? "true" : "false") << ",\n";
  os << "  \"shapes\": [";
  for (std::size_t s = 0; s < r.cfg.shapes.size(); ++s) {
    os << (s ? ", " : "") << "{\"m\": " << r.cfg.shapes[s].m << ", \"k\": " << r.cfg.shapes[s].k
       << ", \"n\": " << r.cfg.shapes[s].n << "}";
  }
  os << "],\n  \"widths\": [";
  for (std::size_t w = 0; w < r.cfg.widths.size(); ++w) {
    os << (w ? ", " : "") << r.cfg.widths[w];
  }
  os << "],\n  \"components\": [";
  for (std::size_t q = 0; q < r.cfg.components.size(); ++q) {
    os << (q ? ", " : "") << "\"" << fault::to_string(r.cfg.components[q]) << "\"";
  }
  os << "],\n  \"cells\": [\n";
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    const CellResult& cell = r.cells[c];
    os << "    {\"shape\": " << cell.shape_index << ", \"component\": \""
       << fault::to_string(cell.component) << "\", \"bit\": " << cell.bit
       << ", \"ber\": " << util::TablePrinter::sci(cell.ber, 3)
       << ", \"trials\": " << cell.trials << ", \"faulty\": " << cell.faulty_trials
       << ", \"reference\": ";
    tally_json(cell.reference, cell.faulty_trials);
    os << ", \"widths\": [";
    for (std::size_t w = 0; w < cell.widths.size(); ++w) {
      if (w) os << ", ";
      tally_json(cell.widths[w], cell.faulty_trials);
    }
    os << "]}" << (c + 1 < r.cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace realm::sa
