// perfbench — the repo benchmark. Runs one workload against the serving stack
// through its public API (TileGrid construction, ServeEngine::submit/wait,
// TileGrid::swap_tile), checks every response against fault-free golden
// outputs, and prints one JSON result line on stdout (a report goes to
// stderr). perfbench/run.py builds and runs this binary; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list          (prints the workload names, one a line)
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 reruns the
// workload with the span tracer attached and prints the per-layer metrics.
//
// Exit codes: 0 ok; 1 a response or scrub was wrong (the result line says
// "correct": false); 2 usage; 3 the traced pass lost events; 4 error.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "fault/memory.h"
#include "ledger.h"
#include "obs/trace.h"
#include "peak_probe.h"
#include "serve/engine.h"
#include "serve/tile_grid.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

namespace detect = realm::detect;
namespace fault = realm::fault;
namespace obs = realm::obs;
namespace serve = realm::serve;
namespace tensor = realm::tensor;
namespace util = realm::util;
using perfbench::measure_int8_peak;
using perfbench::PeakProbe;
using perfbench::block_rates;
using perfbench::quantile_or_zero;
using perfbench::segmented_quantile;
using perfbench::self_times_ns;
using perfbench::Span;
using perfbench::StageSummary;
using perfbench::summarize;
using perfbench::supported_quantile;

// Weights are k x n int8 in 256-column tiles: 16 MiB of int8 plus 32 MiB of
// int16 panels, far beyond one core's L2, so every request streams weights.
constexpr std::size_t kK = 4096;
constexpr std::size_t kN = 4096;
constexpr std::size_t kTileCols = 256;
constexpr std::size_t kTiles = kN / kTileCols;
// Two engine workers plus this process's one generator thread stay below a
// four-core machine's cores; the GEMM pool stays at 1 because workers run
// GEMMs inline.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSetups = 27;
// --trace 0 warms up for this long (besides the workload's warm-up count), so
// the timed rounds start with the heap, caches and page tables settled.
constexpr std::int64_t kWarmupNs = 2'000'000'000;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;
constexpr std::size_t kProbeSwaps = 2 * kTiles;
constexpr std::int64_t kFaultMag = std::int64_t{1} << 20;
constexpr std::int64_t kPollNs = 50'000;
constexpr float kWeightScale = 0.01f;

// Share of --seconds each side of the --trace 1 overhead pairs measures.
constexpr double kOverheadShare = 0.15;
constexpr std::size_t kOverheadPairs = 4;
// latency_p99_ms is the median over segments of at least this many samples of
// each segment's p99 (>= 952 leaves 10 samples beyond p99).
constexpr std::size_t kP99Segment = 960;
// latency_p50_ms is the median of the segment medians over segments of about
// this many samples (a second or two of traffic), so a slow stretch of the
// machine shorter than half the run does not move it.
constexpr std::size_t kP50Segment = 100;
// Closed-loop throughput is the median rate over blocks of completions,
// kBlocksPerWindow per closed-loop window.
constexpr std::size_t kBlocksPerWindow = 4;
// --trace 0 measures in kSegments closed-loop rounds, so each metric samples
// the machine across the whole run.
constexpr std::size_t kSegments = 8;

/// A request's fault stream and span ids derive from its stream tag; every
/// phase owns the tags phase << kPhaseShift | index, so no two requests in an
/// engine's life share one.
enum Phase : std::uint64_t {
  kWarmup = 1,
  kClosed = 3,
  kLedger = 4,
  kTracedClosed = 5,
};
constexpr std::uint64_t kPhaseShift = 28;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kPhaseShift) - 1;

struct Workload {
  const char* name;
  /// Activation rows m, one of each per shuffled block. prefill-batch lists
  /// 256 twice: with an even mix its median would sit on the gap between
  /// the two service-time clusters and jump from run to run.
  std::vector<std::size_t> shapes;
  std::size_t window;               ///< closed-loop requests in flight
  std::size_t fault_every;          ///< one request in this many is faulted
  std::uint64_t acc_faults;         ///< MagFreqInjector elements per tile
  double act_ber;                   ///< activation strikes on faulted requests (0 = off)
  double weight_ber;                ///< load strikes on swaps; > 0 turns the rolling swap on
  bool interactive_quarter;         ///< a quarter interactive, the rest batch
  std::size_t pool;                 ///< activations per shape
  std::size_t warmup;               ///< untimed requests per engine
  /// Requests in the --trace 1 ledger pass: a fixed count, so the fault
  /// tallies repeat exactly for a seed. Each is about 30 s of saturated
  /// throughput on the 4-vCPU machine the benchmark was built on.
  std::size_t ledger_requests;
};

// Accumulator bursts stay at 1 and 3 elements per tile: at 24 elements
// (MagFreqInjector(2^20, 24)) about 0.1% of tiles come back certified kPatched
// but wrong, and these workloads are not meant to trip that defect.
const std::array<Workload, 2>& workloads() {
  static const std::array<Workload, 2> all{{
      {"decode-lowvolt", {8, 16, 32}, 4, 1, 1, 1.5e-6, 3.5e-8, true, 24, 96, 3000},
      {"prefill-batch", {256, 256, 512}, 2, 8, 3, 0.0, 0.0, false, 4, 4, 480},
  }};
  return all;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

serve::TileGridConfig grid_config(obs::Tracer* tracer) {
  serve::TileGridConfig cfg;
  cfg.tile_cols = kTileCols;
  cfg.tracer = tracer;
  return cfg;
}

// ---------------------------------------------------------------------------
// Inputs: two weight images sharing one scale, a pool of float activations per
// shape, and each activation's fault-free outputs under both images.

struct Activation {
  tensor::MatF a;
  tensor::QuantParams qa;
  std::array<tensor::MatF, 2> golden;
};

struct Inputs {
  tensor::QuantParams qw{kWeightScale};
  std::size_t images = 1;  ///< 2 when the workload swaps between images
  std::array<tensor::MatI8, 2> w8;
  std::vector<std::vector<Activation>> pool;  ///< [shape][i]

  /// Columns of tile `t` of image `img`, as swap_tile takes them.
  [[nodiscard]] tensor::MatI8 tile(std::size_t img, std::size_t t) const {
    tensor::MatI8 slice(kK, kTileCols);
    for (std::size_t r = 0; r < kK; ++r) {
      std::memcpy(slice.row(r).data(), w8[img].row(r).data() + t * kTileCols, kTileCols);
    }
    return slice;
  }
};

tensor::MatI8 random_weights(util::Rng rng) {
  tensor::MatI8 w(kK, kN);
  for (std::int8_t& x : w.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return w;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  const util::Rng root(seed);
  in.images = w.weight_ber > 0 ? 2 : 1;
  for (std::size_t img = 0; img < in.images; ++img) {
    in.w8[img] = random_weights(root.fork(100 + img));
  }
  in.pool.resize(w.shapes.size());
  for (std::size_t s = 0; s < w.shapes.size(); ++s) {
    for (std::size_t i = 0; i < w.pool; ++i) {
      util::Rng rng = root.fork(200 + s).fork(i);
      Activation act;
      act.a = tensor::MatF(w.shapes[s], kK);
      for (float& x : act.a.flat()) x = static_cast<float>(rng.normal());
      act.qa = tensor::calibrate(act.a.flat());
      in.pool[s].push_back(std::move(act));
    }
  }
  // Goldens come from a fault-free grid of each image, run on this thread.
  const fault::NullInjector none;
  for (std::size_t img = 0; img < in.images; ++img) {
    const serve::TileGrid grid(in.w8[img], in.qw, grid_config(nullptr));
    std::vector<detect::ProtectedGemmResult> scratch;
    serve::BatchVerdict verdict;
    for (auto& shape : in.pool) {
      for (Activation& act : shape) {
        grid.run_into(tensor::quantize(act.a, act.qa), act.qa, none, util::Rng(0), scratch,
                      act.golden[img], verdict);
        if (verdict.verdict != detect::Verdict::kClean) {
          throw std::runtime_error("golden run did not screen clean");
        }
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Request plan: a pure function of (seed, phase, index). Shapes, the
// interactive quarter and the faulted one-in-N are drawn in shuffled blocks,
// so every seed offers the same mix and only the order varies.

struct Planned {
  std::size_t shape = 0;
  std::size_t act = 0;
  bool interactive = false;
  bool faulted = false;
};

std::size_t block_pick(util::Rng rng, std::size_t block, std::size_t pos) {
  std::vector<std::size_t> perm(block);
  for (std::size_t i = 0; i < block; ++i) perm[i] = i;
  for (std::size_t i = block; i > 1; --i) std::swap(perm[i - 1], perm[rng.uniform_u64(i)]);
  return perm[pos];
}

/// `n` requests rounded up to whole blocks of every draw, so a pass holds
/// the exact shape, interactive and faulted shares.
std::size_t whole_blocks(const Workload& w, std::size_t n) {
  std::size_t block = std::lcm(w.shapes.size(), w.fault_every);
  if (w.interactive_quarter) block = std::lcm(block, std::size_t{4});
  return (n + block - 1) / block * block;
}

class Plan {
 public:
  Plan(const Workload& w, std::uint64_t seed, Phase phase)
      : w_(w), rng_(util::Rng(seed).fork(phase)) {}

  [[nodiscard]] Planned at(std::size_t i) const {
    Planned p;
    const std::size_t ns = w_.shapes.size();
    p.shape = block_pick(rng_.fork(1).fork(i / ns), ns, i % ns);
    util::Rng act_rng = rng_.fork(2).fork(i);
    p.act = act_rng.uniform_u64(w_.pool);
    if (w_.interactive_quarter) {
      util::Rng r = rng_.fork(3).fork(i / 4);
      p.interactive = r.uniform_u64(4) == i % 4;
    }
    util::Rng f = rng_.fork(4).fork(i / w_.fault_every);
    p.faulted = f.uniform_u64(w_.fault_every) == i % w_.fault_every;
    return p;
  }

 private:
  const Workload& w_;
  util::Rng rng_;
};

// ---------------------------------------------------------------------------
// Output checks.

bool verdict_ok(const serve::BatchVerdict& v, bool faulted) {
  if (v.tiles != kTiles) return false;
  if (!faulted) return v.verdict == detect::Verdict::kClean && v.tiles_clean == kTiles;
  // Every tile of a faulted request takes accumulator faults, so every tile
  // must be flagged and certified corrected.
  return detect::corrected(v.verdict) && v.tiles_corrected() == kTiles;
}

/// Bit-equal to the golden output tile by tile; with two images in play each
/// tile may match either (a swap can land mid-request).
bool output_ok(const tensor::MatF& out, const Activation& act, std::size_t images) {
  const std::size_t m = act.a.rows();
  if (out.rows() != m || out.cols() != kN) return false;
  for (std::size_t c0 = 0; c0 < kN; c0 += kTileCols) {
    bool match = false;
    for (std::size_t img = 0; img < images && !match; ++img) {
      match = true;
      for (std::size_t r = 0; r < m && match; ++r) {
        match = std::memcmp(out.row(r).data() + c0, act.golden[img].row(r).data() + c0,
                            kTileCols * sizeof(float)) == 0;
      }
    }
    if (!match) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The generator: one thread holds a closed loop of requests in flight, polls
// for completions, checks each response, and (on swap workloads) rolls one
// tile swap per send.

struct PhaseStats {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;  ///< wait() rethrew a worker exception
  std::size_t expired = 0;
  std::size_t wrong_verdict = 0;
  std::size_t wrong_output = 0;
  double wall_s = 0;  ///< summed length of the phase's windows
  std::int64_t t_last_ns = 0;
  std::size_t inflight_max = 0;
  std::size_t swaps_installed = 0;
  std::size_t scrub_rejects = 0;
  std::vector<std::size_t> rows;       ///< m of request i of the phase
  std::vector<double> latency_ms;      ///< of request i: slot freed to wait() return
  std::vector<std::int64_t> done_ns;   ///< completion times, in completion order
  std::vector<double> block_rates;     ///< closed-loop completion rates (1/s)
  std::vector<double> service_ms, lag_ms, submit_us, wait_us, quantize_us, swap_ms;

  [[nodiscard]] std::size_t failures() const {
    return errors + expired + wrong_verdict + wrong_output;
  }
  /// Median over the closed-loop windows' blocks, so a passing stall does not
  /// decide the figure.
  [[nodiscard]] double throughput_rps() const { return quantile_or_zero(block_rates, 0.5); }
};

class Generator {
 public:
  Generator(serve::ServeEngine& engine, serve::TileGrid& grid, const Workload& w,
            const Inputs& in, const fault::MemoryFaultModel* memory, std::uint64_t seed)
      : engine_(engine),
        grid_(grid),
        w_(w),
        in_(in),
        memory_(memory),
        seed_(seed),
        injector_(kFaultMag, w.acc_faults) {}

  /// Closed loop holding `window` requests in flight, from request index i0,
  /// for `duration_ns` or, when duration_ns is 0, for `count` requests. A
  /// request is due when its slot frees. Appends kBlocksPerWindow block rates
  /// of the completions inside the window; returns the next request index.
  std::size_t closed_loop(PhaseStats& st, Phase phase, std::size_t window,
                          std::int64_t duration_ns, std::size_t count, std::size_t i0 = 0) {
    const Plan plan(w_, seed_, phase);
    const std::int64_t start = util::now_ns();
    const std::int64_t end =
        duration_ns > 0 ? start + duration_ns : std::numeric_limits<std::int64_t>::max();
    const std::size_t first = st.done_ns.size();
    std::deque<std::int64_t> freed(window, start);
    std::size_t i = i0;
    for (;;) {
      const bool more = duration_ns > 0 ? util::now_ns() < end : i < i0 + count;
      while (more && inflight_.size() < window && !freed.empty()) {
        send(st, plan.at(i), i, freed.front(), phase);
        freed.pop_front();
        ++i;
      }
      if (!more && inflight_.empty()) break;
      if (collect(st, freed) == 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
      }
    }
    const std::int64_t stop = duration_ns > 0 ? end : st.t_last_ns;
    st.wall_s += static_cast<double>(stop - start) / 1e9;
    const std::span<const std::int64_t> done(st.done_ns.data() + first, st.done_ns.size() - first);
    const auto in_window = static_cast<std::size_t>(
        std::count_if(done.begin(), done.end(), [&](std::int64_t t) { return t <= stop; }));
    const std::vector<double> rates =
        block_rates(done, start, stop, std::max<std::size_t>(1, in_window / kBlocksPerWindow));
    st.block_rates.insert(st.block_rates.end(), rates.begin(), rates.end());
    return i;
  }

  /// Idle-engine swap probe for workloads without a rolling swap: reinstalls
  /// the current image tile by tile, so the traffic never sees it.
  PhaseStats swap_probe() {
    PhaseStats st;
    for (std::size_t s = 0; s < kProbeSwaps; ++s) {
      tensor::MatI8 slice = in_.tile(0, s % kTiles);
      const std::int64_t t0 = util::now_ns();
      const bool ok = grid_.swap_tile(s % kTiles, std::move(slice), in_.qw);
      st.swap_ms.push_back(ms(util::now_ns() - t0));
      ++(ok ? st.swaps_installed : st.scrub_rejects);
    }
    return st;
  }

 private:
  struct InFlight {
    serve::Ticket ticket;
    Planned plan;
    std::size_t index = 0;
    std::int64_t due_ns = 0;
  };

  void send(PhaseStats& st, const Planned& p, std::size_t i, std::int64_t due_ns, Phase phase) {
    const Activation& act = in_.pool[p.shape][p.act];
    const std::int64_t t0 = util::now_ns();
    tensor::MatI8 a8 = tensor::quantize(act.a, act.qa);
    const std::int64_t t1 = util::now_ns();
    serve::SubmitOptions opt;
    opt.priority = p.interactive ? serve::Priority::kInteractive : serve::Priority::kBatch;
    opt.stream = (static_cast<std::uint64_t>(phase) << kPhaseShift) | i;
    const serve::Ticket ticket = engine_.submit(
        serve::Request::own(std::move(a8), act.qa, p.faulted ? &injector_ : nullptr,
                            p.faulted ? memory_ : nullptr),
        opt);
    const std::int64_t t2 = util::now_ns();
    st.lag_ms.push_back(ms(t0 - due_ns));
    st.quantize_us.push_back(us(t1 - t0));
    st.submit_us.push_back(us(t2 - t1));
    if (st.rows.size() <= i) {
      st.rows.resize(i + 1);
      st.latency_ms.resize(i + 1);
    }
    st.rows[i] = act.a.rows();
    ++st.attempted;
    inflight_.push_back({ticket, p, i, due_ns});
    st.inflight_max = std::max(st.inflight_max, inflight_.size());
    if (w_.weight_ber > 0) swap_for(st, phase, i);
  }

  /// Rolling hot-swap, one per send: request i swaps tile i mod 16 toward the
  /// other image through the load-strike window (stream keyed by phase and
  /// i), so some candidates fail their scrub.
  void swap_for(PhaseStats& st, Phase phase, std::size_t i) {
    const std::size_t t = i % kTiles;
    tensor::MatI8 slice = in_.tile((i / kTiles + 1) % 2, t);
    const std::int64_t t0 = util::now_ns();
    const bool ok = grid_.swap_tile(t, std::move(slice), in_.qw, *memory_,
                                    fault::compose_op(static_cast<std::uint64_t>(phase), i));
    st.swap_ms.push_back(ms(util::now_ns() - t0));
    ++(ok ? st.swaps_installed : st.scrub_rejects);
  }

  /// Retires every finished request and checks it; returns how many. Each
  /// completion time frees a closed-loop slot.
  std::size_t collect(PhaseStats& st, std::deque<std::int64_t>& freed) {
    std::size_t done = 0;
    for (std::size_t k = 0; k < inflight_.size();) {
      const serve::TicketState state = engine_.poll(inflight_[k].ticket);
      if (state == serve::TicketState::kQueued || state == serve::TicketState::kRunning) {
        ++k;
        continue;
      }
      const InFlight f = inflight_[k];
      inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(k));
      const std::int64_t w0 = util::now_ns();
      serve::Response r;
      bool threw = false;
      try {
        r = engine_.wait(f.ticket);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
        threw = true;
      }
      const std::int64_t w1 = util::now_ns();
      st.wait_us.push_back(us(w1 - w0));
      st.latency_ms.at(f.index) = ms(w1 - f.due_ns);
      st.t_last_ns = w1;
      st.done_ns.push_back(w1);
      freed.push_back(w1);
      ++done;
      if (threw) {
        ++st.errors;
      } else if (r.expired) {
        ++st.expired;
      } else {
        ++st.completed;
        st.service_ms.push_back(r.latency_ms);
        const bool verdict_good = verdict_ok(r.verdict, f.plan.faulted);
        const bool output_good =
            output_ok(r.output, in_.pool[f.plan.shape][f.plan.act], in_.images);
        st.wrong_verdict += verdict_good ? 0 : 1;
        st.wrong_output += output_good ? 0 : 1;
        if (!verdict_good || !output_good) {
          const serve::BatchVerdict& v = r.verdict;
          std::fprintf(stderr,
                       "perfbench: wrong %s: m=%zu faulted=%d verdict=%s tiles "
                       "clean/patched/recomputed/detected=%zu/%zu/%zu/%zu\n",
                       verdict_good ? "output" : "verdict", r.output.rows(),
                       static_cast<int>(f.plan.faulted), detect::to_string(v.verdict),
                       v.tiles_clean, v.tiles_patched, v.tiles_recomputed, v.tiles_detected);
        }
      }
    }
    return done;
  }

  serve::ServeEngine& engine_;
  serve::TileGrid& grid_;
  const Workload& w_;
  const Inputs& in_;
  const fault::MemoryFaultModel* memory_;
  std::uint64_t seed_;
  fault::MagFreqInjector injector_;
  std::vector<InFlight> inflight_;
};

// ---------------------------------------------------------------------------
// Result line.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

void tally(Outcome& out, const PhaseStats& st) {
  out.attempted += st.attempted;
  out.failed += st.failures();
}

void print_result(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  line += "}}";
  std::fprintf(stderr, "\n%-32s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "%-32s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// A /proc/self/status field in MiB ("VmRSS", "VmHWM").
double status_mib(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key.size() == field.size() + 1 && key.starts_with(field)) {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no " + std::string(field) + " in /proc/self/status");
}

/// Hands freed heap pages back to the kernel and restarts the peak-RSS
/// window (VmHWM) at the current resident set, which it returns in MiB.
double restart_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!(clear << "5" << std::flush)) {
    throw std::runtime_error("cannot reset the peak RSS through /proc/self/clear_refs");
  }
  return status_mib("VmRSS");
}

void note_support(const char* what, std::size_t n) {
  if (supported_quantile(n) < 0.99) {
    std::fprintf(stderr, "perfbench: %s p99 rests on %zu samples (<10 beyond p99)\n", what, n);
  }
}

/// A stage's p99, or 0 when fewer than 10 of its samples lie beyond p99, so an
/// unsupported tail never reads like a measured one. stderr notes each 0.
double p99_or_zero(const char* what, const StageSummary& s) {
  if (s.support >= 0.99) return s.p99;
  std::fprintf(stderr, "perfbench: %s p99 rests on %zu samples (<10 beyond p99); reported as 0\n",
               what, s.count);
  return 0;
}

serve::ServeConfig engine_config(std::uint64_t seed, obs::Tracer* tracer) {
  serve::ServeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.seed = seed;
  cfg.tracer = tracer;
  return cfg;
}

std::optional<fault::MemoryFaultModel> memory_model(const Workload& w, std::uint64_t seed) {
  if (w.act_ber <= 0 && w.weight_ber <= 0) return std::nullopt;
  fault::MemoryFaultConfig cfg;
  cfg.seed = util::Rng(seed).fork(300).next();
  cfg.activations.ber = w.act_ber;
  cfg.weights.ber = w.weight_ber;
  return fault::MemoryFaultModel(cfg);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

// ---------------------------------------------------------------------------
// --trace 0: set-up time, latency and throughput under the closed loop,
// correctness share and peak memory. Tracing stays off.

/// One timed set-up: build the workload's TileGrid and start a ServeEngine on
/// it (seconds). Both are torn down untimed. Freed heap goes back to the
/// kernel first, so every sample starts from cold pages, as a fresh process
/// would.
double time_setup(const Inputs& in, std::uint64_t seed) {
  malloc_trim(0);
  const std::int64_t t0 = util::now_ns();
  const serve::TileGrid grid(in.w8[0], in.qw, grid_config(nullptr));
  const serve::ServeEngine engine(grid, engine_config(seed, nullptr));
  return static_cast<double>(util::now_ns() - t0) / 1e9;
}

Outcome run_untraced(const Args& args, const Inputs& in) {
  const Workload& w = *args.workload;
  // Set-up is sampled before the traffic, so no set-up grid and no heap trim
  // ever lands inside a timed round.
  std::vector<double> setups;
  for (std::size_t k = 0; k < kSetups; ++k) setups.push_back(time_setup(in, args.seed));
  // Peak RSS covers the serving grid and engine only: its window starts after
  // the set-up samples, whose grids the serving path never holds, and the
  // inputs' share is taken off. Heap the allocator keeps after a free moves a
  // round's peak by a few MiB and would carry over to the next round, so each
  // round starts trimmed and the median round is reported.
  const double inputs_mib = restart_peak_rss();
  std::vector<double> round_peaks;
  serve::TileGrid grid(in.w8[0], in.qw, grid_config(nullptr));
  serve::ServeEngine engine(grid, engine_config(args.seed, nullptr));
  const auto memory = memory_model(w, args.seed);
  Generator gen(engine, grid, w, in, memory ? &*memory : nullptr, args.seed);
  const auto round_ns = static_cast<std::int64_t>(args.seconds / kSegments * 1e9);

  Outcome out;
  PhaseStats warmup;
  const std::size_t warmed = gen.closed_loop(warmup, kWarmup, w.window, 0, w.warmup);
  gen.closed_loop(warmup, kWarmup, w.window, kWarmupNs, 0, warmed);
  tally(out, warmup);
  PhaseStats closed;
  std::size_t next = 0;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    next = gen.closed_loop(closed, kClosed, w.window, round_ns, 0, next);
    round_peaks.push_back(status_mib("VmHWM") - inputs_mib);
    restart_peak_rss();
  }
  tally(out, closed);
  engine.drain();
  const std::uint64_t rejected = engine.stats().rejected;
  note_support("latency", closed.latency_ms.size());

  const double ok_frac =
      1.0 - static_cast<double>(out.failed + rejected) / static_cast<double>(out.attempted);
  out.metrics = {
      {"setup_s", quantile_or_zero(setups, 0.5), "s"},
      {"latency_p50_ms", segmented_quantile(closed.latency_ms, 0.50, kP50Segment), "ms"},
      {"latency_p99_ms", segmented_quantile(closed.latency_ms, 0.99, kP99Segment), "ms"},
      {"throughput_rps", closed.throughput_rps(), "req/s"},
      {"ok_frac", ok_frac, "ratio"},
      {"peak_rss_mb", quantile_or_zero(round_peaks, 0.5), "MiB"},
  };
  return out;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer ledger. A traced engine runs the ledger pass (a
// fixed request count, so fault tallies repeat for a seed), then closed-loop
// windows with the tracer off and on give the tracing overhead.

std::uint64_t stream_of(std::uint64_t span_id) { return (span_id >> 24) - 1; }

int run_traced(const Args& args, const Inputs& in, Outcome& out) {
  const Workload& w = *args.workload;
  obs::TracerConfig tcfg;
  tcfg.lanes = kWorkers;
  tcfg.capacity = kTraceCapacity;
  obs::Tracer tracer(tcfg);
  serve::TileGrid grid(in.w8[0], in.qw, grid_config(&tracer));
  const auto memory = memory_model(w, args.seed);
  const fault::MemoryFaultModel* mem = memory ? &*memory : nullptr;
  const PeakProbe peak = measure_int8_peak();
  const auto ns = [&](double share) {
    return static_cast<std::int64_t>(args.seconds * share * 1e9);
  };

  serve::ServeEngine engine(grid, engine_config(args.seed, &tracer));
  Generator gen(engine, grid, w, in, mem, args.seed);
  PhaseStats warmup;
  gen.closed_loop(warmup, kWarmup, w.window, 0, w.warmup);
  tally(out, warmup);
  engine.reset_stats();
  const std::uint64_t weight_flips0 =
      grid.memory_flips()[static_cast<std::size_t>(fault::Component::kWeights)];
  PhaseStats ledger;
  gen.closed_loop(ledger, kLedger, w.window, 0, whole_blocks(w, w.ledger_requests));
  tally(out, ledger);
  engine.drain();
  const serve::ServeStats stats = engine.stats();
  const std::uint64_t weight_flips =
      grid.memory_flips()[static_cast<std::size_t>(fault::Component::kWeights)] - weight_flips0;
  // Tracing overhead: closed-loop windows with the tracer off and on, in
  // off-on-on-off order so a drift in machine speed cancels. Each window
  // drains before the toggle.
  PhaseStats untraced;
  PhaseStats traced;
  std::size_t next_off = 0;
  std::size_t next_on = 0;
  for (std::size_t k = 0; k < 2 * kOverheadPairs; ++k) {
    const bool on = k % 4 == 1 || k % 4 == 2;
    tracer.set_enabled(on);
    std::size_t& next = on ? next_on : next_off;
    next = gen.closed_loop(on ? traced : untraced, on ? kTracedClosed : kClosed, w.window,
                           ns(kOverheadShare / kOverheadPairs), 0, next);
  }
  tracer.set_enabled(true);
  tally(out, untraced);
  tally(out, traced);
  const PhaseStats swaps = w.weight_ber > 0 ? ledger : gen.swap_probe();
  const std::int64_t v0 = util::now_ns();
  if (!grid.verify_weight_integrity()) {
    std::fprintf(stderr, "perfbench: weight scrub failed after the run\n");
    ++out.failed;
  }
  const double verify_ms = ms(util::now_ns() - v0);

  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  for (std::size_t lane = 0; lane <= tracer.lanes(); ++lane) {
    const std::uint64_t n = tracer.recorded(lane);
    recorded += n;
    dropped += n - std::min<std::uint64_t>(n, kTraceCapacity);
  }
  if (dropped > 0) {
    std::fprintf(stderr,
                 "perfbench: traced pass incomplete: %llu of %llu events dropped; no per-layer "
                 "numbers reported\n",
                 static_cast<unsigned long long>(dropped),
                 static_cast<unsigned long long>(recorded));
    return 3;
  }

  // Ledger-phase duration spans from the worker lanes, with self times.
  std::vector<obs::Event> events;
  for (std::size_t lane = 1; lane <= tracer.lanes(); ++lane) {
    for (const obs::Event& e : tracer.snapshot(lane)) {
      if (!obs::is_instant(e.kind) && (stream_of(e.span_id) >> kPhaseShift) == kLedger) {
        events.push_back(e);
      }
    }
  }
  std::vector<Span> spans;
  spans.reserve(events.size());
  for (const obs::Event& e : events) {
    spans.push_back({e.span_id, e.parent, e.t_start_ns, e.t_end_ns});
  }
  const std::vector<std::int64_t> self = self_times_ns(spans);

  constexpr std::size_t kKinds = 16;
  std::array<std::vector<double>, kKinds> dur_us;
  std::array<std::vector<double>, kKinds> self_us;
  double gemm_ops = 0;
  double gemm_bytes = 0;
  double gemm_s = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Event& e = events[i];
    const auto k = static_cast<std::size_t>(e.kind);
    if (k >= kKinds) continue;
    dur_us[k].push_back(us(e.t_end_ns - e.t_start_ns));
    self_us[k].push_back(us(self[i]));
    if (e.kind == obs::SpanKind::kGemm) {
      // Computed from the tile shape: 2·m·k·n ops; bytes = int8 A, int16
      // weight panels, int32 C.
      const auto m = static_cast<double>(ledger.rows.at(stream_of(e.span_id) & kIndexMask));
      const auto tile = static_cast<std::size_t>(((e.parent >> 8) & 0xffff) - 1);
      const auto n = static_cast<double>(grid.tile_width(tile));
      const auto kk = static_cast<double>(kK);
      gemm_ops += 2.0 * m * kk * n;
      gemm_bytes += m * kk + 2.0 * kk * n + 4.0 * m * n;
      gemm_s += static_cast<double>(e.t_end_ns - e.t_start_ns) / 1e9;
    }
  }
  const auto stage = [&](obs::SpanKind kind) {
    const auto k = static_cast<std::size_t>(kind);
    return summarize(dur_us[k], self_us[k]);
  };
  const StageSummary queued = stage(obs::SpanKind::kQueued);
  const StageSummary tile = stage(obs::SpanKind::kTile);
  const StageSummary gemm = stage(obs::SpanKind::kGemm);
  const StageSummary screen = stage(obs::SpanKind::kScreen);
  const StageSummary patch = stage(obs::SpanKind::kPatch);
  const StageSummary recompute = stage(obs::SpanKind::kRecompute);
  const StageSummary recheck = stage(obs::SpanKind::kRecheck);
  const StageSummary dequant = stage(obs::SpanKind::kDequantize);
  const StageSummary request = stage(obs::SpanKind::kRequest);
  const StageSummary quant = summarize(ledger.quantize_us);
  const StageSummary submit = summarize(ledger.submit_us);
  const StageSummary wait = summarize(ledger.wait_us);
  const StageSummary swap = summarize(swaps.swap_ms);
  const StageSummary service = summarize(ledger.service_ms);
  const StageSummary lag = summarize(ledger.lag_ms);

  std::fprintf(stderr,
               "\nstage ledger (%s, ledger pass of %zu requests; spans in us unless noted)\n",
               w.name, ledger.attempted);
  std::fprintf(stderr, "%-22s %8s %12s %12s %12s %9s\n", "stage", "count", "p50", "p99",
               "self_p50", "support");
  const auto row = [](const char* name, const StageSummary& s, bool has_self) {
    std::fprintf(stderr, "%-22s %8zu %12.3f %12.3f %12s %9.3g\n", name, s.count, s.p50, s.p99,
                 has_self ? std::to_string(s.self_p50).c_str() : "-", s.support);
  };
  row("request", request, true);
  row("queued", queued, true);
  row("tile", tile, true);
  row("quantize (bench)", quant, false);
  row("gemm", gemm, true);
  row("screen", screen, true);
  row("patch", patch, true);
  row("recompute", recompute, true);
  row("recheck", recheck, true);
  row("dequantize", dequant, true);
  row("submit (bench)", submit, false);
  row("wait (bench)", wait, false);
  row("swap_tile ms (bench)", swap, false);
  std::fprintf(stderr, "%-22s %8d %12.3f   (verify_weight_integrity, ms, bench)\n", "verify", 1,
               verify_ms);
  std::fprintf(stderr, "int8 peak probe: %.1f GOPS single core (%s)\n", peak.gops,
               peak.instruction);

  const double flagged =
      static_cast<double>(stats.tiles_patched + stats.tiles_recomputed + stats.tiles_detected);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto flips = [&](fault::Component c) {
    return static_cast<double>(stats.component_flips[static_cast<std::size_t>(c)]);
  };
  const double gemm_gops = ratio(gemm_ops, gemm_s) / 1e9;
  double service_sum_ms = 0;
  for (const double x : ledger.service_ms) service_sum_ms += x;

  out.metrics = {
      {"engine.queue_wait_p50_ms", queued.p50 / 1e3, "ms"},
      {"engine.queue_wait_p99_ms", p99_or_zero("engine.queue_wait", queued) / 1e3, "ms"},
      {"engine.service_p50_ms", service.p50, "ms"},
      {"engine.service_p99_ms", p99_or_zero("engine.service", service), "ms"},
      {"engine.submit_p99_us", p99_or_zero("engine.submit", submit), "us"},
      {"engine.busy_frac", ratio(service_sum_ms, kWorkers * ledger.wall_s * 1e3), "ratio"},
      {"engine.inflight_max", static_cast<double>(ledger.inflight_max), "count"},
      {"engine.completed", static_cast<double>(stats.completed), "count"},
      {"engine.expired", static_cast<double>(stats.expired), "count"},
      {"engine.rejected", static_cast<double>(stats.rejected), "count"},
      {"engine.failed", static_cast<double>(stats.failed), "count"},
      {"tile_grid.tile_p50_us", tile.p50, "us"},
      {"tile_grid.tile_p99_us", p99_or_zero("tile_grid.tile", tile), "us"},
      {"tile_grid.tile_self_p50_us", tile.self_p50, "us"},
      {"tile_grid.swap_tile_p50_ms", swap.p50, "ms"},
      {"tile_grid.swap_tile_p99_ms", p99_or_zero("tile_grid.swap_tile", swap), "ms"},
      {"tile_grid.swaps_installed", static_cast<double>(ledger.swaps_installed), "count"},
      {"tile_grid.scrub_rejects", static_cast<double>(ledger.scrub_rejects), "count"},
      {"detect.screen_p50_us", screen.p50, "us"},
      {"detect.screen_p99_us", p99_or_zero("detect.screen", screen), "us"},
      {"detect.screen_to_gemm", ratio(screen.total, gemm.total), "ratio"},
      {"detect.tiles_screened", static_cast<double>(stats.tiles_screened), "count"},
      {"detect.tiles_flagged", flagged, "count"},
      {"correct.patch_p50_us", patch.p50, "us"},
      {"correct.patch_p99_us", p99_or_zero("correct.patch", patch), "us"},
      {"correct.patch_to_gemm", ratio(patch.total, gemm.total), "ratio"},
      {"correct.patch_success_frac", ratio(static_cast<double>(stats.tiles_patched), flagged),
       "ratio"},
      {"correct.recompute_p50_us", recompute.p50, "us"},
      {"correct.recheck_p50_us", recheck.p50, "us"},
      {"correct.tiles_recomputed", static_cast<double>(stats.tiles_recomputed), "count"},
      {"tensor.gemm_p50_us", gemm.p50, "us"},
      {"tensor.gemm_p99_us", p99_or_zero("tensor.gemm", gemm), "us"},
      {"tensor.gemm_gops", gemm_gops, "GOPS"},
      {"tensor.gemm_gbps_computed", ratio(gemm_bytes, gemm_s) / 1e9, "GB/s"},
      {"tensor.gemm_peak_frac", ratio(gemm_gops, peak.gops), "ratio"},
      {"tensor.quantize_p50_us", quant.p50, "us"},
      {"tensor.dequantize_p50_us", dequant.p50, "us"},
      {"fault.accumulator_flips", flips(fault::Component::kAccumulator), "count"},
      {"fault.activation_flips", flips(fault::Component::kActivations), "count"},
      {"fault.weight_flips", static_cast<double>(weight_flips), "count"},
      {"obs.trace_overhead_frac",
       1.0 - ratio(traced.throughput_rps(), untraced.throughput_rps()), "ratio"},
      {"obs.events_recorded", static_cast<double>(recorded), "count"},
      {"obs.events_dropped", static_cast<double>(dropped), "count"},
      {"loadgen.lag_p50_ms", lag.p50, "ms"},
      {"loadgen.lag_p99_ms", p99_or_zero("loadgen.lag", lag), "ms"},
      {"loadgen.sent", static_cast<double>(ledger.attempted), "count"},
  };
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       perfbench --list\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        for (const Workload& w : workloads()) {
          if (val == w.name) a.workload = &w;
        }
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return std::nullopt;
        a.trace = val == "1";
        have_trace = true;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload == nullptr || !have_seed || !have_trace ||
      !(a.seconds >= 1 && a.seconds <= 600)) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--list") {
    for (const Workload& w : workloads()) std::printf("%s\n", w.name);
    return 0;
  }
  const std::optional<Args> args = parse(argc, argv);
  if (!args) return usage();
  // Pin glibc's large-buffer thresholds before any thread starts. Left
  // dynamic, the mmap threshold climbs to the largest buffer freed, so
  // prefill-batch's 4 and 8 MiB outputs come from the heap and whichever
  // freed chunks the allocator keeps move peak_rss_mb in 8 MiB steps from run
  // to run. At 4 MiB those outputs are mapped and unmapped per request, and
  // the peak is the live data; smaller buffers (decode outputs, swapped
  // tiles) stay on the heap, as they do under the dynamic rule, whose trim
  // threshold is twice the mmap threshold.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 8 << 20);
  try {
    util::set_global_threads(1);
    const Inputs in = make_inputs(*args->workload, args->seed);
    Outcome out;
    if (args->trace) {
      const int rc = run_traced(*args, in, out);
      if (rc != 0) return rc;
    } else {
      out = run_untraced(*args, in);
    }
    print_result(out);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
