#include "fault/fault.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fault/memory.h"
#include "realm_test.h"
#include "util/rng.h"

using namespace realm::fault;
using realm::util::Rng;

REALM_TEST(injectors_deterministic_under_fixed_seed) {
  const RandomBitFlipInjector inj(1e-3, 16, 31);
  std::vector<std::int32_t> a(4096, 0), b(4096, 0);
  Rng r1(99), r2(99);
  const InjectionReport ra = inj.inject(a, r1);
  const InjectionReport rb = inj.inject(b, r2);
  REALM_CHECK(a == b);
  REALM_CHECK_EQ(ra.flipped_bits, rb.flipped_bits);
  REALM_CHECK(ra.flipped_bits > 0);  // BER 1e-3 over 64k bits: ~65 expected
  // A different seed produces a different pattern.
  std::vector<std::int32_t> c(4096, 0);
  Rng r3(100);
  inj.inject(c, r3);
  REALM_CHECK(!(a == c));
}

REALM_TEST(single_bit_flips_hit_distinct_elements) {
  // Sampling without replacement: every reported flip corresponds to exactly
  // one changed element (with replacement, pairs cancel and over-count).
  const SingleBitFlipInjector inj(0.5, 30);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::vector<std::int32_t> data(64, 0);
    Rng rng(seed);
    const InjectionReport rep = inj.inject(data, rng);
    std::uint64_t changed = 0;
    for (const auto v : data) {
      if (v != 0) {
        ++changed;
        REALM_CHECK_EQ(static_cast<std::uint32_t>(v), 1u << 30);
      }
    }
    REALM_CHECK_EQ(changed, rep.corrupted_values);
    REALM_CHECK_EQ(rep.flipped_bits, rep.corrupted_values);
  }
}

REALM_TEST(magfreq_exact_error_mass) {
  const MagFreqInjector inj(1 << 20, 7);
  std::vector<std::int32_t> data(256, 0);
  Rng rng(5);
  const InjectionReport rep = inj.inject(data, rng);
  REALM_CHECK_EQ(rep.corrupted_values, std::uint64_t{7});
  std::int64_t total = 0;
  std::uint64_t touched = 0;
  for (const auto v : data) {
    total += v;
    if (v != 0) ++touched;
  }
  REALM_CHECK_EQ(total, std::int64_t{7} * (1 << 20));  // MSD mass = freq * mag
  REALM_CHECK_EQ(touched, std::uint64_t{7});           // distinct targets
  // freq > size clamps rather than looping forever.
  std::vector<std::int32_t> tiny(3, 0);
  const InjectionReport rep2 = MagFreqInjector(1, 1000).inject(tiny, rng);
  REALM_CHECK_EQ(rep2.corrupted_values, std::uint64_t{3});
}

REALM_TEST(flip_records_capture_exact_bits_and_values) {
  // Replaying records in reverse (writing each `before` back) must restore
  // the original tensor exactly — the reconstruction contract the realm::sa
  // ground-truth comparator relies on, valid even when flips collide.
  Rng rng(21);
  std::vector<std::int32_t> data(1024);
  for (auto& v : data) v = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
  const std::vector<std::int32_t> original = data;

  const RandomBitFlipInjector inj(0.01, 0, 31);
  std::vector<FlipRecord> record;
  const InjectionReport rep = inj.inject(data, rng, &record);
  REALM_CHECK(rep.flipped_bits > 0);
  REALM_CHECK_EQ(record.size(), rep.flipped_bits);
  for (const FlipRecord& f : record) {
    REALM_CHECK(f.bit >= 0 && f.bit <= 31);
    REALM_CHECK_EQ(static_cast<std::uint32_t>(f.after),
                   static_cast<std::uint32_t>(f.before) ^ (1u << f.bit));
  }
  for (auto it = record.rbegin(); it != record.rend(); ++it) {
    REALM_CHECK_EQ(data[it->index], it->after);  // records are in application order
    data[it->index] = it->before;
  }
  REALM_CHECK(data == original);

  // Same seed, with and without recording: identical mutations (recording
  // must not consume extra randomness).
  std::vector<std::int32_t> a = original, b = original;
  Rng r1(77), r2(77);
  inj.inject(a, r1, &record);
  inj.inject(b, r2);
  REALM_CHECK(a == b);

  // The single-bit protocol pins every record to its bit; the magnitude model
  // records kAdditiveBit and the exact pre/post values.
  std::vector<std::int32_t> sb(256, 5);
  const SingleBitFlipInjector single(0.3, 30);
  single.inject(sb, r1, &record);
  REALM_CHECK(!record.empty());
  for (const FlipRecord& f : record) REALM_CHECK_EQ(f.bit, std::int16_t{30});

  std::vector<std::int32_t> mf(256, 17);
  const MagFreqInjector mag(1 << 12, 5);
  mag.inject(mf, r1, &record);
  REALM_CHECK_EQ(record.size(), std::size_t{5});
  for (const FlipRecord& f : record) {
    REALM_CHECK_EQ(f.bit, FlipRecord::kAdditiveBit);
    REALM_CHECK_EQ(f.before, std::int32_t{17});
    REALM_CHECK_EQ(f.after, std::int32_t{17 + (1 << 12)});
  }

  // A previous record list is cleared, not appended to, even by a no-op pass.
  NullInjector none;
  none.inject(mf, r1, &record);
  REALM_CHECK(record.empty());
}

REALM_TEST(random_bitflip_respects_bit_range) {
  const RandomBitFlipInjector inj(0.05, 8, 15);
  std::vector<std::int32_t> data(2048, 0);
  Rng rng(7);
  inj.inject(data, rng);
  bool any = false;
  for (const auto v : data) {
    const auto w = static_cast<std::uint32_t>(v);
    REALM_CHECK_EQ(w & ~0x0000ff00u, 0u);  // only bits [8,15] may be set
    if (w != 0) any = true;
  }
  REALM_CHECK(any);
  REALM_CHECK_THROWS(RandomBitFlipInjector(2.0), std::invalid_argument);
  REALM_CHECK_THROWS(RandomBitFlipInjector(0.1, 5, 40), std::invalid_argument);
  REALM_CHECK_THROWS(SingleBitFlipInjector(0.1, 32), std::invalid_argument);
  REALM_CHECK_THROWS(MagFreqInjector(0, 3), std::invalid_argument);
}

REALM_TEST(memory_model_ber_zero_injects_nothing) {
  MemoryFaultConfig cfg;  // every component BER defaults to 0
  cfg.seed = 42;
  const MemoryFaultModel model(cfg);
  std::vector<std::int8_t> bytes(512, 3);
  std::vector<FlipRecord> record{FlipRecord{}};
  REALM_CHECK_EQ(model.corrupt(Component::kWeights, 0, bytes, &record), std::uint64_t{0});
  REALM_CHECK(record.empty());  // cleared, not appended to, by a no-op pass
  for (const auto v : bytes) REALM_CHECK_EQ(v, std::int8_t{3});
  REALM_CHECK(!model.enabled(Component::kWeights));
  std::vector<std::int8_t> panel(128, -7);
  REALM_CHECK_EQ(model.corrupt(Component::kPackedPanels, 9, panel), std::uint64_t{0});
  for (const auto v : panel) REALM_CHECK_EQ(v, std::int8_t{-7});

  // Parameter validation mirrors the injectors'.
  MemoryFaultConfig bad = cfg;
  bad.activations.ber = 2.0;
  REALM_CHECK_THROWS(MemoryFaultModel{bad}, std::invalid_argument);
  bad = cfg;
  bad.weights.bit_lo = 5;
  bad.weights.bit_hi = 3;
  REALM_CHECK_THROWS(MemoryFaultModel{bad}, std::invalid_argument);
  bad = cfg;
  bad.packed_panels.bit_hi = 8;
  REALM_CHECK_THROWS(MemoryFaultModel{bad}, std::invalid_argument);
  bad = cfg;
  bad.weights.rest_epochs = 0;
  REALM_CHECK_THROWS(MemoryFaultModel{bad}, std::invalid_argument);
  REALM_CHECK_THROWS(cfg.params(Component::kAccumulator), std::invalid_argument);
}

REALM_TEST(memory_model_ber_one_flips_every_eligible_bit) {
  MemoryFaultConfig cfg;
  cfg.seed = 1;
  cfg.weights.ber = 1.0;
  cfg.weights.bit_lo = 2;
  cfg.weights.bit_hi = 5;
  cfg.packed_panels.ber = 1.0;  // full [0,7] lane window
  const MemoryFaultModel model(cfg);

  std::vector<std::int8_t> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::int8_t>(i * 7);
  const std::vector<std::int8_t> orig = bytes;
  REALM_CHECK_EQ(model.corrupt(Component::kWeights, 0, bytes), std::uint64_t{64 * 4});
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // BER saturation is deterministic: every bit in the window flips once.
    REALM_CHECK_EQ(static_cast<std::uint8_t>(bytes[i]),
                   static_cast<std::uint8_t>(static_cast<std::uint8_t>(orig[i]) ^ 0x3Cu));
  }

  // Panel bytes: the full [0,7] window at BER=1 inverts every byte.
  std::vector<std::int8_t> panel(64);
  for (std::size_t i = 0; i < panel.size(); ++i) panel[i] = (i % 2 == 0) ? 0x34 : 0x12;
  REALM_CHECK_EQ(model.corrupt(Component::kPackedPanels, 3, panel), std::uint64_t{64 * 8});
  for (std::size_t i = 0; i < panel.size(); ++i) {
    REALM_CHECK_EQ(static_cast<std::uint8_t>(panel[i]), (i % 2 == 0) ? 0xCBu : 0xEDu);
  }

  // Two retention epochs at BER=1: every bit re-upsets and cancels — the
  // image comes back clean but the physical flip count records both epochs.
  MemoryFaultConfig cfg2 = cfg;
  cfg2.weights.rest_epochs = 2;
  std::vector<std::int8_t> twice = orig;
  REALM_CHECK_EQ(MemoryFaultModel(cfg2).corrupt(Component::kWeights, 0, twice),
                 std::uint64_t{2 * 64 * 4});
  REALM_CHECK(twice == orig);
}

REALM_TEST(component_flip_records_reverse_replay) {
  MemoryFaultConfig cfg;
  cfg.seed = 0xfeed;
  cfg.activations.ber = 0.02;
  cfg.packed_panels.ber = 0.01;
  const MemoryFaultModel model(cfg);

  Rng init(3);
  std::vector<std::int8_t> bytes(2048);
  for (auto& v : bytes) v = static_cast<std::int8_t>(init.uniform_int(-128, 127));
  const std::vector<std::int8_t> orig = bytes;
  std::vector<FlipRecord> record;
  const std::uint64_t flips = model.corrupt(Component::kActivations, 11, bytes, &record);
  REALM_CHECK(flips > 0);
  REALM_CHECK_EQ(record.size(), flips);
  for (const FlipRecord& f : record) {
    REALM_CHECK(f.component == Component::kActivations);
    REALM_CHECK(f.bit >= 0 && f.bit <= 7);
  }
  for (auto it = record.rbegin(); it != record.rend(); ++it) {
    REALM_CHECK_EQ(bytes[it->index], static_cast<std::int8_t>(it->after));
    bytes[it->index] = static_cast<std::int8_t>(it->before);
  }
  REALM_CHECK(bytes == orig);  // reverse replay reconstructs the clean image

  std::vector<std::int8_t> panel(2048);
  for (auto& v : panel) v = static_cast<std::int8_t>(init.uniform_int(-128, 127));
  const std::vector<std::int8_t> porig = panel;
  const std::uint64_t pflips = model.corrupt(Component::kPackedPanels, 4, panel, &record);
  REALM_CHECK(pflips > 0);
  REALM_CHECK_EQ(record.size(), pflips);
  for (const FlipRecord& f : record) REALM_CHECK(f.component == Component::kPackedPanels);
  for (auto it = record.rbegin(); it != record.rend(); ++it) {
    REALM_CHECK_EQ(panel[it->index], static_cast<std::int8_t>(it->after));
    panel[it->index] = static_cast<std::int8_t>(it->before);
  }
  REALM_CHECK(panel == porig);

  // Recording must not consume extra randomness.
  std::vector<std::int8_t> a = orig, b = orig;
  model.corrupt(Component::kActivations, 11, a, &record);
  model.corrupt(Component::kActivations, 11, b);
  REALM_CHECK(a == b);
}

REALM_TEST(component_streams_independent_and_replayable) {
  // The replay contract: a component's draws are a pure function of
  // (seed, component, op) — enabling OTHER components must not shift them.
  MemoryFaultConfig only_w;
  only_w.seed = 77;
  only_w.weights.ber = 0.05;
  MemoryFaultConfig all = only_w;
  all.activations.ber = 0.2;
  all.packed_panels.ber = 0.1;

  std::vector<std::int8_t> a(1024, 1), b(1024, 1);
  (void)MemoryFaultModel(only_w).corrupt(Component::kWeights, 5, a);
  (void)MemoryFaultModel(all).corrupt(Component::kWeights, 5, b);
  REALM_CHECK(a == b);

  // Distinct ops draw distinct patterns (counter-based, no shared state).
  std::vector<std::int8_t> c(1024, 1);
  (void)MemoryFaultModel(all).corrupt(Component::kWeights, 6, c);
  REALM_CHECK(!(a == c));

  // Components with identical parameters still fork disjoint streams.
  MemoryFaultConfig wact = only_w;
  wact.activations.ber = 0.05;
  std::vector<std::int8_t> d(1024, 1);
  (void)MemoryFaultModel(wact).corrupt(Component::kActivations, 5, d);
  REALM_CHECK(!(a == d));

  // compose_op is order-sensitive and avalanche-mixed: composite stream
  // coordinates like (request, tile) and (tile, request) stay distinct.
  REALM_CHECK(compose_op(1, 2) != compose_op(2, 1));
  REALM_CHECK(compose_op(0, 0) != compose_op(0, 1));
}

REALM_TEST_MAIN()
