#include "witag/query.hpp"

#include "mac/ampdu.hpp"
#include "mac/ccmp.hpp"
#include "mac/mpdu.hpp"
#include "mac/wep.hpp"
#include "obs/obs.hpp"
#include "phy/mcs.hpp"
#include "util/require.hpp"
#include <cstdint>
#include "util/bits.hpp"
#include <cstddef>

namespace witag::core {
namespace {

std::size_t security_overhead(mac::Security mode) {
  switch (mode) {
    case mac::Security::kOpen: return 0;
    case mac::Security::kWep: return mac::kWepHeaderBytes + mac::kWepIcvBytes;
    case mac::Security::kCcmp:
      return mac::kCcmpHeaderBytes + mac::kCcmpMicBytes;
  }
  WITAG_ENSURE(false);
  return 0;
}

std::size_t fixed_overhead(mac::Security mode) {
  return mac::kDelimiterBytes + mac::kQosHeaderBytes + mac::kFcsBytes +
         security_overhead(mode);
}

// Checks whether S symbols per subframe yields whole, 4-byte-aligned
// subframes with room for the MAC machinery; fills the layout on success.
bool try_symbols(unsigned s, const phy::McsParams& m, mac::Security security,
                 QueryLayout& layout) {
  const std::size_t bits = static_cast<std::size_t>(s) * m.n_dbps;
  if (bits % 8 != 0) return false;
  const std::size_t total = bits / 8;
  if (total % 4 != 0) return false;
  const std::size_t overhead = fixed_overhead(security);
  if (total < overhead) return false;
  layout.symbols_per_subframe = s;
  layout.subframe_bytes = total;
  layout.payload_bytes = total - overhead;
  return true;
}

}  // namespace

util::Micros QueryLayout::subframe_duration_us() const {
  return util::Micros{static_cast<double>(symbols_per_subframe) *
                      phy::kSymbolDurationUs};
}

util::Micros QueryLayout::subframes_start_us() const {
  return util::Micros{static_cast<double>(phy::kHeaderSlots) *
                      phy::kSymbolDurationUs};
}

tag::QueryTiming QueryLayout::ideal_timing() const {
  tag::QueryTiming t;
  t.subframe_duration_us = subframe_duration_us().value();
  t.code = trigger_code;
  // The last comparator edge the tag observes precisely is the end of
  // the second LOW region (subframes 3 .. 3 + code in the
  // H L H L..L H pattern).
  t.align_edge_us =
      (subframes_start_us() + (4.0 + trigger_code) * subframe_duration_us())
          .value();
  t.data_start_us = (subframes_start_us() +
                     static_cast<double>(n_trigger) * subframe_duration_us())
                        .value();
  return t;
}

QueryLayout plan_query(const QueryConfig& cfg, unsigned mcs_index,
                       mac::Security security, util::Micros tag_tick,
                       util::Micros tag_guard) {
  WITAG_REQUIRE(cfg.n_subframes >= cfg.n_trigger + 1 && cfg.n_subframes <= 64);
  WITAG_REQUIRE(cfg.n_trigger >= 5 + cfg.trigger_code);
  const phy::McsParams& m = phy::mcs(mcs_index);

  QueryLayout layout;
  layout.mcs_index = mcs_index;
  layout.n_subframes = cfg.n_subframes;
  layout.n_trigger = cfg.n_trigger;
  layout.trigger_code = cfg.trigger_code;
  layout.n_data_subframes = cfg.n_subframes - cfg.n_trigger;

  if (cfg.symbols_per_subframe != 0) {
    WITAG_REQUIRE(try_symbols(cfg.symbols_per_subframe, m, security, layout));
    return layout;
  }

  for (unsigned s = 1; s <= 64; ++s) {
    if (!try_symbols(s, m, security, layout)) continue;
    // The corruption window must keep at least one whole OFDM symbol
    // after guards and one tick of quantization loss at each end.
    const util::Micros window =
        layout.subframe_duration_us() - 2.0 * tag_guard - 2.0 * tag_tick;
    if (window < util::Micros{phy::kSymbolDurationUs}) continue;
    return layout;
  }
  WITAG_REQUIRE(false);
  return layout;
}

QueryFrame build_query(const QueryLayout& layout, mac::Client& client,
                       double trigger_low_scale) {
  QueryFrame frame;
  build_query_into(layout, client, trigger_low_scale, frame);
  return frame;
}

void build_query_into(const QueryLayout& layout, mac::Client& client,
                      double trigger_low_scale, QueryFrame& frame) {
  WITAG_SPAN_CAT("witag.build_query", "witag");
  WITAG_REQUIRE(trigger_low_scale > 0.0 && trigger_low_scale < 1.0);

  // Subframe payloads: deterministic filler (content is irrelevant to
  // the protocol; it only has to survive encryption size accounting),
  // written over the frame's own so a warm frame allocates none.
  frame.payloads.resize(layout.n_subframes);
  for (std::size_t i = 0; i < frame.payloads.size(); ++i) {
    frame.payloads[i].assign(layout.payload_bytes,
                             static_cast<std::uint8_t>(0xA5 ^ (i & 0xFF)));
  }

  frame.layout = layout;
  client.build_ampdu_into(frame.payloads, frame.psdu);
  WITAG_ENSURE(frame.psdu.size() ==
               layout.subframe_bytes * layout.n_subframes);

  phy::TxConfig tx_cfg;
  tx_cfg.mcs_index = layout.mcs_index;
  phy::transmit_into(frame.psdu, tx_cfg, frame.ppdu);

  // Trigger envelope pattern: HIGH, LOW, HIGH, then a LOW region of
  // (1 + trigger_code) subframes, then HIGH to the end of the trigger
  // region; everything else at full scale.
  frame.slot_scale.assign(frame.ppdu.symbols.size(), 1.0);
  auto set_low = [&](unsigned subframe) {
    const std::size_t first =
        phy::kHeaderSlots +
        static_cast<std::size_t>(subframe) * layout.symbols_per_subframe;
    for (unsigned s = 0; s < layout.symbols_per_subframe; ++s) {
      frame.slot_scale[first + s] = trigger_low_scale;
    }
  };
  set_low(1);
  for (unsigned k = 0; k <= layout.trigger_code; ++k) set_low(3 + k);
}

}  // namespace witag::core
