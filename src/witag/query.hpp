// Query A-MPDU construction.
//
// Queries exist solely to give the tag subframes to corrupt, so their
// shape is chosen for the tag, not for data transport (paper section
// 4.1):
//  - every subframe has the same on-air duration, an exact whole number
//    of OFDM symbols, so subframe boundaries land on symbol boundaries
//    and the tag's per-symbol corruption stays contained;
//  - the duration is the smallest the tag's clock granularity and guard
//    bands allow (more subframes per second = more tag bits per second);
//  - the first n_trigger subframes carry the alternating high/low
//    envelope pattern the tag's trigger correlator looks for (section 7).
#pragma once

#include <vector>
#include <cstddef>

#include "mac/station.hpp"
#include "phy/ppdu.hpp"
#include "tag/trigger.hpp"
#include "util/bits.hpp"
#include "util/units.hpp"
#include "witag/config.hpp"

namespace witag::core {

/// Resolved per-query geometry shared by client and tag models.
struct QueryLayout {
  unsigned mcs_index = 0;
  unsigned symbols_per_subframe = 0;
  std::size_t subframe_bytes = 0;     ///< delimiter + MPDU + pad, on air.
  std::size_t payload_bytes = 0;      ///< plaintext body per subframe.
  unsigned n_subframes = 0;           ///< incl. trigger subframes.
  unsigned n_trigger = 0;
  unsigned trigger_code = 0;          ///< Tag address in the pattern.
  unsigned n_data_subframes = 0;

  util::Micros subframe_duration_us() const;
  /// Start of the first (trigger) subframe relative to PPDU start.
  util::Micros subframes_start_us() const;
  /// Ideal timing as the tag would measure it with a perfect trigger.
  tag::QueryTiming ideal_timing() const;
};

/// Computes the query layout for a config, tag clock tick and guard.
/// Picks the smallest symbols_per_subframe (when cfg.symbols_per_subframe
/// is 0) such that:
///  - subframe bytes are integral and 4-byte aligned (A-MPDU padding),
///  - the MPDU fits header + security overhead (payload >= 0),
///  - a corruption window of at least one OFDM symbol survives the guard
///    bands and tick quantization.
/// Throws when no duration up to 64 symbols satisfies the constraints.
QueryLayout plan_query(const QueryConfig& cfg, unsigned mcs_index,
                       mac::Security security, util::Micros tag_tick,
                       util::Micros tag_guard);

/// A fully built query: the subframe payloads, the PPDU and the
/// per-symbol-slot envelope scale implementing the trigger pattern.
struct QueryFrame {
  QueryLayout layout;
  /// Filler payloads, one per subframe. They depend only on the layout,
  /// so a reused frame overwrites them in place.
  std::vector<util::ByteVec> payloads;
  phy::TxPpdu ppdu;
  std::vector<double> slot_scale;  ///< One per PPDU symbol slot.
};

/// Builds one query through the client station (sequence numbers and
/// encryption advance in `client`) into `out`, reusing the capacity of
/// its payloads, timeline and slot scales; every field of `out` is
/// overwritten.
void build_query_into(const QueryLayout& layout, mac::Client& client,
                      double trigger_low_scale, QueryFrame& out);

/// build_query_into() into a fresh frame.
QueryFrame build_query(const QueryLayout& layout, mac::Client& client,
                       double trigger_low_scale);

}  // namespace witag::core
