// Iterative radix-2 FFT/IFFT with unitary (1/sqrt(N)) scaling in both
// directions so transforms preserve signal power — convenient for SNR
// bookkeeping across the time/frequency boundary.
//
// Hot path: transforms execute against a process-wide plan cache keyed
// by length (bit-reversal swap list + per-stage twiddle tables), so the
// cos/sin work is paid once per length per process instead of once per
// call. The cache is thread-safe (lock-free lookup, mutex-guarded
// build) and plans live for the process lifetime; the planned path is
// bit-identical to the radix-2 reference transform (tests/oracle)
// because plans store the twiddles produced by the very same recurrence.
#pragma once

#include <cstddef>
#include <span>

#include "util/complexvec.hpp"

namespace witag::phy {

/// In-place forward FFT. Requires a power-of-two length >= 1.
void fft_inplace(std::span<util::Cx> data);

/// In-place inverse FFT. Requires a power-of-two length >= 1.
void ifft_inplace(std::span<util::Cx> data);

/// Out-of-place convenience wrappers.
util::CxVec fft(std::span<const util::Cx> data);
util::CxVec ifft(std::span<const util::Cx> data);

namespace detail {

/// The planned fused-radix-4 engine pinned to the scalar (hoisted
/// twiddle) butterflies regardless of the active SIMD tier: a seam into
/// the engine, not an oracle. Used by BM_Fft64Radix4 to gate the scalar
/// engine on plain CI runners, and by tests to check the scalar
/// butterflies against the reference transform.
void fft_radix4_inplace(std::span<util::Cx> data, bool inverse);

/// Number of FFT plans currently cached (one per distinct length seen);
/// the tests' view of the plan cache.
std::size_t fft_plan_count();

}  // namespace detail

}  // namespace witag::phy
