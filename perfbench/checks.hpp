/**
 * @file
 * Output checks: per-request serving invariants, and digests of every
 * simulated field so repeated and traced runs can be compared
 * bit-for-bit without holding their full reports.
 */
#ifndef PERFBENCH_CHECKS_HPP
#define PERFBENCH_CHECKS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/pipeline.hpp"
#include "serve/continuous_batch_scheduler.hpp"

namespace perfbench {

/**
 * Requests of @p report that broke a serving invariant: not finished,
 * a token count other than the trace's generate_len, or token times
 * that decrease or precede arrival. Each bad request is reported to
 * stderr.
 */
std::size_t countBadRequests(const std::vector<spatten::TracedRequest>& trace,
                             const spatten::ServeReport& report);

/** 64-bit FNV-1a digest of every simulated field of a result; equal
 *  digests mean bit-identical results (up to a 2^-64 collision). */
std::uint64_t resultDigest(const spatten::RunResult& r);

/** Digest of every simulated field of a serve report, including every
 *  per-request record. */
std::uint64_t reportDigest(const spatten::ServeReport& r);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HPP
