/// Tiered KV memory (HBM hot tier + far-memory DRAM cold tier):
/// pool-level demote/promote/rollback semantics, the tiering-off
/// golden — far_memory at capacity 0 replays the single-tier scheduler
/// bit for bit regardless of the other far-memory knobs, cache on and
/// off — end-to-end migration accounting coherence (counters, energy,
/// promotion stalls) with the hit-rate gain tiering buys at an equal
/// HBM budget, run-to-run determinism with migration on, and the order
/// in which one mixed iteration applies its decode lanes, promotion
/// stall and prompt passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/spatten_accelerator.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "serve/kv_pool.hpp"

namespace spatten {
namespace {

/// Same tiny 4-layer model as the kv_pool suite: kvBytesPerToken =
/// 2*4*4*64*2 = 4096 B, so a 16-token block is 64 KiB.
ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

constexpr std::uint64_t kBlockBytes = 16ull * 4096;

std::vector<std::uint64_t>
prompt(std::uint64_t stream, std::size_t tokens)
{
    std::vector<std::uint64_t> p;
    p.reserve(tokens);
    for (std::size_t i = 0; i < tokens; ++i)
        p.push_back(stream * 0x100000001ULL + i);
    return p;
}

// ---------------------------------------------------------------------
// Pool level: migration semantics
// ---------------------------------------------------------------------

TEST(KvTierPool, ColdBlocksDemoteThenPromoteOnReReference)
{
    const ModelSpec m = tinyModel();
    KvPool pool({4 * kBlockBytes, 16, 2, 64, 4 * kBlockBytes});
    const auto a = prompt(40, 64); // 4 blocks.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    pool.release(0);
    EXPECT_EQ(pool.coldBytes(), 4 * kBlockBytes);

    // A full-budget private reservation demotes every cold block to
    // DRAM instead of dropping it: the prefix index keeps all four.
    ASSERT_TRUE(pool.tryReserve(1, m, 64));
    EXPECT_EQ(pool.demotedBlocks(), 4u);
    EXPECT_EQ(pool.demotedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.evictedBlocks(), 0u);
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.dramUsedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.dramPeakBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.cachedBlocks(), 4u);
    EXPECT_EQ(pool.coldBytes(), 0u);
    pool.release(1);
    EXPECT_EQ(pool.usedBytes(), 0u);

    // A prefix re-reference promotes the whole chain back to HBM and
    // reports the migrated bytes for the scheduler to price.
    const auto r2 = pool.tryReservePrefix(2, m, a);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.cached_tokens, 64u);
    EXPECT_EQ(r2.shared_bytes, 4 * kBlockBytes);
    EXPECT_EQ(r2.promoted_bytes, 4 * kBlockBytes);
    EXPECT_EQ(pool.promotedBlocks(), 4u);
    EXPECT_EQ(pool.promotedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.dramUsedBytes(), 0u);
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);

    // Promoted blocks are ordinary hot blocks again: a second holder
    // maps them copy-free with no further migration.
    const auto r3 = pool.tryReservePrefix(3, m, a);
    ASSERT_TRUE(r3.ok);
    EXPECT_EQ(r3.cached_tokens, 64u);
    EXPECT_EQ(r3.promoted_bytes, 0u);
    pool.release(2);
    pool.release(3);
}

TEST(KvTierPool, PromotionGatedByHotBudgetRollsBackCleanly)
{
    const ModelSpec m = tinyModel();
    KvPool pool({4 * kBlockBytes, 16, 2, 64, 4 * kBlockBytes});
    const auto a = prompt(41, 64); // 4 blocks.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    pool.release(0);
    ASSERT_TRUE(pool.tryReserve(1, m, 64)); // Demotes all 4 to DRAM.
    ASSERT_EQ(pool.dramUsedBytes(), 4 * kBlockBytes);

    // The hot tier is fully held: promoting the 4-block chain cannot
    // fit, so the admission must fail and restore the DRAM tier.
    const auto r2 = pool.tryReservePrefix(2, m, a);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(pool.promotedBlocks(), 0u);
    EXPECT_EQ(pool.dramUsedBytes(), 4 * kBlockBytes)
        << "failed admission must leave the cold tier untouched";
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);

    // Once the holder leaves, the identical admission succeeds by
    // promotion — proving the rollback kept the blocks matchable.
    pool.release(1);
    const auto r3 = pool.tryReservePrefix(3, m, a);
    ASSERT_TRUE(r3.ok);
    EXPECT_EQ(r3.cached_tokens, 64u);
    EXPECT_EQ(r3.promoted_bytes, 4 * kBlockBytes);
    pool.release(3);
}

TEST(KvTierPool, BlockLargerThanDramBudgetFallsBackToEviction)
{
    const ModelSpec m = tinyModel();
    // A cold tier smaller than one block can never hold anything:
    // tiering is on, but every reclaim must be a true eviction.
    KvPool pool({2 * kBlockBytes, 16, 2, 64, kBlockBytes / 2});
    ASSERT_TRUE(pool.tryReservePrefix(0, m, prompt(42, 32)).ok);
    pool.release(0);
    ASSERT_TRUE(pool.tryReserve(1, m, 32));
    EXPECT_EQ(pool.demotedBlocks(), 0u);
    EXPECT_EQ(pool.evictedBlocks(), 2u);
    EXPECT_EQ(pool.dramUsedBytes(), 0u);
    EXPECT_EQ(pool.cachedBlocks(), 0u);
    pool.release(1);
}

// ---------------------------------------------------------------------
// Scheduler level
// ---------------------------------------------------------------------

ArrivalTraceConfig
tinyTraceConfig(std::size_t n = 16, std::uint64_t seed = 0x5eed)
{
    ArrivalTraceConfig tc;
    tc.num_requests = n;
    tc.mean_interarrival_s = 0.1e-3;
    tc.seed = seed;
    tc.model = tinyModel();
    tc.min_prompt = 48;
    tc.max_prompt = 160;
    tc.min_output = 2;
    tc.max_output = 8;
    return tc;
}

/// The demotion-pressure regime the bench sweeps: many distinct system
/// prompts re-referenced by follow-ups under a tight HBM budget, so
/// the flat pool must evict prefixes that tiering could have kept.
std::vector<TracedRequest>
churningSharedPrefixTrace(std::size_t n = 32)
{
    SharedPrefixTraceConfig sp;
    sp.base = tinyTraceConfig(n);
    sp.base.mean_interarrival_s = 0.05e-3;
    sp.num_system_prompts = 8;
    sp.system_prompt_tokens = 128;
    sp.followup_prob = 0.5;
    sp.user_turn_min = 8;
    sp.user_turn_max = 32;
    sp.max_prompt_tokens = 512;
    return generateSharedPrefixTrace(sp);
}

ContinuousBatchConfig
tightCachingConfig(const std::vector<TracedRequest>& trace)
{
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.enable_prefix_caching = true;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.25, sc);
    return sc;
}

ServeReport
serve(const std::vector<TracedRequest>& trace,
      const ContinuousBatchConfig& sc)
{
    return ContinuousBatchScheduler(SpAttenConfig{}, sc).run(trace);
}

/// Full-report bit-identity (the chunked-prefill suite's contract plus
/// the tier counters).
void
expectSameReport(const ServeReport& a, const ServeReport& b)
{
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recompute_tokens, b.recompute_tokens);
    EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
    EXPECT_EQ(a.accel_busy_s, b.accel_busy_s);
    EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
    EXPECT_EQ(a.kv_dram_peak_bytes, b.kv_dram_peak_bytes);
    EXPECT_EQ(a.prefix_cache_hits, b.prefix_cache_hits);
    EXPECT_EQ(a.prefix_cached_tokens, b.prefix_cached_tokens);
    EXPECT_EQ(a.kv_evicted_blocks, b.kv_evicted_blocks);
    EXPECT_EQ(a.kv_demoted_blocks, b.kv_demoted_blocks);
    EXPECT_EQ(a.kv_promoted_blocks, b.kv_promoted_blocks);
    EXPECT_EQ(a.kv_migrated_bytes, b.kv_migrated_bytes);
    EXPECT_EQ(a.migration_energy_j, b.migration_energy_j);
    EXPECT_EQ(a.promotion_stall_s, b.promotion_stall_s);
    EXPECT_EQ(a.queue_delay_p50_s, b.queue_delay_p50_s);
    EXPECT_EQ(a.queue_delay_p99_s, b.queue_delay_p99_s);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].admit_s, b.requests[i].admit_s);
        EXPECT_EQ(a.requests[i].first_token_s,
                  b.requests[i].first_token_s);
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
        EXPECT_EQ(a.requests[i].token_times_s,
                  b.requests[i].token_times_s);
        EXPECT_EQ(a.requests[i].service_seconds,
                  b.requests[i].service_seconds);
        EXPECT_EQ(a.requests[i].kv_trace, b.requests[i].kv_trace);
    }
}

TEST(TieredServe, TieringOffReplaysSingleTierSchedulerBitIdentically)
{
    // The golden of this PR: far_memory at capacity 0 must be
    // invisible — whatever the other far-memory knobs say — with the
    // cache off AND on, under the same memory pressure that exercises
    // eviction. Pinned against the default-config scheduler the PR-6
    // goldens cover, so a tiering-path leak into the legacy path
    // breaks this test before it breaks the golden suite.
    const auto trace = churningSharedPrefixTrace();
    for (const bool caching : {false, true}) {
        ContinuousBatchConfig sc = tightCachingConfig(trace);
        sc.enable_prefix_caching = caching;
        const ServeReport flat = serve(trace, sc);

        ContinuousBatchConfig tiered_off = sc;
        tiered_off.far_memory.capacity_gb = 0.0; // Off…
        tiered_off.far_memory.bandwidth_gbs = 0.125; // …and the other
        tiered_off.far_memory.latency_us = 9999.0;   // knobs inert.
        const ServeReport off = serve(trace, tiered_off);
        expectSameReport(flat, off);
        EXPECT_EQ(off.kv_dram_capacity_bytes, 0u);
        EXPECT_EQ(off.kv_demoted_blocks, 0u);
        EXPECT_EQ(off.kv_promoted_blocks, 0u);
        EXPECT_EQ(off.kv_migrated_bytes, 0u);
        EXPECT_EQ(off.migration_energy_j, 0.0);
        EXPECT_EQ(off.promotion_stall_s, 0.0);
    }
}

TEST(TieredServe, MigrationAccountingIsCoherentAndRaisesHitRate)
{
    const auto trace = churningSharedPrefixTrace();
    const ContinuousBatchConfig flat_sc = tightCachingConfig(trace);
    const ServeReport flat = serve(trace, flat_sc);
    ASSERT_GT(flat.kv_evicted_blocks, 0u)
        << "the fixture must churn the flat cache, or the comparison "
           "is vacuous";

    ContinuousBatchConfig sc = flat_sc;
    sc.far_memory.capacity_gb = 64.0 / 1024.0; // 64 MiB cold tier.
    const ServeReport tiered = serve(trace, sc);

    // Hybrid2's bargain at an equal HBM budget: prefixes survive in
    // DRAM, so more admissions hit — paid in migration traffic.
    EXPECT_GT(tiered.prefix_cached_tokens, flat.prefix_cached_tokens);
    EXPECT_GT(tiered.kv_demoted_blocks, 0u);
    EXPECT_GT(tiered.kv_promoted_blocks, 0u);
    EXPECT_EQ(tiered.kv_migrated_bytes,
              tiered.kv_demoted_bytes + tiered.kv_promoted_bytes);
    EXPECT_EQ(tiered.kv_dram_capacity_bytes, 64ull << 20);

    // Migrations cost energy (far_bit_energy_pj = 20 pJ/bit, inside
    // the total) and promotions cost admitting-request time.
    EXPECT_DOUBLE_EQ(tiered.migration_energy_j,
                     static_cast<double>(tiered.kv_migrated_bytes) *
                         8.0 * 20.0 * 1e-12);
    EXPECT_GT(tiered.migration_energy_j, 0.0);
    EXPECT_GT(tiered.promotion_stall_s, 0.0);

    // Every request still finishes, and the per-slot DRAM peak is
    // visible and bounded by the configured tier.
    for (const ServedRequest& req : tiered.requests)
        EXPECT_EQ(req.phase, RequestPhase::Finished);
    ASSERT_FALSE(tiered.kv_dram_peak_bytes.empty());
    std::uint64_t dram_peak = 0;
    for (const std::uint64_t p : tiered.kv_dram_peak_bytes)
        dram_peak = std::max(dram_peak, p);
    EXPECT_GT(dram_peak, 0u);
    EXPECT_LE(dram_peak, tiered.kv_dram_capacity_bytes);
}

TEST(TieredServe, PromotionLatencyFollowsTheFarMemoryKnobs)
{
    // Same trace, slower link: identical migration byte counts, but
    // every promotion burst costs more admitting-request time. The
    // knobs must actually reach the timeline, not just the report.
    const auto trace = churningSharedPrefixTrace();
    ContinuousBatchConfig sc = tightCachingConfig(trace);
    sc.far_memory.capacity_gb = 64.0 / 1024.0;
    const ServeReport fast = serve(trace, sc);
    ASSERT_GT(fast.kv_promoted_blocks, 0u);

    sc.far_memory.bandwidth_gbs = 1.0;
    sc.far_memory.latency_us = 50.0;
    const ServeReport slow = serve(trace, sc);
    EXPECT_GT(slow.promotion_stall_s, fast.promotion_stall_s);
    EXPECT_GT(slow.ttft_p99_s, 0.0);
}

TEST(TieredServe, TieredRepeatedRunsAreIdentical)
{
    const auto trace = churningSharedPrefixTrace();
    ContinuousBatchConfig sc = tightCachingConfig(trace);
    sc.far_memory.capacity_gb = 64.0 / 1024.0;
    const ServeReport ref = serve(trace, sc);
    ASSERT_GT(ref.kv_migrated_bytes, 0u);
    expectSameReport(ref, serve(trace, sc));
}

// ---------------------------------------------------------------------
// Iteration apply order
// ---------------------------------------------------------------------

constexpr double kPromptPassS = 1e-3; ///< Every prompt pass, any length.
constexpr double kDecodeStepS = 1e-6; ///< Every decode step.

/// A dense-KV session whose passes cost fixed simulated time, so each
/// timestamp of a run says exactly which passes preceded it.
class FixedCostSession : public BackendSession
{
  public:
    explicit FixedCostSession(const WorkloadSpec& w) : w_(w) {}

    double prefillChunk(std::size_t offset, std::size_t len) override
    {
        SPATTEN_ASSERT(offset == pos_ || (pos_ == 0 && offset > 0),
                       "chunk at %zu after %zu", offset, pos_);
        pos_ = offset + len;
        if (prefilled())
            kv_trace_.push_back(kvLength());
        return kPromptPassS;
    }
    double decodeStep() override
    {
        ++tokens_;
        kv_trace_.push_back(kvLength());
        return kDecodeStepS;
    }
    bool prefilled() const override { return pos_ == w_.summarize_len; }
    bool done() const override
    {
        return prefilled() && tokens_ == w_.generate_len;
    }
    std::size_t kvLength() const override { return pos_ + tokens_; }
    const std::vector<std::size_t>& kvTrace() const override
    {
        return kv_trace_;
    }
    const WorkloadSpec& workload() const override { return w_; }
    RunResult finalize() const override { return {}; }

  private:
    WorkloadSpec w_;
    std::size_t pos_ = 0;
    std::size_t tokens_ = 0;
    std::vector<std::size_t> kv_trace_;
};

class FixedCostBackend : public AcceleratorBackend
{
  public:
    std::string backendName() const override { return "fixed-cost"; }
    BackendCapabilities capabilities() const override { return {}; }
    std::uint64_t capacityBytes() const override { return 1ull << 30; }
    std::size_t kvBytesPerElem() const override { return 2; }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& w, const PruningPolicy&,
                std::uint64_t) const override
    {
        return std::make_unique<FixedCostSession>(w);
    }
};

TracedRequest
fixedRequest(std::size_t id, double arrival_s, std::size_t prompt_len,
             std::size_t generate_len,
             std::vector<std::uint64_t> content = {})
{
    TracedRequest r;
    r.id = id;
    r.arrival_s = arrival_s;
    r.workload.name = "fixed-" + std::to_string(id);
    r.workload.model = tinyModel();
    r.workload.summarize_len = prompt_len;
    r.workload.generate_len = generate_len;
    r.prompt_tokens = std::move(content);
    return r;
}

TEST(IterationOrder, DecodeLanesThenPromotionStallThenPromptPassesInGrantOrder)
{
    // One 16-block HBM slot, a DRAM tier, 32-token chunks:
    //  P (t=0)    caches a 2-block prompt and leaves it cold in HBM;
    //  Q (t=2ms)  fills all 16 blocks, demoting P's blocks to DRAM;
    //  A, B (20ms) prefill together, then decode;
    //  C, D (21ms) join A and B's first decode iteration at 22ms. C hits
    //             P's blocks in DRAM (promotion stall) and needs one
    //             16-token pass; D's 48-token prompt takes a partial
    //             32-token pass.
    std::vector<TracedRequest> trace;
    trace.push_back(fixedRequest(0, 0.0, 32, 0, prompt(7, 32)));   // P
    trace.push_back(fixedRequest(1, 2e-3, 256, 0));                // Q
    trace.push_back(fixedRequest(2, 20e-3, 16, 3));                // A
    trace.push_back(fixedRequest(3, 20e-3, 16, 3));                // B
    trace.push_back(fixedRequest(4, 21e-3, 48, 0, prompt(7, 48))); // C
    trace.push_back(fixedRequest(5, 21e-3, 48, 1));                // D

    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.enable_prefix_caching = true;
    sc.kv_capacity_bytes = 16 * kBlockBytes;
    sc.far_memory.capacity_gb = 64.0 / 1024.0;
    sc.prefill_chunk_tokens = 32;
    const ServeReport rep =
        ContinuousBatchScheduler(
            AcceleratorFleet{std::make_shared<const FixedCostBackend>()},
            sc)
            .run(trace);
    const ServedRequest& a = rep.requests[2];
    const ServedRequest& b = rep.requests[3];
    const ServedRequest& c = rep.requests[4];
    const ServedRequest& d = rep.requests[5];

    // The fixture: both of P's blocks went to DRAM and came back for C.
    ASSERT_EQ(rep.kv_promoted_bytes, 2 * kBlockBytes);
    ASSERT_EQ(c.cached_prefix_tokens, 32u);
    ASSERT_EQ(a.admit_s, 20e-3);
    const double stall = sc.far_memory.transferSeconds(2 * kBlockBytes);
    ASSERT_GT(stall, 0.0);
    EXPECT_EQ(rep.promotion_stall_s, stall);

    // Replay the mixed iteration's clock in the scheduler's own
    // accumulation order; every comparison is exact.
    double t = 20e-3;
    t += kPromptPassS; // A's prompt.
    t += kPromptPassS; // B's prompt.
    EXPECT_EQ(c.admit_s, t);
    EXPECT_EQ(d.admit_s, t);
    t += kDecodeStepS; // Decode lanes in admission order: A, then B.
    EXPECT_EQ(a.token_times_s.at(0), t);
    t += kDecodeStepS;
    EXPECT_EQ(b.token_times_s.at(0), t);
    t += stall; // C's promotion lands before its first prompt pass.
    t += kPromptPassS;
    EXPECT_EQ(c.finish_s, t) << "C's pass runs right after the stall";
    EXPECT_EQ(c.service_seconds, stall + kPromptPassS);
    t += kPromptPassS; // D's partial pass, granted after C's.
    t += kDecodeStepS; // Next iteration: A's second token.
    EXPECT_EQ(a.token_times_s.at(1), t);
    EXPECT_EQ(d.prefill_chunks, 2u);
    for (const ServedRequest& r : rep.requests)
        EXPECT_EQ(r.phase, RequestPhase::Finished);
}

} // namespace
} // namespace spatten
