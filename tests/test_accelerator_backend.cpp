/// The AcceleratorBackend serving contract: capability/capacity
/// reporting of all four backend types, dense-KV session semantics of
/// the baseline adapters (A3, MNNFast, platforms), equivalence of the
/// legacy all-SpAtten constructor and an explicit homogeneous fleet,
/// heterogeneous SpAtten+A3 fleets end-to-end (completion, run-to-run
/// bit-identity, KV pressure with per-type budgets), capability-aware
/// placement, and the tie-break regression: permuting equal-load fleet
/// slots (distinct but identical backend instances) never changes
/// placement, because every selection point breaks ties by slot index,
/// never by instance identity.
#include <gtest/gtest.h>

#include <memory>

#include "accel/spatten_accelerator.hpp"
#include "baselines/baseline_backends.hpp"
#include "serve/continuous_batch_scheduler.hpp"

namespace spatten {

/// Prints a backend parameter by name. gtest's default printer for a
/// shared_ptr shows its heap address, which ends up in the ctest names
/// of the parameterized tests and changes with every build and run.
void
PrintTo(const std::shared_ptr<const AcceleratorBackend>& backend,
        std::ostream* os)
{
    *os << backend->backendName();
}

namespace {

/// A small 4-layer model keeps each run to milliseconds of host time.
ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

WorkloadSpec
tinyWorkload(std::size_t prompt = 64, std::size_t output = 4)
{
    WorkloadSpec w;
    w.name = "tiny-backend";
    w.model = tinyModel();
    w.summarize_len = prompt;
    w.generate_len = output;
    return w;
}

ArrivalTraceConfig
tinyTraceConfig(std::size_t n = 16, std::uint64_t seed = 0x5eed)
{
    ArrivalTraceConfig tc;
    tc.num_requests = n;
    tc.mean_interarrival_s = 0.2e-3;
    tc.seed = seed;
    tc.model = tinyModel();
    tc.min_prompt = 48;
    tc.max_prompt = 160;
    tc.min_output = 2;
    tc.max_output = 8;
    return tc;
}

/// Every backend type under test, freshly constructed.
std::vector<std::shared_ptr<const AcceleratorBackend>>
allBackends()
{
    return {std::make_shared<const SpAttenAccelerator>(),
            std::make_shared<const A3Backend>(),
            std::make_shared<const MnnFastBackend>(),
            std::make_shared<const PlatformBackend>()};
}

// ---------------------------------------------------------------------
// Static contract: names, capabilities, capacities, KV widths
// ---------------------------------------------------------------------

TEST(AcceleratorBackend, CapabilityAndCapacityContract)
{
    const SpAttenAccelerator spatten;
    EXPECT_EQ(spatten.backendName(), "spatten");
    EXPECT_TRUE(spatten.capabilities().cascade_pruning);
    EXPECT_TRUE(spatten.capabilities().progressive_quant);
    EXPECT_TRUE(spatten.capabilities().dram_savings);
    EXPECT_EQ(spatten.capacityBytes(),
              spatten.config().hbm.capacityBytes());
    EXPECT_EQ(spatten.kvBytesPerElem(), 2u);

    const A3Backend a3;
    EXPECT_EQ(a3.backendName(), "a3");
    EXPECT_FALSE(a3.capabilities().cascade_pruning);
    EXPECT_FALSE(a3.capabilities().dram_savings);
    EXPECT_EQ(a3.capacityBytes(), kBaselineCapacityBytes);
    EXPECT_EQ(a3.kvBytesPerElem(), 2u);

    const MnnFastBackend mnnfast;
    EXPECT_EQ(mnnfast.backendName(), "mnnfast");
    EXPECT_FALSE(mnnfast.capabilities().cascade_pruning);

    const PlatformBackend gpu(PlatformSpec::titanXp());
    EXPECT_EQ(gpu.backendName(), "titan-xp");
    EXPECT_FALSE(gpu.capabilities().cascade_pruning);
    EXPECT_EQ(gpu.kvBytesPerElem(), 4u) << "fp32 platform KV";

    const A3Backend small_a3(A3Config{}, 1ull << 20);
    EXPECT_EQ(small_a3.capacityBytes(), 1ull << 20)
        << "capacity override must stick";
}

TEST(AcceleratorBackend, KvBytesPerTokenFollowsElemWidth)
{
    const ModelSpec m = tinyModel(); // 2*4*4*64 = 2048 elems per token.
    const A3Backend a3;
    const PlatformBackend gpu(PlatformSpec::titanXp());
    EXPECT_EQ(a3.kvBytesPerToken(m), 2048u * 2);
    EXPECT_EQ(gpu.kvBytesPerToken(m), 2048u * 4)
        << "fp32 KV charges double the fp16-equivalent layout";
}

// ---------------------------------------------------------------------
// Dense-KV baseline sessions
// ---------------------------------------------------------------------

class BaselineSessionTest
    : public ::testing::TestWithParam<
          std::shared_ptr<const AcceleratorBackend>>
{
};

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineSessionTest,
    ::testing::Values(std::make_shared<const A3Backend>(),
                      std::make_shared<const MnnFastBackend>(),
                      std::make_shared<const PlatformBackend>(
                          PlatformSpec::titanXp()),
                      std::make_shared<const PlatformBackend>(
                          PlatformSpec::xeon())),
    [](const auto& param_info) {
        std::string name = param_info.param->backendName();
        for (char& c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST_P(BaselineSessionTest, DenseKvGrowsByExactlyOnePerStep)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(64, 6);
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    EXPECT_FALSE(s->prefilled());
    EXPECT_FALSE(s->done());
    EXPECT_GT(s->prefill(), 0.0);
    EXPECT_TRUE(s->prefilled());
    EXPECT_EQ(s->kvLength(), w.summarize_len)
        << "no prompt pruning on a dense-KV baseline";
    for (std::size_t t = 0; t < w.generate_len; ++t) {
        EXPECT_FALSE(s->done());
        EXPECT_GT(s->decodeStep(), 0.0);
        EXPECT_EQ(s->kvLength(), w.summarize_len + t + 1)
            << "dense KV grows by exactly one token per step";
    }
    EXPECT_TRUE(s->done());
    ASSERT_EQ(s->kvTrace().size(), w.generate_len + 1);
}

TEST_P(BaselineSessionTest, FinalizeIsCoherentAndShowsNoDramSavings)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(96, 4);
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    double elapsed = s->prefill();
    while (!s->done())
        elapsed += s->decodeStep();
    const RunResult r = s->finalize();
    EXPECT_EQ(r.workload, w.name);
    EXPECT_NEAR(r.seconds, elapsed, 1e-15);
    EXPECT_GT(r.summarize_seconds, 0.0);
    EXPECT_GT(r.generate_seconds, 0.0);
    EXPECT_NEAR(r.seconds, r.summarize_seconds + r.generate_seconds,
                1e-15);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.attention_flops, 0.0);
    EXPECT_LE(r.attention_flops, r.attention_flops_dense)
        << "executed work can only shrink vs dense";
    EXPECT_GT(r.dram_bytes, 0.0);
    EXPECT_DOUBLE_EQ(r.dramReduction(), 1.0)
        << "baselines fetch everything before pruning decisions";
    EXPECT_GT(r.energy.totalJ(), 0.0);
    EXPECT_NEAR(r.energy.seconds, r.seconds, 1e-15);
}

TEST_P(BaselineSessionTest, SessionsAreDeterministic)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(80, 5);
    const auto run = [&] {
        const auto s = backend->makeSession(w, PruningPolicy{}, 7);
        std::vector<double> times{s->prefill()};
        while (!s->done())
            times.push_back(s->decodeStep());
        return std::make_pair(times, s->finalize());
    };
    const auto [ta, ra] = run();
    const auto [tb, rb] = run();
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.dram_bytes, rb.dram_bytes);
    EXPECT_EQ(ra.energy.totalJ(), rb.energy.totalJ());
}

TEST_P(BaselineSessionTest, SkipSummarizationChargesNoPrefill)
{
    const auto& backend = GetParam();
    WorkloadSpec w = tinyWorkload(96, 2);
    w.skip_summarization = true;
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    EXPECT_EQ(s->prefill(), 0.0);
    EXPECT_EQ(s->kvLength(), w.summarize_len)
        << "the pre-summarized prompt KV is resident regardless";
    EXPECT_GT(s->decodeStep(), 0.0);
}

TEST_P(BaselineSessionTest, ZeroTokenRequestIsDoneAtPrefill)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(48, 0);
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    s->prefill();
    EXPECT_TRUE(s->done());
}

TEST(BaselineSessions, DecodeStepCostGrowsWithContext)
{
    // Dense attention: a later step attends to a strictly larger
    // context, so per-step cost is non-decreasing — the opposite of
    // SpAtten's pruned-KV trajectory.
    for (const auto& backend : {allBackends()[1], allBackends()[2]}) {
        const WorkloadSpec w = tinyWorkload(64, 8);
        const auto s = backend->makeSession(w, PruningPolicy{}, 1);
        s->prefill();
        double prev = 0.0;
        while (!s->done()) {
            const double step = s->decodeStep();
            EXPECT_GE(step, prev) << backend->backendName();
            prev = step;
        }
    }
}

// ---------------------------------------------------------------------
// Homogeneous fleet == legacy constructor
// ---------------------------------------------------------------------

TEST(HeterogeneousFleet, ExplicitSpattenFleetMatchesLegacyConstructor)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(16));
    ContinuousBatchConfig sc;
    sc.num_accelerators = 3;
    sc.max_active = 4;
    const ServeReport legacy =
        ContinuousBatchScheduler(SpAttenConfig{}, sc).run(trace);

    const AcceleratorFleet fleet(
        3, std::make_shared<const SpAttenAccelerator>());
    const ServeReport explicit_fleet =
        ContinuousBatchScheduler(fleet, sc).run(trace);

    ASSERT_EQ(explicit_fleet.requests.size(), legacy.requests.size());
    for (std::size_t i = 0; i < legacy.requests.size(); ++i) {
        const ServedRequest& a = legacy.requests[i];
        const ServedRequest& b = explicit_fleet.requests[i];
        EXPECT_EQ(a.accel, b.accel);
        EXPECT_EQ(a.admit_s, b.admit_s);
        EXPECT_EQ(a.finish_s, b.finish_s);
        EXPECT_EQ(a.token_times_s, b.token_times_s);
        EXPECT_EQ(a.sim.cycles, b.sim.cycles);
        EXPECT_EQ(a.kv_trace, b.kv_trace);
    }
    EXPECT_EQ(legacy.makespan_s, explicit_fleet.makespan_s);
    EXPECT_EQ(legacy.total_cycles, explicit_fleet.total_cycles);
    EXPECT_EQ(explicit_fleet.accel_names,
              (std::vector<std::string>{"spatten", "spatten", "spatten"}));
}

// ---------------------------------------------------------------------
// Mixed fleets end-to-end
// ---------------------------------------------------------------------

AcceleratorFleet
mixedFleet()
{
    return {std::make_shared<const SpAttenAccelerator>(
                SpAttenConfig::eighth()),
            std::make_shared<const SpAttenAccelerator>(
                SpAttenConfig::eighth()),
            std::make_shared<const A3Backend>()};
}

TEST(HeterogeneousFleet, MixedSpattenA3FleetServesEveryRequest)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(20));
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    const ServeReport r =
        ContinuousBatchScheduler(mixedFleet(), sc).run(trace);
    EXPECT_EQ(r.accel_names,
              (std::vector<std::string>{"spatten", "spatten", "a3"}));
    std::size_t on_a3 = 0;
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        EXPECT_EQ(req.tokens, trace[req.id].workload.generate_len);
        ASSERT_GE(req.accel, 0);
        ASSERT_LT(req.accel, 3);
        if (req.accel == 2) {
            ++on_a3;
            // A dense-KV slot: the KV trace grows by one per token.
            for (std::size_t t = 1; t < req.kv_trace.size(); ++t)
                EXPECT_EQ(req.kv_trace[t], req.kv_trace[t - 1] + 1);
        }
    }
    EXPECT_GT(on_a3, 0u) << "least-loaded must route work to every slot";
}

TEST(HeterogeneousFleet, MixedFleetRepeatedRunsAreIdentical)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(16));
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    const auto fleet = mixedFleet();
    const ServeReport ref =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    const ServeReport r = ContinuousBatchScheduler(fleet, sc).run(trace);
    EXPECT_EQ(r.makespan_s, ref.makespan_s);
    ASSERT_EQ(r.requests.size(), ref.requests.size());
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
        EXPECT_EQ(r.requests[i].accel, ref.requests[i].accel);
        EXPECT_EQ(r.requests[i].finish_s, ref.requests[i].finish_s);
        EXPECT_EQ(r.requests[i].token_times_s,
                  ref.requests[i].token_times_s);
        EXPECT_EQ(r.requests[i].sim.cycles, ref.requests[i].sim.cycles);
    }
}

TEST(HeterogeneousFleet, PerSlotBudgetsDeriveFromEachBackend)
{
    const AcceleratorFleet fleet{
        std::make_shared<const SpAttenAccelerator>(),
        std::make_shared<const A3Backend>(A3Config{}, 3ull << 30)};
    ContinuousBatchConfig sc;
    const auto trace = generatePoissonTrace(tinyTraceConfig(4));
    const ServeReport r =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    EXPECT_EQ(r.kv_capacity_bytes, 0u)
        << "no uniform budget exists for unequal capacities";
    ASSERT_EQ(r.accel_kv_capacity_bytes.size(), 2u);
    EXPECT_EQ(r.accel_kv_capacity_bytes[0],
              SpAttenConfig{}.hbm.capacityBytes());
    EXPECT_EQ(r.accel_kv_capacity_bytes[1], 3ull << 30);
}

TEST(HeterogeneousFleet, MixedFleetUnderKvPressurePreemptsAndFinishes)
{
    // Saturating dense-output demand under a budget sized 1.5x the
    // worst request at the widest KV element of the fleet (2 B here):
    // the dense-KV A3 slot must hit growth pressure and recover.
    auto tc = tinyTraceConfig(12);
    tc.mean_interarrival_s = 1e-6;
    tc.policy = PruningPolicy::disabled();
    tc.min_output = 16;
    tc.max_output = 32;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.kv_block_tokens = 4;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.5, sc, 2);
    const ServeReport r =
        ContinuousBatchScheduler(mixedFleet(), sc).run(trace);
    EXPECT_GE(r.preemptions, 1u)
        << "dense KV growth must outgrow the capped pools";
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        EXPECT_EQ(req.tokens, trace[req.id].workload.generate_len);
    }
    for (std::size_t a = 0; a < r.kv_peak_bytes.size(); ++a)
        EXPECT_LE(r.kv_peak_bytes[a], sc.kv_capacity_bytes)
            << "no pool may exceed its budget";
}

TEST(HeterogeneousFleet, SparseTraceIdsAreServedByPosition)
{
    // A trace sliced out of a larger one keeps its original ids, so
    // ids need not be dense 0..n-1 positions: every internal structure
    // (round-robin pins, capability classes, KV preconditions) must
    // index by position, never by TracedRequest::id.
    std::vector<TracedRequest> trace;
    for (std::size_t i = 0; i < 3; ++i) {
        TracedRequest req;
        req.id = 5 + 4 * i; // ids {5, 9, 13} in a 3-element trace.
        req.arrival_s = 1e-6 * static_cast<double>(i + 1);
        req.workload = tinyWorkload(i == 0 ? 192 : 64, 2);
        req.seed = 17 + i;
        trace.push_back(req);
    }
    for (const ShardPolicy shard :
         {ShardPolicy::RoundRobin, ShardPolicy::LeastLoaded,
          ShardPolicy::CapabilityAware}) {
        ContinuousBatchConfig sc;
        sc.shard = shard;
        sc.long_prompt_threshold = 128;
        const ServeReport r =
            ContinuousBatchScheduler(mixedFleet(), sc).run(trace);
        ASSERT_EQ(r.requests.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(r.requests[i].id, trace[i].id);
            EXPECT_EQ(r.requests[i].phase, RequestPhase::Finished);
            EXPECT_EQ(r.requests[i].tokens,
                      trace[i].workload.generate_len);
        }
    }
}

// ---------------------------------------------------------------------
// Capability-aware placement
// ---------------------------------------------------------------------

TEST(HeterogeneousFleet, CapabilityAwareKeepsLongPromptsOnPruningSlots)
{
    auto tc = tinyTraceConfig(24);
    tc.min_prompt = 32;
    tc.max_prompt = 256;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    sc.shard = ShardPolicy::CapabilityAware;
    sc.long_prompt_threshold = 128;
    const auto fleet = mixedFleet(); // Slots 0-1 prune, slot 2 (a3) not.
    const ServeReport r = ContinuousBatchScheduler(fleet, sc).run(trace);
    bool any_long = false, any_on_a3 = false;
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        const bool is_long =
            trace[req.id].workload.summarize_len >=
            sc.long_prompt_threshold;
        any_long |= is_long;
        any_on_a3 |= req.accel == 2;
        if (is_long) {
            EXPECT_LT(req.accel, 2)
                << "long prompt " << req.id
                << " must land on a cascade-pruning slot";
        }
    }
    EXPECT_TRUE(any_long) << "the probe trace must contain long prompts";
    EXPECT_TRUE(any_on_a3) << "short prompts must reach the dense slot";
}

TEST(HeterogeneousFleet, CapabilityAwareDegradesToLeastLoadedWithoutPruners)
{
    // An all-dense fleet has no pruning slot: every request is
    // short-class and the schedule must equal plain LeastLoaded.
    const auto trace = generatePoissonTrace(tinyTraceConfig(12));
    const AcceleratorFleet fleet(2,
                                 std::make_shared<const A3Backend>());
    ContinuousBatchConfig sc;
    sc.max_active = 2;
    sc.long_prompt_threshold = 1; // Everything would be "long".
    sc.shard = ShardPolicy::CapabilityAware;
    const ServeReport cap =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    sc.shard = ShardPolicy::LeastLoaded;
    const ServeReport ll =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    ASSERT_EQ(cap.requests.size(), ll.requests.size());
    for (std::size_t i = 0; i < cap.requests.size(); ++i) {
        EXPECT_EQ(cap.requests[i].accel, ll.requests[i].accel);
        EXPECT_EQ(cap.requests[i].finish_s, ll.requests[i].finish_s);
    }
}

// ---------------------------------------------------------------------
// Tie-breaking: placement is a function of the slot index only
// ---------------------------------------------------------------------

TEST(HeterogeneousFleet, EqualLoadTieBreakIsDeterministicBySlotIndex)
{
    // Equal-load slots: distinct (separately constructed) but identical
    // backend instances. If any selection point tie-broke on instance
    // identity (e.g. a pointer), constructing the instances in a
    // different order could flip placements; by contract placement
    // depends on the slot index alone, so the full reports must match
    // bit for bit — including under least-loaded ties from a burst of
    // simultaneous arrivals.
    auto tc = tinyTraceConfig(16);
    tc.mean_interarrival_s = 1e-6; // Everyone arrives ~at once.
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 2;
    sc.shard = ShardPolicy::LeastLoaded;

    AcceleratorFleet first, second;
    for (std::size_t a = 0; a < 3; ++a)
        first.push_back(std::make_shared<const SpAttenAccelerator>());
    // "Permute" the equal-load slots: same configs, instances created
    // in reverse and inserted front-most-recent.
    for (std::size_t a = 0; a < 3; ++a)
        second.insert(second.begin(),
                      std::make_shared<const SpAttenAccelerator>());

    const ServeReport ra = ContinuousBatchScheduler(first, sc).run(trace);
    const ServeReport rb =
        ContinuousBatchScheduler(second, sc).run(trace);
    ASSERT_EQ(ra.requests.size(), rb.requests.size());
    for (std::size_t i = 0; i < ra.requests.size(); ++i) {
        EXPECT_EQ(ra.requests[i].accel, rb.requests[i].accel)
            << "placement of request " << i
            << " changed under an equal-load slot permutation";
        EXPECT_EQ(ra.requests[i].admit_s, rb.requests[i].admit_s);
        EXPECT_EQ(ra.requests[i].finish_s, rb.requests[i].finish_s);
    }
    EXPECT_EQ(ra.makespan_s, rb.makespan_s);
    EXPECT_EQ(ra.accel_requests, rb.accel_requests);

    // And the assignment itself is the lowest-index-first fill the
    // index tie-break implies: with simultaneous arrivals the first
    // admissions land on slot 0, then 1, then 2.
    std::vector<std::size_t> order(ra.requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return ra.requests[a].admit_s <
                         ra.requests[b].admit_s;
              });
    EXPECT_EQ(ra.requests[order[0]].accel, 0);
}

} // namespace
} // namespace spatten
