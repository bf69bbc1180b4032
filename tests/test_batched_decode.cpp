/// Batched decode-step evaluation: SpAttenAccelerator::stepDecodeBatch
/// advances every lane layer-major through one stage-graph traversal;
/// sessions share no state, so every observable must be bit-identical
/// to the serial decodeStep() loop — directly at the backend level, and
/// end-to-end through the scheduler against a serial oracle backend
/// across thread counts, shard counts, chunked prefill, and prefix
/// caching. The scheduler's only decode entry is stepDecodeBatch: every
/// generated token goes through it, mixed prefill+decode iterations
/// included.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"
#include "serve/continuous_batch_scheduler.hpp"

namespace spatten {
namespace {

ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

WorkloadSpec
laneWorkload(std::size_t prompt, std::size_t gen, const char* name)
{
    WorkloadSpec w;
    w.name = name;
    w.model = tinyModel();
    w.summarize_len = prompt;
    w.generate_len = gen;
    return w;
}

// ---------------------------------------------------------------------
// Backend level: stepDecodeBatch == serial decodeStep loop
// ---------------------------------------------------------------------

TEST(BatchedDecode, LayerMajorBatchMatchesSerialBitForBit)
{
    const SpAttenAccelerator accel;
    const std::vector<WorkloadSpec> lanes = {
        laneWorkload(96, 8, "lane-a"),
        laneWorkload(128, 8, "lane-b"),
        laneWorkload(64, 8, "lane-c"),
    };

    // Twin fleets: identical sessions, one stepped batched, one serial.
    std::vector<std::unique_ptr<BackendSession>> batched, serial;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        batched.push_back(
            accel.makeSession(lanes[i], PruningPolicy{}, 40 + i));
        serial.push_back(
            accel.makeSession(lanes[i], PruningPolicy{}, 40 + i));
        batched.back()->prefill();
        serial.back()->prefill();
    }

    std::vector<BackendSession*> lane_ptrs;
    for (auto& s : batched)
        lane_ptrs.push_back(s.get());

    std::vector<double> batch_seconds;
    for (std::size_t step = 0; step < 8; ++step) {
        accel.stepDecodeBatch(lane_ptrs, batch_seconds);
        ASSERT_EQ(batch_seconds.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const double serial_s = serial[i]->decodeStep();
            EXPECT_EQ(batch_seconds[i], serial_s)
                << "lane " << i << " step " << step;
            EXPECT_EQ(batched[i]->kvLength(), serial[i]->kvLength());
        }
    }

    for (std::size_t i = 0; i < lanes.size(); ++i) {
        EXPECT_TRUE(batched[i]->done());
        EXPECT_EQ(batched[i]->kvTrace(), serial[i]->kvTrace());
        const RunResult a = batched[i]->finalize();
        const RunResult b = serial[i]->finalize();
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.seconds, b.seconds);
        EXPECT_EQ(a.dram_bytes, b.dram_bytes);
        EXPECT_EQ(a.attention_flops, b.attention_flops);
        EXPECT_EQ(a.energy.totalJ(), b.energy.totalJ());
        ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
        auto ita = a.stats.all().begin();
        for (auto itb = b.stats.all().begin();
             itb != b.stats.all().end(); ++ita, ++itb) {
            EXPECT_EQ(ita->first, itb->first);
            EXPECT_EQ(ita->second, itb->second) << "stat " << ita->first;
        }
    }
}

TEST(BatchedDecode, MixedMemoAndLiveLanes)
{
    // A fresh lane joins mid-stream: its first steps record while the
    // veterans replay from the memo — owed-layer counts differ across
    // lanes within one batched call (0 for replayed, num_layers for
    // live) and the interleave must still match serial exactly.
    const SpAttenAccelerator accel;
    const WorkloadSpec w = laneWorkload(96, 12, "veteran");
    auto vet_b = accel.makeSession(w, PruningPolicy{}, 7);
    auto vet_s = accel.makeSession(w, PruningPolicy{}, 7);
    vet_b->prefill();
    vet_s->prefill();
    // Warm the veteran into memo steady state.
    std::vector<BackendSession*> solo = {vet_b.get()};
    std::vector<double> secs;
    for (int i = 0; i < 6; ++i) {
        accel.stepDecodeBatch(solo, secs);
        EXPECT_EQ(secs[0], vet_s->decodeStep());
    }

    const WorkloadSpec w2 = laneWorkload(64, 6, "rookie");
    auto rook_b = accel.makeSession(w2, PruningPolicy{}, 9);
    auto rook_s = accel.makeSession(w2, PruningPolicy{}, 9);
    rook_b->prefill();
    rook_s->prefill();

    std::vector<BackendSession*> both = {vet_b.get(), rook_b.get()};
    for (int i = 0; i < 6; ++i) {
        accel.stepDecodeBatch(both, secs);
        EXPECT_EQ(secs[0], vet_s->decodeStep()) << "step " << i;
        EXPECT_EQ(secs[1], rook_s->decodeStep()) << "step " << i;
    }
    EXPECT_EQ(vet_b->kvTrace(), vet_s->kvTrace());
    EXPECT_EQ(rook_b->kvTrace(), rook_s->kvTrace());
}

/// Serving-contract wrapper that counts what the scheduler calls. The
/// backend counts stepDecodeBatch lanes; its sessions count serial
/// decodeStep() calls and spot batched calls that shared an iteration
/// with a prompt pass.
struct CallCounts
{
    std::size_t batch_calls = 0;
    std::size_t batch_lanes = 0;
    std::size_t serial_decodes = 0;
    /// Batched calls followed, before the next batched call, by a
    /// prompt pass while one of their lanes still had tokens to go.
    /// Such a lane would open the next iteration's batched call, so
    /// the prompt pass ran in the same iteration as the batch (sound on
    /// one slot without preemption).
    std::size_t mixed_batch_calls = 0;
    bool lanes_pending = false;
};

class CountingSession final : public BackendSession
{
  public:
    CountingSession(std::unique_ptr<BackendSession> inner, CallCounts& counts)
        : inner_(std::move(inner)), counts_(counts)
    {
    }

    double prefillChunk(std::size_t offset, std::size_t len) override
    {
        if (counts_.lanes_pending) {
            ++counts_.mixed_batch_calls;
            counts_.lanes_pending = false;
        }
        return inner_->prefillChunk(offset, len);
    }
    double decodeStep() override
    {
        ++counts_.serial_decodes;
        return inner_->decodeStep();
    }
    bool prefilled() const override { return inner_->prefilled(); }
    bool done() const override { return inner_->done(); }
    std::size_t kvLength() const override { return inner_->kvLength(); }
    const std::vector<std::size_t>& kvTrace() const override
    {
        return inner_->kvTrace();
    }
    const WorkloadSpec& workload() const override
    {
        return inner_->workload();
    }
    RunResult finalize() const override { return inner_->finalize(); }

    BackendSession* inner() { return inner_.get(); }

  private:
    std::unique_ptr<BackendSession> inner_;
    CallCounts& counts_;
};

/// SpAtten behind the serving contract. Counting on, it wraps its
/// sessions and counts every call; counting off, it hands out bare
/// DecodeSessions and does not override stepDecodeBatch's loop either,
/// so the base class's serial decodeStep() loop serves every decode
/// lane: the oracle the batched path must reproduce bit for bit.
class SerialSpAtten : public AcceleratorBackend
{
  public:
    std::string backendName() const override { return inner_.backendName(); }
    BackendCapabilities capabilities() const override
    {
        return inner_.capabilities();
    }
    std::uint64_t capacityBytes() const override
    {
        return inner_.capacityBytes();
    }
    std::size_t kvBytesPerElem() const override
    {
        return inner_.kvBytesPerElem();
    }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override
    {
        return inner_.makeSession(workload, policy, request_seed);
    }

  protected:
    SpAttenAccelerator inner_;
};

class CountingSpAtten final : public SerialSpAtten
{
  public:
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override
    {
        return std::make_unique<CountingSession>(
            inner_.makeSession(workload, policy, request_seed), counts_);
    }

    void stepDecodeBatch(const std::vector<BackendSession*>& lanes,
                         std::vector<double>& seconds_out) const override
    {
        std::vector<BackendSession*> inner_lanes;
        for (BackendSession* lane : lanes)
            inner_lanes.push_back(
                dynamic_cast<CountingSession&>(*lane).inner());
        inner_.stepDecodeBatch(inner_lanes, seconds_out);
        ++counts_.batch_calls;
        counts_.batch_lanes += lanes.size();
        counts_.lanes_pending = false;
        for (const BackendSession* lane : lanes)
            counts_.lanes_pending |= !lane->done();
    }

    const CallCounts& counts() const { return counts_; }

  private:
    mutable CallCounts counts_;
};

TEST(BatchedDecodeDeathTest, ForeignLanePanicsNamingItsIndex)
{
    // A wrapper that forgets to unwrap its lanes must fail loudly, not
    // fall back to a serial loop that measures a different program.
    const SpAttenAccelerator accel;
    CallCounts counts;
    const WorkloadSpec w = laneWorkload(64, 4, "lane");
    auto bare = accel.makeSession(w, PruningPolicy{}, 1);
    CountingSession wrapped(accel.makeSession(w, PruningPolicy{}, 2),
                            counts);
    bare->prefill();
    wrapped.prefill();
    const std::vector<BackendSession*> lanes = {bare.get(), &wrapped};
    std::vector<double> secs;
    EXPECT_DEATH(accel.stepDecodeBatch(lanes, secs),
                 "lane 1 is not a DecodeSession");
}

// ---------------------------------------------------------------------
// Scheduler level: the batched entry == the serial oracle, whole-report
// ---------------------------------------------------------------------

std::vector<TracedRequest>
denseTrace(std::size_t n)
{
    ArrivalTraceConfig tc;
    tc.num_requests = n;
    tc.mean_interarrival_s = 0.05e-3;
    tc.seed = 0xbadc0de;
    tc.model = tinyModel();
    tc.min_prompt = 48;
    tc.max_prompt = 160;
    tc.min_output = 4;
    tc.max_output = 16;
    return generatePoissonTrace(tc);
}

std::vector<TracedRequest>
sharedPrefixTrace()
{
    SharedPrefixTraceConfig pc;
    pc.base = ArrivalTraceConfig{};
    pc.base.num_requests = 14;
    pc.base.mean_interarrival_s = 0.1e-3;
    pc.base.model = tinyModel();
    pc.base.min_output = 2;
    pc.base.max_output = 8;
    pc.system_prompt_tokens = 64;
    pc.max_prompt_tokens = 320;
    return generateSharedPrefixTrace(pc);
}

void
expectSameReport(const ServeReport& a, const ServeReport& b)
{
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.accel_busy_s, b.accel_busy_s);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].first_token_s,
                  b.requests[i].first_token_s);
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
        EXPECT_EQ(a.requests[i].token_times_s,
                  b.requests[i].token_times_s);
        EXPECT_EQ(a.requests[i].service_seconds,
                  b.requests[i].service_seconds);
        EXPECT_EQ(a.requests[i].kv_trace, b.requests[i].kv_trace);
        EXPECT_EQ(a.requests[i].sim.cycles, b.requests[i].sim.cycles);
        EXPECT_EQ(a.requests[i].sim.energy.totalJ(),
                  b.requests[i].sim.energy.totalJ());
    }
}

ServeReport
serve(const std::vector<TracedRequest>& trace, ContinuousBatchConfig sc)
{
    return ContinuousBatchScheduler(SpAttenConfig{}, sc).run(trace);
}

/// The oracle run: every slot decodes through the serial default loop,
/// one thread.
ServeReport
serveSerial(const std::vector<TracedRequest>& trace,
            ContinuousBatchConfig sc)
{
    sc.num_threads = 1;
    return ContinuousBatchScheduler(
               AcceleratorFleet(sc.num_accelerators,
                                std::make_shared<const SerialSpAtten>()),
               sc)
        .run(trace);
}

TEST(BatchedDecode, SchedulerBatchedMatchesPerJobAcrossThreadsAndShards)
{
    const auto trace = denseTrace(20);
    for (const std::size_t accels : {std::size_t{1}, std::size_t{2}}) {
        ContinuousBatchConfig sc;
        sc.num_accelerators = accels;
        sc.max_active = 6;
        const ServeReport baseline = serveSerial(trace, sc);

        for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
            sc.num_threads = threads;
            expectSameReport(baseline, serve(trace, sc));
        }
    }
}

TEST(BatchedDecode, SchedulerBatchedMatchesWithChunkedPrefill)
{
    // Chunked prefill makes many iterations mixed: their decode lanes
    // batch while the prompt chunks run on the pool, and every kind of
    // iteration must agree with the serial oracle.
    const auto trace = denseTrace(16);
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.num_threads = 1;
    sc.prefill_chunk_tokens = 32;
    sc.iteration_token_budget = 48;
    expectSameReport(serveSerial(trace, sc), serve(trace, sc));
}

TEST(BatchedDecode, SchedulerBatchedMatchesWithPrefixCaching)
{
    const auto trace = sharedPrefixTrace();
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.num_threads = 1;
    sc.enable_prefix_caching = true;
    expectSameReport(serveSerial(trace, sc), serve(trace, sc));
}

/// Serve @p trace on one counting SpAtten slot and check that every
/// decode token went through stepDecodeBatch, mixed iterations too.
void
expectEveryTokenBatched(const std::vector<TracedRequest>& trace,
                        const ContinuousBatchConfig& sc)
{
    const auto counting = std::make_shared<const CountingSpAtten>();
    const ServeReport rep =
        ContinuousBatchScheduler(AcceleratorFleet{counting}, sc).run(trace);
    // The mixed-iteration witness is only sound without preemption.
    ASSERT_EQ(rep.preemptions, 0u);
    const CallCounts& c = counting->counts();
    EXPECT_EQ(c.serial_decodes, 0u);
    EXPECT_EQ(c.batch_lanes, rep.total_tokens + rep.recompute_tokens);
    EXPECT_GE(c.mixed_batch_calls, 1u);
    expectSameReport(serve(trace, sc), rep);
}

TEST(BatchedDecode, EveryDecodeTokenTakesTheBatchEntryWithChunkedPrefill)
{
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.num_threads = 1;
    sc.prefill_chunk_tokens = 32;
    sc.iteration_token_budget = 48;
    expectEveryTokenBatched(denseTrace(16), sc);
}

TEST(BatchedDecode, EveryDecodeTokenTakesTheBatchEntryWithPrefixCaching)
{
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.num_threads = 1;
    sc.enable_prefix_caching = true;
    expectEveryTokenBatched(sharedPrefixTrace(), sc);
}

} // namespace
} // namespace spatten
