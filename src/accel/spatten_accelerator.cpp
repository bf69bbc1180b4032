#include "accel/spatten_accelerator.hpp"

#include <algorithm>

#include "accel/decode_session.hpp"
#include "common/logging.hpp"
#include "serve/batch_runner.hpp"

namespace spatten {

SpAttenAccelerator::SpAttenAccelerator(SpAttenConfig cfg)
    : cfg_(cfg), pipeline_(cfg)
{
}

RunResult
SpAttenAccelerator::run(const WorkloadSpec& workload,
                        const PruningPolicy& policy,
                        std::uint64_t request_seed)
{
    return pipeline_.run(workload, policy, request_seed);
}

BatchResult
SpAttenAccelerator::runBatch(const std::vector<BatchRequest>& batch,
                             std::size_t num_threads) const
{
    return BatchRunner(cfg_, BatchRunnerConfig{num_threads}).run(batch);
}

DecodeResult
SpAttenAccelerator::runDecode(const WorkloadSpec& workload,
                              const PruningPolicy& policy,
                              std::uint64_t request_seed) const
{
    DecodeSession session(cfg_, workload, policy, request_seed);
    DecodeResult out;
    // The full prompt KV is resident through prefill (pruning only
    // shrinks it afterwards), so the peak starts there.
    out.peak_kv_bytes =
        workload.summarize_len * session.kvBytesPerToken();
    out.prefill_seconds = session.prefill();
    out.kv_lengths.push_back(session.kvLength());
    while (!session.done()) {
        // Each pass holds the carried KV plus the new token before
        // pruning — the same pre-prune transient a serving-layer
        // KvPool reserves for the step.
        const std::size_t transient_tokens = session.kvLength() + 1;
        out.step_seconds.push_back(session.decodeStep());
        out.kv_lengths.push_back(session.kvLength());
        out.peak_kv_bytes =
            std::max(out.peak_kv_bytes,
                     transient_tokens * session.kvBytesPerToken());
    }
    out.result = session.finalize();
    return out;
}

std::unique_ptr<BackendSession>
SpAttenAccelerator::makeSession(const WorkloadSpec& workload,
                                const PruningPolicy& policy,
                                std::uint64_t request_seed) const
{
    return std::make_unique<DecodeSession>(cfg_, workload, policy,
                                           request_seed);
}

void
SpAttenAccelerator::stepDecodeBatch(
    const std::vector<BackendSession*>& lanes,
    std::vector<double>& seconds_out) const
{
    seconds_out.resize(lanes.size());
    // Downcast once. A foreign session type in the batch is a caller
    // bug (a wrapper that forgot to unwrap its lanes): falling back to
    // the serial loop would silently measure a different program.
    std::vector<DecodeSession*> sess(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        sess[i] = dynamic_cast<DecodeSession*>(lanes[i]);
        SPATTEN_ASSERT(sess[i] != nullptr,
                       "stepDecodeBatch lane %zu is not a DecodeSession",
                       i);
    }
    // Open every lane's pass, then advance all lanes layer-major.
    // Lanes served whole from the replay memo return 0 owed layers and
    // sit out the loop; models can differ per lane, so each lane owes
    // its own layer count.
    std::vector<std::size_t> owed(lanes.size());
    std::size_t max_owed = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        owed[i] = sess[i]->beginDecodeStep();
        max_owed = std::max(max_owed, owed[i]);
    }
    for (std::size_t l = 0; l < max_owed; ++l)
        for (std::size_t i = 0; i < lanes.size(); ++i)
            if (l < owed[i])
                sess[i]->stepDecodeLayer();
    for (std::size_t i = 0; i < lanes.size(); ++i)
        seconds_out[i] = sess[i]->endDecodeStep();
}

std::vector<AreaEntry>
SpAttenAccelerator::area() const
{
    return areaBreakdown(
        static_cast<int>(cfg_.totalMultipliers()),
        static_cast<int>(cfg_.key_sram_kb + cfg_.value_sram_kb),
        static_cast<int>(cfg_.topk_parallelism));
}

double
SpAttenAccelerator::areaMm2() const
{
    return totalAreaMm2(area());
}

double
SpAttenAccelerator::computeRoofTflops() const
{
    // mul + add per multiplier per cycle.
    return 2.0 * static_cast<double>(cfg_.totalMultipliers()) *
           cfg_.core_freq_ghz * 1e-3;
}

double
SpAttenAccelerator::bandwidthRoofGBs() const
{
    return cfg_.hbm.peakBandwidthGBs();
}

std::string
SpAttenAccelerator::configTable() const
{
    std::string s;
    s += strfmt("%-24s %s\n", "Q-K-V Fetcher",
                strfmt("32x%d addr xbar, %dx32 data xbar, 64-deep FIFOs",
                       cfg_.hbm.channels, cfg_.hbm.channels)
                    .c_str());
    s += strfmt("%-24s %zu KB Key SRAM; %zux12-bit multipliers\n", "Q x K",
                cfg_.key_sram_kb, cfg_.qk.num_multipliers);
    s += strfmt("%-24s FIFO depth %zu; parallelism %zu\n", "Softmax",
                cfg_.softmax.fifo_depth, cfg_.softmax.parallelism);
    s += strfmt("%-24s %zu KB Value SRAM; %zux12-bit multipliers\n",
                "AttnProb x V", cfg_.value_sram_kb,
                cfg_.pv.num_multipliers);
    s += strfmt("%-24s parallelism %zu (x2 engines)\n", "Top-k",
                cfg_.topk_parallelism);
    s += strfmt("%-24s HBM2, %dx128-bit channels @ %.0f GHz, %.0f GB/s\n",
                "HBM", cfg_.hbm.channels, cfg_.hbm.freq_ghz,
                cfg_.hbm.peakBandwidthGBs());
    s += strfmt("%-24s %.2f mm^2 @ 40 nm, %.2f TFLOPS roof\n", "Synthesis",
                areaMm2(), computeRoofTflops());
    return s;
}

} // namespace spatten
