/**
 * @file
 * Iteration-level continuous-batching scheduler over a pool of simulated
 * accelerators.
 *
 * The scheduler consumes an arrival trace (workload/arrival_trace.hpp)
 * and serves it the way a production LLM endpoint does: requests arrive
 * over simulated time, are sharded onto a pool of simulated accelerators
 * (round-robin, least-loaded, or capability-aware), and each accelerator
 * runs iterations — tokens leave the batch one iteration at a time, and
 * finished requests free their slot for queued arrivals (continuous
 * batching, not one-shot batches). Every iteration does exactly two
 * things: one AcceleratorBackend::stepDecodeBatch call that advances
 * every prefilled resident by one token, then one
 * BackendSession::prefillChunk(offset, len) per granted prompt pass.
 * The chunking knobs (prefill_chunk_tokens, iteration_token_budget)
 * split long prompts into several such passes mixed with the resident
 * decode steps (Sarathi-style stall-free batching), so one huge
 * admission no longer stalls every resident's next token for a whole
 * prompt; with both at their 0 defaults each prompt runs as one pass in
 * its admission iteration.
 *
 * The pool is *heterogeneous*: each slot is an AcceleratorBackend
 * (serve/accelerator_backend.hpp) — a SpAttenAccelerator whose sessions
 * carry the cascade-pruned KV survivor count across steps, or one of
 * the baseline adapters (A3, MNNFast, CPU/GPU platforms;
 * baselines/baseline_backends.hpp) whose dense KV grows one token per
 * step. The legacy (SpAttenConfig, ContinuousBatchConfig) constructor
 * builds an all-SpAtten fleet and is bit-identical to the
 * pre-abstraction scheduler at every thread count.
 *
 * Scheduling is KV-capacity-aware: every accelerator owns a KvPool
 * (serve/kv_pool.hpp) whose byte budget derives from the HBM capacity
 * (or an explicit override). A request is only admitted when its prompt
 * KV fits the pool; after every pass its reservation is resized to the
 * cascade-pruned survivor count, so pruning directly raises admissible
 * concurrency. When a decoding request cannot grow its cache, the
 * lowest-priority (then most-recently-admitted) resident request is
 * preempted vLLM-recompute-style: blocks released, emitted tokens
 * discarded, request re-queued. Queue order is a policy: FIFO,
 * priority (descending), or shortest-prompt-first.
 *
 * Determinism contract (pinned by tests/test_continuous_scheduler.cpp):
 * the report is a pure function of (config, trace). Host worker threads
 * only parallelize the independent prompt passes inside one iteration;
 * the single-threaded coordinator runs the batched decode call, makes
 * every admission and preemption decision, and applies step results in
 * admission order (decode lanes, then prompt passes in grant order),
 * so every timestamp, metric, and per-request result is bit-identical
 * at any num_threads — including under preemption. Per-request
 * *service* results (step costs, KV trajectory, cycles, energy) depend
 * only on (config, workload, policy, seed) — never on placement — so
 * while no preemption occurs they are also bit-identical across
 * accelerator shard counts; a preempted request's service time
 * additionally includes its recomputed work, which does depend on where
 * capacity pressure materialized. Only the queueing metrics (TTFT,
 * goodput) respond to the pool size.
 */
#ifndef SPATTEN_SERVE_CONTINUOUS_BATCH_SCHEDULER_HPP
#define SPATTEN_SERVE_CONTINUOUS_BATCH_SCHEDULER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/pipeline.hpp"
#include "hbm/hbm.hpp"
#include "serve/accelerator_backend.hpp"
#include "serve/kv_pool.hpp"
#include "serve/request_state.hpp"
#include "workload/arrival_trace.hpp"

namespace spatten {

/** How arriving requests are spread across the accelerator pool. */
enum class ShardPolicy
{
    /// Request i is statically pinned to accelerator i mod N.
    RoundRobin,
    /// Requests wait in one shared queue; the accelerator with the
    /// earliest simulated time and a free slot pulls the best eligible
    /// entry under the queue policy (classic least-loaded /
    /// join-idle-queue dispatch).
    LeastLoaded,
    /// Least-loaded with capability affinity for heterogeneous fleets:
    /// long prompts (summarize_len >= long_prompt_threshold) wait in a
    /// queue only cascade-pruning backends (SpAtten) pull from — their
    /// pruned KV makes heavy prompts cheap to keep resident — while
    /// short prompts wait in a queue every backend pulls from; pruning
    /// backends drain their long queue first. With no pruning backend
    /// in the fleet this degrades to LeastLoaded.
    CapabilityAware,
};

/** Order in which queued requests are admitted. */
enum class QueuePolicy
{
    /// Arrival order (ties by id) — the classic fair baseline.
    Fifo,
    /// Highest TracedRequest::priority first; FIFO within a level.
    Priority,
    /// Smallest prompt first (SJF on the prefill cost proxy): minimizes
    /// mean TTFT at the price of starving long prompts under load.
    ShortestPromptFirst,
};

/** Scheduler configuration. */
struct ContinuousBatchConfig
{
    std::size_t num_accelerators = 1;
    /// Max concurrent sessions per accelerator iteration (the continuous
    /// batch width).
    std::size_t max_active = 8;
    ShardPolicy shard = ShardPolicy::LeastLoaded;
    QueuePolicy queue = QueuePolicy::Fifo;
    /// Host threads for the per-iteration prompt passes (decode steps
    /// always run in the coordinator's one batched backend call);
    /// 0 = one per hardware thread. Never affects simulated results.
    std::size_t num_threads = 0;
    /// SLO for goodput accounting: a finished request counts as good
    /// when its TTFT <= slo_ttft_s and its *per-request mean* ITL
    /// (ServedRequest::avgItlSeconds, not the pooled percentiles) is
    /// <= slo_itl_s. Requests with fewer than two tokens have no
    /// inter-token gaps and therefore auto-pass the ITL half of the
    /// SLO — a deliberate semantic (there is no ITL to violate), made
    /// explicit here and pinned by test_continuous_scheduler.cpp.
    double slo_ttft_s = 50e-3;
    double slo_itl_s = 2e-3;

    /// Shared-prefix KV caching (serve/kv_pool.hpp): admissions whose
    /// prompt_tokens share a cached block prefix map those blocks
    /// copy-free, are charged only for their non-shared tail, and skip
    /// the shared tokens' prefill compute (the prompt's first
    /// prefillChunk starts at the cached boundary). Off by default:
    /// legacy configs and traces without prompt content stay
    /// bit-identical to the pre-caching scheduler.
    bool enable_prefix_caching = false;

    /// Per-accelerator KV byte budget; 0 derives each accelerator's
    /// budget from its backend's capacityBytes() (the HBM stack
    /// capacity for SpAtten), which for these model sizes never binds —
    /// set a small explicit budget to study the memory-pressure regime.
    /// A non-zero value applies uniformly to every fleet slot (the
    /// "same KV budget" comparison the paper's Table III implies).
    std::uint64_t kv_capacity_bytes = 0;
    /// KV allocation granularity in tokens (paged-KV block size).
    std::size_t kv_block_tokens = 16;

    /// Tiered KV memory (Hybrid2-style; hbm/hbm.hpp): each
    /// accelerator's pool gains a far-memory DRAM cold tier of
    /// far_memory.capacityBytes() bytes. Cold prefix-cache blocks
    /// demote there instead of being dropped and promote back on a
    /// prefix re-reference; demotions are asynchronous (bytes + energy
    /// only, off the critical path), while each admission's promotion
    /// burst charges far_memory.transferSeconds() to that request's
    /// prefill timeline — a DRAM hit stays cheaper than recomputing
    /// the prefix but dearer than an HBM hit. Migration energy is
    /// priced at EnergyConfig::far_bit_energy_pj per bit and lands in
    /// ServeReport::migration_energy_j / total_energy_j. The default
    /// (capacity_gb == 0) disables tiering; every scheduler result is
    /// then bit-identical to the single-tier pool.
    FarMemoryConfig far_memory;

    /// CapabilityAware only: prompts at least this long are routed to
    /// cascade-pruning backends.
    std::size_t long_prompt_threshold = 256;

    // ---- Chunked prefill (Sarathi-style stall-free batching) ----
    /// Max prompt tokens one prefill chunk processes per iteration.
    /// 0 = no per-chunk cap. With both chunking knobs 0 prefill is
    /// monolithic — one whole-prompt pass in the admission iteration
    /// (and chunk sizes >= every prompt are identical to that).
    /// Splitting caps how long one admission can stall every resident
    /// decoder's next token, trading a later TTFT for the prefilling
    /// request against a tighter ITL tail for everyone else.
    std::size_t prefill_chunk_tokens = 0;
    /// Per-iteration token budget across one accelerator's batch: each
    /// resident decode step costs one token, and prefill work is capped
    /// at the remainder (decode steps are never skipped — residents
    /// always advance, which is what keeps the ITL tail flat). Prompt
    /// passes are granted to un-prefilled residents in admission order:
    /// whole prompts that fit the remaining budget run as one pass, and
    /// at most one *partial* chunk is issued per iteration.
    /// 0 = unlimited.
    std::size_t iteration_token_budget = 0;

    /// Admission skip-ahead bound for the non-FIFO queue policies: when
    /// the best eligible candidate's prompt KV does not fit the pool,
    /// try up to this many next-best eligible candidates before
    /// declaring admission blocked for the iteration — a huge
    /// high-priority head no longer starves small requests that would
    /// fit beside the residents. 0 = strict head-of-line blocking (the
    /// legacy behavior). FIFO never skips regardless of this knob:
    /// strict arrival-order admission is its contract (pinned by
    /// tests/test_chunked_prefill.cpp).
    std::size_t admission_skip_ahead = 0;
};

/** Aggregated outcome of serving one trace. */
struct ServeReport
{
    std::vector<ServedRequest> requests; ///< In trace order.

    double makespan_s = 0;    ///< Last token emission time.
    double ttft_p50_s = 0;
    double ttft_p99_s = 0;
    /// Pooled ITL percentiles: over the concatenated inter-token gaps
    /// of every request. A 128-token request contributes 64x the gaps
    /// of a 2-token one, so these over-weight long requests — they
    /// answer "how late is a typical *token*", not "how bad is a
    /// typical *request*'s tail". The req_itl_p99_* fields below
    /// aggregate per-request tails with equal weight per request. The
    /// SLO goodput check uses neither: it tests each request's own
    /// mean ITL (see ContinuousBatchConfig::slo_itl_s).
    double itl_p50_s = 0;
    double itl_p99_s = 0;
    /// Distribution, across requests with >= 2 tokens, of each
    /// request's own ITL p99 (ServedRequest::itlP99Seconds): the
    /// per-request tail aggregate the pooled percentiles cannot
    /// express (equal weight per request, not per token).
    double req_itl_p99_p50_s = 0;
    double req_itl_p99_p99_s = 0;
    /// Queueing-delay percentiles over all requests (admit_s −
    /// arrival_s, the *final* admission after any preemptions):
    /// chunked prefill changes when prompts run, so its effect on
    /// admission latency is visible here, not just in TTFT.
    double queue_delay_p50_s = 0;
    double queue_delay_p99_s = 0;
    double throughput_rps = 0; ///< Finished requests per simulated second.
    double goodput_rps = 0;    ///< SLO-meeting requests per simulated second.
    std::size_t slo_met = 0;   ///< Requests that met both SLOs.
    double tokens_per_s = 0;
    std::size_t total_tokens = 0;

    std::vector<double> accel_busy_s;  ///< Busy seconds per accelerator.
    /// busy / (makespan - that accelerator's first routable arrival):
    /// utilization over the window in which work could exist for it, so
    /// idle lead-in before any demand (the whole trace's start, or a
    /// round-robin-pinned request arriving late) does not dilute it.
    std::vector<double> accel_util;
    std::vector<std::size_t> accel_requests; ///< Requests served per accel.

    /// Sum of per-request simulated cycles, PLUS the cycles of
    /// preempted incarnations whose outputs were discarded — the
    /// accelerator burned them, so they exceed the sum over
    /// requests[i].sim on memory-capped runs with preemptions.
    /// Heterogeneous-fleet caveat: each backend counts cycles in its
    /// own clock domain (every stock backend is 1 GHz-equivalent —
    /// SpAtten's default core clock, A3/MNNFast's freq_ghz, and the
    /// platforms' ns-as-cycles — but a reconfigured fleet can mix
    /// units; the seconds-based metrics are always commensurable).
    double total_cycles = 0;
    double total_energy_j = 0; ///< Includes preempted work, as above.
    double total_flops = 0;    ///< Includes preempted work, as above.
    /// Batch-wide dense bytes / fetched bytes. Fetched includes
    /// preempted incarnations' traffic with no dense counterpart, so
    /// preemption overhead lowers the effective reduction.
    double dram_reduction = 1;

    // ---- Fleet composition ----
    /// Backend name of each fleet slot ("spatten", "a3", ...).
    std::vector<std::string> accel_names;

    // ---- KV-capacity / preemption accounting ----
    std::size_t preemptions = 0;      ///< Total evictions across the run.
    std::size_t recompute_tokens = 0; ///< Tokens discarded and re-decoded.
    std::size_t peak_concurrency = 0; ///< Max requests resident at the
                                      ///< same *simulated* time across
                                      ///< the whole pool (preempted
                                      ///< incarnations count while they
                                      ///< were resident).
    /// The uniform per-accel budget (0 when each slot derives its own
    /// from the backend; see accel_kv_capacity_bytes for the per-slot
    /// effective budgets).
    std::uint64_t kv_capacity_bytes = 0;
    std::vector<std::uint64_t> accel_kv_capacity_bytes; ///< Per slot.
    /// Peak pool occupancy. With prefix caching on this includes cold
    /// cached blocks (resident but reclaimable), matching what the
    /// device actually holds.
    std::vector<std::uint64_t> kv_peak_bytes;
    std::vector<double> kv_mean_bytes; ///< Time-weighted mean occupancy
                                       ///< over each accel's busy time.

    // ---- Shared-prefix cache accounting (enable_prefix_caching) ----
    std::size_t prefix_cache_hits = 0; ///< Admissions that mapped >= 1
                                       ///< cached block copy-free.
    /// Prompt tokens whose prefill compute was skipped (after the
    /// recompute-last-token cap), across all admissions.
    std::size_t prefix_cached_tokens = 0;
    /// KV bytes mapped copy-free at admission — bytes the pool did NOT
    /// charge again thanks to sharing (block-rounded).
    std::uint64_t prefix_shared_bytes = 0;
    std::size_t cow_copied_blocks = 0; ///< Blocks copied when cascade
                                       ///< pruning diverged a shared
                                       ///< prefix (summed over pools).
    /// Cached blocks dropped from the prefix caches entirely (summed
    /// over pools): cold HBM blocks reclaimed with tiering off, DRAM
    /// cold-tier LRU overflow with tiering on.
    std::size_t kv_evicted_blocks = 0;

    // ---- Tiered KV memory (ContinuousBatchConfig::far_memory) ----
    /// The per-slot cold-tier byte budget (0 = tiering off).
    std::uint64_t kv_dram_capacity_bytes = 0;
    /// Peak cold-tier (far-memory DRAM) occupancy per accelerator —
    /// the second tier of the per-tier occupancy pair whose hot half
    /// is kv_peak_bytes.
    std::vector<std::uint64_t> kv_dram_peak_bytes;
    std::size_t kv_demoted_blocks = 0;  ///< HBM -> DRAM migrations.
    std::size_t kv_promoted_blocks = 0; ///< DRAM -> HBM migrations.
    std::uint64_t kv_demoted_bytes = 0;
    std::uint64_t kv_promoted_bytes = 0;
    /// Total migration traffic over the far-memory link, both
    /// directions (kv_demoted_bytes + kv_promoted_bytes).
    std::uint64_t kv_migrated_bytes = 0;
    /// Energy of that traffic (EnergyConfig::far_bit_energy_pj per
    /// bit); already included in total_energy_j.
    double migration_energy_j = 0;
    /// Promotion-burst latency charged to admitting requests' prefill
    /// timelines (summed; also inside busy_s and service_seconds).
    double promotion_stall_s = 0;
};

/**
 * A KV byte budget sized at @p headroom times the worst single request
 * of @p trace (its full un-pruned prompt + output KV, block-rounded at
 * @p sched's kv_block_tokens — taking the config keeps the rounding
 * granularity coupled to the pool that will enforce the budget).
 * headroom 1.0 is the scheduler's minimum legal budget (every request
 * must fit alone); small multiples like 1.25-2.0 dial in the
 * memory-pressure regime the preemption machinery serves — the single
 * definition the bench and the property tests both use.
 *
 * @p kv_bytes_per_elem is the KV storage width the budget must cover;
 * fleets mixing backends with different widths (PlatformBackend keeps
 * fp32 KV) must size the budget at the widest element of the fleet or
 * the widest slot cannot guarantee forward progress.
 */
std::uint64_t kvBudgetForWorstRequest(
    const std::vector<TracedRequest>& trace, double headroom,
    const ContinuousBatchConfig& sched = ContinuousBatchConfig{},
    std::size_t kv_bytes_per_elem = 2);

/** A heterogeneous accelerator fleet: one backend per slot. */
using AcceleratorFleet =
    std::vector<std::shared_ptr<const AcceleratorBackend>>;

/** The continuous-batching scheduler. */
class ContinuousBatchScheduler
{
  public:
    /**
     * The homogeneous-SpAtten pool: sched.num_accelerators slots, all
     * running @p cfg. Bit-identical to the pre-backend-abstraction
     * scheduler (pinned by the PR 3 goldens).
     */
    explicit ContinuousBatchScheduler(
        SpAttenConfig cfg = SpAttenConfig{},
        ContinuousBatchConfig sched = ContinuousBatchConfig{});

    /**
     * A heterogeneous pool: one slot per @p fleet entry (overriding
     * sched.num_accelerators). Backends may be shared between slots —
     * sessions carry all per-request state.
     */
    ContinuousBatchScheduler(AcceleratorFleet fleet,
                             ContinuousBatchConfig sched);

    /**
     * Serve every request of @p trace to completion and aggregate.
     * Deterministic: a pure function of (fleet configs, sched config,
     * trace), independent of num_threads; per-request service results
     * on a homogeneous fleet are also independent of the slot count and
     * shard policy.
     */
    ServeReport run(const std::vector<TracedRequest>& trace);

    const ContinuousBatchConfig& schedulerConfig() const { return sched_; }
    const AcceleratorFleet& fleet() const { return fleet_; }

  private:
    AcceleratorFleet fleet_;
    ContinuousBatchConfig sched_;
};

} // namespace spatten

#endif // SPATTEN_SERVE_CONTINUOUS_BATCH_SCHEDULER_HPP
