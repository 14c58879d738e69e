/**
 * @file
 * SNN topology: neuron populations and synapses.
 *
 * A network is a set of homogeneous populations (each sharing one
 * neuron parameterization, as in PyNN's sim.Population()) plus a
 * synapse table in compressed sparse row form: for every source
 * neuron, the list of (target, weight, delay, synapse type) entries.
 * Synaptic delays are expressed in whole time steps (Section II-C:
 * spikes propagate after a per-synapse delay).
 */

#ifndef FLEXON_SNN_NETWORK_HH
#define FLEXON_SNN_NETWORK_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "features/params.hh"

namespace flexon {

/** One synapse: target neuron, weight, delay, and synapse type. */
struct Synapse
{
    uint32_t target;
    float weight;
    uint8_t delay;
    uint8_t type;
};

/**
 * One generative wiring rule between two index ranges.
 *
 * A projection is the declarative form of a connect* call: instead
 * of staging every realized synapse, it records the rule plus the
 * distribution parameters, so a row can be regenerated on demand
 * from a counter-based per-source RNG (snn/connectivity.hh). The
 * realized topology of a projection is a pure function of
 * (spec seed, projection index, source id).
 */
struct Projection
{
    enum class Rule : uint8_t {
        /** Every (src, dst) pair connected with `probability`. */
        Bernoulli,
        /** `fanout` draws with replacement per source neuron. */
        FixedFanout,
    };

    Rule rule = Rule::Bernoulli;
    uint32_t srcBase = 0; ///< first source neuron (global id)
    uint32_t srcCount = 0;
    uint32_t dstBase = 0; ///< first target neuron (global id)
    uint32_t dstCount = 0;
    double probability = 0.0; ///< Bernoulli only
    uint32_t fanout = 0;      ///< FixedFanout only
    double weightMean = 0.0;  ///< normal(mean, 0.1|mean|), sign kept
    uint8_t delayMin = 1;     ///< delays uniform in [min, max]
    uint8_t delayMax = 1;
    uint8_t type = 0; ///< synapse type the weight accumulates into
};

/** A seeded list of projections — the generative network wiring. */
struct ConnectivitySpec
{
    uint64_t seed = 1;
    std::vector<Projection> projections;
};

/** A homogeneous group of neurons sharing one parameter set. */
struct Population
{
    std::string name;
    NeuronParams params;
    size_t base = 0;  ///< global index of the first neuron
    size_t count = 0;
};

/**
 * An SNN: populations plus a CSR synapse table.
 *
 * Build with addPopulation() and the connect* methods, then call
 * finalize() to sort the synapse lists into CSR form. The network is
 * immutable after finalization.
 */
class Network
{
  public:
    /** Add a population; returns its index. */
    size_t addPopulation(std::string name, const NeuronParams &params,
                         size_t count);

    /**
     * Randomly connect two populations: every (src, dst) pair is
     * connected with the given probability (self-connections are
     * skipped when src == dst).
     *
     * @param weight_mean mean synaptic weight (weights are drawn from
     *        a normal distribution with 10 % relative sigma, clamped
     *        to keep the sign)
     * @param delay_min/delay_max synaptic delay range in time steps
     * @param type synapse type index the weight accumulates into
     */
    void connectRandom(size_t src_pop, size_t dst_pop,
                       double probability, double weight_mean,
                       uint8_t delay_min, uint8_t delay_max,
                       uint8_t type, Rng &rng);

    /**
     * Connect each source neuron to a fixed number of distinct random
     * targets (in-degree style wiring, as in the Brunel network).
     */
    void connectFixedFanout(size_t src_pop, size_t dst_pop,
                            size_t fanout, double weight_mean,
                            uint8_t delay_min, uint8_t delay_max,
                            uint8_t type, Rng &rng);

    /**
     * Connect each *target* neuron to a fixed number of random
     * sources drawn with replacement (fixed in-degree wiring with
     * multapses, the NEST fixed_indegree rule the Potjans–Diesmann
     * microcircuit is specified in). Self-connections are skipped
     * (the draw still consumes RNG state, so in-degrees of recurrent
     * projections may fall short by the few autapse draws).
     */
    void connectFixedFanin(size_t src_pop, size_t dst_pop,
                           size_t fanin, double weight_mean,
                           uint8_t delay_min, uint8_t delay_max,
                           uint8_t type, Rng &rng);

    /** Add one explicit synapse (for small hand-built examples). */
    void addSynapse(uint32_t src, const Synapse &synapse);

    /**
     * Build the wiring from a generative spec (call after the
     * addPopulation() calls, instead of connect* + finalize()).
     *
     * With `procedural` false the spec is realized into the usual
     * CSR table (bit-identical to streaming the generated rows into
     * addSynapse + finalize()). With `procedural` true no synapses
     * are stored at all: a single counting pass derives the row
     * geometry (rowPtr, per-target in-degrees, realized delays) and
     * rows are regenerated on demand via rowFor(). Either way the
     * network is finalized on return and the spec is retained, so
     * the two modes describe the same topology.
     */
    void buildFromSpec(const ConnectivitySpec &spec, bool procedural);

    /** Sort synapses into CSR form; no further mutation allowed. */
    void finalize();
    bool finalized() const { return finalized_; }

    /** True when rows are regenerated on demand (no CSR storage). */
    bool procedural() const { return procedural_; }

    /** True when the wiring came from buildFromSpec(). */
    bool hasSpec() const { return hasSpec_; }

    /** The generative spec (valid when hasSpec()). */
    const ConnectivitySpec &connectivitySpec() const;

    size_t numPopulations() const { return populations_.size(); }
    const Population &population(size_t i) const;
    /** The population that owns a global neuron index. */
    const Population &populationOf(size_t neuron) const;

    size_t numNeurons() const { return numNeurons_; }
    size_t
    numSynapses() const
    {
        return procedural_ ? synapseCount_ : synapses_.size();
    }

    /** Largest synaptic delay in the network (steps); >= 1. */
    uint8_t maxDelay() const { return maxDelay_; }

    /** Outgoing synapses of a neuron (valid after finalize()).
     *  Materialized networks only — procedural rows are not stored;
     *  use rowFor(). */
    std::span<const Synapse> outgoing(uint32_t src) const;

    /**
     * Outgoing row of `src` in either storage mode. Materialized:
     * returns outgoing(src) (zero-copy; `scratch` untouched).
     * Procedural: regenerates the row into `scratch` — with the
     * weight-delta overlay applied, so callers always observe
     * current weights — and returns a span over it.
     */
    std::span<const Synapse> rowFor(uint32_t src,
                                    std::vector<Synapse> &scratch) const;

    /** Global index of the first synapse of `src`'s outgoing row. */
    uint64_t rowStart(uint32_t src) const;

    /** Source neuron owning global synapse index `index`. */
    uint32_t sourceOfSynapse(uint64_t index) const;

    /** Per-target incoming synapse counts (valid after finalize). */
    const std::vector<uint32_t> &
    incomingCounts() const
    {
        return incomingCount_;
    }

    /** delaysUsed()[d] is true iff some synapse has delay d. */
    const std::array<bool, 256> &
    delaysUsed() const
    {
        return delayUsed_;
    }

    /**
     * Bytes of heap devoted to connectivity storage: the CSR synapse
     * table (empty in procedural mode), row pointers, per-target
     * in-degrees and the weight overlay. Delivery-side structures
     * (routing tables, compressed blobs, row caches) are accounted
     * by their ConnectivityProvider.
     */
    size_t connectivityBytes() const;

    /** Synapse by global index (materialized networks only). */
    const Synapse &synapseAt(uint64_t index) const;

    /**
     * Set a synapse weight by global index in either storage mode —
     * the one weight mutator (topology is immutable). The mutation
     * is recorded in the log, so connectivity providers
     * (snn/connectivity.hh) re-mirror the touched weights instead of
     * rebuilding. Materialized networks write the CSR entry in
     * place; procedural networks record the value in the sparse
     * weight-delta overlay that rowFor() applies on regeneration.
     */
    void setSynapseWeight(uint64_t index, float weight);

    /**
     * Current overlay value of a synapse, if any. Returns false when
     * the synapse still carries its generated weight.
     */
    bool overlayWeight(uint64_t index, float &weight) const;

    /** Entries in the weight-delta overlay (procedural STDP). */
    size_t overlaySize() const { return overlay_.size(); }

    /** Overlay as (synapse index, weight), sorted by index — the
     *  canonical checkpoint form. */
    std::vector<std::pair<uint64_t, float>> sortedOverlay() const;

    /**
     * Drop every overlay entry (all synapses revert to generated
     * weights). Floods the mutation log so consumers holding a
     * watermark do a full refresh rather than a tail replay.
     */
    void clearWeightOverlay();

    /** Ring capacity of the weight-mutation log (entries). */
    static constexpr size_t weightLogCapacity = 4096;

    /**
     * Monotone count of weight mutations (setSynapseWeight()
     * calls). Consumers snapshot this and later replay the entries
     * in (seen, current] from the log ring; a consumer more than
     * weightLogCapacity mutations behind must refresh every weight.
     */
    uint64_t weightMutations() const { return weightMutations_; }

    /** Synapse index of mutation number `mutation` (log ring). */
    uint64_t
    weightLogEntry(uint64_t mutation) const
    {
        return weightLog_[mutation % weightLogCapacity];
    }

  private:
    /** Regenerate `src`'s row from the spec (no overlay applied). */
    void generateRow(uint32_t src, std::vector<Synapse> &out) const;
    void logWeightMutation(uint64_t index);

    std::vector<Population> populations_;
    size_t numNeurons_ = 0;
    bool finalized_ = false;
    uint8_t maxDelay_ = 1;

    // Pre-finalize: (src, synapse) pairs; post-finalize: CSR.
    std::vector<std::pair<uint32_t, Synapse>> staging_;
    std::vector<Synapse> synapses_;
    std::vector<uint64_t> rowPtr_;

    // Geometry caches filled at finalization (both storage modes) so
    // delivery structures can be sized without walking synapses.
    std::vector<uint32_t> incomingCount_;
    std::array<bool, 256> delayUsed_{};

    // Generative wiring (buildFromSpec). In procedural mode
    // synapses_ stays empty, synapseCount_ carries the realized
    // total, and overlay_ holds STDP weight deltas keyed by global
    // synapse index.
    ConnectivitySpec spec_;
    bool hasSpec_ = false;
    bool procedural_ = false;
    uint64_t synapseCount_ = 0;
    std::unordered_map<uint64_t, float> overlay_;

    // Weight-mutation log: ring of the last weightLogCapacity
    // mutated synapse indices (allocated on first mutation).
    std::vector<uint64_t> weightLog_;
    uint64_t weightMutations_ = 0;
};

} // namespace flexon

#endif // FLEXON_SNN_NETWORK_HH
