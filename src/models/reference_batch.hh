/**
 * @file
 * Structure-of-arrays batch stepper for the discrete reference model.
 *
 * The reference backend used to keep one ReferenceNeuron per network
 * neuron, each dragging a private NeuronParams copy (hundreds of
 * bytes) through the cache on every step. A ReferenceBatch stores the
 * parameter set once per population and streams the state variables
 * v/y/g/w/r/cnt as contiguous arrays (y and g type-major) — the same
 * per-population SoA treatment the Flexon batch kernels apply
 * (flexon/kernel.hh). Its step kernel is picked once, by feature mask
 * and KernelLevel, through the lookup both kernel families share
 * (features/kernel_level.hh): a compile-time specialization for the
 * masks of the shared table, a runtime-query body for any other, each
 * at the scalar, AVX2 or AVX-512 level.
 *
 * Bit-exactness contract: every kernel performs the exact
 * double-precision operation order of ReferenceNeuron::step
 * (Equations 3-8), lane by lane at the vector levels, so the batch
 * path is bit-identical to the scalar golden model at every level and
 * thread count.
 */

#ifndef FLEXON_MODELS_REFERENCE_BATCH_HH
#define FLEXON_MODELS_REFERENCE_BATCH_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "features/kernel_level.hh"
#include "features/params.hh"

namespace flexon {

/** One kernel call's arrays and parameters (reference_batch.cc). */
struct ReferenceStepArgs;

/** Steps batch-local neurons [begin, end). */
using ReferenceStepFn = void (*)(const ReferenceStepArgs &args,
                                 size_t begin, size_t end);

/** A population of discrete reference neurons in SoA form. */
class ReferenceBatch
{
  public:
    /** @param params validated shared parameters (fatal on invalid). */
    ReferenceBatch(const NeuronParams &params, size_t count);

    size_t size() const { return count_; }
    const NeuronParams &params() const { return params_; }

    /**
     * Step neurons [begin, end) of this batch.
     *
     * @param input row-major [neuron][synapseType] accumulated
     *              weights with stride maxSynapseTypes, already
     *              offset to this batch's first neuron
     * @param fired 0/1 flags, offset to this batch's first neuron
     */
    void step(const double *input, uint8_t *fired, size_t begin,
              size_t end);

    /** The level of the kernel this batch was built with. */
    KernelLevel kernelLevel() const { return kernel_.level; }

    double membrane(size_t idx) const { return v_[idx]; }
    double preResetV(size_t idx) const { return preResetV_[idx]; }

    /** Overwrite one neuron's membrane (the NaN-detector test hook). */
    void setMembrane(size_t idx, double v) { v_[idx] = v; }

    /** Materialized AoS state of one neuron (probes and tests). */
    NeuronState state(size_t idx) const;

    /**
     * Intrinsic-excitability support: per-neuron firing-threshold
     * offset added to params().threshold() in the spike check. The
     * offset array is allocated lazily on the first write, so
     * populations that never adapt keep the exact pre-existing step
     * path (and bit-exact results). Offsets are *parameters*, not
     * dynamic state: saveState/loadState deliberately exclude them —
     * the plasticity rule that wrote them owns their persistence and
     * re-applies them on restore. reset() zeroes them (a fresh batch
     * has no adaptation history).
     */
    void setThresholdOffset(size_t idx, double offset);
    double
    thresholdOffset(size_t idx) const
    {
        return thrOffset_.empty() ? 0.0 : thrOffset_[idx];
    }

    void reset();

    /**
     * Checkpoint the batch's dynamic state (v/w/r/preResetV/y/g/cnt
     * arrays, y and g neuron-major). Text, exact round trip; the
     * stream must carry 17 significant digits (snn/serialize.hh
     * checkpoint framing), and non-finite values round-trip too.
     * loadState fatal()s when the recorded shape does not match.
     */
    void saveState(std::ostream &os) const;
    void loadState(std::istream &is);

  private:
    NeuronParams params_;
    size_t count_;
    size_t stride_; ///< params_.numSynapseTypes
    KernelChoice<ReferenceStepFn> kernel_;

    std::vector<double> v_;
    std::vector<double> w_;
    std::vector<double> r_;
    std::vector<double> preResetV_;
    std::vector<double> y_; ///< [type][neuron], stride * count
    std::vector<double> g_; ///< [type][neuron], stride * count
    std::vector<uint32_t> cnt_;
    /** Per-neuron threshold offsets; empty until the first write. */
    std::vector<double> thrOffset_;
};

} // namespace flexon

#endif // FLEXON_MODELS_REFERENCE_BATCH_HH
