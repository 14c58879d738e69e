/**
 * @file
 * The one wiring step of the generated networks (Table I, the model
 * demo, the Potjans–Diesmann column). A family builder adds its
 * populations and lists its projections once; wireNetwork() realizes
 * the list in the requested wiring.
 */

#ifndef FLEXON_NETS_WIRING_HH
#define FLEXON_NETS_WIRING_HH

#include <cstdint>
#include <span>

#include "snn/network.hh"

namespace flexon {

/** How a generated network's synapses are drawn and stored. */
enum class Wiring {
    /** One sequential RNG stream through the connect* calls. */
    Staged,
    /** Counter-based per-source rows realized into the CSR. */
    Spec,
    /** The spec is kept and rows are regenerated on demand. */
    Procedural,
};

/** One projection between two populations of a generated network. */
struct PopProjection
{
    size_t src; ///< source population index
    size_t dst; ///< target population index
    double probability; ///< pair probability, used when fanin is 0
    size_t fanin;       ///< fixed in-degree per target, or 0
    double weight;      ///< mean synaptic weight
    uint8_t delayMin;
    uint8_t delayMax;
    uint8_t type; ///< synapse type the weight accumulates into
};

/**
 * Connect `net` (populations added, nothing connected) by
 * `projections`, in list order, and finalize it. Staged draws them
 * from one Rng(seed) stream with connectRandom / connectFixedFanin.
 * Spec and Procedural record them in a ConnectivitySpec seeded with
 * `seed` (Network::buildFromSpec). Spec rows are generated
 * source-major, so there a fixed in-degree K_in(t <- s) becomes a
 * fixed out-degree K_out(s -> t) = K_in * Nt / Ns, which keeps the
 * expected synapse count: staged and spec are two draws of one
 * model, while Spec and Procedural describe the same topology.
 */
void wireNetwork(Network &net,
                 std::span<const PopProjection> projections,
                 Wiring wiring, uint64_t seed);

} // namespace flexon

#endif // FLEXON_NETS_WIRING_HH
