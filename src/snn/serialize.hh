/**
 * @file
 * Network serialization: save a finalized Network (populations,
 * parameters, synapses) to a versioned text format and load it back.
 * Round-trips are exact (doubles are written with 17 significant
 * digits), so saved networks reproduce simulations bit for bit on
 * the hardware backends.
 */

#ifndef FLEXON_SNN_SERIALIZE_HH
#define FLEXON_SNN_SERIALIZE_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "snn/network.hh"

namespace flexon {

/** Write a finalized network. fatal() on unfinalized networks. */
void saveNetwork(std::ostream &os, const Network &network);

/**
 * Read a network previously written by saveNetwork(); the returned
 * network is finalized. fatal() on format or validation errors.
 */
Network loadNetwork(std::istream &is);

/** Convenience file wrappers (fatal() on I/O errors). */
void saveNetworkFile(const std::string &path, const Network &network);
Network loadNetworkFile(const std::string &path);

/**
 * Checkpoint file framing ("flexon-checkpoint v4"): the versioned
 * header of a SimulationSession snapshot. The header writer arms the
 * stream for exact round trips — 17 significant digits, the precision
 * at which every finite double (and, a fortiori, float) survives a
 * text round trip bit for bit — so the per-subsystem saveState()
 * blocks that follow can stream values with plain operator<<.
 */
void writeCheckpointHeader(std::ostream &os, std::string_view engine);

/** Parsed checkpoint header: format version plus engine kind. */
struct CheckpointHeader
{
    int version = 0;
    std::string engine;
};

/**
 * Read and validate a checkpoint header. fatal() on bad magic or an
 * unsupported version. Readers that accept more than one version
 * gate optional blocks (e.g. the v4 plasticity block) on `version`.
 */
CheckpointHeader parseCheckpointHeader(std::istream &is);

} // namespace flexon

#endif // FLEXON_SNN_SERIALIZE_HH
