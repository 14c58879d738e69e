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
 * Checkpoint file framing ("flexon-checkpoint v5 dense"): the
 * versioned header of a SimulationSession snapshot. The trailing
 * token names the engine that wrote the snapshot; the dense engine is
 * the only one, so it is always `dense`. The header writer arms the
 * stream for exact round trips — 17 significant digits, the precision
 * at which every finite double (and, a fortiori, float) survives a
 * text round trip bit for bit — so the per-subsystem saveState()
 * blocks that follow can stream values with plain operator<<.
 */
void writeCheckpointHeader(std::ostream &os);

/**
 * Read and validate a checkpoint header and return its format
 * version. fatal() on bad magic, an unsupported version, or an engine
 * token other than `dense` (an `event-driven` snapshot from an older
 * build is rejected by name). Readers that accept more than one
 * version gate optional blocks (e.g. the v4 plasticity block) on the
 * returned version.
 */
int parseCheckpointHeader(std::istream &is);

} // namespace flexon

#endif // FLEXON_SNN_SERIALIZE_HH
