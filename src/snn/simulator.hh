/**
 * @file
 * The simulator's entry header: SimulationSession (snn/session.hh)
 * and the `Simulator` name callers construct it by.
 */

#ifndef FLEXON_SNN_SIMULATOR_HH
#define FLEXON_SNN_SIMULATOR_HH

#include "snn/session.hh"

#endif // FLEXON_SNN_SIMULATOR_HH
