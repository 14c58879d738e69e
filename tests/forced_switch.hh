/**
 * @file
 * A test guard that forces an auto session across an engine switch.
 */

#ifndef FLEXON_TESTS_FORCED_SWITCH_HH
#define FLEXON_TESTS_FORCED_SWITCH_HH

#include "plan/calibration.hh"

namespace flexon {

/**
 * Installs, for its lifetime, a calibration pricing the event-driven
 * unit at 200x the dense update, then restores the builtin one. That
 * pushes the planned crossover rate below any sustained activity, so
 * an auto session built meanwhile (which starts event-driven on the
 * silent fresh network) hands off to dense at its first decision
 * boundary, plan::kDecisionWindow.
 */
struct ForcedSwitchCalibration
{
    ForcedSwitchCalibration()
    {
        plan::CalibrationData cal = plan::builtinCalibration();
        cal.version = "test-forced-switch";
        cal.model.eventNsPerUnit = cal.model.denseNsPerNeuron * 200.0;
        plan::setActiveCalibration(cal);
    }
    ~ForcedSwitchCalibration()
    {
        plan::setActiveCalibration(plan::builtinCalibration());
    }
};

} // namespace flexon

#endif // FLEXON_TESTS_FORCED_SWITCH_HH
