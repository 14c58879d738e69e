#include "plan/calibration.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json_lite.hh"

namespace flexon {
namespace plan {

const CalibrationData &
builtinCalibration()
{
    static const CalibrationData builtin = [] {
        CalibrationData cal;
        cal.version = kBuiltinCalibrationVersion;
        cal.host = "hand-anchored defaults";
        return cal;
    }();
    return builtin;
}

namespace {

CalibrationData &
activeSlot()
{
    static CalibrationData active = builtinCalibration();
    return active;
}

// The JSON-subset parser used to live here; it moved to
// common/json_lite.{hh,cc} when the model-descriptor loader became
// its second consumer.

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

} // namespace

const CalibrationData &
activeCalibration()
{
    return activeSlot();
}

void
setActiveCalibration(const CalibrationData &cal)
{
    activeSlot() = cal;
}

void
writeCalibrationJson(std::ostream &os, const CalibrationData &cal)
{
    os.precision(17);
    os << "{\n";
    os << "  \"schema\": \"" << kCalibrationSchema << "\",\n";
    os << "  \"version\": \"" << jsonEscaped(cal.version) << "\",\n";
    os << "  \"host\": \"" << jsonEscaped(cal.host) << "\",\n";
    os << "  \"model\": {\n";
    os << "    \"dense_ns_per_neuron\": " << cal.model.denseNsPerNeuron
       << ",\n";
    os << "    \"delivery_ns_per_record\": "
       << cal.model.deliveryNsPerRecord << ",\n";
    os << "    \"ring_clear_ns_per_cell\": "
       << cal.model.ringClearNsPerCell << ",\n";
    os << "    \"step_overhead_ns\": " << cal.model.stepOverheadNs
       << ",\n";
    os << "    \"serial_ns_per_neuron\": "
       << cal.model.serialNsPerNeuron << ",\n";
    os << "    \"dispatch_ns_per_lane\": "
       << cal.model.dispatchNsPerLane << ",\n";
    os << "    \"parallel_efficiency\": "
       << cal.model.parallelEfficiency << "\n";
    os << "  },\n";
    os << "  \"fit\": {\n";
    os << "    \"max_residual\": " << cal.maxResidual << ",\n";
    os << "    \"grid_points\": " << cal.gridPoints << "\n";
    os << "  }\n";
    os << "}\n";
}

bool
saveCalibrationFile(const std::string &path,
                    const CalibrationData &cal)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeCalibrationJson(os, cal);
    os.flush();
    return os.good();
}

bool
validateCalibration(const CalibrationData &cal, double maxResidual,
                    std::string *error)
{
    auto reject = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    const CostModel &m = cal.model;
    struct Named
    {
        const char *name;
        double value;
    };
    const Named coefficients[] = {
        {"dense_ns_per_neuron", m.denseNsPerNeuron},
        {"delivery_ns_per_record", m.deliveryNsPerRecord},
        {"ring_clear_ns_per_cell", m.ringClearNsPerCell},
        {"step_overhead_ns", m.stepOverheadNs},
        {"dispatch_ns_per_lane", m.dispatchNsPerLane},
    };
    for (const Named &c : coefficients) {
        if (!finitePositive(c.value))
            return reject(std::string(c.name) + " must be a finite "
                          "positive number (got " +
                          std::to_string(c.value) + ")");
    }
    if (!std::isfinite(m.serialNsPerNeuron) || m.serialNsPerNeuron < 0.0)
        return reject("serial_ns_per_neuron must be a non-negative "
                      "number");
    if (!std::isfinite(m.parallelEfficiency) ||
        m.parallelEfficiency <= 0.0 || m.parallelEfficiency > 1.0)
        return reject("parallel_efficiency must be in (0, 1]");
    if (cal.version.empty())
        return reject("version must be non-empty");
    if (!std::isfinite(cal.maxResidual) || cal.maxResidual < 0.0)
        return reject("max_residual must be a non-negative number");
    if (cal.maxResidual > maxResidual)
        return reject("fit residual " +
                      std::to_string(cal.maxResidual) +
                      " exceeds the acceptance bound " +
                      std::to_string(maxResidual) +
                      " — the sweep was too noisy to trust");
    return true;
}

bool
loadCalibrationFile(const std::string &path, CalibrationData &out,
                    std::string *error)
{
    auto reject = [error, &path](const std::string &why) {
        if (error != nullptr)
            *error = path + ": " + why;
        return false;
    };

    std::ifstream is(path);
    if (!is)
        return reject("cannot open file");
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();

    CalibrationData cal;
    std::string schema;
    MiniJson json(text);

    const bool ok = json.parseObject([&](const std::string &key) {
        if (key == "schema")
            return json.parseString(schema);
        if (key == "version")
            return json.parseString(cal.version);
        if (key == "host")
            return json.parseString(cal.host);
        if (key == "model") {
            return json.parseObject([&](const std::string &field) {
                double *slot = nullptr;
                CostModel &m = cal.model;
                if (field == "dense_ns_per_neuron")
                    slot = &m.denseNsPerNeuron;
                else if (field == "delivery_ns_per_record")
                    slot = &m.deliveryNsPerRecord;
                else if (field == "ring_clear_ns_per_cell")
                    slot = &m.ringClearNsPerCell;
                else if (field == "step_overhead_ns")
                    slot = &m.stepOverheadNs;
                else if (field == "serial_ns_per_neuron")
                    slot = &m.serialNsPerNeuron;
                else if (field == "dispatch_ns_per_lane")
                    slot = &m.dispatchNsPerLane;
                else if (field == "parallel_efficiency")
                    slot = &m.parallelEfficiency;
                // Unknown fields are skipped, such as the
                // event_ns_per_unit of files from builds that had an
                // event-driven engine.
                if (slot == nullptr)
                    return json.skipValue();
                return json.parseNumber(*slot);
            });
        }
        if (key == "fit") {
            return json.parseObject([&](const std::string &field) {
                if (field == "max_residual")
                    return json.parseNumber(cal.maxResidual);
                if (field == "grid_points") {
                    double v = 0.0;
                    if (!json.parseNumber(v))
                        return false;
                    cal.gridPoints = static_cast<uint64_t>(v);
                    return true;
                }
                return json.skipValue();
            });
        }
        // Unknown keys are skipped, such as the mask_ns_per_neuron
        // and provider_delivery_ns maps older builds wrote.
        return json.skipValue();
    });

    if (!ok)
        return reject("malformed JSON: " + json.error());
    if (schema != kCalibrationSchema)
        return reject("schema is '" + schema + "', expected '" +
                      kCalibrationSchema + "'");
    // Load-time validation accepts any recorded residual; the
    // acceptance bound is calibrate --check's business.
    std::string why;
    if (!validateCalibration(cal, 1e9, &why))
        return reject(why);
    out = std::move(cal);
    return true;
}

std::string
installCalibrationFromEnv()
{
    const char *const path = std::getenv("FLEXON_CALIBRATION");
    if (path != nullptr && path[0] != '\0') {
        CalibrationData cal;
        std::string error;
        if (!loadCalibrationFile(path, cal, &error)) {
            std::fprintf(stderr,
                         "FLEXON_CALIBRATION: %s\n", error.c_str());
            std::exit(2);
        }
        setActiveCalibration(cal);
    }
    return activeCalibration().version;
}

} // namespace plan
} // namespace flexon
