#include "analysis/raster.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flexon {

std::string
renderRaster(const std::vector<SpikeEvent> &events, size_t num_neurons,
             uint64_t steps, const RasterOptions &options)
{
    flexon_assert(num_neurons > 0);
    flexon_assert(steps > 0);
    flexon_assert(options.columns > 0);
    flexon_assert(options.maxRows > 0);

    const size_t rows = std::min(options.maxRows, num_neurons);
    const size_t stride = num_neurons / rows; // even subsampling
    const uint64_t bin =
        std::max<uint64_t>(1, steps / options.columns);

    // counts[row][col]
    std::vector<std::vector<int>> counts(
        rows, std::vector<int>(options.columns, 0));
    for (const SpikeEvent &e : events) {
        if (e.neuron % stride != 0)
            continue;
        const size_t row = e.neuron / stride;
        const size_t col =
            std::min(options.columns - 1,
                     static_cast<size_t>(e.step / bin));
        if (row < rows)
            ++counts[row][col];
    }

    std::string out;
    for (size_t r = 0; r < rows; ++r) {
        std::string label = "n";
        label += std::to_string(r * stride);
        label.resize(8, ' ');
        out += label;
        for (size_t c = 0; c < options.columns; ++c) {
            const int n = counts[r][c];
            out += n == 0 ? '.' : (n == 1 ? '|' : '#');
        }
        out += '\n';
    }
    return out;
}

std::string
renderRateSparkline(const std::vector<double> &rate)
{
    static const char *levels[] = {" ",      "▁", "▂",
                                   "▃", "▄", "▅",
                                   "▆", "▇", "█"};
    double max = 0.0;
    for (double r : rate)
        max = std::max(max, r);
    std::string out;
    for (double r : rate) {
        const int level =
            max > 0.0
                ? static_cast<int>(std::min(8.0, 8.0 * r / max + 0.5))
                : 0;
        out += levels[level];
    }
    return out;
}

void
writeSpikesCsv(std::ostream &os, const std::vector<SpikeEvent> &events)
{
    os << "step,neuron\n";
    for (const SpikeEvent &e : events)
        os << e.step << ',' << e.neuron << '\n';
}

} // namespace flexon
