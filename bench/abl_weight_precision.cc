/**
 * @file
 * Ablation: synaptic weight precision.
 *
 * The synapse SRAM dominates the array budgets (Table VI), and
 * TrueNorth-class designs store low-precision weights to shrink it.
 * This ablation quantizes the Vogels-Abbott weights to k bits
 * (signed, scaled to the observed weight range), reruns the network,
 * and reports the spike-rate deviation and train coincidence against
 * the full-precision run — showing how much weight memory a
 * Flexon-based system could actually save.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/spike_train.hh"
#include "common/table.hh"
#include "nets/table1.hh"
#include "snn/simulator.hh"

using namespace flexon;

namespace {

/** Quantize every weight to k signed bits over [-max, max]. */
void
quantizeWeights(Network &net, int bits)
{
    float max_abs = 0.0f;
    for (uint32_t n = 0; n < net.numNeurons(); ++n)
        for (const Synapse &s : net.outgoing(n))
            max_abs = std::max(max_abs, std::abs(s.weight));
    if (max_abs == 0.0f)
        return;
    const double levels = static_cast<double>(1 << (bits - 1)) - 1;
    for (uint32_t n = 0; n < net.numNeurons(); ++n) {
        const uint64_t base = net.rowStart(n);
        const size_t count = net.outgoing(n).size();
        for (size_t i = 0; i < count; ++i) {
            const double q = std::round(
                net.synapseAt(base + i).weight / max_abs * levels);
            net.setSynapseWeight(base + i,
                                 static_cast<float>(q / levels * max_abs));
        }
    }
}

struct RunResult
{
    double rate;
    std::vector<SpikeEvent> events;
    size_t neurons;
};

RunResult
run(int bits)
{
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 11);
    if (bits > 0)
        quantizeWeights(inst.network, bits);
    SimulatorOptions opts;
    opts.backend = BackendKind::Folded;
    opts.recordSpikes = true;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(3000);
    return {sim.meanRate(), sim.spikeEvents(),
            inst.network.numNeurons()};
}

} // namespace

int
main()
{
    std::printf("=== Ablation: synaptic weight precision "
                "(Vogels-Abbott, folded backend) ===\n\n");

    const RunResult full = run(0);
    Table table({"weight bits", "rate", "rate delta%",
                 "coincidence@2ms", "weight SRAM saved"});
    table.addRow({"float32", Table::num(full.rate, 5), "0.00", "1.000",
                  "-"});

    for (int bits : {16, 12, 8, 6, 4, 2}) {
        const RunResult q = run(bits);
        const double delta =
            100.0 * std::abs(q.rate - full.rate) / full.rate;
        const double coin =
            compareRuns(full.events, q.events, full.neurons, 20);
        char saved[16];
        std::snprintf(saved, sizeof(saved), "%.0f%%",
                      100.0 * (1.0 - bits / 32.0));
        table.addRow({std::to_string(bits), Table::num(q.rate, 5),
                      Table::num(delta, 2), Table::num(coin, 3),
                      saved});
    }
    table.print(std::cout);

    std::printf("\nExpected shape: activity statistics survive down "
                "to ~6-8 bits (75%% less\nweight SRAM), then degrade "
                "sharply — consistent with TrueNorth-class designs\n"
                "shipping narrow weights.\n");
    return 0;
}
