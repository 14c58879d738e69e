/**
 * @file
 * Ablation: fixed-point precision sweep.
 *
 * The paper picks a 32-bit fixed-point word with 22 fraction bits.
 * This ablation emulates narrower fraction fields by masking the low
 * bits of every stored state variable after each step, and measures
 * the spike-count error against the double-precision reference —
 * showing where the precision cliff lies and why Q10.22 is a safe
 * choice.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/random.hh"
#include "common/table.hh"
#include "features/model_table.hh"
#include "flexon/neuron.hh"
#include "models/reference_neuron.hh"

using namespace flexon;

namespace {

/** Drop the low (22 - keep_bits) bits of a raw fixed-point value. */
Fix
maskFraction(Fix v, int keep_bits)
{
    const int drop = Fix::fracBits - keep_bits;
    if (drop <= 0)
        return v;
    const int64_t mask = ~((int64_t(1) << drop) - 1);
    return Fix::fromRaw(v.raw() & mask);
}

void
maskState(FlexonState &s, int keep_bits, size_t types)
{
    s.v = maskFraction(s.v, keep_bits);
    s.w = maskFraction(s.w, keep_bits);
    s.r = maskFraction(s.r, keep_bits);
    for (size_t i = 0; i < types; ++i) {
        s.y[i] = maskFraction(s.y[i], keep_bits);
        s.g[i] = maskFraction(s.g[i], keep_bits);
    }
}

double
rateError(ModelKind kind, int keep_bits, int steps, uint64_t seed)
{
    const NeuronParams p = defaultParams(kind);
    const FlexonConfig cfg = FlexonConfig::fromParams(p);
    ReferenceNeuron ref(p);
    FlexonNeuron hw(cfg);
    const bool cub = p.features.has(Feature::CUB);

    Rng rng(seed);
    int ref_spikes = 0, hw_spikes = 0;
    for (int t = 0; t < steps; ++t) {
        const double raw = rng.bernoulli(0.25)
                               ? rng.uniform(0.2, 0.7) *
                                     (cub ? 100.0 : 1.0)
                               : 0.0;
        ref_spikes += ref.step(raw);
        hw_spikes += hw.step(cfg.scaleWeight(raw));
        maskState(hw.state(), keep_bits, cfg.numSynapseTypes);
    }
    if (ref_spikes == 0)
        return 0.0;
    return 100.0 * std::abs(hw_spikes - ref_spikes) /
           static_cast<double>(ref_spikes);
}

} // namespace

int
main()
{
    std::printf("=== Ablation: fraction-bit sweep (the paper's "
                "Q10.22 choice) ===\n\n");
    std::printf("Spike-count error vs the double-precision "
                "reference, 40k steps:\n\n");

    const std::vector<int> widths = {6, 8, 10, 12, 16, 22};
    std::vector<std::string> header = {"Model"};
    for (int w : widths) {
        std::string name = "f";
        name += std::to_string(w);
        name += " err%";
        header.push_back(name);
    }
    Table table(header);

    for (ModelKind kind :
         {ModelKind::LIF, ModelKind::DLIF, ModelKind::Izhikevich,
          ModelKind::AdEx, ModelKind::IFCondExpGsfaGrr}) {
        std::vector<std::string> row = {modelName(kind)};
        for (int w : widths)
            row.push_back(Table::num(rateError(kind, w, 40000, 5), 2));
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    std::printf("\nExpected shape: errors blow up below ~10-12 "
                "fraction bits (per-step decay\nfactors like "
                "1 - eps_m = 0.99 need fine resolution) and are "
                "negligible at 22 bits,\njustifying the paper's "
                "format.\n");
    return 0;
}
