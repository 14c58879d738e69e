/**
 * @file
 * Hybrid offload (Section VII-A): an SNN mixing a Flexon-supported
 * model (AdEx) with a custom model Flexon cannot express
 * (Hodgkin-Huxley, which needs division and exponentials beyond the
 * datapath). The paper's answer: offload the supported populations
 * to Flexon and keep the unsupported ones on the general-purpose
 * processor.
 *
 * This example builds a 400-neuron AdEx network feeding 40 HH
 * neurons, runs the AdEx side on the spatially folded Flexon array
 * (modelled time) and the HH side on the host, and compares the
 * neuron-computation cost against the all-software run.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/random.hh"
#include "features/model_table.hh"
#include "folded/array.hh"
#include "models/hh.hh"
#include "models/reference_neuron.hh"

using namespace flexon;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
main()
{
    constexpr size_t adex_count = 400;
    constexpr size_t hh_count = 40;
    constexpr int steps = 2000; // 200 ms of biological time

    const NeuronParams adex_params = defaultParams(ModelKind::AdEx);
    const FlexonConfig adex_config =
        FlexonConfig::fromParams(adex_params);

    // Sparse random feed-forward coupling: each AdEx spike adds to a
    // decaying synaptic current (tau ~ 0.6 ms) in 4 random HH
    // neurons, so coincident spikes summate the way biological
    // synaptic currents do.
    Rng rng(12);
    std::vector<std::vector<uint32_t>> fanout(adex_count);
    for (auto &targets : fanout)
        for (int k = 0; k < 4; ++k)
            targets.push_back(
                static_cast<uint32_t>(rng.uniformInt(hh_count)));

    // --- Run 1: everything in software.
    std::printf("=== Section VII-A hybrid offload: AdEx (%zu) + HH "
                "(%zu), %d steps ===\n\n",
                adex_count, hh_count, steps);

    double sw_adex_sec = 0.0, sw_hh_sec = 0.0;
    uint64_t sw_adex_spikes = 0, sw_hh_spikes = 0;
    {
        Rng drive_rng(77);
        std::vector<ReferenceNeuron> adex(adex_count,
                                          ReferenceNeuron(adex_params));
        std::vector<HHNeuron> hh(hh_count);
        std::vector<double> hh_current(hh_count, 0.0);

        for (int t = 0; t < steps; ++t) {
            std::vector<double> next_current(hh_count, 0.0);
            auto t0 = Clock::now();
            for (size_t i = 0; i < adex_count; ++i) {
                const double in =
                    drive_rng.bernoulli(0.15)
                        ? drive_rng.uniform(0.3, 0.8)
                        : 0.0;
                if (adex[i].step(in)) {
                    ++sw_adex_spikes;
                    for (uint32_t tgt : fanout[i])
                        next_current[tgt] += 8.0; // uA/cm^2 kick
                }
            }
            sw_adex_sec += secondsSince(t0);

            t0 = Clock::now();
            for (size_t i = 0; i < hh_count; ++i)
                sw_hh_spikes += hh[i].step(hh_current[i]);
            sw_hh_sec += secondsSince(t0);
            for (size_t i = 0; i < hh_count; ++i)
                hh_current[i] = 0.85 * hh_current[i] + next_current[i];
        }
    }
    std::printf("all-software : AdEx %.1f ms, HH %.1f ms "
                "(AdEx %llu spikes, HH %llu spikes)\n",
                sw_adex_sec * 1e3, sw_hh_sec * 1e3,
                static_cast<unsigned long long>(sw_adex_spikes),
                static_cast<unsigned long long>(sw_hh_spikes));

    // --- Run 2: AdEx offloaded to the folded Flexon array.
    double hw_hh_sec = 0.0;
    uint64_t hw_adex_spikes = 0, hw_hh_spikes = 0;
    FoldedFlexonArray array;
    array.addPopulation(adex_config, adex_count);
    {
        Rng drive_rng(77);
        std::vector<HHNeuron> hh(hh_count);
        std::vector<double> hh_current(hh_count, 0.0);
        std::vector<double> input(adex_count * maxSynapseTypes, 0.0);
        std::vector<uint8_t> fired;

        for (int t = 0; t < steps; ++t) {
            for (size_t i = 0; i < adex_count; ++i) {
                input[i * maxSynapseTypes] =
                    drive_rng.bernoulli(0.15)
                        ? drive_rng.uniform(0.3, 0.8)
                        : 0.0;
            }
            array.step(input, fired);

            std::vector<double> next_current(hh_count, 0.0);
            for (size_t i = 0; i < adex_count; ++i) {
                if (fired[i]) {
                    ++hw_adex_spikes;
                    for (uint32_t tgt : fanout[i])
                        next_current[tgt] += 8.0;
                }
            }
            auto t0 = Clock::now();
            for (size_t i = 0; i < hh_count; ++i)
                hw_hh_spikes += hh[i].step(hh_current[i]);
            hw_hh_sec += secondsSince(t0);
            for (size_t i = 0; i < hh_count; ++i)
                hh_current[i] = 0.85 * hh_current[i] + next_current[i];
        }
    }
    const double hw_adex_sec = array.seconds();
    std::printf("hybrid       : AdEx %.3f ms on folded Flexon "
                "(modelled), HH %.1f ms on host\n               "
                "(AdEx %llu spikes, HH %llu spikes)\n\n",
                hw_adex_sec * 1e3, hw_hh_sec * 1e3,
                static_cast<unsigned long long>(hw_adex_spikes),
                static_cast<unsigned long long>(hw_hh_spikes));

    const double sw_total = sw_adex_sec + sw_hh_sec;
    const double hw_total = hw_adex_sec + hw_hh_sec;
    std::printf("Neuron-computation total: %.1f ms -> %.1f ms "
                "(%.2fx). The AdEx share drops\nfrom %.0f%% to "
                "%.1f%%; the residual cost is the unsupported HH "
                "population, as\nSection VII-A anticipates.\n",
                sw_total * 1e3, hw_total * 1e3, sw_total / hw_total,
                100.0 * sw_adex_sec / sw_total,
                100.0 * hw_adex_sec / hw_total);
    return 0;
}
