#include "nets/wiring.hh"

#include <algorithm>
#include <cmath>

namespace flexon {

void
wireNetwork(Network &net, std::span<const PopProjection> projections,
            Wiring wiring, uint64_t seed)
{
    if (wiring == Wiring::Staged) {
        Rng rng(seed);
        for (const PopProjection &p : projections) {
            if (p.fanin > 0)
                net.connectFixedFanin(p.src, p.dst, p.fanin, p.weight,
                                      p.delayMin, p.delayMax, p.type,
                                      rng);
            else
                net.connectRandom(p.src, p.dst, p.probability,
                                  p.weight, p.delayMin, p.delayMax,
                                  p.type, rng);
        }
        net.finalize();
        return;
    }

    ConnectivitySpec cs;
    cs.seed = seed;
    for (const PopProjection &p : projections) {
        const Population &src = net.population(p.src);
        const Population &dst = net.population(p.dst);
        Projection proj;
        proj.srcBase = static_cast<uint32_t>(src.base);
        proj.srcCount = static_cast<uint32_t>(src.count);
        proj.dstBase = static_cast<uint32_t>(dst.base);
        proj.dstCount = static_cast<uint32_t>(dst.count);
        if (p.fanin > 0) {
            proj.rule = Projection::Rule::FixedFanout;
            proj.fanout = static_cast<uint32_t>(std::max<long long>(
                1, std::llround(static_cast<double>(p.fanin) *
                                static_cast<double>(dst.count) /
                                static_cast<double>(src.count))));
        } else {
            proj.rule = Projection::Rule::Bernoulli;
            proj.probability = p.probability;
        }
        proj.weightMean = p.weight;
        proj.delayMin = p.delayMin;
        proj.delayMax = p.delayMax;
        proj.type = p.type;
        cs.projections.push_back(proj);
    }
    net.buildFromSpec(cs, wiring == Wiring::Procedural);
}

} // namespace flexon
