#include "snn/serialize.hh"

#include <charconv>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace flexon {

namespace {

constexpr const char *magic = "flexon-network";
constexpr int version = 1;

/** Read the number of a `vN` version field; false on anything else
 *  (no exceptions, unlike std::stoi). */
bool
parseVersionField(const std::string &word, int &out)
{
    if (word.size() < 2 || word[0] != 'v')
        return false;
    const char *const last = word.data() + word.size();
    const auto [end, ec] = std::from_chars(word.data() + 1, last, out);
    return ec == std::errc() && end == last;
}

void
writeParams(std::ostream &os, const NeuronParams &p)
{
    os << p.features.raw() << ' ' << p.numSynapseTypes << ' '
       << p.epsM << ' ' << p.vLeak;
    for (size_t i = 0; i < maxSynapseTypes; ++i)
        os << ' ' << p.syn[i].epsG << ' ' << p.syn[i].vG;
    os << ' ' << p.deltaT << ' ' << p.vCrit << ' ' << p.vFiring << ' '
       << p.epsW << ' ' << p.a << ' ' << p.vW << ' ' << p.b << ' '
       << p.arSteps << ' ' << p.epsR << ' ' << p.vRR << ' ' << p.vAR
       << ' ' << p.qR;
}

NeuronParams
readParams(std::istream &is)
{
    NeuronParams p;
    uint16_t features_raw = 0;
    is >> features_raw >> p.numSynapseTypes >> p.epsM >> p.vLeak;
    p.features = FeatureSet::fromRaw(features_raw);
    for (size_t i = 0; i < maxSynapseTypes; ++i)
        is >> p.syn[i].epsG >> p.syn[i].vG;
    is >> p.deltaT >> p.vCrit >> p.vFiring >> p.epsW >> p.a >> p.vW >>
        p.b >> p.arSteps >> p.epsR >> p.vRR >> p.vAR >> p.qR;
    if (!is)
        fatal("malformed neuron parameters in network file");
    return p;
}

/** Escape spaces in population names (space is the field separator). */
std::string
escapeName(const std::string &name)
{
    std::string out;
    for (char c : name)
        out += (c == ' ') ? '\x1f' : c;
    return out.empty() ? "_" : out;
}

std::string
unescapeName(const std::string &name)
{
    std::string out;
    for (char c : name)
        out += (c == '\x1f') ? ' ' : c;
    return out;
}

} // namespace

void
saveNetwork(std::ostream &os, const Network &network)
{
    if (!network.finalized())
        fatal("saveNetwork requires a finalized network");

    os << magic << " v" << version << '\n';
    os << std::setprecision(17);

    os << "populations " << network.numPopulations() << '\n';
    for (size_t i = 0; i < network.numPopulations(); ++i) {
        const Population &pop = network.population(i);
        os << "pop " << escapeName(pop.name) << ' ' << pop.count
           << ' ';
        writeParams(os, pop.params);
        os << '\n';
    }

    os << "synapses " << network.numSynapses() << '\n';
    os << std::setprecision(9); // float weights
    // rowFor() streams one row at a time, so procedural networks
    // export the same file without ever materializing the wiring.
    std::vector<Synapse> scratch;
    for (uint32_t n = 0; n < network.numNeurons(); ++n) {
        for (const Synapse &s : network.rowFor(n, scratch)) {
            os << n << ' ' << s.target << ' ' << s.weight << ' '
               << static_cast<int>(s.delay) << ' '
               << static_cast<int>(s.type) << '\n';
        }
    }
}

Network
loadNetwork(std::istream &is)
{
    std::string word;
    int file_version = 0;
    is >> word;
    if (word != magic)
        fatal("not a flexon network file (bad magic '%s')",
              word.c_str());
    is >> word;
    if (!parseVersionField(word, file_version))
        fatal("malformed version field '%s'", word.c_str());
    if (file_version != version)
        fatal("unsupported network file version %d", file_version);

    Network net;

    size_t num_pops = 0;
    is >> word >> num_pops;
    if (word != "populations" || !is)
        fatal("expected populations header");
    for (size_t i = 0; i < num_pops; ++i) {
        std::string tag, name;
        size_t count = 0;
        is >> tag >> name >> count;
        if (tag != "pop" || !is)
            fatal("malformed population record %zu", i);
        if (count == 0)
            fatal("empty population record %zu", i);
        const NeuronParams params = readParams(is);
        net.addPopulation(unescapeName(name), params, count);
    }

    size_t num_synapses = 0;
    is >> word >> num_synapses;
    if (word != "synapses" || !is)
        fatal("expected synapses header");
    for (size_t i = 0; i < num_synapses; ++i) {
        uint32_t src = 0;
        Synapse s{};
        int delay = 0, type = 0;
        is >> src >> s.target >> s.weight >> delay >> type;
        if (!is)
            fatal("malformed synapse record %zu", i);
        if (src >= net.numNeurons() || s.target >= net.numNeurons())
            fatal("synapse record %zu: %u -> %u is outside the %zu "
                  "neurons",
                  i, src, s.target, net.numNeurons());
        if (delay < 1 || delay > 255)
            fatal("synapse record %zu: delay %d is outside [1, 255]", i,
                  delay);
        if (type < 0 || static_cast<size_t>(type) >= maxSynapseTypes)
            fatal("synapse record %zu: type %d is outside [0, %zu)", i,
                  type, maxSynapseTypes);
        s.delay = static_cast<uint8_t>(delay);
        s.type = static_cast<uint8_t>(type);
        net.addSynapse(src, s);
    }

    net.finalize();
    return net;
}

void
saveNetworkFile(const std::string &path, const Network &network)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    saveNetwork(os, network);
    if (!os)
        fatal("error writing '%s'", path.c_str());
}

Network
loadNetworkFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s' for reading", path.c_str());
    return loadNetwork(is);
}

namespace {

constexpr const char *checkpointMagic = "flexon-checkpoint";
// v2: per-(slot, shard) stimulus touch lists and skip counters in the
// router block, the session EWMA rate on the counters line, and the
// event engine's carry block. v1 snapshots are rejected rather than
// misread.
// v3: adds the `weights 2` form — procedural networks snapshot the
// spec seed plus the sparse weight-delta overlay instead of a full
// weight vector. Blocks a v2 reader would understand are unchanged,
// so this build still reads v2 snapshots.
// v4: adds the `plasticity N` block between the weights and engine
// blocks — the state of every session-attached plasticity rule
// (STDP traces, intrinsic-excitability rates and threshold offsets).
// v2/v3 snapshots simply lack the block and restore with the rules'
// current state untouched.
// v5: the router block drops the per-(slot, shard) touch lists and
// keeps two counters (synapse events, buckets visited); the ring is
// the whole delivery state. Older blocks are read past their touch
// lines.
constexpr int checkpointVersion = 5;
constexpr int checkpointMinVersion = 2;
// The header's engine token. Older builds also had an event-driven
// engine, whose snapshots carry `event-driven` and cannot be read.
constexpr const char *checkpointEngine = "dense";

} // namespace

void
writeCheckpointHeader(std::ostream &os)
{
    os << checkpointMagic << " v" << checkpointVersion << ' '
       << checkpointEngine << '\n';
    os << std::setprecision(17);
}

int
parseCheckpointHeader(std::istream &is)
{
    std::string word;
    is >> word;
    if (word != checkpointMagic)
        fatal("not a flexon checkpoint file (bad magic '%s')",
              word.c_str());
    is >> word;
    int version = 0;
    if (!parseVersionField(word, version))
        fatal("malformed checkpoint version field '%s'", word.c_str());
    if (version < checkpointMinVersion || version > checkpointVersion)
        fatal("unsupported checkpoint version %d (this build reads "
              "v%d..v%d)",
              version, checkpointMinVersion, checkpointVersion);
    is >> word;
    if (!is)
        fatal("truncated checkpoint header");
    if (word != checkpointEngine)
        fatal("checkpoint was written by a '%s' engine, cannot "
              "restore into '%s'",
              word.c_str(), checkpointEngine);
    return version;
}

} // namespace flexon
