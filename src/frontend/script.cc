#include "frontend/script.hh"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "features/model_table.hh"
#include "registry/registry.hh"

namespace flexon {

namespace {

/** Tokenized directive line with its source line number. */
struct Line
{
    int number;
    std::vector<std::string> tokens;
};

[[noreturn]] void
parseError(int line, const char *fmt, const std::string &detail)
{
    fatal("script line %d: %s%s", line, fmt, detail.c_str());
}

/** Split "key=value" pairs from tokens[from..). */
std::map<std::string, std::string>
keyValues(const Line &line, size_t from)
{
    std::map<std::string, std::string> out;
    for (size_t i = from; i < line.tokens.size(); ++i) {
        const std::string &tok = line.tokens[i];
        const size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            parseError(line.number, "expected key=value, got ", tok);
        out[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    return out;
}

/** A finite number; nan and inf are rejected like any bad value. */
double
toDouble(const Line &line, const std::string &key,
         const std::string &value)
{
    try {
        size_t used = 0;
        const double v = std::stod(value, &used);
        if (used != value.size() || !std::isfinite(v))
            throw std::invalid_argument(value);
        return v;
    } catch (const std::exception &) {
        parseError(line.number, "bad numeric value for ",
                   key + "=" + value);
    }
}

uint64_t
toUint(const Line &line, const std::string &key,
       const std::string &value)
{
    const double v = toDouble(line, key, value);
    // 2^64 and above would overflow the integer conversion below.
    if (v < 0.0 || v >= 18446744073709551616.0 ||
        v != static_cast<double>(static_cast<uint64_t>(v)))
        parseError(line.number, "expected a non-negative integer for ",
                   key + "=" + value);
    return static_cast<uint64_t>(v);
}

/** toUint, refused above `max` before the caller narrows it. */
uint64_t
toUintAtMost(const Line &line, const std::string &key,
             const std::string &value, uint64_t max)
{
    const uint64_t v = toUint(line, key, value);
    if (v > max)
        parseError(line.number, "value out of range for ",
                   key + "=" + value + " (at most " +
                       std::to_string(max) + ")");
    return v;
}

/** The optional type= of a connection or stimulus (default 0). */
uint8_t
toSynapseType(const Line &line,
              const std::map<std::string, std::string> &kv)
{
    if (!kv.count("type"))
        return 0;
    return static_cast<uint8_t>(toUintAtMost(line, "type", kv.at("type"),
                                             maxSynapseTypes - 1));
}

/** Parse "lo:hi" (or a single value) into a delay range. */
std::pair<uint8_t, uint8_t>
toDelayRange(const Line &line, const std::string &value)
{
    const size_t colon = value.find(':');
    const std::string lo_s =
        colon == std::string::npos ? value : value.substr(0, colon);
    const std::string hi_s =
        colon == std::string::npos ? value : value.substr(colon + 1);
    const uint64_t lo = toUint(line, "delay", lo_s);
    const uint64_t hi = toUint(line, "delay", hi_s);
    if (lo < 1 || hi > 255 || lo > hi)
        parseError(line.number, "delay range out of [1,255]: ",
                   value);
    return {static_cast<uint8_t>(lo), static_cast<uint8_t>(hi)};
}

/** Apply a normalized-parameter override by key name. */
void
applyOverride(const Line &line, NeuronParams &params,
              const std::string &key, const std::string &value)
{
    auto num = [&] { return toDouble(line, key, value); };
    if (key == "types") {
        params.numSynapseTypes =
            static_cast<size_t>(toUint(line, key, value));
    } else if (key == "eps_m") {
        params.epsM = num();
    } else if (key == "v_leak") {
        params.vLeak = num();
    } else if (key == "delta_t") {
        params.deltaT = num();
    } else if (key == "v_crit") {
        params.vCrit = num();
    } else if (key == "v_firing") {
        params.vFiring = num();
    } else if (key == "eps_w") {
        params.epsW = num();
    } else if (key == "a") {
        params.a = num();
    } else if (key == "v_w") {
        params.vW = num();
    } else if (key == "b") {
        params.b = num();
    } else if (key == "ar_steps") {
        params.arSteps = static_cast<uint32_t>(
            toUintAtMost(line, key, value, UINT32_MAX));
    } else if (key == "eps_r") {
        params.epsR = num();
    } else if (key == "v_rr") {
        params.vRR = num();
    } else if (key == "v_ar") {
        params.vAR = num();
    } else if (key == "q_r") {
        params.qR = num();
    } else if (key.rfind("eps_g", 0) == 0 && key.size() == 6) {
        const size_t idx = static_cast<size_t>(key[5] - '0');
        if (idx >= maxSynapseTypes)
            parseError(line.number, "bad synapse type in ", key);
        params.syn[idx].epsG = num();
    } else if (key.rfind("v_g", 0) == 0 && key.size() == 4) {
        const size_t idx = static_cast<size_t>(key[3] - '0');
        if (idx >= maxSynapseTypes)
            parseError(line.number, "bad synapse type in ", key);
        params.syn[idx].vG = num();
    } else {
        parseError(line.number, "unknown parameter ", key);
    }
}

} // namespace

ParsedScript
parseScript(std::istream &is)
{
    // Pass 1: tokenize and find the seed (it must apply to wiring
    // even if declared last).
    std::vector<Line> lines;
    std::string raw;
    int number = 0;
    uint64_t seed = 1;
    while (std::getline(is, raw)) {
        ++number;
        const size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::istringstream tokens(raw);
        Line line{number, {}};
        std::string tok;
        while (tokens >> tok)
            line.tokens.push_back(tok);
        if (line.tokens.empty())
            continue;
        if (line.tokens[0] == "seed") {
            if (line.tokens.size() != 2)
                parseError(number, "usage: seed N", "");
            seed = toUint(line, "seed", line.tokens[1]);
            continue;
        }
        lines.push_back(std::move(line));
    }

    ParsedScript script;
    script.seed = seed;
    script.stimulus = StimulusGenerator(seed ^ 0x5712b1e5ULL);

    Network &net = script.network;
    Rng rng(seed);
    std::map<std::string, size_t> pops;

    auto find_pop = [&](const Line &line,
                        const std::string &name) -> size_t {
        auto it = pops.find(name);
        if (it == pops.end())
            parseError(line.number, "unknown population ", name);
        return it->second;
    };

    for (const Line &line : lines) {
        const std::string &directive = line.tokens[0];
        if (directive == "population") {
            if (line.tokens.size() < 2)
                parseError(line.number,
                           "usage: population NAME model=... count=...",
                           "");
            const std::string &name = line.tokens[1];
            if (pops.count(name))
                parseError(line.number, "duplicate population ", name);
            auto kv = keyValues(line, 2);
            if (!kv.count("model") || !kv.count("count"))
                parseError(line.number,
                           "population needs model= and count=", "");
            const ModelDescriptor *desc =
                ModelRegistry::instance().find(kv.at("model"));
            if (desc == nullptr)
                parseError(
                    line.number, "unknown model ",
                    kv.at("model") + "; registered models: " +
                        ModelRegistry::instance().namesSummary());
            NeuronParams params = desc->params;
            const size_t count = static_cast<size_t>(
                toUint(line, "count", kv.at("count")));
            if (count == 0)
                parseError(line.number, "empty population ", name);
            kv.erase("model");
            kv.erase("count");
            for (const auto &[key, value] : kv)
                applyOverride(line, params, key, value);
            const std::string err = params.validate();
            if (!err.empty())
                parseError(line.number, "invalid parameters: ", err);
            pops[name] = net.addPopulation(name, params, count);
        } else if (directive == "connect" || directive == "fanout") {
            if (line.tokens.size() < 3)
                parseError(line.number,
                           "usage: connect SRC DST key=value...", "");
            const size_t src = find_pop(line, line.tokens[1]);
            const size_t dst = find_pop(line, line.tokens[2]);
            auto kv = keyValues(line, 3);
            if (!kv.count("weight"))
                parseError(line.number, "missing weight=", "");
            const double weight =
                toDouble(line, "weight", kv.at("weight"));
            auto [dlo, dhi] = kv.count("delay")
                                  ? toDelayRange(line, kv.at("delay"))
                                  : std::pair<uint8_t, uint8_t>{1, 1};
            const uint8_t type = toSynapseType(line, kv);
            if (directive == "connect") {
                if (!kv.count("p"))
                    parseError(line.number, "connect needs p=", "");
                const double p = toDouble(line, "p", kv.at("p"));
                if (p < 0.0 || p > 1.0)
                    parseError(line.number,
                               "probability out of [0,1]: ",
                               kv.at("p"));
                net.connectRandom(src, dst, p, weight, dlo, dhi, type,
                                  rng);
            } else {
                if (!kv.count("k"))
                    parseError(line.number, "fanout needs k=", "");
                // Targets are distinct, so at most the whole target
                // population.
                const uint64_t k = toUintAtMost(
                    line, "k", kv.at("k"), net.population(dst).count);
                net.connectFixedFanout(src, dst, static_cast<size_t>(k),
                                       weight, dlo, dhi, type, rng);
            }
        } else if (directive == "stimulus") {
            if (line.tokens.size() < 3)
                parseError(line.number,
                           "usage: stimulus poisson|pattern POP ...",
                           "");
            const std::string &kind = line.tokens[1];
            const size_t pop_idx = find_pop(line, line.tokens[2]);
            // Population base/count are known only after all
            // populations are declared; script order guarantees the
            // population exists already.
            const Population &pop = net.population(pop_idx);
            auto kv = keyValues(line, 3);
            if (!kv.count("weight"))
                parseError(line.number, "missing weight=", "");
            const float weight = static_cast<float>(
                toDouble(line, "weight", kv.at("weight")));
            const uint8_t type = toSynapseType(line, kv);
            if (kind == "poisson") {
                if (!kv.count("rate"))
                    parseError(line.number, "poisson needs rate=", "");
                const double rate =
                    toDouble(line, "rate", kv.at("rate"));
                if (rate < 0.0 || rate > 1.0)
                    parseError(line.number, "rate out of [0,1]: ",
                               kv.at("rate"));
                script.stimulus.addSource(StimulusSource::poisson(
                    static_cast<uint32_t>(pop.base),
                    static_cast<uint32_t>(pop.count), rate, weight,
                    type));
            } else if (kind == "pattern") {
                if (!kv.count("period"))
                    parseError(line.number, "pattern needs period=",
                               "");
                const uint64_t period = toUintAtMost(
                    line, "period", kv.at("period"), UINT32_MAX);
                if (period == 0)
                    parseError(line.number, "period must be >= 1: ",
                               kv.at("period"));
                script.stimulus.addSource(StimulusSource::pattern(
                    static_cast<uint32_t>(pop.base),
                    static_cast<uint32_t>(pop.count),
                    static_cast<uint32_t>(period), weight, type));
            } else if (kind == "ou") {
                if (!kv.count("sigma") || !kv.count("tau"))
                    parseError(line.number,
                               "ou needs sigma= and tau=", "");
                const double sigma =
                    toDouble(line, "sigma", kv.at("sigma"));
                const double tau = toDouble(line, "tau", kv.at("tau"));
                if (sigma < 0.0)
                    parseError(line.number, "sigma must be >= 0: ",
                               kv.at("sigma"));
                if (tau < 1.0)
                    parseError(line.number, "tau must be >= 1: ",
                               kv.at("tau"));
                // `weight` doubles as the OU mean.
                script.stimulus.addSource(StimulusSource::ou(
                    static_cast<uint32_t>(pop.base),
                    static_cast<uint32_t>(pop.count), weight, sigma,
                    tau, type));
            } else {
                parseError(line.number, "unknown stimulus kind ",
                           kind);
            }
        } else {
            parseError(line.number, "unknown directive ", directive);
        }
    }

    if (net.numPopulations() == 0)
        fatal("script declares no populations");
    net.finalize();
    return script;
}

ParsedScript
parseScriptString(const std::string &text)
{
    std::istringstream is(text);
    return parseScript(is);
}

ParsedScript
parseScriptFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open script '%s'", path.c_str());
    return parseScript(is);
}

} // namespace flexon
