/**
 * @file
 * Tests for the network-description front-end: parsing of every
 * directive, parameter overrides, error reporting with line numbers,
 * determinism, and end-to-end simulation of a scripted network.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "frontend/script.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

constexpr const char *basicScript = R"(
# A small E/I network.
seed 42
population exc model=DLIF count=40
population inh model=DLIF count=10 eps_m=0.02
connect exc exc p=0.1 weight=0.4 delay=1:5 type=0
connect exc inh p=0.2 weight=0.4 delay=1:5 type=0
connect inh exc p=0.3 weight=-1.2 delay=2 type=1
stimulus poisson exc rate=0.05 weight=1.0
stimulus pattern inh period=100 weight=0.5 type=0
)";

TEST(Script, ParsesPopulationsAndWiring)
{
    ParsedScript s = parseScriptString(basicScript);
    ASSERT_EQ(s.network.numPopulations(), 2u);
    EXPECT_EQ(s.network.population(0).name, "exc");
    EXPECT_EQ(s.network.population(0).count, 40u);
    EXPECT_EQ(s.network.population(1).count, 10u);
    EXPECT_EQ(s.network.numNeurons(), 50u);
    EXPECT_GT(s.network.numSynapses(), 0u);
    EXPECT_EQ(s.seed, 42u);
    EXPECT_EQ(s.stimulus.numSources(), 2u);
}

TEST(Script, ParameterOverridesApply)
{
    ParsedScript s = parseScriptString(basicScript);
    EXPECT_DOUBLE_EQ(s.network.population(1).params.epsM, 0.02);
    // Unoverridden fields keep the model defaults.
    EXPECT_DOUBLE_EQ(s.network.population(0).params.epsM, 0.01);
}

TEST(Script, AllOverrideKeysAccepted)
{
    ParsedScript s = parseScriptString(
        "population p model=AdEx count=2 types=3 eps_m=0.015 "
        "delta_t=0.25 v_crit=0.4 v_firing=1.4 eps_w=0.002 a=-0.02 "
        "v_w=0.2 b=0.1 ar_steps=15 eps_g0=0.03 v_g0=2.5 eps_g2=0.01 "
        "v_g2=-1.5\n");
    const NeuronParams &p = s.network.population(0).params;
    EXPECT_EQ(p.numSynapseTypes, 3u);
    EXPECT_DOUBLE_EQ(p.epsM, 0.015);
    EXPECT_DOUBLE_EQ(p.deltaT, 0.25);
    EXPECT_DOUBLE_EQ(p.vFiring, 1.4);
    EXPECT_DOUBLE_EQ(p.a, -0.02);
    EXPECT_EQ(p.arSteps, 15u);
    EXPECT_DOUBLE_EQ(p.syn[0].epsG, 0.03);
    EXPECT_DOUBLE_EQ(p.syn[2].vG, -1.5);
}

TEST(Script, RrOverridesViaGsfaModel)
{
    ParsedScript s = parseScriptString(
        "population p model=IF_cond_exp_gsfa_grr count=2 eps_r=0.1 "
        "v_rr=-0.4 v_ar=-0.6 q_r=-0.3 b=-0.2 eps_w=0.01\n");
    const NeuronParams &p = s.network.population(0).params;
    EXPECT_DOUBLE_EQ(p.epsR, 0.1);
    EXPECT_DOUBLE_EQ(p.vRR, -0.4);
    EXPECT_DOUBLE_EQ(p.qR, -0.3);
}

TEST(Script, OuStimulusDirective)
{
    ParsedScript s = parseScriptString(R"(
population a model=DLIF count=4
stimulus ou a weight=0.05 sigma=0.02 tau=30
)");
    EXPECT_EQ(s.stimulus.numSources(), 1u);
    // OU feeds every neuron every step.
    EXPECT_NEAR(s.stimulus.expectedSpikesPerStep(), 4.0, 1e-9);
    EXPECT_DEATH(parseScriptString(
                     "population a model=DLIF count=4\n"
                     "stimulus ou a weight=0.05\n"),
                 "sigma");
}

TEST(Script, FanoutDirective)
{
    ParsedScript s = parseScriptString(R"(
population a model=LIF count=5
population b model=LIF count=20
fanout a b k=7 weight=0.5 delay=1:3
)");
    EXPECT_EQ(s.network.numSynapses(), 5u * 7u);
}

TEST(Script, DeterministicForSameSeed)
{
    const ParsedScript a = parseScriptString(basicScript);
    const ParsedScript b = parseScriptString(basicScript);
    ASSERT_EQ(a.network.numSynapses(), b.network.numSynapses());
    for (uint32_t n = 0; n < a.network.numNeurons(); ++n) {
        auto oa = a.network.outgoing(n);
        auto ob = b.network.outgoing(n);
        ASSERT_EQ(oa.size(), ob.size());
        for (size_t i = 0; i < oa.size(); ++i) {
            EXPECT_EQ(oa[i].target, ob[i].target);
            EXPECT_EQ(oa[i].weight, ob[i].weight);
        }
    }
}

TEST(Script, ScriptedNetworkSimulates)
{
    ParsedScript s = parseScriptString(basicScript);
    SimulatorOptions opts;
    opts.backend = BackendKind::Folded;
    Simulator sim(s.network, s.stimulus, opts);
    sim.run(2000);
    EXPECT_GT(sim.stats().spikes, 0u);
}

TEST(Script, ErrorsCarryLineNumbers)
{
    EXPECT_DEATH(parseScriptString("bogus directive\n"),
                 "line 1: unknown directive");
    EXPECT_DEATH(parseScriptString(
                     "population a model=LIF count=3\n"
                     "connect a b p=0.5 weight=1\n"),
                 "line 2: unknown population");
    EXPECT_DEATH(parseScriptString(
                     "population a model=NoSuchModel count=3\n"),
                 "unknown model NoSuchModel; registered models");
    EXPECT_DEATH(parseScriptString(
                     "population a model=LIF count=3\n"
                     "connect a a p=2.0 weight=1\n"),
                 "probability");
    EXPECT_DEATH(parseScriptString(
                     "population a model=LIF count=3 eps_m=nope\n"),
                 "bad numeric value");
    EXPECT_DEATH(parseScriptString(
                     "population a model=LIF count=3 frobnicate=1\n"),
                 "unknown parameter");
    EXPECT_DEATH(parseScriptString(""), "no populations");
    EXPECT_DEATH(parseScriptString(
                     "population a model=LIF count=3\n"
                     "connect a a p=0.5 weight=1 delay=0:300\n"),
                 "delay range");

    // Values outside what the stimulus, wiring and delivery code
    // accept are refused before they are narrowed or reach an
    // assertion (exit 1, not an abort or a silent wrap).
    const std::string pop = "population e model=LLIF count=10\n";
    const std::pair<const char *, const char *> bad[] = {
        {"stimulus poisson e rate=1.5 weight=0.5",
         "line 2: rate out of"},
        {"stimulus poisson e rate=-0.1 weight=0.5",
         "line 2: rate out of"},
        {"stimulus pattern e period=0 weight=0.5",
         "line 2: period must be >= 1"},
        {"stimulus pattern e period=4294967297 weight=0.5",
         "line 2: value out of range for period=4294967297"},
        {"stimulus ou e weight=0.5 sigma=0.1 tau=0.5",
         "line 2: tau must be >= 1"},
        {"stimulus ou e weight=0.5 sigma=-1 tau=10",
         "line 2: sigma must be >= 0"},
        {"fanout e e k=20 weight=0.5 delay=1:2",
         "line 2: value out of range for k=20"},
        {"stimulus poisson e rate=0.1 weight=0.5 type=9",
         "line 2: value out of range for type=9"},
        {"connect e e p=0.5 weight=0.5 type=256",
         "line 2: value out of range for type=256"},
    };
    for (const auto &[line, message] : bad)
        EXPECT_EXIT(parseScriptString(pop + line + "\n"),
                    ::testing::ExitedWithCode(1), message)
            << line;
}

TEST(Script, NonFiniteNumbersAreParseErrors)
{
    // A NaN weight would reach Fix::fromDouble on the fixed-point
    // backends; every numeric field must be finite.
    const char *base = "population exc model=DLIF count=10\n";
    EXPECT_EXIT(parseScriptString(std::string(base) +
                                  "stimulus poisson exc rate=0.05 "
                                  "weight=nan\n"),
                ::testing::ExitedWithCode(1),
                "script line 2: bad numeric value for weight=nan");
    EXPECT_EXIT(parseScriptString(std::string(base) +
                                  "connect exc exc p=0.1 weight=-inf\n"),
                ::testing::ExitedWithCode(1),
                "bad numeric value for weight=-inf");
    EXPECT_EXIT(parseScriptString(
                    "population a model=LIF count=3 eps_m=inf\n"),
                ::testing::ExitedWithCode(1),
                "bad numeric value for eps_m=inf");
    EXPECT_EXIT(parseScriptString("population a model=LIF count=1e300\n"),
                ::testing::ExitedWithCode(1),
                "expected a non-negative integer for count=1e300");
}

TEST(Script, EmptyPopulationIsAParseError)
{
    // Outside input must get a diagnostic and exit 1, not reach the
    // network's count > 0 assertion (an abort).
    EXPECT_EXIT(parseScriptString("population a model=LIF count=0\n"),
                ::testing::ExitedWithCode(1),
                "script line 1: empty population a");
}

TEST(Script, InvalidParametersRejectedAtParse)
{
    EXPECT_DEATH(parseScriptString(
                     "population a model=LIF count=3 eps_m=7\n"),
                 "invalid parameters");
}

TEST(Script, CommentsAndBlankLinesIgnored)
{
    ParsedScript s = parseScriptString(R"(

# leading comment
population a model=LLIF count=4   # trailing comment

)");
    EXPECT_EQ(s.network.numPopulations(), 1u);
    EXPECT_TRUE(
        s.network.population(0).params.features.has(Feature::LID));
}

} // namespace
} // namespace flexon
