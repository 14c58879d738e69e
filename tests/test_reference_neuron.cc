/**
 * @file
 * Behavioural tests for the double-precision reference neuron: each
 * biologically common feature is checked against closed-form
 * predictions or qualitative neuroscience behaviour (Figures 4-8 of
 * the paper), plus the ODE-mode consistency checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.hh"
#include "features/model_table.hh"
#include "models/ode_neuron.hh"
#include "models/reference_neuron.hh"

namespace flexon {
namespace {

/** Step a neuron `n` times with a constant single-type input. */
template <typename Neuron>
int
run(Neuron &neuron, double input, int steps,
    std::vector<int> *spike_times = nullptr)
{
    int count = 0;
    for (int t = 0; t < steps; ++t) {
        if (neuron.step(input)) {
            ++count;
            if (spike_times)
                spike_times->push_back(t);
        }
    }
    return count;
}

TEST(ReferenceLif, ExponentialDecayMatchesClosedForm)
{
    NeuronParams p = defaultParams(ModelKind::LIF);
    ReferenceNeuron n(p);
    n.state().v = 0.8;
    for (int t = 0; t < 100; ++t)
        n.step(0.0);
    // v(t) = v(0) * (1 - epsM)^t for the discrete LIF with no input.
    EXPECT_NEAR(n.state().v, 0.8 * std::pow(1.0 - p.epsM, 100), 1e-12);
}

TEST(ReferenceLif, SteadyStateEqualsInput)
{
    // v* = I is the fixed point of v' = v + epsM*(-v + I).
    ReferenceNeuron n(defaultParams(ModelKind::LIF));
    run(n, 0.7, 3000);
    EXPECT_NEAR(n.state().v, 0.7, 1e-9);
}

TEST(ReferenceLif, FiresIffInputExceedsThreshold)
{
    ReferenceNeuron sub(defaultParams(ModelKind::LIF));
    EXPECT_EQ(run(sub, 0.99, 5000), 0);
    ReferenceNeuron supra(defaultParams(ModelKind::LIF));
    EXPECT_GT(run(supra, 1.2, 5000), 0);
}

TEST(ReferenceLif, InterSpikeIntervalMatchesAnalytic)
{
    // From v=0, with constant I the discrete LIF crosses 1.0 after
    // n steps where v_n = I * (1 - (1-epsM)^n) > 1.
    NeuronParams p = defaultParams(ModelKind::LIF);
    const double I = 1.5;
    const int analytic = static_cast<int>(std::ceil(
        std::log(1.0 - 1.0 / I) / std::log(1.0 - p.epsM)));
    std::vector<int> times;
    ReferenceNeuron n(p);
    run(n, I, 2000, &times);
    ASSERT_GE(times.size(), 2u);
    const int isi = times[1] - times[0];
    EXPECT_NEAR(isi, analytic, 1.0);
}

TEST(ReferenceLlif, LinearDecaySlope)
{
    NeuronParams p = defaultParams(ModelKind::LLIF);
    ReferenceNeuron n(p);
    n.state().v = 0.5;
    n.step(0.0);
    EXPECT_NEAR(n.state().v, 0.5 - p.vLeak, 1e-12);
    n.step(0.0);
    EXPECT_NEAR(n.state().v, 0.5 - 2.0 * p.vLeak, 1e-12);
}

TEST(ReferenceLlif, DecayFloorsAtRest)
{
    ReferenceNeuron n(defaultParams(ModelKind::LLIF));
    n.state().v = 0.003;
    for (int t = 0; t < 10; ++t)
        n.step(0.0);
    EXPECT_DOUBLE_EQ(n.state().v, 0.0);
}

TEST(ReferenceSlif, AbsoluteRefractoryBlocksInput)
{
    NeuronParams p = defaultParams(ModelKind::SLIF);
    p.arSteps = 50;
    ReferenceNeuron n(p);
    std::vector<int> times;
    run(n, 2.0, 500, &times);
    ASSERT_GE(times.size(), 2u);
    // With I=2 the unblocked neuron fires every few steps; AR forces
    // the gap to exceed the refractory length.
    for (size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i] - times[i - 1], 50);
}

TEST(ReferenceCobe, ImpulseResponseDecaysExponentially)
{
    NeuronParams p = defaultParams(ModelKind::DSRM0);
    p.arSteps = 20;
    ReferenceNeuron n(p);
    n.step(0.5); // one impulse
    const double g0 = n.state().g[0];
    EXPECT_NEAR(g0, 0.5, 1e-12);
    for (int t = 0; t < 10; ++t)
        n.step(0.0);
    EXPECT_NEAR(n.state().g[0],
                0.5 * std::pow(1.0 - p.syn[0].epsG, 10), 1e-12);
}

TEST(ReferenceCoba, AlphaKernelRisesThenFalls)
{
    // The alpha function g(t) ~ t*exp(-t/tau) peaks near t = tau.
    NeuronParams p = defaultParams(ModelKind::IFPscAlpha);
    ReferenceNeuron n(p);
    n.step(0.5);
    double peak = 0.0;
    int peak_t = 0;
    for (int t = 1; t < 300; ++t) {
        n.step(0.0);
        if (n.state().g[0] > peak) {
            peak = n.state().g[0];
            peak_t = t;
        }
    }
    const int tau_steps = static_cast<int>(1.0 / p.syn[0].epsG);
    EXPECT_GT(peak, 0.0);
    EXPECT_NEAR(peak_t, tau_steps, tau_steps / 4.0);
    // And it decays well below the peak afterwards.
    EXPECT_LT(n.state().g[0], peak / 2.0);
}

TEST(ReferenceRev, ContributionShrinksNearReversal)
{
    // With REV, the same conductance moves v less when v approaches
    // the reversal voltage v_g (Equation 4).
    NeuronParams p = defaultParams(ModelKind::DLIF);
    ReferenceNeuron low(p), high(p);
    low.state().v = 0.1;
    high.state().v = 0.9;
    low.step(0.5);
    high.step(0.5);
    const double dv_low = low.state().v - 0.1 * (1.0 - p.epsM);
    const double dv_high = high.state().v - 0.9 * (1.0 - p.epsM);
    EXPECT_GT(dv_low, dv_high);
    EXPECT_GT(dv_high, 0.0); // still below the excitatory reversal
}

TEST(ReferenceQdi, BistableAroundCriticalVoltage)
{
    NeuronParams p = defaultParams(ModelKind::QIF);
    // Below v_c with no input: decays toward rest, never fires.
    ReferenceNeuron below(p);
    below.state().v = p.vCrit - 0.1;
    EXPECT_EQ(run(below, 0.0, 5000), 0);
    EXPECT_LT(below.state().v, 0.01);
    // Above v_c: the quadratic initiation drives a spike upswing.
    ReferenceNeuron above(p);
    above.state().v = p.vCrit + 0.1;
    EXPECT_EQ(run(above, 0.0, 5000), 1);
}

TEST(ReferenceExi, RunawayAboveRheobase)
{
    NeuronParams p = defaultParams(ModelKind::EIF);
    ReferenceNeuron low(p);
    low.state().v = 0.5;
    EXPECT_EQ(run(low, 0.0, 5000), 0);
    // The EXI upswing only dominates the leak close to the firing
    // voltage (rheobase ~1.39 for deltaT = 0.2): start above it.
    ReferenceNeuron high(p);
    high.state().v = 1.45;
    EXPECT_EQ(run(high, 0.0, 5000), 1);
}

TEST(ReferenceAdt, SpikeFrequencyAdaptation)
{
    // Izhikevich (with ADT) under constant drive: inter-spike
    // intervals grow as the adaptation current builds up.
    NeuronParams p = defaultParams(ModelKind::Izhikevich);
    ReferenceNeuron n(p);
    std::vector<int> times;
    run(n, 0.04, 20000, &times);
    ASSERT_GE(times.size(), 4u) << "expected sustained firing";
    const int first_isi = times[1] - times[0];
    const int last_isi = times.back() - times[times.size() - 2];
    EXPECT_GT(last_isi, first_isi);
}

TEST(ReferenceAdt, AdaptationCurrentJumpsOnSpike)
{
    NeuronParams p = defaultParams(ModelKind::Izhikevich);
    ReferenceNeuron n(p);
    double w_before = n.state().w;
    int guard = 0;
    while (!n.step(0.05) && ++guard < 20000)
        w_before = n.state().w;
    ASSERT_LT(guard, 20000) << "neuron never fired";
    EXPECT_NEAR(n.state().w, (1.0 - p.epsW) * w_before * 1.0 - p.b,
                std::abs(w_before) * p.epsW + 1e-9);
    EXPECT_LT(n.state().w, w_before);
}

TEST(ReferenceSbt, CouplingTracksMembrane)
{
    // With the AdEx defaults (a < 0), holding v above v_w builds a
    // negative (opposing) w: the damped oscillation of Figure 7.
    NeuronParams p = defaultParams(ModelKind::AdEx);
    ASSERT_LT(p.a, 0.0);
    ReferenceNeuron n(p);
    n.state().v = p.vW + 0.3;
    n.step(0.0);
    EXPECT_LT(n.state().w, 0.0);

    // And a positive coupling constant does the opposite.
    NeuronParams q = p;
    q.a = -p.a;
    ReferenceNeuron m(q);
    m.state().v = q.vW + 0.3;
    m.step(0.0);
    EXPECT_GT(m.state().w, 0.0);
}

TEST(ReferenceRr, RelativeRefractorySuppressesFiring)
{
    NeuronParams with_rr = defaultParams(ModelKind::IFCondExpGsfaGrr);
    NeuronParams no_rr = with_rr;
    no_rr.features = modelFeatures(ModelKind::DLIF);
    ReferenceNeuron a(with_rr), b(no_rr);
    const int spikes_rr = run(a, 0.06, 20000);
    const int spikes_plain = run(b, 0.06, 20000);
    EXPECT_GT(spikes_plain, 0);
    EXPECT_LT(spikes_rr, spikes_plain);
}

TEST(ReferenceRr, RefractoryConductanceJumpsOnSpike)
{
    NeuronParams p = defaultParams(ModelKind::IFCondExpGsfaGrr);
    ReferenceNeuron n(p);
    int guard = 0;
    while (!n.step(0.08) && ++guard < 20000) {}
    ASSERT_LT(guard, 20000);
    // q_r < 0, so r jumps positive on fire (strong negative current).
    EXPECT_GT(n.state().r, 0.0);
    EXPECT_GT(n.state().w, 0.0);
}

TEST(OdeNeuron, EulerMatchesDiscreteLifExactly)
{
    // For the baseline LIF the one-step Euler integration of the
    // continuous form is algebraically identical to Equation 2.
    NeuronParams p = defaultParams(ModelKind::LIF);
    ReferenceNeuron d(p);
    OdeNeuron o(p, SolverKind::Euler);
    Rng rng(5);
    for (int t = 0; t < 2000; ++t) {
        const double in = rng.bernoulli(0.05) ? 0.4 : 0.0;
        const bool fd = d.step(in);
        const bool fo = o.step(in);
        ASSERT_EQ(fd, fo) << "step " << t;
        ASSERT_NEAR(d.state().v, o.state().v, 1e-12) << "step " << t;
    }
}

TEST(OdeNeuron, Rkf45CostsMoreRhsEvaluationsThanEuler)
{
    NeuronParams p = defaultParams(ModelKind::DLIF);
    OdeNeuron euler(p, SolverKind::Euler);
    OdeNeuron rkf(p, SolverKind::RKF45);
    for (int t = 0; t < 100; ++t) {
        euler.step(0.3);
        rkf.step(0.3);
    }
    EXPECT_EQ(euler.rhsEvaluations(), 100u);
    EXPECT_GT(rkf.rhsEvaluations(), 5u * euler.rhsEvaluations());
}

TEST(OdeNeuron, Rkf45ProducesPlausibleSpiking)
{
    NeuronParams p = defaultParams(ModelKind::DLIF);
    OdeNeuron n(p, SolverKind::RKF45);
    int spikes = 0;
    for (int t = 0; t < 5000; ++t)
        spikes += n.step(0.05);
    EXPECT_GT(spikes, 0);
    EXPECT_LT(spikes, 5000 / static_cast<int>(p.arSteps));
}

} // namespace
} // namespace flexon
