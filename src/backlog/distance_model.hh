/**
 * @file
 * Required-code-distance comparison across decoders (paper Fig. 11).
 * For an algorithm with k T gates, a decoder with threshold pth,
 * effective-distance coefficient c2 and per-round decode time t_dec(d)
 * must pick the smallest d such that the total logical failure over the
 * backlog-inflated execution stays below a budget. When
 * f = t_dec / t_syn > 1, the number of effective gate-equivalents grows
 * as sum_i f^i — exponentially in k — which is what forces offline
 * decoders to ~10x larger code distances.
 */

#ifndef NISQPP_BACKLOG_DISTANCE_MODEL_HH
#define NISQPP_BACKLOG_DISTANCE_MODEL_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "backlog/sqv.hh"

namespace nisqpp {

/** Accuracy + latency profile of one decoder family. */
struct DecoderProfile
{
    std::string name;
    ScalingModel scaling;
    /** Decode time for one round at distance d, in ns. */
    std::function<double(int)> decodeNs;

    /** The five Fig. 11 profiles (each one's source is in its body). */
    static DecoderProfile sfqDecoder();
    static DecoderProfile mwpm();
    static DecoderProfile neuralNet();
    static DecoderProfile unionFind();
    static DecoderProfile mwpmNoBacklog();
};

/** Inputs of the Fig. 11 sweep. */
struct DistanceQuery
{
    double physicalErrorRate;
    int tGates = 100;
    double syndromeCycleNs = 400.0;
    double failureBudget = 0.5; ///< acceptable whole-algorithm failure
    int maxDistance = 2001;
};

/**
 * Smallest odd distance meeting the failure budget under the backlog
 * model, or nullopt when no distance up to maxDistance suffices
 * (e.g. p >= pth).
 */
std::optional<int> requiredDistance(const DecoderProfile &profile,
                                    const DistanceQuery &query);

/**
 * Natural log of the number of effective gate-equivalents after backlog
 * inflation: k for f <= 1, ln(sum_{i=1..k} f^i) otherwise. Exposed for
 * tests.
 */
double logEffectiveGates(double f, int k);

} // namespace nisqpp

#endif // NISQPP_BACKLOG_DISTANCE_MODEL_HH
