/**
 * @file Shared main of the per-scenario binaries: each is built from
 * this file with NISQPP_SCENARIO set to its scenario's name (see the
 * root CMakeLists.txt), runs that scenario through the parallel engine
 * and accepts the shared flags (--threads, --trials-scale, --seed,
 * --format, --shard-trials).
 */

#include "engine/scenario.hh"

int
main(int argc, char **argv)
{
    return nisqpp::scenarioMain(NISQPP_SCENARIO, argc, argv);
}
