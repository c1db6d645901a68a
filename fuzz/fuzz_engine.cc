/**
 * @file
 * Fuzz target for the update path: seeded announce / withdraw /
 * expire / flap programs against every serving layer, each lookup
 * checked against the BinaryTrie oracle (tests/differential.hh, the
 * driver test_differential also runs).  A mismatch, a failed
 * self-check or a save/restore that does not re-save byte for byte
 * aborts the process.
 *
 * Two builds from this one source:
 *
 *   - With CHISEL_HAVE_LIBFUZZER (clang -fsanitize=fuzzer): the input
 *     bytes choose the layer, key width, fault mode, seed and length
 *     of one program.
 *
 *   - Without it: a self-driving harness that runs --iterations
 *     programs from consecutive seeds, cycling through every layer,
 *     IPv4 and IPv6, with BitFlip* faults on every third
 *     program.  This is what the sanitizer CI leg runs.
 *
 * Usage (fallback driver):
 *     fuzz_engine [--iterations=N] [--seed=S] [--steps=K]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "differential.hh"

namespace {

using namespace chisel;
using namespace chisel::differential;

void
runOrAbort(const ProgramOptions &opt)
{
    std::string err = runProgram(opt);
    if (!err.empty()) {
        std::fprintf(stderr, "fuzz_engine: %s\n", err.c_str());
        std::abort();
    }
}

} // anonymous namespace

#if CHISEL_HAVE_LIBFUZZER

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    if (size < 11)
        return 0;
    ProgramOptions opt;
    std::memcpy(&opt.seed, data, sizeof(opt.seed));
    opt.layer = static_cast<Layer>(data[8] % kLayerCount);
    opt.keyWidth = (data[9] & 1) ? 128 : 32;
    opt.faults = CHISEL_FAULT_INJECTION_ENABLED && (data[10] & 1);
    opt.steps = 1 + size % 64;
    runOrAbort(opt);
    return 0;
}

#else // fallback driver: consecutive seeded programs

int
main(int argc, char **argv)
{
    size_t iterations = 200;
    uint64_t seed = 1;
    size_t steps = 60;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--iterations=", 13) == 0)
            iterations = std::strtoull(argv[i] + 13, nullptr, 10);
        else if (std::strncmp(argv[i], "--seed=", 7) == 0)
            seed = std::strtoull(argv[i] + 7, nullptr, 10);
        else if (std::strncmp(argv[i], "--steps=", 8) == 0)
            steps = std::strtoull(argv[i] + 8, nullptr, 10);
        else {
            std::fprintf(stderr,
                         "usage: fuzz_engine [--iterations=N] "
                         "[--seed=S] [--steps=K]\n");
            return 2;
        }
    }

    for (size_t i = 0; i < iterations; ++i) {
        ProgramOptions opt;
        opt.seed = seed + i;
        opt.layer = static_cast<Layer>(i % kLayerCount);
        opt.keyWidth = (i / kLayerCount) % 2 ? 128 : 32;
        opt.faults = CHISEL_FAULT_INJECTION_ENABLED && i % 3 == 2;
        opt.steps = steps;
        opt.roundTripEvery = 20;
        runOrAbort(opt);
    }
    std::printf("fuzz_engine: %zu programs x %zu steps ok (seed %llu)\n",
                iterations, steps, static_cast<unsigned long long>(seed));
    return 0;
}

#endif // CHISEL_HAVE_LIBFUZZER
