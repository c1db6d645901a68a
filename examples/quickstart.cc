/**
 * @file
 * Quickstart: build a Chisel LPM engine, look up keys, apply a few
 * BGP updates, and inspect the storage report.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/example_quickstart
 */

#include <cstdio>

#include "core/engine.hh"
#include "route/table.hh"

int
main()
{
    using namespace chisel;

    // 1. A routing table: prefixes with next hops.
    RoutingTable table;
    table.add(Prefix::fromCidr("10.0.0.0/8"), 1);
    table.add(Prefix::fromCidr("10.1.0.0/16"), 2);
    table.add(Prefix::fromCidr("10.1.2.0/24"), 3);
    table.add(Prefix::fromCidr("192.168.0.0/16"), 4);
    table.add(Prefix(), 0);   // Default route.

    // 2. Build the engine (paper defaults: k=3, m/n=3, stride 4).
    ChiselEngine engine(table);
    std::printf("Engine built: %zu routes, %zu sub-cells, plan %s\n",
                engine.routeCount(), engine.cellCount(),
                engine.plan().str().c_str());

    // 3. Longest-prefix-match lookups.
    auto show = [&](const char *what, uint32_t addr) {
        auto r = engine.lookup(Key128::fromIpv4(addr));
        std::printf("  %-16s -> next hop %u (matched /%u%s, "
                    "%u memory accesses)\n",
                    what, r.nextHop, r.matchedLength,
                    r.fromDefault ? " default" : "",
                    ChiselEngine::kLookupAccesses);
    };
    show("10.1.2.3", 0x0A010203);        // /24 wins.
    show("10.1.9.9", 0x0A010909);        // /16 wins.
    show("10.200.0.1", 0x0AC80001);      // /8 wins.
    show("192.168.77.1", 0xC0A84D01);    // The /16.
    show("8.8.8.8", 0x08080808);         // Default route.

    // 4. Incremental updates, classified as in the paper's Fig. 14.
    auto cls = engine.announce(Prefix::fromCidr("10.1.3.0/24"), 7);
    std::printf("announce 10.1.3.0/24 -> %s\n", updateClassName(cls));
    cls = engine.withdraw(Prefix::fromCidr("10.1.2.0/24"));
    std::printf("withdraw 10.1.2.0/24 -> %s\n", updateClassName(cls));
    cls = engine.announce(Prefix::fromCidr("10.1.2.0/24"), 9);
    std::printf("re-announce           -> %s (dirty-bit restore)\n",
                updateClassName(cls));
    show("10.1.2.3", 0x0A010203);

    // 5. On-chip storage accounting (next hops excluded, as in §5).
    auto s = engine.storage();
    std::printf("On-chip storage: Index %.2f Kb, Filter %.2f Kb, "
                "Bit-vector %.2f Kb\n",
                s.indexBits / 1024.0, s.filterBits / 1024.0,
                s.bitvectorBits / 1024.0);
    return 0;
}
