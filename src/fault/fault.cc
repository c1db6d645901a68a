#include "fault/fault.hh"

#include <unordered_map>

namespace chisel::fault {

namespace detail {
constinit thread_local FaultInjector *g_activeInjector = nullptr;
} // namespace detail

namespace {

/** Process-wide injector ids (an address could be reused). */
std::atomic<uint64_t> g_nextInjectorId{1};

struct ThreadStream
{
    uint64_t ordinal;
    Rng rng;
};

/**
 * This thread's per-injector PRNG streams.  Entries for destroyed
 * injectors linger until thread exit — a few dozen bytes each, and
 * ids are never reused, so a stale entry can never be misread.
 */
std::unordered_map<uint64_t, ThreadStream> &
threadStreams()
{
    thread_local std::unordered_map<uint64_t, ThreadStream> streams;
    return streams;
}

} // anonymous namespace

FaultInjector::FaultInjector(uint64_t seed)
    : seed_(seed),
      id_(g_nextInjectorId.fetch_add(1, std::memory_order_relaxed))
{}

Rng &
FaultInjector::threadRng()
{
    auto &streams = threadStreams();
    auto it = streams.find(id_);
    if (it == streams.end()) {
        uint64_t ordinal =
            nextOrdinal_.fetch_add(1, std::memory_order_relaxed);
        // Golden-ratio stride decorrelates the streams; ordinal 0
        // XORs with 0, so the first thread reproduces the stream the
        // old single-threaded injector produced from the same seed.
        Rng rng(seed_ ^ (ordinal * 0x9E3779B97F4A7C15ULL));
        it = streams.emplace(id_, ThreadStream{ordinal, rng}).first;
    }
    return it->second.rng;
}

uint64_t
FaultInjector::threadOrdinal()
{
    threadRng();
    return threadStreams().at(id_).ordinal;
}

const char *
faultPointName(FaultPoint p)
{
    switch (p) {
      case FaultPoint::BloomierSetupFail: return "bloomier_setup_fail";
      case FaultPoint::ForceNonSingleton: return "force_non_singleton";
      case FaultPoint::TcamOverflow: return "tcam_overflow";
      case FaultPoint::BitFlipIndex: return "bit_flip_index";
      case FaultPoint::BitFlipFilter: return "bit_flip_filter";
      case FaultPoint::BitFlipBitVector: return "bit_flip_bitvector";
      case FaultPoint::BitFlipResult: return "bit_flip_result";
      case FaultPoint::JournalTornWrite: return "journal_torn_write";
      case FaultPoint::SnapshotCorrupt: return "snapshot_corrupt";
      case FaultPoint::JournalIoError: return "journal_io_error";
      case FaultPoint::NetStalledPeer: return "net_stalled_peer";
      case FaultPoint::NetPartialWrite: return "net_partial_write";
      case FaultPoint::NetMidFrameReset: return "net_mid_frame_reset";
      case FaultPoint::NetAcceptStorm: return "net_accept_storm";
      case FaultPoint::kCount: break;
    }
    return "unknown";
}

uint64_t
FaultInjector::totalFires() const
{
    uint64_t total = 0;
    for (const State &s : states_)
        total += s.fires;
    return total;
}

} // namespace chisel::fault
