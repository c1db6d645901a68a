/**
 * @file
 * Relaxed-atomic counter and flag types for shared statistics.
 *
 * The engine's hot paths are read by N lookup threads while one
 * writer (and the background scrubber) mutates state elsewhere, so
 * the counters a lookup may bump — parity detections after a parity
 * error, telemetry while a binding is attached — must be free of data
 * races.  Lookups bump nothing else: a counter every reader writes is
 * a cache line they all contend on.  RelaxedU64 wraps std::atomic with
 * memory_order_relaxed everywhere and the arithmetic surface of a
 * plain uint64_t (++, +=, comparison, stream output), so the counter
 * structs keep their existing call sites while becoming safe to bump
 * from any thread.
 *
 * Relaxed ordering is deliberate: these are monotone statistics, not
 * synchronization.  Exporters that need a *coherent* multi-counter
 * snapshot take one under the writer lock (docs/concurrency.md); a
 * single counter read is always an actual value the counter held.
 *
 * Unlike std::atomic, both types are copyable — counter structs are
 * returned by value and reset by assignment — with the copy reading
 * and writing relaxed.
 */

#ifndef CHISEL_CONCURRENT_RELAXED_HH
#define CHISEL_CONCURRENT_RELAXED_HH

#include <atomic>
#include <cstdint>
#include <ostream>

namespace chisel::concurrent {

/** Copyable atomic uint64_t with relaxed operations throughout. */
class RelaxedU64
{
  public:
    RelaxedU64(uint64_t v = 0) : value_(v) {}

    RelaxedU64(const RelaxedU64 &other)
        : value_(other.load())
    {}

    RelaxedU64 &
    operator=(const RelaxedU64 &other)
    {
        store(other.load());
        return *this;
    }

    RelaxedU64 &
    operator=(uint64_t v)
    {
        store(v);
        return *this;
    }

    uint64_t
    load() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    store(uint64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Relaxed fetch-add; returns the *new* value. */
    uint64_t
    add(uint64_t n)
    {
        return value_.fetch_add(n, std::memory_order_relaxed) + n;
    }

    RelaxedU64 &
    operator+=(uint64_t n)
    {
        add(n);
        return *this;
    }

    RelaxedU64 &
    operator-=(uint64_t n)
    {
        value_.fetch_sub(n, std::memory_order_relaxed);
        return *this;
    }

    RelaxedU64 &
    operator++()
    {
        add(1);
        return *this;
    }

    uint64_t operator++(int) { return add(1) - 1; }

    operator uint64_t() const { return load(); }

  private:
    std::atomic<uint64_t> value_;
};

inline std::ostream &
operator<<(std::ostream &os, const RelaxedU64 &c)
{
    return os << c.load();
}

/** Copyable atomic bool, relaxed by default with explicit variants. */
class RelaxedFlag
{
  public:
    RelaxedFlag(bool v = false) : value_(v) {}

    RelaxedFlag(const RelaxedFlag &other)
        : value_(other.load())
    {}

    RelaxedFlag &
    operator=(const RelaxedFlag &other)
    {
        store(other.load());
        return *this;
    }

    RelaxedFlag &
    operator=(bool v)
    {
        store(v);
        return *this;
    }

    bool
    load(std::memory_order order = std::memory_order_relaxed) const
    {
        return value_.load(order);
    }

    void
    store(bool v, std::memory_order order = std::memory_order_relaxed)
    {
        value_.store(v, order);
    }

    operator bool() const { return load(); }

  private:
    std::atomic<bool> value_;
};

} // namespace chisel::concurrent

#endif // CHISEL_CONCURRENT_RELAXED_HH
