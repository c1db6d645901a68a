/**
 * @file
 * Two-field packet classification built from Chisel LPM blocks.
 *
 * The paper positions Chisel as "a basic building block to architect
 * solutions for packet classification" (Sections 1 and 8), citing
 * the cross-producting construction of Srinivasan et al. [20]: run
 * one LPM per field, then combine the per-field longest matches
 * through a precomputed cross-product table that maps each
 * (source-match, destination-match) pair to the highest-priority
 * rule both fields satisfy.
 *
 * This module implements exactly that: two ChiselEngine instances
 * (source and destination prefixes) plus a hash-mapped cross-product
 * table.  Lookup cost is two constant-time LPMs and one hash probe —
 * Chisel's O(1) guarantee carries over to classification.
 */

#ifndef CHISEL_CLASSIFY_CLASSIFIER_HH
#define CHISEL_CLASSIFY_CLASSIFIER_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/engine.hh"
#include "route/prefix.hh"

namespace chisel {

/** A two-field classification rule. */
struct Rule
{
    Prefix src;
    Prefix dst;
    /** Smaller value = higher priority (first-match semantics). */
    uint32_t priority = 0;
    /** Opaque action identifier (e.g. permit/deny/queue). */
    uint32_t action = 0;

    bool operator==(const Rule &other) const = default;
};

/** Classification outcome. */
struct ClassifyResult
{
    bool matched = false;
    uint32_t action = 0;
    uint32_t priority = 0;
    /** Index of the winning rule in the original rule list. */
    size_t ruleIndex = 0;
};

/**
 * Cross-producting classifier over (source, destination) prefixes.
 */
class TwoFieldClassifier
{
  public:
    /**
     * @param rules The rule list; priorities break ties, with rule
     *        order as the final tie-break (ACL semantics).
     * @param config Chisel parameters shared by both field engines.
     */
    explicit TwoFieldClassifier(const std::vector<Rule> &rules,
                                const ChiselConfig &config = {});

    /** Classify a packet by its source and destination keys. */
    ClassifyResult classify(const Key128 &src,
                            const Key128 &dst) const;

    /** Number of rules. */
    size_t ruleCount() const { return rules_.size(); }

    /** Distinct source prefixes (left LPM table size). */
    size_t srcPrefixCount() const { return srcCount_; }

    /** Distinct destination prefixes (right LPM table size). */
    size_t dstPrefixCount() const { return dstCount_; }

    /** Cross-product entries materialised. */
    size_t crossProductSize() const { return cross_.size(); }

  private:
    struct PairHasher
    {
        size_t
        operator()(const std::pair<Prefix, Prefix> &p) const
        {
            PrefixHasher h;
            return h(p.first) * 0x9e3779b97f4a7c15ULL + h(p.second);
        }
    };

    std::vector<Rule> rules_;
    std::unique_ptr<ChiselEngine> srcEngine_;
    std::unique_ptr<ChiselEngine> dstEngine_;
    size_t srcCount_ = 0;
    size_t dstCount_ = 0;

    /** (src match, dst match) -> winning rule index. */
    std::unordered_map<std::pair<Prefix, Prefix>, size_t, PairHasher>
        cross_;
};

} // namespace chisel

#endif // CHISEL_CLASSIFY_CLASSIFIER_HH
