/**
 * @file
 * WriteLog: the image words one update wrote, named for the other
 * image (docs/concurrency.md, "One control state, two images").
 *
 * A ConcurrentChisel holds one writer-owned control state and two
 * reader images.  The writer mutates the idle image through the
 * control state, and every word it writes is named here as a range:
 * (table, cell, first word, count).  After the flip and one grace
 * period, EngineImage::replay() copies exactly those ranges from the
 * just-published image onto the retired one, so each update is
 * applied once.  A write that continues the previous range of the
 * same table extends it, so a GroupTable record, a Result block or a
 * rebuilt partition costs one entry.
 *
 * Soft errors (the fault injector's bit flips) are not writes and are
 * never logged: a flip stays in the image it landed in until a
 * legitimate rewrite or a recovery replaces the word.
 */

#ifndef CHISEL_COMMON_WRITE_LOG_HH
#define CHISEL_COMMON_WRITE_LOG_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace chisel {

class WriteLog
{
  public:
    /** The image array a range names. */
    enum class Table : uint8_t
    {
        SummaryRegion, ///< One region mask; first is the region.
        SummaryAlways, ///< The always-probed mask.
        IndexLanes,    ///< A cell's hash lanes and length rows.
        IndexSlots,    ///< A cell's Index slot words.
        Records,       ///< A cell's GroupTable record words (u64).
        Presence,      ///< A cell's presence bitmap words (u64).
        Results,       ///< Result entries: next hop and meta byte.
        ResultMeta,    ///< Result meta bytes only (length offsets).
        ResultGrow,    ///< The Result Table grew to first + count.
    };

    struct Range
    {
        Table table;
        uint32_t cell;
        uint64_t first;
        uint64_t count;
    };

    /** Name words [first, first + count) of @p table in @p cell. */
    void
    add(Table table, uint32_t cell, uint64_t first, uint64_t count)
    {
        if (!ranges_.empty()) {
            Range &last = ranges_.back();
            if (last.table == table && last.cell == cell &&
                first >= last.first && first <= last.first + last.count) {
                last.count =
                    std::max(last.count, first + count - last.first);
                return;
            }
        }
        ranges_.push_back(Range{table, cell, first, count});
    }

    /** The spill TCAM, slow path or default route changed. */
    void markSpill() { spill_ = true; }
    void markSlowPath() { slowPath_ = true; }
    void markDefaultRoute() { defaultRoute_ = true; }

    const std::vector<Range> &ranges() const { return ranges_; }
    bool spill() const { return spill_; }
    bool slowPath() const { return slowPath_; }
    bool defaultRoute() const { return defaultRoute_; }

    /** Forget every entry; the buffer is kept for the next update. */
    void
    clear()
    {
        ranges_.clear();
        spill_ = slowPath_ = defaultRoute_ = false;
    }

  private:
    std::vector<Range> ranges_;
    bool spill_ = false;
    bool slowPath_ = false;
    bool defaultRoute_ = false;
};

} // namespace chisel

#endif // CHISEL_COMMON_WRITE_LOG_HH
