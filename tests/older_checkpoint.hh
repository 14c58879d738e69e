/**
 * @file
 * The router block of checkpoints older than v5, for the tests that
 * restore them: rewrite a checkpoint this build saved into the form
 * an older build wrote, with touch lists of every kind the undo clear
 * of those builds kept.
 */

#ifndef FLEXON_TESTS_OLDER_CHECKPOINT_HH
#define FLEXON_TESTS_OLDER_CHECKPOINT_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

namespace flexon {

/**
 * A routed touch key of older builds: a `bucket << 32 | source` run
 * key, or a record-range key with bit 63 set.
 */
inline uint64_t
olderRoutedKey(uint64_t bucket, uint64_t source, bool rangeKey)
{
    return rangeKey ? (uint64_t{1} << 63) | (bucket << 40) | source
                    : (bucket << 32) | source;
}

/**
 * The `lists` routed then `lists` stimulus touch lines of an older
 * router block whose slots hold `cells` cells. The routed lists cycle
 * through empty, two run keys, a range key with a run key, and a
 * saturated list (cost at the slot's size, no keys); the stimulus
 * lists through empty, one and two cells.
 */
inline void
writeOlderTouchLists(std::ostream &os, uint64_t lists, uint64_t cells)
{
    for (uint64_t i = 0; i < lists; ++i) {
        const uint64_t bucket = i % 3, source = i % 5;
        switch (i % 4) {
          case 0: os << "touch 0 0\n"; break;
          case 1:
            os << "touch 7 2 " << olderRoutedKey(bucket, source, false)
               << ' ' << olderRoutedKey(bucket + 1, source, false)
               << '\n';
            break;
          case 2:
            os << "touch 9 2 " << olderRoutedKey(bucket, source, true)
               << ' ' << olderRoutedKey(bucket, source + 1, false)
               << '\n';
            break;
          default: os << "touch " << cells << " 0\n"; break;
        }
    }
    for (uint64_t i = 0; i < lists; ++i) {
        os << "touch " << i % 3 << ' ' << i % 3;
        for (uint64_t k = 0; k < i % 3; ++k)
            os << ' ' << (i + k) % cells;
        os << '\n';
    }
}

/**
 * `saved`, a checkpoint this build wrote (v5), as a build of
 * checkpoint `version` (2..4) wrote it: that header, no
 * `plasticity 0` block below v4, and a router block with the touch
 * lines of writeOlderTouchLists between the ring and the counters,
 * whose line carries four clear and skip counts between the event and
 * bucket counts.
 */
inline std::string
olderCheckpoint(const std::string &saved, int version)
{
    std::istringstream is(saved);
    std::ostringstream os;
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "flexon-checkpoint v5 dense");
    os << "flexon-checkpoint v" << version << " dense\n";
    uint64_t lists = 0, cells = 0;
    bool inRouter = false;
    while (std::getline(is, line)) {
        if (version < 4 && line == "plasticity 0")
            continue;
        if (line.rfind("router ", 0) == 0) {
            uint64_t depth = 0, shards = 0;
            std::istringstream(line.substr(7)) >> depth >> cells >>
                shards;
            lists = depth * shards;
            inRouter = true;
        } else if (inRouter && line.rfind("counters ", 0) == 0) {
            writeOlderTouchLists(os, lists, cells);
            uint64_t events = 0, buckets = 0;
            std::istringstream(line.substr(9)) >> events >> buckets;
            line = "counters " + std::to_string(events) + " 3 5 11 13 " +
                   std::to_string(buckets);
            inRouter = false;
        }
        os << line << '\n';
    }
    EXPECT_GT(lists, 0u) << "no router block";
    return os.str();
}

} // namespace flexon

#endif // FLEXON_TESTS_OLDER_CHECKPOINT_HH
