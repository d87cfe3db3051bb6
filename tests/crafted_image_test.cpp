/**
 * @file
 * Checkpoint decoders refuse crafted element counts. Every count read
 * from an image is bounded by the bytes left (BinReader::readCount),
 * so a huge count inside otherwise valid framing fails the restore:
 * it neither throws from a reservation nor loops for as long as the
 * count says. Each case builds its image twice, once with a count of
 * zero (accepted: the framing is valid) and once with 2^60 (refused).
 *
 * The checker also refuses images that decode but contradict
 * themselves: groups, identifier sets and the relation between them
 * must agree, and the id allocators must lie above every live id.
 * Those cases edit a real checker's saveState image.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/binio.hpp"
#include "common/stats.hpp"
#include "core/automaton/automaton_instance.hpp"
#include "core/checker/automaton_group.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "logging/identifier_interner.hpp"
#include "obs/observability.hpp"

using namespace cloudseer;

namespace {

constexpr std::uint64_t kHuge = 1ull << 60;

using Craft = std::function<void(common::BinWriter &, std::uint64_t)>;
using Restore = std::function<bool(common::BinReader &)>;

/** True when the image `craft` writes around `count` restores. A
 *  throwing restore fails the test. */
bool
restores(const Craft &craft, std::uint64_t count, const Restore &restore)
{
    common::BinWriter out;
    craft(out, count);
    common::BinReader in(out.bytes());
    bool ok = false;
    EXPECT_NO_THROW(ok = restore(in)) << "count " << count;
    return ok && in.ok();
}

void
expectOnlyTheHugeCountRefused(const Craft &craft, const Restore &restore)
{
    EXPECT_TRUE(restores(craft, 0, restore));
    EXPECT_FALSE(restores(craft, kHuge, restore));
}

/** The two-event chain a → b every automaton image refers to. */
const core::TaskAutomaton &
chain()
{
    static const core::TaskAutomaton automaton(
        "chain", {{1, 0}, {2, 0}}, {{0, 1, true}});
    return automaton;
}

/** An instance of chain() up to its removed-edge count. */
void
writeInstanceHead(common::BinWriter &out)
{
    out.writeU64(2); // events
    out.writeU8(0);  // done
    out.writeU8(0);
    out.writeF64(0.0); // when
    out.writeF64(0.0);
    out.writeI64(0); // remaining predecessors
    out.writeI64(1);
    out.writeU64(0);  // consumed
    out.writeI64(-1); // last event
}

/** A group's fields after its consumed messages, through the end. */
void
writeGroupTail(common::BinWriter &out, std::uint64_t children)
{
    out.writeF64(1.0); // last activity
    out.writeF64(0.5); // creation
    out.writeBool(false);
    out.writeU64(0); // parent
    out.writeU64(children);
    out.writeU64(0); // rival set
    out.writeBool(false);
}

/** A checker's fields after its groups, through the end. */
void
writeCheckerTail(common::BinWriter &out, std::uint64_t removal_edges,
                 std::uint64_t relations)
{
    out.writeU64(1); // tasks with removal tallies
    out.writeString("chain");
    out.writeU64(removal_edges);
    out.writeU64(0); // identifier sets
    out.writeU64(relations);
    out.writeU64(1); // next group id
    out.writeU64(1); // next identifier-set id
    out.writeU64(1); // next rival set
    out.writeF64(0.0);
}

bool
restoreInstance(common::BinReader &in)
{
    core::AutomatonInstance instance(&chain());
    return instance.restoreState(in);
}

bool
restoreGroup(common::BinReader &in)
{
    core::AutomatonGroup group(0, {&chain()});
    return group.restoreState(in, {&chain()});
}

bool
restoreChecker(common::BinReader &in)
{
    core::InterleavedChecker checker(core::CheckerConfig{}, {&chain()});
    return checker.restoreState(in);
}

/** A real checker image: one live group (id 1) in one set (id 1). */
std::string
oneGroupImage()
{
    core::InterleavedChecker checker(core::CheckerConfig{}, {&chain()});
    core::CheckMessage message;
    message.tpl = 1; // the chain's first event
    message.identifiers = {5};
    message.record = 1;
    message.time = 0.5;
    checker.feed(message);
    common::BinWriter out;
    checker.saveState(out);
    return out.bytes();
}

// Field offsets, counted back from the end of oneGroupImage(): the
// set's member list, the relation section, then the allocators and the
// timeout horizon.
constexpr std::size_t kMemberCount = 72;
constexpr std::size_t kMemberId = 64;
constexpr std::size_t kRelationCount = 56;
constexpr std::size_t kRelationGroup = 48;
constexpr std::size_t kRelationSet = 40;
constexpr std::size_t kNextGroupId = 32;

std::uint64_t
u64FromEnd(const std::string &image, std::size_t from_end)
{
    std::uint64_t value = 0;
    for (int b = 7; b >= 0; --b) {
        value = (value << 8) |
                static_cast<std::uint8_t>(
                    image[image.size() - from_end +
                          static_cast<std::size_t>(b)]);
    }
    return value;
}

void
setU64FromEnd(std::string &image, std::size_t from_end,
              std::uint64_t value)
{
    for (std::size_t b = 0; b < 8; ++b)
        image[image.size() - from_end + b] =
            static_cast<char>((value >> (8 * b)) & 0xff);
}

/** Drop `length` bytes starting `from_end` bytes before the end. */
void
eraseFromEnd(std::string &image, std::size_t from_end, std::size_t length)
{
    image.erase(image.size() - from_end, length);
}

bool
checkerRestores(const std::string &image)
{
    common::BinReader in(image);
    bool ok = false;
    EXPECT_NO_THROW(ok = restoreChecker(in));
    return ok && in.ok();
}

bool
restoreInterner(common::BinReader &in)
{
    logging::IdentifierInterner interner;
    return interner.restoreState(in);
}

/** An interner image's hits, misses, capacity and cap rejections. */
void
writeInternerTallies(common::BinWriter &out)
{
    for (int tally = 0; tally < 4; ++tally)
        out.writeU64(0);
}

} // namespace

TEST(CraftedImageTest, ReadCountIsBoundedByTheBytesLeft)
{
    common::BinWriter out;
    out.writeU64(2);
    out.writeU64(7);
    out.writeU64(9);
    common::BinReader fits(out.bytes());
    EXPECT_EQ(fits.readCount(8), 2u);
    EXPECT_TRUE(fits.ok());

    common::BinReader too_many(out.bytes());
    EXPECT_EQ(too_many.readCount(9), 0u);
    EXPECT_FALSE(too_many.ok());
}

TEST(CraftedImageTest, SampleStatsRefusesHugeSampleCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            out.writeU64(count);
            out.writeF64(0.0); // total
        },
        [](common::BinReader &in) {
            common::SampleStats stats;
            return stats.restoreState(in);
        });
}

TEST(CraftedImageTest, InstanceRefusesHugeRemovedEdgeCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            writeInstanceHead(out);
            out.writeU64(count);
            out.writeBool(false); // no own adjacency
        },
        restoreInstance);
}

TEST(CraftedImageTest, InstanceRefusesHugeAdjacencyCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            writeInstanceHead(out);
            out.writeU64(0);     // removed edges
            out.writeBool(true); // own adjacency follows
            out.writeU64(count); // the first predecessor list
            for (int list = 1; list < 4; ++list)
                out.writeU64(0);
        },
        restoreInstance);
}

TEST(CraftedImageTest, GroupRefusesHugeCandidateCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            out.writeU64(7); // group id
            out.writeU64(count);
            out.writeU64(0); // consumed messages
            writeGroupTail(out, 0);
        },
        restoreGroup);
}

TEST(CraftedImageTest, GroupRefusesHugeMessageCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            out.writeU64(7);
            out.writeU64(0); // candidates
            out.writeU64(count);
            writeGroupTail(out, 0);
        },
        restoreGroup);
}

TEST(CraftedImageTest, GroupRefusesHugeChildCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            out.writeU64(7);
            out.writeU64(0);
            out.writeU64(0);
            writeGroupTail(out, count);
        },
        restoreGroup);
}

TEST(CraftedImageTest, CheckerRefusesHugeRemovalEdgeCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            for (int counter = 0; counter < 15; ++counter)
                out.writeU64(0);
            out.writeU64(0); // groups
            writeCheckerTail(out, count, 0);
        },
        restoreChecker);
}

TEST(CraftedImageTest, CheckerRefusesHugeRelationCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            for (int counter = 0; counter < 15; ++counter)
                out.writeU64(0);
            out.writeU64(0);
            writeCheckerTail(out, 0, count);
        },
        restoreChecker);
}

TEST(CraftedImageTest, CheckerImageOffsetsNameTheFieldsTheyEdit)
{
    std::string image = oneGroupImage();
    EXPECT_EQ(u64FromEnd(image, kMemberCount), 1u);
    EXPECT_EQ(u64FromEnd(image, kMemberId), 1u);
    EXPECT_EQ(u64FromEnd(image, kRelationCount), 1u);
    EXPECT_EQ(u64FromEnd(image, kRelationGroup), 1u);
    EXPECT_EQ(u64FromEnd(image, kRelationSet), 1u);
    EXPECT_EQ(u64FromEnd(image, kNextGroupId), 2u);
    EXPECT_TRUE(checkerRestores(image));
}

TEST(CraftedImageTest, CheckerRefusesGroupWithoutRelation)
{
    std::string image = oneGroupImage();
    setU64FromEnd(image, kRelationCount, 0);
    eraseFromEnd(image, kRelationGroup, 16);
    EXPECT_FALSE(checkerRestores(image));
}

TEST(CraftedImageTest, CheckerRefusesRelationToAbsentSet)
{
    std::string image = oneGroupImage();
    setU64FromEnd(image, kRelationSet, 99);
    EXPECT_FALSE(checkerRestores(image));
}

TEST(CraftedImageTest, CheckerRefusesMemberNamingAbsentGroup)
{
    std::string image = oneGroupImage();
    setU64FromEnd(image, kMemberId, 99);
    EXPECT_FALSE(checkerRestores(image));
}

TEST(CraftedImageTest, CheckerRefusesSetWithoutMembers)
{
    std::string image = oneGroupImage();
    setU64FromEnd(image, kMemberCount, 0);
    eraseFromEnd(image, kMemberId, 8);
    EXPECT_FALSE(checkerRestores(image));
}

TEST(CraftedImageTest, CheckerRefusesGroupIdAllocatorAtLiveId)
{
    std::string image = oneGroupImage();
    setU64FromEnd(image, kNextGroupId, 1);
    EXPECT_FALSE(checkerRestores(image));
}

TEST(CraftedImageTest, InternerRefusesHugeTokenCount)
{
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            out.writeU64(count);
            writeInternerTallies(out);
        },
        restoreInterner);
}

TEST(CraftedImageTest, InternerRefusesRepeatedText)
{
    // A repeated text would give one identifier two tokens.
    auto image = [](const char *second) {
        return [second](common::BinWriter &out, std::uint64_t) {
            out.writeU64(2);
            out.writeString("alpha");
            out.writeString(second);
            writeInternerTallies(out);
        };
    };
    EXPECT_TRUE(restores(image("beta"), 0, restoreInterner));
    EXPECT_FALSE(restores(image("alpha"), 0, restoreInterner));
}

TEST(CraftedImageTest, ObservabilityRefusesHugeHistoryCount)
{
    obs::ObsConfig config;
    config.metrics = true;
    expectOnlyTheHugeCountRefused(
        [](common::BinWriter &out, std::uint64_t count) {
            out.writeBool(true); // feed-latency histogram
            obs::Histogram(-1, 6).saveState(out);
            out.writeBool(false); // no WAL histogram
            out.writeU64(count);
            out.writeF64(0.0); // last snapshot time
            out.writeBool(false);
        },
        [&config](common::BinReader &in) {
            obs::Observability sinks(config);
            return sinks.restoreState(in);
        });
}
