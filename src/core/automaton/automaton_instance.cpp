#include "core/automaton/automaton_instance.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cloudseer::core {

AutomatonInstance::AutomatonInstance(const TaskAutomaton *model)
    : spec(model)
{
    CS_ASSERT(model != nullptr, "instance needs a specification");
    done.assign(spec->eventCount(), 0);
    when.assign(spec->eventCount(), 0.0);
    remainingPreds.resize(spec->eventCount());
    for (std::size_t i = 0; i < spec->eventCount(); ++i) {
        remainingPreds[i] =
            static_cast<int>(spec->preds(static_cast<int>(i)).size());
    }
}

const std::vector<int> &
AutomatonInstance::succsOf(int event) const
{
    if (ownSuccs)
        return (*ownSuccs)[static_cast<std::size_t>(event)];
    return spec->succs(event);
}

void
AutomatonInstance::materialiseAdjacency()
{
    if (ownPreds)
        return;
    std::vector<std::vector<int>> preds(spec->eventCount());
    std::vector<std::vector<int>> succs(spec->eventCount());
    for (std::size_t i = 0; i < spec->eventCount(); ++i) {
        preds[i] = spec->preds(static_cast<int>(i));
        succs[i] = spec->succs(static_cast<int>(i));
    }
    ownPreds = std::move(preds);
    ownSuccs = std::move(succs);
}

int
AutomatonInstance::nextPendingEvent(logging::TemplateId tpl) const
{
    int best = -1;
    int best_occurrence = 0;
    for (std::size_t i = 0; i < spec->eventCount(); ++i) {
        if (done[i])
            continue;
        const EventNode &node = spec->event(static_cast<int>(i));
        if (node.tpl != tpl)
            continue;
        if (best == -1 || node.occurrence < best_occurrence) {
            best = static_cast<int>(i);
            best_occurrence = node.occurrence;
        }
    }
    return best;
}

bool
AutomatonInstance::canConsume(logging::TemplateId tpl) const
{
    int event = nextPendingEvent(tpl);
    return event != -1 &&
           remainingPreds[static_cast<std::size_t>(event)] == 0;
}

bool
AutomatonInstance::consume(logging::TemplateId tpl, common::SimTime now)
{
    int event = nextPendingEvent(tpl);
    if (event == -1 ||
        remainingPreds[static_cast<std::size_t>(event)] != 0) {
        return false;
    }
    done[static_cast<std::size_t>(event)] = 1;
    when[static_cast<std::size_t>(event)] = now;
    lastEvent = event;
    ++consumed_;
    for (int succ : succsOf(event))
        --remainingPreds[static_cast<std::size_t>(succ)];
    return true;
}

std::vector<int>
AutomatonInstance::frontier() const
{
    std::vector<int> out;
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (!done[i])
            continue;
        for (int succ : succsOf(static_cast<int>(i))) {
            if (!done[static_cast<std::size_t>(succ)]) {
                out.push_back(static_cast<int>(i));
                break;
            }
        }
    }
    return out;
}

std::vector<logging::TemplateId>
AutomatonInstance::expectedTemplates() const
{
    std::vector<logging::TemplateId> out;
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (done[i] || remainingPreds[i] != 0)
            continue;
        logging::TemplateId tpl = spec->event(static_cast<int>(i)).tpl;
        if (std::find(out.begin(), out.end(), tpl) == out.end())
            out.push_back(tpl);
    }
    return out;
}

bool
AutomatonInstance::removeFalseDependencies(logging::TemplateId tpl)
{
    int event = nextPendingEvent(tpl);
    if (event == -1)
        return false;
    if (remainingPreds[static_cast<std::size_t>(event)] == 0)
        return true; // nothing to remove; already enabled

    materialiseAdjacency();
    auto &preds = *ownPreds;
    auto &succs = *ownSuccs;

    auto eraseFrom = [](std::vector<int> &vec, int value) {
        vec.erase(std::remove(vec.begin(), vec.end(), value), vec.end());
    };
    auto contains = [](const std::vector<int> &vec, int value) {
        return std::find(vec.begin(), vec.end(), value) != vec.end();
    };

    // Cascade: each pass removes one violated edge with the paper's
    // weakening; the weakening may pull in a blocked grand-predecessor,
    // which the next pass removes. Bounded by the edge count squared.
    std::size_t guard =
        spec->eventCount() * spec->eventCount() + spec->eventCount() + 8;
    while (remainingPreds[static_cast<std::size_t>(event)] != 0) {
        CS_ASSERT(guard-- > 0, "false-dependency removal diverged");

        // Find one unconsumed direct predecessor p of the event.
        int blocking = -1;
        for (int p : preds[static_cast<std::size_t>(event)]) {
            if (!done[static_cast<std::size_t>(p)]) {
                blocking = p;
                break;
            }
        }
        CS_ASSERT(blocking != -1,
                  "remainingPreds inconsistent with adjacency");

        // Remove the violated edge (blocking -> event).
        eraseFrom(preds[static_cast<std::size_t>(event)], blocking);
        eraseFrom(succs[static_cast<std::size_t>(blocking)], event);
        --remainingPreds[static_cast<std::size_t>(event)];
        removedList.emplace_back(blocking, event);

        // Weakening 1: predecessors of `blocking` now precede `event`
        // directly (Figure 4's A -> C).
        for (int pp : preds[static_cast<std::size_t>(blocking)]) {
            if (pp == event ||
                contains(preds[static_cast<std::size_t>(event)], pp)) {
                continue;
            }
            preds[static_cast<std::size_t>(event)].push_back(pp);
            succs[static_cast<std::size_t>(pp)].push_back(event);
            if (!done[static_cast<std::size_t>(pp)])
                ++remainingPreds[static_cast<std::size_t>(event)];
        }

        // Weakening 2: `blocking` now precedes the event's successors
        // directly (Figure 4's B -> D).
        for (int s : succs[static_cast<std::size_t>(event)]) {
            if (s == blocking ||
                contains(preds[static_cast<std::size_t>(s)], blocking)) {
                continue;
            }
            preds[static_cast<std::size_t>(s)].push_back(blocking);
            succs[static_cast<std::size_t>(blocking)].push_back(s);
            // `blocking` is unconsumed by construction.
            ++remainingPreds[static_cast<std::size_t>(s)];
        }
    }
    return true;
}

bool
AutomatonInstance::sameState(const AutomatonInstance &other) const
{
    if (spec != other.spec || consumed_ != other.consumed_)
        return false;
    return done == other.done;
}

namespace {

void
writeIntVector(common::BinWriter &out, const std::vector<int> &values)
{
    out.writeU64(values.size());
    for (int v : values)
        out.writeI64(v);
}

bool
readIntVector(common::BinReader &in, std::vector<int> &values)
{
    std::uint64_t count = in.readCount(8);
    if (!in.ok())
        return false;
    values.clear();
    values.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
        values.push_back(static_cast<int>(in.readI64()));
    return in.ok();
}

} // namespace

void
AutomatonInstance::saveState(common::BinWriter &out) const
{
    out.writeU64(done.size());
    for (char flag : done)
        out.writeU8(static_cast<std::uint8_t>(flag));
    for (common::SimTime stamp : when)
        out.writeF64(stamp);
    for (int preds : remainingPreds)
        out.writeI64(preds);
    out.writeU64(consumed_);
    out.writeI64(lastEvent);
    out.writeU64(removedList.size());
    for (const auto &[from, to] : removedList) {
        out.writeI64(from);
        out.writeI64(to);
    }
    out.writeBool(ownPreds.has_value());
    if (ownPreds) {
        for (const std::vector<int> &adj : *ownPreds)
            writeIntVector(out, adj);
        for (const std::vector<int> &adj : *ownSuccs)
            writeIntVector(out, adj);
    }
}

bool
AutomatonInstance::restoreState(common::BinReader &in)
{
    std::uint64_t events = in.readU64();
    if (!in.ok() || events != spec->eventCount()) {
        in.fail();
        return false;
    }
    for (std::size_t i = 0; i < done.size(); ++i)
        done[i] = static_cast<char>(in.readU8());
    for (std::size_t i = 0; i < when.size(); ++i)
        when[i] = in.readF64();
    for (std::size_t i = 0; i < remainingPreds.size(); ++i)
        remainingPreds[i] = static_cast<int>(in.readI64());
    consumed_ = static_cast<std::size_t>(in.readU64());
    lastEvent = static_cast<int>(in.readI64());
    std::uint64_t removed = in.readCount(16);
    if (!in.ok())
        return false;
    removedList.clear();
    removedList.reserve(static_cast<std::size_t>(removed));
    for (std::uint64_t i = 0; i < removed; ++i) {
        int from = static_cast<int>(in.readI64());
        int to = static_cast<int>(in.readI64());
        removedList.emplace_back(from, to);
    }
    bool has_own = in.readBool();
    if (!in.ok())
        return false;
    if (has_own) {
        std::vector<std::vector<int>> preds(spec->eventCount());
        std::vector<std::vector<int>> succs(spec->eventCount());
        for (std::size_t i = 0; i < spec->eventCount(); ++i) {
            if (!readIntVector(in, preds[i]))
                return false;
        }
        for (std::size_t i = 0; i < spec->eventCount(); ++i) {
            if (!readIntVector(in, succs[i]))
                return false;
        }
        ownPreds = std::move(preds);
        ownSuccs = std::move(succs);
    } else {
        ownPreds.reset();
        ownSuccs.reset();
    }
    return in.ok();
}

std::size_t
AutomatonInstance::approxRetainedBytes() const
{
    std::size_t bytes = sizeof(AutomatonInstance);
    bytes += done.size() *
             (sizeof(char) + sizeof(common::SimTime) + sizeof(int));
    bytes += removedList.size() * sizeof(std::pair<int, int>);
    if (ownPreds) {
        bytes += 2 * spec->eventCount() * sizeof(std::vector<int>);
        for (const std::vector<int> &adj : *ownPreds)
            bytes += adj.size() * sizeof(int);
        for (const std::vector<int> &adj : *ownSuccs)
            bytes += adj.size() * sizeof(int);
    }
    return bytes;
}

} // namespace cloudseer::core
