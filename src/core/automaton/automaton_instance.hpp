/**
 * @file
 * A live instance of a task automaton during online checking.
 *
 * Implements the paper's TryInputMessage (Algorithm 1's per-instance
 * primitive) plus the on-the-fly false-dependency removal of §4 /
 * Figure 4. Instances are value types: the brute-force branch of
 * Algorithm 2 copies whole groups of them to track alternative
 * hypotheses.
 */

#ifndef CLOUDSEER_CORE_AUTOMATON_AUTOMATON_INSTANCE_HPP
#define CLOUDSEER_CORE_AUTOMATON_AUTOMATON_INSTANCE_HPP

#include <optional>
#include <vector>

#include "common/binio.hpp"
#include "common/time_util.hpp"
#include "core/automaton/task_automaton.hpp"

namespace cloudseer::core {

/** Mutable checking state over a shared TaskAutomaton. */
class AutomatonInstance
{
  public:
    /** Fresh instance: nothing consumed; initial events enabled. */
    explicit AutomatonInstance(const TaskAutomaton *model);

    /** The specification this instance tracks. */
    const TaskAutomaton &automaton() const { return *spec; }

    /** True iff the next occurrence of tpl is enabled right now. */
    bool canConsume(logging::TemplateId tpl) const;

    /**
     * Consume the next occurrence of tpl (the paper's TryInputMessage).
     *
     * @param now Message-clock stamp recorded against the consumed
     *        event (seer-flight's per-transition timing; 0.0 when the
     *        caller has no clock, e.g. structural replays).
     * @retval true  if a state transition happened.
     * @retval false if tpl is unknown here or its event is not enabled.
     */
    bool consume(logging::TemplateId tpl, common::SimTime now = 0.0);

    /** True iff every event has been consumed (accepting state). */
    bool accepting() const { return consumedCount() == totalEvents(); }

    /** True iff at least one event has been consumed. */
    bool started() const { return consumed_ > 0; }

    /** Number of consumed events. */
    std::size_t consumedCount() const { return consumed_; }

    /** Number of events in the specification. */
    std::size_t totalEvents() const { return done.size(); }

    /**
     * Current state set, paper-style: consumed events that still have
     * unconsumed successors — plus, when nothing is consumed yet, the
     * empty set (the paper's {q0}).
     */
    std::vector<int> frontier() const;

    /**
     * Templates that are enabled next (used in reports: "expected
     * messages"). Each enabled event contributes its template once.
     */
    std::vector<logging::TemplateId> expectedTemplates() const;

    /**
     * False-dependency removal (paper Figure 4). If the next occurrence
     * of tpl exists but is blocked by unconsumed predecessors, remove
     * the violated edges with the paper's weakening (preds of the
     * removed source gain an edge to the event; the event's successors
     * gain an edge from the removed source) and cascade until the event
     * is enabled.
     *
     * @retval true  if the event became enabled (dependencies removed).
     * @retval false if tpl has no pending occurrence here.
     */
    bool removeFalseDependencies(logging::TemplateId tpl);

    /** Count of edges this instance has removed as false. */
    std::size_t
    removedDependencyCount() const
    {
        return removedList.size();
    }

    /** The removed edges, in removal order (event-id pairs). */
    const std::vector<std::pair<int, int>> &
    removedDependencies() const
    {
        return removedList;
    }

    /**
     * State equality for the paper's "equivalent groups" heuristic:
     * same specification and same consumed set.
     */
    bool sameState(const AutomatonInstance &other) const;

    /** Consumed flag per event (the state sameState compares). */
    const std::vector<char> &consumedFlags() const { return done; }

    /**
     * Message-clock stamp per event, set at consumption (0.0 for
     * unconsumed events). The raw material of seer-flight's per-edge
     * timing: elapsed on edge (u, v) is consumeTimes()[v] -
     * consumeTimes()[u] once both fired.
     */
    const std::vector<common::SimTime> &consumeTimes() const
    {
        return when;
    }

    /** Event id taken by the most recent consume(), or -1. */
    int lastConsumedEvent() const { return lastEvent; }

    /**
     * Serialise the mutable checking state (seer-vault, DESIGN.md §13).
     * The specification itself is NOT written — the caller identifies
     * it externally (the checker writes an index into its automaton
     * vector) and reconstructs the instance over the same shared model
     * before calling restoreState.
     */
    void saveState(common::BinWriter &out) const;

    /**
     * Overwrite this instance's state from a saveState image. Fails
     * (stream marked bad, instance unspecified) when the image's event
     * count disagrees with the specification — i.e. when the snapshot
     * was taken against a different model.
     */
    bool restoreState(common::BinReader &in);

    /**
     * Deterministic size estimate for the memory ceiling (seer-vault).
     * Counts only state that survives saveState/restoreState, so a
     * restored checker makes the same eviction decisions as the
     * uninterrupted one.
     */
    std::size_t approxRetainedBytes() const;

  private:
    const TaskAutomaton *spec;
    std::vector<char> done;            ///< consumed flag per event
    std::vector<common::SimTime> when; ///< consume stamp per event
    std::vector<int> remainingPreds;   ///< unconsumed direct preds
    std::size_t consumed_ = 0;
    int lastEvent = -1;
    std::vector<std::pair<int, int>> removedList;

    /**
     * Per-instance adjacency overrides, materialised lazily on the
     * first false-dependency removal (copy-on-write over the shared
     * specification).
     */
    std::optional<std::vector<std::vector<int>>> ownPreds;
    std::optional<std::vector<std::vector<int>>> ownSuccs;

    const std::vector<int> &succsOf(int event) const;
    void materialiseAdjacency();
    int nextPendingEvent(logging::TemplateId tpl) const;
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_AUTOMATON_AUTOMATON_INSTANCE_HPP
