#include "core/checker/interleaved_checker.hpp"

#include <algorithm>
#include <string_view>

#include "common/error.hpp"

namespace cloudseer::core {

using logging::IdToken;

InterleavedChecker::InterleavedChecker(
    const CheckerConfig &config_,
    std::vector<const TaskAutomaton *> automata)
    : config(config_), automatonSet(std::move(automata))
{
    CS_ASSERT(!automatonSet.empty(), "checker needs at least one automaton");
    // A template can start a sequence when some automaton's fresh
    // instance takes it: recovery (b)'s question, answered once here.
    for (const TaskAutomaton *automaton : automatonSet) {
        const AutomatonInstance fresh(automaton);
        for (std::size_t e = 0; e < automaton->eventCount(); ++e) {
            logging::TemplateId tpl =
                automaton->event(static_cast<int>(e)).tpl;
            if (tpl >= templateFlags.size())
                templateFlags.resize(tpl + 1, 0);
            templateFlags[tpl] |= kKnown;
            if (fresh.canConsume(tpl))
                templateFlags[tpl] |= kCanStart;
        }
    }
}

bool
InterleavedChecker::templateHas(logging::TemplateId tpl,
                                TemplateFlag flag) const
{
    return tpl < templateFlags.size() && (templateFlags[tpl] & flag) != 0;
}

void
InterleavedChecker::setCertifiedTemplates(std::vector<char> certified)
{
    if (certified.size() > templateFlags.size())
        templateFlags.resize(certified.size(), 0);
    for (std::size_t tpl = 0; tpl < templateFlags.size(); ++tpl) {
        templateFlags[tpl] &= ~kCertified;
        if (tpl < certified.size() && certified[tpl] != 0)
            templateFlags[tpl] |= kCertified;
    }
    certFastActive = false;
}

std::size_t
InterleavedChecker::certifiedTemplateCount() const
{
    return static_cast<std::size_t>(
        std::count_if(templateFlags.begin(), templateFlags.end(),
                      [](std::uint8_t bits) { return bits & kCertified; }));
}

void
InterleavedChecker::setLatencyPolicy(
    const std::vector<LatencyProfile> &profiles,
    const LatencyCheckConfig &policy)
{
    latencyProfiles.clear();
    for (const LatencyProfile &profile : profiles) {
        if (profile.hasSamples())
            latencyProfiles.emplace(profile.task, profile);
    }
    latencyPolicy = policy;
}

bool
InterleavedChecker::annotateLatency(CheckEvent &event,
                                    const AutomatonGroup &group,
                                    const AutomatonInstance &instance) const
{
    auto it = latencyProfiles.find(instance.automaton().name());
    if (it == latencyProfiles.end())
        return false;
    const LatencyProfile &profile = it->second;
    const TaskAutomaton &automaton = instance.automaton();
    const std::vector<common::SimTime> &when = instance.consumeTimes();

    event.totalElapsed = group.lastActivity() - group.createdAt();
    event.totalBudget =
        profile.total.count > 0
            ? latencyBudget(profile.total, latencyPolicy)
            : -1.0;

    for (const DependencyEdge &edge : automaton.edges()) {
        EdgeTiming timing;
        timing.from = edge.from;
        timing.to = edge.to;
        timing.fromTpl = automaton.event(edge.from).tpl;
        timing.toTpl = automaton.event(edge.to).tpl;
        timing.elapsed = std::max(
            0.0, when[static_cast<std::size_t>(edge.to)] -
                     when[static_cast<std::size_t>(edge.from)]);
        auto stats = profile.edges.find({edge.from, edge.to});
        if (stats != profile.edges.end() && stats->second.count > 0) {
            timing.budget = latencyBudget(stats->second, latencyPolicy);
            timing.exceeded = timing.elapsed > timing.budget;
        }
        event.edgeTimings.push_back(timing);
    }

    // Critical branch through forks/joins: walk back from the last
    // consumed event, at each join taking the predecessor that
    // finished latest — the branch that actually gated progress.
    int cursor = instance.lastConsumedEvent();
    if (cursor >= 0) {
        std::vector<int> path{cursor};
        while (!automaton.preds(cursor).empty()) {
            int slowest = -1;
            for (int pred : automaton.preds(cursor)) {
                if (slowest < 0 ||
                    when[static_cast<std::size_t>(pred)] >
                        when[static_cast<std::size_t>(slowest)]) {
                    slowest = pred;
                }
            }
            cursor = slowest;
            path.push_back(cursor);
        }
        event.criticalPath.assign(path.rbegin(), path.rend());
    }

    return event.totalBudget >= 0.0 &&
           event.totalElapsed > event.totalBudget;
}

std::vector<std::uint64_t>
InterleavedChecker::selectIdSets(const std::vector<IdToken> &view,
                                 int max_overlap_exclusive,
                                 int *overlap_out, bool tie_break) const
{
    return config.routingIndex
               ? selectIdSetsIndexed(view, max_overlap_exclusive,
                                     overlap_out, tie_break)
               : selectIdSetsScan(view, max_overlap_exclusive,
                                  overlap_out, tie_break);
}

std::vector<std::uint64_t>
InterleavedChecker::selectIdSetsScan(const std::vector<IdToken> &view,
                                     int max_overlap_exclusive,
                                     int *overlap_out,
                                     bool tie_break) const
{
    // Best overlap below the (optional) exclusive bound; ties broken by
    // least symmetric difference when configured (paper heuristic 1).
    int best = 0;
    for (const auto &[id, entry] : idsets) {
        int ov = entry.ids.overlap(view);
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        best = std::max(best, ov);
    }
    if (overlap_out != nullptr)
        *overlap_out = best;
    std::vector<std::uint64_t> selected;
    if (best == 0)
        return selected;

    int least_diff = -1;
    for (const auto &[id, entry] : idsets) {
        int ov = entry.ids.overlap(view);
        if (ov != best)
            continue;
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        if (!tie_break) {
            selected.push_back(id);
            continue;
        }
        int diff = entry.ids.symmetricDifference(view);
        if (least_diff == -1 || diff < least_diff) {
            least_diff = diff;
            selected.clear();
            selected.push_back(id);
        } else if (diff == least_diff) {
            selected.push_back(id);
        }
    }
    return selected;
}

std::vector<std::uint64_t>
InterleavedChecker::selectIdSetsIndexed(const std::vector<IdToken> &view,
                                        int max_overlap_exclusive,
                                        int *overlap_out,
                                        bool tie_break) const
{
    // Posting-list accumulation: a set's count of hits across the
    // message's distinct tokens IS its overlap, and any set sharing no
    // token has overlap 0 — which the scan path can never select
    // either (best == 0 returns empty; positive bounds are >= 2). The
    // candidates are sorted by set id so the selection order matches
    // the scan's ascending-map iteration exactly.
    std::vector<std::pair<std::uint64_t, int>> candidates;
    {
        std::unordered_map<std::uint64_t, int> counts;
        for (IdToken token : view) {
            auto it = postings.find(token);
            if (it == postings.end())
                continue;
            for (std::uint64_t set_id : it->second)
                ++counts[set_id];
        }
        candidates.assign(counts.begin(), counts.end());
        std::sort(candidates.begin(), candidates.end());
    }

    int best = 0;
    for (const auto &[set_id, ov] : candidates) {
        if (max_overlap_exclusive >= 0 && ov >= max_overlap_exclusive)
            continue;
        best = std::max(best, ov);
    }
    if (overlap_out != nullptr)
        *overlap_out = best;
    std::vector<std::uint64_t> selected;
    if (best == 0)
        return selected;

    int least_diff = -1;
    for (const auto &[set_id, ov] : candidates) {
        if (ov != best)
            continue;
        if (!tie_break) {
            selected.push_back(set_id);
            continue;
        }
        // |A Δ B| = |A| + |B| - 2|A ∩ B|; the overlap is already
        // known, so no merge is needed.
        int diff = static_cast<int>(idsets.at(set_id).ids.size()) +
                   static_cast<int>(view.size()) - 2 * ov;
        if (least_diff == -1 || diff < least_diff) {
            least_diff = diff;
            selected.clear();
            selected.push_back(set_id);
        } else if (diff == least_diff) {
            selected.push_back(set_id);
        }
    }
    return selected;
}

std::size_t
InterleavedChecker::equivalencePickIndex(std::size_t pool_size)
{
    // splitmix64 finalizer over (seed, record, draw ordinal): stateless,
    // so the choice depends only on the message, never on how many
    // draws happened before it — a checkpoint carries no RNG state, and
    // replay after a restore picks exactly as the uninterrupted run.
    std::uint64_t x = config.seed;
    x ^= 0x9e3779b97f4a7c15ULL * (currentRecord + 1);
    x += 0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(pickSalt++) + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % pool_size);
}

std::vector<GroupId>
InterleavedChecker::candidateGroups(
    const std::vector<std::uint64_t> &set_ids)
{
    std::vector<GroupId> out;
    for (std::uint64_t set_id : set_ids) {
        const std::vector<GroupId> &members = idsets.at(set_id).groupIds;
        // seer-prove fast path: a sole-member set yields one class
        // with a one-element pool — the member itself, with no
        // equivalence draw (pickSalt only advances for pools > 1). Skip
        // building the signature classes; the result is identical.
        if (!config.equivalentGroupDedup ||
            (certFastActive && members.size() == 1)) {
            out.insert(out.end(), members.begin(), members.end());
            continue;
        }
        // Paper heuristic 2: among equivalent groups under one set
        // (equal state signatures), randomly select a single
        // representative. Classes keep first-member order.
        std::vector<std::vector<GroupId>> classes;
        std::unordered_map<std::string_view, std::size_t> class_of;
        for (GroupId gid : members) {
            std::string_view sig = groups.at(gid).group.stateSignature();
            auto [cls_it, fresh] =
                class_of.try_emplace(sig, classes.size());
            if (fresh)
                classes.emplace_back();
            classes[cls_it->second].push_back(gid);
        }
        for (auto &cls : classes) {
            // Prefer live members: a zombie that is state-equivalent
            // to a live group must not steal its messages (silent
            // absorption is a last resort, or starved live groups
            // zombify in a self-sustaining cascade).
            std::vector<GroupId> live;
            for (GroupId gid : cls) {
                if (!groups.at(gid).group.zombie())
                    live.push_back(gid);
            }
            std::vector<GroupId> &pool = live.empty() ? cls : live;
            GroupId chosen =
                pool.size() == 1
                    ? pool.front()
                    : pool[equivalencePickIndex(pool.size())];
            out.push_back(chosen);
        }
    }
    // A group can be reachable through several sets; keep it once.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
InterleavedChecker::indexAddSet(std::uint64_t set_id,
                                const IdSetEntry &entry)
{
    for (IdToken token : entry.ids.values())
        postings[token].push_back(set_id);
}

void
InterleavedChecker::indexRemoveSet(std::uint64_t set_id,
                                   const IdSetEntry &entry)
{
    for (IdToken token : entry.ids.values()) {
        auto it = postings.find(token);
        CS_ASSERT(it != postings.end(), "posting list missing");
        auto &list = it->second;
        list.erase(std::remove(list.begin(), list.end(), set_id),
                   list.end());
        if (list.empty())
            postings.erase(it);
    }
}

std::uint64_t
InterleavedChecker::findOrCreateIdSet(IdentifierSet ids)
{
    // The scan's answer is the lowest set id with these contents
    // (in-place expansion can transiently alias two sets). Every such
    // set holds the first token, so the indexed path need only walk
    // that token's posting list, which is in insertion order, not id
    // order. Empty contents have no posting and take the scan.
    const std::vector<IdToken> &contents = ids.values();
    std::uint64_t found = 0; // live set ids start at 1
    if (config.routingIndex && !contents.empty()) {
        auto posting = postings.find(contents.front());
        if (posting != postings.end()) {
            for (std::uint64_t set_id : posting->second) {
                if ((found == 0 || set_id < found) &&
                    idsets.at(set_id).ids.values() == contents) {
                    found = set_id;
                }
            }
        }
    } else {
        for (const auto &[set_id, entry] : idsets) {
            if (entry.ids.values() == contents) {
                found = set_id;
                break;
            }
        }
    }
    if (found != 0)
        return found;
    std::uint64_t set_id = nextIdSetId++;
    IdSetEntry entry;
    entry.ids = std::move(ids);
    auto [pos, inserted] = idsets.emplace(set_id, std::move(entry));
    CS_ASSERT(inserted, "identifier-set id collision");
    indexAddSet(set_id, pos->second);
    return set_id;
}

void
InterleavedChecker::registerGroup(AutomatonGroup &&group,
                                  std::uint64_t set_id)
{
    GroupId gid = group.id();
    idsets.at(set_id).groupIds.push_back(gid);
    groups.emplace(gid, GroupSlot{std::move(group), set_id});
    if (tracer != nullptr)
        tracer->beginSpan(gid, traceNow);
}

void
InterleavedChecker::traceEnd(const AutomatonGroup &group,
                             common::SimTime time,
                             obs::SpanEnd reason) const
{
    if (tracer == nullptr)
        return;
    const AutomatonInstance *instance = group.acceptingInstance();
    if (instance == nullptr && !group.instances().empty())
        instance = &group.instances().front();
    tracer->endSpan(group.id(), time, reason,
                    instance != nullptr ? instance->automaton().name()
                                        : std::string(),
                    group.history().size());
}

void
InterleavedChecker::applyDecisiveIdUpdate(GroupSlot &slot,
                                          const std::vector<IdToken> &view)
{
    IdSetEntry &entry = idsets.at(slot.set);
    if (entry.groupIds.size() == 1) {
        // Sole owner: expand in place (the paper's ID ∪ m.Sv); new
        // tokens gain a posting.
        std::vector<IdToken> added;
        entry.ids.insert(view, &added);
        for (IdToken token : added)
            postings[token].push_back(slot.set);
        return;
    }
    // Shared set: split off an expanded copy for this group.
    GroupId gid = slot.group.id();
    entry.groupIds.erase(std::remove(entry.groupIds.begin(),
                                     entry.groupIds.end(), gid),
                         entry.groupIds.end());
    IdentifierSet expanded = entry.ids;
    expanded.insert(view);
    slot.set = findOrCreateIdSet(std::move(expanded));
    idsets.at(slot.set).groupIds.push_back(gid);
}

void
InterleavedChecker::eraseGroup(GroupId group)
{
    auto it = groups.find(group);
    if (it == groups.end())
        return;
    // Default span end for teardown without a report; sites with a
    // real fate (accept/error/timeout/shed) close the span first and
    // this becomes a no-op.
    traceEnd(it->second.group, traceNow, obs::SpanEnd::Pruned);
    auto set_it = idsets.find(it->second.set);
    CS_ASSERT(set_it != idsets.end(), "dangling identifier-set id");
    auto &members = set_it->second.groupIds;
    members.erase(std::remove(members.begin(), members.end(), group),
                  members.end());
    if (members.empty()) {
        indexRemoveSet(set_it->first, set_it->second);
        idsets.erase(set_it);
    }
    groups.erase(it);
}

void
InterleavedChecker::collectDescendants(GroupId group,
                                       std::vector<GroupId> &out) const
{
    auto it = groups.find(group);
    if (it == groups.end())
        return;
    for (GroupId child : it->second.group.children()) {
        if (!groups.count(child))
            continue;
        out.push_back(child);
        collectDescendants(child, out);
    }
}

void
InterleavedChecker::pruneLineageOnAccept(GroupId winner)
{
    // seer-prove fast path: a winner with no rival set, no parent, and
    // no children removes exactly itself — addRivalsOf is a no-op on
    // rivalSet() == 0, the ancestor walk never starts, and there are
    // no descendants. Skip the removal-set construction.
    if (certFastActive) {
        const AutomatonGroup &group = groups.at(winner).group;
        if (group.rivalSet() == 0 && group.parent() == 0 &&
            group.children().empty()) {
            eraseGroup(winner);
            return;
        }
    }

    std::vector<GroupId> removal;

    auto addRivalsOf = [this, &removal](GroupId gid) {
        auto it = groups.find(gid);
        if (it == groups.end() || it->second.group.rivalSet() == 0)
            return;
        std::uint64_t rival_set = it->second.group.rivalSet();
        for (const auto &[other_id, other] : groups) {
            if (other_id != gid && other.group.rivalSet() == rival_set) {
                removal.push_back(other_id);
                collectDescendants(other_id, removal);
            }
        }
    };

    // The winner, everything derived from it, its stale ancestors,
    // each level's rival hypotheses, and their derivations.
    removal.push_back(winner);
    collectDescendants(winner, removal);
    addRivalsOf(winner);

    GroupId ancestor = groups.at(winner).group.parent();
    while (ancestor != 0) {
        auto it = groups.find(ancestor);
        if (it == groups.end())
            break;
        GroupId next = it->second.group.parent();
        removal.push_back(ancestor);
        collectDescendants(ancestor, removal);
        addRivalsOf(ancestor);
        ancestor = next;
    }

    std::sort(removal.begin(), removal.end());
    removal.erase(std::unique(removal.begin(), removal.end()),
                  removal.end());
    for (GroupId gid : removal)
        eraseGroup(gid);
}

CheckEvent
InterleavedChecker::makeEvent(CheckEventKind kind, const GroupSlot &slot,
                              common::SimTime time) const
{
    const AutomatonGroup &group = slot.group;
    CheckEvent event;
    event.kind = kind;
    event.candidateTasks = group.candidateTaskNames();
    const AutomatonInstance *instance = group.acceptingInstance();
    if (instance == nullptr && !group.instances().empty())
        instance = &group.instances().front();
    if (instance != nullptr) {
        event.taskName = instance->automaton().name();
        for (int e : instance->frontier())
            event.frontierTemplates.push_back(
                instance->automaton().event(e).tpl);
        event.expectedTemplates = instance->expectedTemplates();
    }
    for (const ConsumedMessage &msg : group.history())
        event.records.push_back(msg.record);
    event.identifiers = idsets.at(slot.set).ids.values();
    event.startTime = group.createdAt();
    event.time = time;
    event.group = group.id();
    return event;
}

void
InterleavedChecker::harvestAcceptance(const std::vector<GroupId> &touched,
                                      common::SimTime now,
                                      std::vector<CheckEvent> &events)
{
    for (GroupId gid : touched) {
        auto it = groups.find(gid);
        if (it == groups.end())
            continue; // pruned by an earlier winner this round
        const AutomatonGroup &group = it->second.group;
        const AutomatonInstance *accepted = group.acceptingInstance();
        if (accepted == nullptr)
            continue;
        if (!group.zombie()) {
            ++counters.accepted;
            CheckEvent event =
                makeEvent(CheckEventKind::Accepted, it->second, now);
            if (latencyPolicyActive() &&
                annotateLatency(event, group, *accepted)) {
                event.kind = CheckEventKind::LatencyAnomaly;
                ++counters.latencyAnomalies;
            }
            if (tracer != nullptr && latencyPolicyActive() &&
                !event.edgeTimings.empty()) {
                std::vector<obs::SpanTransition> slices;
                slices.reserve(event.edgeTimings.size());
                const std::vector<common::SimTime> &when =
                    accepted->consumeTimes();
                for (const EdgeTiming &timing : event.edgeTimings) {
                    slices.push_back(
                        {"e" + std::to_string(timing.from) + "->e" +
                             std::to_string(timing.to),
                         when[static_cast<std::size_t>(timing.from)],
                         timing.elapsed, timing.exceeded});
                }
                tracer->addTransitions(gid, std::move(slices));
            }
            traceEnd(group, now, obs::SpanEnd::Accepted);
            events.push_back(std::move(event));
        }
        pruneLineageOnAccept(gid);
    }
}

void
InterleavedChecker::applyErrorCriterion(const CheckMessage &message,
                                        const std::vector<IdToken> &view,
                                        std::vector<CheckEvent> &events)
{
    ++counters.errorsReported;

    // Most likely group: best identifier overlap, preferring live
    // (non-zombie) hypotheses.
    int overlap = 0;
    std::vector<std::uint64_t> sel = selectIdSets(
        view, -1, &overlap, config.tieBreakLeastDifference);
    GroupId chosen = 0;
    for (std::uint64_t set_id : sel) {
        for (GroupId gid : idsets.at(set_id).groupIds) {
            if (chosen == 0 || (groups.at(chosen).group.zombie() &&
                                !groups.at(gid).group.zombie())) {
                chosen = gid;
            }
        }
    }

    CheckEvent event;
    if (chosen != 0) {
        traceEnd(groups.at(chosen).group, message.time,
                 obs::SpanEnd::Diverged);
        event = makeEvent(CheckEventKind::ErrorDetected,
                          groups.at(chosen), message.time);
        // The paper stops choosing this instance for further messages.
        pruneLineageOnAccept(chosen);
    } else {
        event.kind = CheckEventKind::ErrorDetected;
        event.taskName = "(unassociated)";
        event.time = message.time;
    }
    event.records.push_back(message.record);
    events.push_back(event);
}

std::vector<CheckEvent>
InterleavedChecker::feed(const CheckMessage &message)
{
    std::vector<CheckEvent> events;
    ++counters.messages;
    traceNow = message.time;
    currentRecord = message.record;
    pickSalt = 0;
    certFastActive = templateHas(message.tpl, kCertified);

    // One dedup per message: every overlap / difference / insert below
    // works on this sorted-unique token view.
    const std::vector<IdToken> view =
        IdentifierSet::dedupSorted(message.identifiers);

    // Recovery (a), hoisted: a template outside every automaton's Σ can
    // never be consumed. Non-error messages pass through; error
    // messages trigger the error-message criterion.
    if (!templateHas(message.tpl, kKnown)) {
        if (logging::isErrorLevel(message.level)) {
            applyErrorCriterion(message, view, events);
        } else {
            ++counters.recoveredPassUnknown;
        }
        return events;
    }

    // --- selection (Algorithm 2 lines 1-3) ----------------------------
    int best_overlap = 0;
    std::vector<GroupId> candidates;
    if (config.identifierRouting && !view.empty()) {
        std::vector<std::uint64_t> sel =
            selectIdSets(view, -1, &best_overlap,
                         config.tieBreakLeastDifference);
        candidates = candidateGroups(sel);
    } else {
        for (const auto &[gid, group] : groups)
            candidates.push_back(gid);
    }

    // --- trial consumption (lines 4-8) --------------------------------
    counters.consumeAttempts += candidates.size();
    std::vector<GroupId> consuming;
    for (GroupId gid : candidates) {
        if (groups.at(gid).group.canConsume(message.tpl))
            consuming.push_back(gid);
    }

    auto doDecisive = [this, &message, &view, &events](GroupId gid) {
        GroupSlot &slot = groups.at(gid);
        bool ok = slot.group.consume(message.tpl, message.record,
                                     message.time);
        CS_ASSERT(ok, "decisive consumption failed after canConsume");
        if (tracer != nullptr)
            tracer->annotate(gid, message.time,
                             obs::ConsumeAnnotation::Decisive);
        applyDecisiveIdUpdate(slot, view);
        harvestAcceptance({gid}, message.time, events);
    };

    auto doAmbiguous = [this, &message, &view,
                        &events](std::vector<GroupId> gids) {
        // Case (2): fork a consuming clone of every contender; all
        // clones share one pooled identifier set (ID1 ∪ ID2 ∪ m.Sv).
        // Bounded fan-out: prefer the most-developed hypotheses.
        if (gids.size() > config.maxForkFanout) {
            std::stable_sort(
                gids.begin(), gids.end(),
                [this](GroupId a, GroupId b) {
                    return groups.at(a).group.history().size() >
                           groups.at(b).group.history().size();
                });
            gids.resize(config.maxForkFanout);
        }
        IdentifierSet pooled;
        std::uint64_t rival_set = nextRivalSet++;
        std::vector<GroupId> touched;
        for (GroupId gid : gids)
            pooled.unionWith(idsets.at(groups.at(gid).set).ids);
        pooled.insert(view);
        std::uint64_t set_id = findOrCreateIdSet(std::move(pooled));
        for (GroupId gid : gids) {
            GroupId clone_id = nextGroupId++;
            AutomatonGroup &parent = groups.at(gid).group;
            AutomatonGroup clone = parent.cloneAs(clone_id);
            bool ok = clone.consume(message.tpl, message.record,
                                    message.time);
            CS_ASSERT(ok, "clone consumption failed after canConsume");
            clone.setRivalSet(rival_set);
            parent.addChild(clone_id);
            registerGroup(std::move(clone), set_id);
            if (tracer != nullptr)
                tracer->annotate(clone_id, message.time,
                                 obs::ConsumeAnnotation::Ambiguous);
            touched.push_back(clone_id);
        }
        harvestAcceptance(touched, message.time, events);
    };

    if (consuming.size() == 1) {
        ++counters.decisive;
        doDecisive(consuming.front());
        return events;
    }
    if (consuming.size() > 1) {
        ++counters.ambiguous;
        if (!config.identifierRouting) {
            // Brute-force mode has no identifier sets to pool the
            // alternatives under; forking every contender for every
            // message is exponential. Resolve to the most-developed
            // hypothesis instead — the ablation measures the probing
            // cost the identifier heuristic avoids (paper §5.5).
            GroupId best = consuming.front();
            for (GroupId gid : consuming) {
                if (groups.at(gid).group.history().size() >
                    groups.at(best).group.history().size()) {
                    best = gid;
                }
            }
            doDecisive(best);
            return events;
        }
        doAmbiguous(consuming);
        return events;
    }

    // --- divergence recovery (case 3) ----------------------------------
    // (b) the message may start a new sequence.
    if (templateHas(message.tpl, kCanStart)) {
        GroupId gid = nextGroupId++;
        ++counters.recoveredNewSequence;
        AutomatonGroup fresh(gid, automatonSet);
        bool ok = fresh.consume(message.tpl, message.record, message.time);
        CS_ASSERT(ok, "fresh group failed to consume");
        registerGroup(std::move(fresh),
                      findOrCreateIdSet(IdentifierSet(view)));
        if (tracer != nullptr)
            tracer->annotate(gid, message.time,
                             obs::ConsumeAnnotation::RecoveryNewSequence);
        harvestAcceptance({gid}, message.time, events);
        return events;
    }

    // (c) the chosen identifier set may be wrong: first retry the
    // tie-break losers at the best overlap, then walk down the
    // overlap ranks.
    if (config.identifierRouting && !view.empty()) {
        auto tryLevel =
            [this, &message,
             &events](const std::vector<std::uint64_t> &sel,
                      auto &doDecisiveFn, auto &doAmbiguousFn) {
                std::vector<GroupId> level_groups =
                    candidateGroups(sel);
                counters.consumeAttempts += level_groups.size();
                std::vector<GroupId> takers;
                for (GroupId gid : level_groups) {
                    if (groups.at(gid).group.canConsume(message.tpl))
                        takers.push_back(gid);
                }
                if (takers.empty())
                    return false;
                ++counters.recoveredOtherSet;
                if (tracer != nullptr) {
                    for (GroupId gid : takers)
                        tracer->annotate(
                            gid, message.time,
                            obs::ConsumeAnnotation::RecoveryOtherSet);
                }
                if (takers.size() == 1)
                    doDecisiveFn(takers.front());
                else
                    doAmbiguousFn(takers);
                return true;
            };

        if (config.tieBreakLeastDifference && best_overlap > 0) {
            int level = 0;
            std::vector<std::uint64_t> sel =
                selectIdSets(view, -1, &level, /*tie_break=*/false);
            if (tryLevel(sel, doDecisive, doAmbiguous))
                return events;
        }
        int bound = best_overlap;
        while (bound > 1) {
            int level = 0;
            std::vector<std::uint64_t> sel =
                selectIdSets(view, bound, &level,
                             config.tieBreakLeastDifference);
            if (sel.empty() || level == 0)
                break;
            if (tryLevel(sel, doDecisive, doAmbiguous))
                return events;
            bound = level;
        }
    }

    // (d) a modeled dependency may be false: repair on the best-match
    // groups (paper Figure 4). Removed edges feed the refinement loop.
    if (config.falseDependencyRemoval) {
        for (GroupId gid : candidates) {
            GroupSlot &slot = groups.at(gid);
            std::vector<AutomatonGroup::RepairedEdge> repaired;
            if (slot.group.consumeWithRepair(message.tpl, message.record,
                                             message.time, &repaired)) {
                ++counters.recoveredFalseDependency;
                if (tracer != nullptr)
                    tracer->annotate(gid, message.time,
                                     obs::ConsumeAnnotation::
                                         RecoveryFalseDependency);
                for (const AutomatonGroup::RepairedEdge &edge :
                     repaired) {
                    ++removalCounts[edge.automaton->name()]
                                   [{edge.from, edge.to}];
                }
                applyDecisiveIdUpdate(slot, view);
                harvestAcceptance({gid}, message.time, events);
                return events;
            }
        }
    }

    if (logging::isErrorLevel(message.level)) {
        applyErrorCriterion(message, view, events);
        return events;
    }

    ++counters.unmatched;
    return events;
}

bool
InterleavedChecker::lineageCovered(const AutomatonGroup &group,
                                   common::SimTime now,
                                   double timeout) const
{
    auto recent = [now, timeout](const AutomatonGroup &g) {
        return now - g.lastActivity() <= timeout;
    };

    auto parent_it = groups.find(group.parent());
    if (parent_it != groups.end() && recent(parent_it->second.group))
        return true;

    std::vector<GroupId> descendants;
    collectDescendants(group.id(), descendants);
    for (GroupId gid : descendants) {
        if (recent(groups.at(gid).group))
            return true;
    }

    if (group.rivalSet() != 0) {
        for (const auto &[gid, other] : groups) {
            if (gid != group.id() &&
                other.group.rivalSet() == group.rivalSet() &&
                recent(other.group)) {
                return true;
            }
        }
    }
    return false;
}

std::vector<CheckEvent>
InterleavedChecker::sweepTimeouts(common::SimTime now, double timeout)
{
    return sweepTimeouts(
        now, [timeout](const std::vector<std::string> &) {
            return timeout;
        });
}

std::vector<CheckEvent>
InterleavedChecker::sweepTimeouts(common::SimTime now,
                                  const TimeoutResolver &resolver)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    // Only the current group is ever erased, so `next` stays valid.
    for (auto it = groups.begin(), next = it; it != groups.end();
         it = next) {
        next = std::next(it);
        GroupId gid = it->first;
        AutomatonGroup &group = it->second.group;
        double timeout = resolver(group.candidateTaskNames());
        maxResolvedTimeout = std::max(maxResolvedTimeout, timeout);
        if (group.zombie()) {
            // Zombies linger to absorb late messages, then fade.
            if (now - group.lastActivity() > 3.0 * maxResolvedTimeout)
                eraseGroup(gid);
            continue;
        }
        if (now - group.lastActivity() <= timeout)
            continue;
        if (config.timeoutSuppression && lineageCovered(group, now,
                                                        timeout)) {
            ++counters.timeoutsSuppressed;
            eraseGroup(gid);
            continue;
        }
        ++counters.timeoutsReported;
        traceEnd(group, now, obs::SpanEnd::TimedOut);
        events.push_back(
            makeEvent(CheckEventKind::Timeout, it->second, now));
        // Reported groups linger as silent absorbers of late messages
        // (fewer follow-on false positives from delays).
        group.markZombie();
    }
    return events;
}

std::vector<GroupId>
InterleavedChecker::evictionOrder() const
{
    // Sort keys, not ids: the comparator reads no map.
    struct Key
    {
        bool zombie;
        common::SimTime lastActivity;
        GroupId gid;
    };
    std::vector<Key> keys;
    keys.reserve(groups.size());
    for (const auto &[gid, slot] : groups)
        keys.push_back({slot.group.zombie(), slot.group.lastActivity(), gid});
    std::sort(keys.begin(), keys.end(), [](const Key &a, const Key &b) {
        if (a.zombie != b.zombie)
            return a.zombie;
        if (a.lastActivity != b.lastActivity)
            return a.lastActivity < b.lastActivity;
        return a.gid < b.gid;
    });
    std::vector<GroupId> order;
    order.reserve(keys.size());
    for (const Key &key : keys)
        order.push_back(key.gid);
    return order;
}

std::vector<CheckEvent>
InterleavedChecker::shedWhile(
    common::SimTime now,
    const std::function<bool(std::size_t freed)> &over)
{
    std::vector<CheckEvent> events;
    if (!over(0))
        return events;
    traceNow = now;
    std::size_t freed = 0;
    for (GroupId gid : evictionOrder()) {
        if (!over(freed))
            break;
        const GroupSlot &slot = groups.at(gid);
        freed += slot.group.approxRetainedBytes();
        ++counters.groupsShed;
        traceEnd(slot.group, now, obs::SpanEnd::Shed);
        events.push_back(makeEvent(CheckEventKind::Degraded, slot, now));
        eraseGroup(gid);
    }
    return events;
}

std::vector<CheckEvent>
InterleavedChecker::shedToCap(std::size_t cap, common::SimTime now)
{
    return shedWhile(now,
                     [this, cap](std::size_t) { return groups.size() > cap; });
}

std::vector<CheckEvent>
InterleavedChecker::shedToMemory(std::size_t max_bytes,
                                 common::SimTime now)
{
    // The estimate is taken once; each eviction credits back only the
    // evicted group's own footprint. At least one group is kept.
    std::size_t retained = max_bytes == 0 ? 0 : approxRetainedBytes();
    return shedWhile(now, [this, max_bytes, retained](std::size_t freed) {
        return retained - std::min(retained, freed) > max_bytes &&
               groups.size() > 1;
    });
}

std::vector<CheckEvent>
InterleavedChecker::finish(common::SimTime now)
{
    std::vector<CheckEvent> events;
    traceNow = now;
    // Erasing the last member of a set retires the set and its
    // postings, so this leaves every structure empty.
    for (auto it = groups.begin(), next = it; it != groups.end();
         it = next) {
        next = std::next(it);
        if (!it->second.group.zombie()) {
            traceEnd(it->second.group, now, obs::SpanEnd::EndOfStream);
            events.push_back(
                makeEvent(CheckEventKind::Timeout, it->second, now));
        }
        eraseGroup(it->first);
    }
    return events;
}

const std::vector<std::uint64_t> *
InterleavedChecker::postingsFor(IdToken token) const
{
    auto it = postings.find(token);
    return it == postings.end() ? nullptr : &it->second;
}

bool
InterleavedChecker::indexConsistent() const
{
    // Ids start at 1 and the allocators lie above every live id.
    if (!groups.empty() && (groups.begin()->first == 0 ||
                            groups.rbegin()->first >= nextGroupId)) {
        return false;
    }
    if (!idsets.empty() && (idsets.begin()->first == 0 ||
                            idsets.rbegin()->first >= nextIdSetId)) {
        return false;
    }
    // R both ways: every set has members, each a live group whose slot
    // names the set…
    std::size_t expected_postings = 0;
    for (const auto &[set_id, entry] : idsets) {
        if (entry.groupIds.empty())
            return false;
        for (GroupId gid : entry.groupIds) {
            auto it = groups.find(gid);
            if (it == groups.end() || it->second.set != set_id)
                return false;
        }
        // …every token carries exactly one posting entry…
        expected_postings += entry.ids.size();
        for (IdToken token : entry.ids.values()) {
            auto it = postings.find(token);
            if (it == postings.end() ||
                std::count(it->second.begin(), it->second.end(),
                           set_id) != 1) {
                return false;
            }
        }
    }
    // …every group is a member of its live set exactly once…
    for (const auto &[gid, slot] : groups) {
        auto it = idsets.find(slot.set);
        if (it == idsets.end())
            return false;
        const auto &members = it->second.groupIds;
        if (std::count(members.begin(), members.end(), gid) != 1)
            return false;
    }
    // …and no posting points at a dead set or a set without the token.
    std::size_t actual_postings = 0;
    for (const auto &[token, list] : postings) {
        if (list.empty())
            return false;
        actual_postings += list.size();
        for (std::uint64_t set_id : list) {
            auto it = idsets.find(set_id);
            if (it == idsets.end() || !it->second.ids.contains(token))
                return false;
        }
    }
    return actual_postings == expected_postings;
}

std::uint64_t
modelFingerprint(const std::vector<const TaskAutomaton *> &automata)
{
    std::uint64_t hash = 1469598103934665603ULL; // FNV-1a offset basis
    auto mixByte = [&hash](std::uint8_t byte) {
        hash ^= byte;
        hash *= 1099511628211ULL; // FNV-1a prime
    };
    auto mix = [&mixByte](std::uint64_t value) {
        for (int shift = 0; shift < 64; shift += 8)
            mixByte(static_cast<std::uint8_t>(value >> shift));
    };
    auto mixString = [&mixByte, &mix](const std::string &s) {
        mix(s.size());
        for (char c : s)
            mixByte(static_cast<std::uint8_t>(c));
    };
    mix(automata.size());
    for (const TaskAutomaton *automaton : automata) {
        mixString(automaton->name());
        mix(automaton->eventCount());
        for (std::size_t e = 0; e < automaton->eventCount(); ++e) {
            const EventNode &node = automaton->event(static_cast<int>(e));
            mix(node.tpl);
            mix(static_cast<std::uint64_t>(node.occurrence));
        }
        mix(automaton->edges().size());
        for (const DependencyEdge &edge : automaton->edges()) {
            mix(static_cast<std::uint64_t>(edge.from));
            mix(static_cast<std::uint64_t>(edge.to));
            mixByte(edge.strong ? 1 : 0);
        }
    }
    return hash;
}


std::size_t
InterleavedChecker::approxRetainedBytes() const
{
    // Bookkeeping overhead constants are rough node-size guesses; the
    // point is a deterministic, monotone measure over persisted state,
    // not byte-exact accounting.
    std::size_t bytes = 0;
    for (const auto &[gid, slot] : groups)
        bytes += slot.group.approxRetainedBytes() + 48;
    for (const auto &[set_id, entry] : idsets) {
        // x2 on tokens: each token sits in the set and once more in
        // its posting list.
        bytes += 2 * entry.ids.size() * sizeof(IdToken) +
                 entry.groupIds.size() * sizeof(GroupId) + 96;
    }
    // R's group→set direction: one relation row per group.
    bytes += groups.size() * 48;
    for (const auto &[name, edges] : removalCounts)
        bytes += name.size() + edges.size() * 24 + 64;
    return bytes;
}

void
InterleavedChecker::saveState(common::BinWriter &out) const
{
    out.writeU64(counters.messages);
    out.writeU64(counters.decisive);
    out.writeU64(counters.ambiguous);
    out.writeU64(counters.recoveredPassUnknown);
    out.writeU64(counters.recoveredNewSequence);
    out.writeU64(counters.recoveredOtherSet);
    out.writeU64(counters.recoveredFalseDependency);
    out.writeU64(counters.unmatched);
    out.writeU64(counters.errorsReported);
    out.writeU64(counters.timeoutsReported);
    out.writeU64(counters.timeoutsSuppressed);
    out.writeU64(counters.latencyAnomalies);
    out.writeU64(counters.groupsShed);
    out.writeU64(counters.accepted);
    out.writeU64(counters.consumeAttempts);

    out.writeU64(groups.size());
    for (const auto &[gid, slot] : groups)
        slot.group.saveState(out, automatonSet);

    out.writeU64(removalCounts.size());
    for (const auto &[name, edges] : removalCounts) {
        out.writeString(name);
        out.writeU64(edges.size());
        for (const auto &[edge, count] : edges) {
            out.writeI64(edge.first);
            out.writeI64(edge.second);
            out.writeI64(count);
        }
    }

    out.writeU64(idsets.size());
    for (const auto &[set_id, entry] : idsets) {
        out.writeU64(set_id);
        out.writeU32Vector(entry.ids.values());
        out.writeU64Vector(entry.groupIds);
    }

    out.writeU64(groups.size());
    for (const auto &[gid, slot] : groups) {
        out.writeU64(gid);
        out.writeU64(slot.set);
    }

    out.writeU64(nextGroupId);
    out.writeU64(nextIdSetId);
    out.writeU64(nextRivalSet);
    out.writeF64(maxResolvedTimeout);
}

bool
InterleavedChecker::restoreState(common::BinReader &in)
{
    groups.clear();
    removalCounts.clear();
    idsets.clear();
    postings.clear();

    counters = CheckerStats{};
    counters.messages = in.readU64();
    counters.decisive = in.readU64();
    counters.ambiguous = in.readU64();
    counters.recoveredPassUnknown = in.readU64();
    counters.recoveredNewSequence = in.readU64();
    counters.recoveredOtherSet = in.readU64();
    counters.recoveredFalseDependency = in.readU64();
    counters.unmatched = in.readU64();
    counters.errorsReported = in.readU64();
    counters.timeoutsReported = in.readU64();
    counters.timeoutsSuppressed = in.readU64();
    counters.latencyAnomalies = in.readU64();
    counters.groupsShed = in.readU64();
    counters.accepted = in.readU64();
    counters.consumeAttempts = in.readU64();

    std::uint64_t group_count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < group_count; ++i) {
        AutomatonGroup group(0, {});
        if (!group.restoreState(in, automatonSet))
            return false;
        GroupId gid = group.id();
        if (!groups.emplace(gid, GroupSlot{std::move(group), 0}).second) {
            in.fail();
            return false;
        }
    }

    std::uint64_t removal_tasks = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < removal_tasks; ++i) {
        std::string name = in.readString();
        std::uint64_t edge_count = in.readCount(24);
        if (!in.ok())
            return false;
        auto &edges = removalCounts[name];
        for (std::uint64_t e = 0; e < edge_count; ++e) {
            int from = static_cast<int>(in.readI64());
            int to = static_cast<int>(in.readI64());
            int count = static_cast<int>(in.readI64());
            edges[{from, to}] = count;
        }
    }

    std::uint64_t set_count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < set_count; ++i) {
        std::uint64_t set_id = in.readU64();
        std::vector<IdToken> tokens = in.readU32Vector();
        std::vector<std::uint64_t> members = in.readU64Vector();
        if (!in.ok())
            return false;
        IdSetEntry entry;
        entry.ids = IdentifierSet(tokens);
        entry.groupIds = std::move(members);
        auto [pos, inserted] = idsets.emplace(set_id, std::move(entry));
        if (!inserted) {
            in.fail();
            return false;
        }
        // Rebuild the derived routing index. Posting lists fill in
        // ascending set-id order (map iteration), which may differ
        // from the incremental insertion order of the live run —
        // selection sorts candidates by set id, so the difference is
        // unobservable.
        indexAddSet(set_id, pos->second);
    }

    std::uint64_t relation_count = in.readCount(16);
    if (!in.ok())
        return false;
    for (std::uint64_t i = 0; i < relation_count; ++i) {
        auto it = groups.find(in.readU64());
        std::uint64_t set_id = in.readU64();
        // One row per live group; a set left at 0 is caught below.
        if (it == groups.end() || it->second.set != 0) {
            in.fail();
            return false;
        }
        it->second.set = set_id;
    }

    nextGroupId = in.readU64();
    nextIdSetId = in.readU64();
    nextRivalSet = in.readU64();
    maxResolvedTimeout = in.readF64();
    // A decodable image can still contradict itself (a group without a
    // set, a member naming no group, a stale allocator); running on it
    // would trip an assertion on the next decisive message.
    if (in.ok() && !indexConsistent())
        in.fail();
    return in.ok();
}

} // namespace cloudseer::core
