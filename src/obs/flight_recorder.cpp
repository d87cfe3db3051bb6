#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "common/string_util.hpp"

namespace cloudseer::obs {

FlightRecorder::FlightRecorder(const FlightRecorderConfig &config)
    : cfg(config)
{
}

void
FlightRecorder::record(std::string_view node, double time,
                       std::string_view line)
{
    if (cfg.perNodeCapacity == 0)
        return;
    auto it = rings.find(node);
    if (it == rings.end()) {
        if (rings.size() >= kFlightMaxNodes) {
            ++droppedLineCount;
            return;
        }
        it = rings.emplace(std::string(node), NodeRing{}).first;
        it->second.slots.reserve(cfg.perNodeCapacity);
    }
    NodeRing &ring = it->second;
    if (ring.slots.size() < cfg.perNodeCapacity) {
        ring.slots.push_back({time, ring.seq, std::string(line), {}});
    } else {
        // Overwrite in place: assign() and clear() keep the evicted
        // line's and fragment's capacity, so a warmed-up ring records
        // (and re-renders) without allocating.
        Slot &slot = ring.slots[ring.next];
        slot.time = time;
        slot.seq = ring.seq;
        slot.line.assign(line.data(), line.size());
        slot.fragment.clear();
        ring.next = (ring.next + 1) % cfg.perNodeCapacity;
    }
    ++ring.seq;
    ++recorded;
}

void
FlightRecorder::orderSlots(std::vector<Ordered> &out) const
{
    out.clear();
    std::size_t rank = 0;
    for (const auto &[node, ring] : rings) {
        for (const Slot &slot : ring.slots)
            out.push_back({slot.time, rank, slot.seq, &node, &slot});
        ++rank;
    }
    // Rings iterate in node order and seq is unique within a ring, so
    // the key is total and a plain sort is deterministic.
    std::sort(out.begin(), out.end(),
              [](const Ordered &a, const Ordered &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.rank != b.rank)
                      return a.rank < b.rank;
                  return a.seq < b.seq;
              });
}

std::vector<ContextView>
FlightRecorder::context() const
{
    std::vector<Ordered> sorted;
    orderSlots(sorted);
    std::vector<ContextView> out;
    out.reserve(sorted.size());
    for (const Ordered &entry : sorted)
        out.push_back({*entry.node, entry.time, entry.slot->line});
    return out;
}

void
FlightRecorder::appendContextJson(std::string &out) const
{
    orderSlots(order);
    bool first = true;
    for (const Ordered &entry : order) {
        std::string &fragment = entry.slot->fragment;
        if (fragment.empty()) {
            fragment += "{\"node\":\"";
            common::appendJsonEscaped(fragment, *entry.node);
            fragment += "\",\"time\":";
            common::appendFixed(fragment, entry.time, 3);
            fragment += ",\"line\":\"";
            common::appendJsonEscaped(fragment, entry.slot->line);
            fragment += "\"}";
        }
        if (!first)
            out += ',';
        first = false;
        out += fragment;
    }
}

void
FlightRecorder::addBundle(std::string bundle_json)
{
    if (store.size() < kFlightMaxBundles) {
        store.push_back(std::move(bundle_json));
        return;
    }
    ++droppedBundleCount;
    store[storeHead] = std::move(bundle_json);
    storeHead = (storeHead + 1) % store.size();
}

const std::vector<std::string> &
FlightRecorder::bundles() const
{
    // Moves of std::string swap buffers: no bundle is copied.
    std::rotate(store.begin(),
                store.begin() + static_cast<std::ptrdiff_t>(storeHead),
                store.end());
    storeHead = 0;
    return store;
}

std::string
FlightRecorder::bundleJsonLines() const
{
    std::string out;
    for (const std::string &bundle : bundles()) {
        out += bundle;
        out += "\n";
    }
    return out;
}

} // namespace cloudseer::obs
