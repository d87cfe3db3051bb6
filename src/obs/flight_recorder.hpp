/**
 * @file
 * seer-flight recorder: bounded forensic capture for postmortems
 * (DESIGN.md §12).
 *
 * The monitor's reports say *what* went wrong (diverged, timed out,
 * over latency budget) but the raw evidence — the log lines around the
 * failure — is gone by the time an operator reads them. The flight
 * recorder keeps a small per-node ring of recent raw lines in the
 * ingest path; when a report fires, the monitor freezes the rings plus
 * the group's state into a forensic bundle (a JSON object) that the
 * seer_postmortem CLI renders offline.
 *
 * Null-sink contract (same as the rest of obs): the default config has
 * perNodeCapacity == 0, a monitor with that config constructs no
 * FlightRecorder at all, and reports stay bit-identical. Every bound —
 * lines per node, nodes tracked, bundles retained — is a hard cap, so
 * a long run cannot grow the recorder without limit.
 */

#ifndef CLOUDSEER_OBS_FLIGHT_RECORDER_HPP
#define CLOUDSEER_OBS_FLIGHT_RECORDER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cloudseer::obs {

/** Distinct nodes tracked; lines from further nodes are counted as
 *  dropped rather than evicting an existing ring. */
inline constexpr std::size_t kFlightMaxNodes = 64;

/** Forensic bundles retained (ring; oldest dropped). */
inline constexpr std::size_t kFlightMaxBundles = 256;

/** Flight-recorder knobs. Defaults are off (the null sink). */
struct FlightRecorderConfig
{
    /** Raw lines retained per node; 0 disables the recorder. */
    std::size_t perNodeCapacity = 0;

    /** True when the recorder captures anything. */
    bool enabled() const { return perNodeCapacity > 0; }
};

/**
 * One captured raw line with its origin and message-clock stamp, as
 * views into the recorder: valid until the next record().
 */
struct ContextView
{
    std::string_view node;
    double time = 0.0;
    std::string_view line;
};

/** Bounded per-node ring buffers plus the bundle store. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(const FlightRecorderConfig &config);

    const FlightRecorderConfig &config() const { return cfg; }

    /**
     * Capture one raw line into its node's ring. This sits on the
     * per-message ingest path, so it takes views and copies into the
     * slot's existing buffer: once every slot has seen a line at
     * least as long as the current one, recording allocates nothing
     * (the node text lives once in the ring key, not per entry).
     */
    void record(std::string_view node, double time,
                std::string_view line);

    /**
     * Every ring merged in time order (ties by node, then capture
     * order): the lines of a forensic bundle's "context" section.
     */
    std::vector<ContextView> context() const;

    /**
     * Append the "context" section's elements to `out`: context() in
     * the same order, each line as {"node":…,"time":…,"line":…}, comma
     * separated, without the enclosing brackets.
     *
     * Each slot caches its rendered fragment. It is rendered on the
     * first call that includes the slot and dropped when record()
     * overwrites the slot, so consecutive bundles, which share most of
     * their context, copy fragments instead of escaping and
     * formatting the lines again. Once warm this allocates nothing.
     */
    void appendContextJson(std::string &out) const;

    /** Store one rendered bundle (JSON object, single line). */
    void addBundle(std::string bundle_json);

    /** Retained bundles, oldest first. */
    const std::vector<std::string> &bundles() const;

    /** Bundles dropped past kFlightMaxBundles. */
    std::uint64_t droppedBundles() const { return droppedBundleCount; }

    /** Lines offered to record() so far. */
    std::uint64_t linesRecorded() const { return recorded; }

    /** Lines rejected because the node cap was reached. */
    std::uint64_t droppedLines() const { return droppedLineCount; }

    /** Bundles as newline-separated JSON lines (postmortem input). */
    std::string bundleJsonLines() const;

  private:
    /** One retained line; the node is the owning ring's map key. */
    struct Slot
    {
        double time = 0.0;
        std::uint64_t seq = 0; ///< the ring's capture count at record()
        std::string line;      ///< capacity reused across overwrites
        /** Rendered context element; empty when stale. A cache, so
         *  appendContextJson() fills it from a const recorder. */
        mutable std::string fragment;
    };

    /** Fixed-size ring: `slots` grows to capacity then wraps at
     *  `next`; `seq` counts captures, ordering slots across the wrap. */
    struct NodeRing
    {
        std::vector<Slot> slots;
        std::size_t next = 0;
        std::uint64_t seq = 0;
    };

    /** One slot in context order: (time, ring rank, seq) is unique. */
    struct Ordered
    {
        double time;
        std::size_t rank; ///< the ring's position in node order
        std::uint64_t seq;
        const std::string *node;
        const Slot *slot;
    };

    /** Every slot of every ring, sorted into context order. */
    void orderSlots(std::vector<Ordered> &out) const;

    FlightRecorderConfig cfg;
    // std::less<> lets record() probe with a string_view; the node
    // string is materialised only when a new ring is created.
    std::map<std::string, NodeRing, std::less<>> rings;
    /** Scratch for appendContextJson(), reused across bundles. */
    mutable std::vector<Ordered> order;
    /**
     * Bundle ring: grows to kFlightMaxBundles, then addBundle()
     * overwrites the oldest at `storeHead`. bundles() rotates it back
     * to oldest-first on demand, so neither side shifts the whole
     * store per bundle.
     */
    mutable std::vector<std::string> store;
    mutable std::size_t storeHead = 0;
    std::uint64_t recorded = 0;
    std::uint64_t droppedLineCount = 0;
    std::uint64_t droppedBundleCount = 0;
};

} // namespace cloudseer::obs

#endif // CLOUDSEER_OBS_FLIGHT_RECORDER_HPP
