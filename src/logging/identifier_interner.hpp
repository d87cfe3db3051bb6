/**
 * @file
 * Interns identifier values (UUIDs, IPs) to dense integer tokens.
 *
 * The checker's routing structures (identifier sets, the inverted
 * routing index) operate on IdToken, not strings: overlap queries
 * become integer merges and posting-list lookups instead of string
 * comparisons. Tokens are assigned in first-seen order; the numbering
 * is an implementation detail — no checker behaviour depends on token
 * order, only on token identity.
 *
 * Each WorkflowMonitor owns its interner, the way CloudSeer's checker
 * owns its identifier sets: nothing on the monitor path shares a table
 * with another monitor in the process, and only the monitor's feed
 * thread touches it, so there is no lock. Unlike templates, the
 * identifier universe is unbounded (every VM boot mints fresh UUIDs);
 * the interner therefore grows for the life of its monitor unless a
 * capacity is configured (seer-vault, DESIGN.md §13): at capacity,
 * intern() refuses new identifiers with kInvalidIdToken and tallies
 * the rejection, so a hostile identifier flood degrades routing
 * precision instead of memory. Epoch-based compaction once all id-sets
 * referencing a token have retired is still future work (DESIGN.md §9).
 *
 * The index is a FlatIndex of (hash, token) slots over `tokens`, so
 * each identifier's text is stored once and growth moves 8-byte slots
 * rather than rehashing strings (DESIGN.md §18).
 *
 * Snapshot/restore (seer-vault): snapshotState writes the full
 * token→text table and the tallies; restoreState replaces this
 * interner with the image wholesale, so the restored numbering is the
 * snapshot's whatever this table held before.
 */

#ifndef CLOUDSEER_LOGGING_IDENTIFIER_INTERNER_HPP
#define CLOUDSEER_LOGGING_IDENTIFIER_INTERNER_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hpp"
#include "logging/flat_index.hpp"

namespace cloudseer::logging {

/** Dense identifier token; valid tokens index the interner's table. */
using IdToken = std::uint32_t;

/** Sentinel for "not interned". */
constexpr IdToken kInvalidIdToken = 0xffffffffu;

/** Table health counters (seer-scope, DESIGN.md §11). */
struct InternerStats
{
    std::size_t size = 0;       ///< distinct identifiers interned
    std::uint64_t hits = 0;     ///< intern() served from the table
    std::uint64_t misses = 0;   ///< intern() minted a new token
    std::size_t capacity = 0;   ///< configured growth cap (0 = none)
    std::uint64_t capRejected = 0; ///< intern() refusals at capacity

    /** Fraction of intern() calls served from the table. */
    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Registry of identifier values seen during checking. */
class IdentifierInterner
{
  public:
    /**
     * Intern a value; returns a stable dense token — or
     * kInvalidIdToken when a capacity is configured, the table is
     * full, and the value is new (the rejection is tallied).
     */
    IdToken intern(std::string_view value);

    /** Look up without interning; kInvalidIdToken when unknown. */
    IdToken find(std::string_view value) const;

    /** Original text of a token. */
    const std::string &text(IdToken token) const;

    /** Number of interned identifiers. */
    std::size_t size() const;

    /** Table size and hit/miss tallies since construction (or as
     *  restored). */
    InternerStats stats() const;

    /**
     * Hard growth cap (seer-vault, DESIGN.md §13). 0 disables the cap
     * (the default — bit-identical to the uncapped interner). A cap
     * below the current size only blocks further growth; existing
     * tokens stay valid.
     */
    void setCapacity(std::size_t max_entries);

    /**
     * Serialise the table and tallies (seer-vault). The token→text
     * table is written in token order, so restore can reproduce the
     * exact numbering.
     */
    void snapshotState(common::BinWriter &out) const;

    /**
     * Replace this interner with a snapshotState image. Refuses
     * (returns false, this interner untouched) a truncated image, a
     * token count the bytes left cannot hold, or a text that appears
     * twice.
     */
    bool restoreState(common::BinReader &in);

    /**
     * A process-wide instance, for callers with no monitor (bare
     * checkers in tests and benchmarks). No monitor interns into it.
     */
    static IdentifierInterner &
    process()
    {
        static IdentifierInterner instance;
        return instance;
    }

  private:
    std::vector<std::string> tokens; // token -> text
    FlatIndex index;                 // hashText(text) -> token

    /** Token of `value` (hashed `hash`); kInvalidIdToken when absent. */
    IdToken lookup(std::string_view value, std::uint64_t hash) const;

    /** Append `value` as the next token. */
    IdToken append(std::string_view value, std::uint64_t hash);

    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::size_t maxEntries = 0; ///< 0 = unlimited
    std::uint64_t capRejectedCount = 0;
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_IDENTIFIER_INTERNER_HPP
