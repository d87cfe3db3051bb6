#pragma once

/**
 * The monitor's stage clock (DESIGN.md §16): the one account of where
 * an input's time goes, stage by stage — sink → parse → route → check
 * → verdict, and the WAL append — and the one place the ingest path
 * reads the time.
 *
 * `StageScope` RAII markers sit unconditionally on the hot path. A
 * scope given a `StageClock` times itself as the clock describes; a
 * scope without one does nothing, so an uninstrumented monitor reads
 * no clock and reports bit-identically.
 */

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace cloudseer::obs {

/** The pipeline stages an input's time is charged to. */
enum class Stage : std::uint8_t {
    Sink,       ///< ingest arrival (decode, flight capture, buffering)
    Parse,      ///< template match + identifier extraction/interning
    Route,      ///< clock guard, dedup, routing-index selection
    Check,      ///< Algorithm 2 step
    Verdict,    ///< shedding, report assembly, snapshot publishing
    WalAppend,  ///< seer-vault write-ahead ledger append
};

inline constexpr int kStageCount = 6;

/** Stable lower-case stage name ("sink", "parse", ...): the
 *  `seer_stage_<name>_us` metric names are built from it. */
const char *stageName(Stage stage);

class Histogram;

/**
 * A monitor's stage clock. The outermost Sink scope naming the clock
 * opens an *input*, timed on every input into `total()`. On one input
 * in kLapEvery every scope inside it is timed too: its self time
 * (elapsed minus its nested scopes': the innermost scope wins) is
 * charged to its stage, and when the input closes each stage it
 * entered records its summed lap. Scopes outside an input read no
 * clock. Single-threaded, like its monitor.
 */
class StageClock
{
  public:
    /** Stage laps are timed on one input in this many. */
    static constexpr std::uint64_t kLapEvery = 64;

    explicit StageClock(Histogram &total) : total_(&total) {}

    /** Every input's total, microseconds. */
    Histogram &total() const { return *total_; }

    /** Where `stage`'s laps go: null (the default) leaves it untimed. */
    Histogram *&laps(Stage stage)
    {
        return laps_[static_cast<std::size_t>(stage)];
    }

  private:
    friend class StageScope;

    Histogram *total_;
    std::array<Histogram *, kStageCount> laps_{};
    std::array<std::int64_t, kStageCount> lapNs_{}; ///< this input's
    std::uint32_t visited_ = 0; ///< stages entered this input, a bit each
    std::int64_t nestedNs_ = 0; ///< closed scopes inside the open one
    std::uint64_t inputs_ = 0;
    bool open_ = false;    ///< an input is in progress
    bool lapping_ = false; ///< ... and its stages are being timed
};

/**
 * RAII stage marker. Scopes nest; the innermost wins. With a clock,
 * the scope times itself as `StageClock` describes; with a null clock
 * it does nothing.
 */
class StageScope
{
public:
    StageScope(Stage stage, StageClock *clock) noexcept : stage_(stage)
    {
        if (clock != nullptr &&
            (clock->lapping_ || (!clock->open_ && stage == Stage::Sink)))
            start(*clock);
    }
    ~StageScope()
    {
        if (clock_ != nullptr)
            stop();
    }
    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

private:
    void start(StageClock &clock) noexcept;
    void stop() noexcept;

    Stage stage_;
    bool opensInput_ = false;
    StageClock *clock_ = nullptr; ///< set only while this scope times
    std::int64_t outerNestedNs_ = 0;
    std::chrono::steady_clock::time_point entered_{};
};

} // namespace cloudseer::obs
