#include "obs/stage_clock.hpp"

#include "obs/metrics.hpp"

namespace cloudseer::obs {

namespace {

constexpr const char *kStageNames[kStageCount] = {
    "sink", "parse", "route", "check", "verdict", "wal_append",
};

} // namespace

const char *
stageName(Stage stage)
{
    unsigned index = static_cast<unsigned>(stage);
    return index < kStageCount ? kStageNames[index] : "unknown";
}

void
StageScope::start(StageClock &clock) noexcept
{
    clock_ = &clock;
    if (!clock.open_) {
        opensInput_ = true;
        clock.open_ = true;
        clock.lapping_ = clock.inputs_++ % StageClock::kLapEvery == 0;
        clock.lapNs_.fill(0);
        clock.visited_ = 0;
    }
    outerNestedNs_ = clock.nestedNs_;
    clock.nestedNs_ = 0;
    entered_ = std::chrono::steady_clock::now();
}

void
StageScope::stop() noexcept
{
    StageClock &clock = *clock_;
    auto elapsed = std::chrono::steady_clock::now() - entered_;
    std::int64_t ns = std::chrono::nanoseconds(elapsed).count();
    if (clock.lapping_) {
        auto stage = static_cast<std::size_t>(stage_);
        clock.lapNs_[stage] += ns - clock.nestedNs_;
        clock.visited_ |= 1u << stage;
    }
    clock.nestedNs_ = outerNestedNs_ + ns;
    if (!opensInput_)
        return;
    clock.total_->record(static_cast<double>(ns) / 1000.0);
    for (std::size_t stage = 0; clock.lapping_ && stage < kStageCount;
         ++stage) {
        if ((clock.visited_ >> stage & 1u) != 0 &&
            clock.laps_[stage] != nullptr) {
            clock.laps_[stage]->record(
                static_cast<double>(clock.lapNs_[stage]) / 1000.0);
        }
    }
    clock.open_ = false;
    clock.lapping_ = false;
}

} // namespace cloudseer::obs
