#include "vault/vaulted_monitor.hpp"

#include <filesystem>

namespace cloudseer::vault {

VaultedMonitor::VaultedMonitor(
    VaultConfig vault_config,
    const core::MonitorConfig &monitor_config,
    std::shared_ptr<logging::TemplateCatalog> catalog,
    std::vector<core::TaskAutomaton> automata)
    : config(std::move(vault_config)), monitorConfig(monitor_config),
      catalogPtr(std::move(catalog)), specs(std::move(automata))
{
    resetMonitor();
    if (!config.enabled()) {
        return;
    }
    std::error_code ec;
    std::filesystem::create_directories(config.directory, ec);
    ledger = std::make_unique<WriteAheadLedger>(
        ledgerPath(config.directory));
    recover();
    // The post-recovery checkpoint absorbs whatever was replayed and
    // rotates away the (possibly torn) old ledger, so the directory
    // is always in the clean two-file state afterwards. The crash
    // window between the two renames inside checkpoint() is safe:
    // stale ledger frames carry seqs the new image already covers.
    if (!checkpoint()) {
        // Checkpointing failed (e.g. unwritable directory): keep the
        // monitor running with whatever ledger can still be appended
        // to rather than refusing to start.
        ledger->open();
    }
}

void
VaultedMonitor::recover()
{
    const std::string ckpt_path = checkpointPath(config.directory);
    std::error_code ec;
    bool have_checkpoint = std::filesystem::exists(ckpt_path, ec);

    if (have_checkpoint) {
        recoverInfo.attempted = true;
        CheckpointScan scan = readCheckpoint(ckpt_path);
        if (!scan.headerOk || !scan.complete || !scan.hasMeta) {
            recoverInfo.error = "checkpoint unreadable or incomplete";
        } else if (scan.meta.modelFingerprint !=
                   monitorPtr->modelFingerprint()) {
            recoverInfo.error =
                "checkpoint model fingerprint mismatch";
        } else {
            const std::string *monitor_body = nullptr;
            bool retired_interner = false;
            for (const auto &[kind, body] : scan.sections) {
                if (kind == CheckpointSection::Interner) {
                    retired_interner = true;
                } else if (kind == CheckpointSection::Monitor) {
                    monitor_body = &body;
                }
            }
            if (retired_interner) {
                recoverInfo.error = "checkpoint has a separate Interner "
                                    "section (older image)";
            } else if (monitor_body == nullptr) {
                recoverInfo.error = "checkpoint missing a section";
            } else {
                common::BinReader monitor_in(*monitor_body);
                if (!monitorPtr->restoreState(monitor_in)) {
                    recoverInfo.error = "monitor restore refused";
                    // The monitor may be half-overwritten; rebuild
                    // it from the construction inputs.
                    resetMonitor();
                } else {
                    recoverInfo.recovered = true;
                    recoverInfo.checkpointSeq = scan.meta.coveredSeq;
                    nextSeq = scan.meta.coveredSeq;
                }
            }
        }
        if (!recoverInfo.recovered) {
            // The on-disk state belongs to an incompatible history
            // (wrong model, older image, refused image). Its ledger
            // must not be replayed into this monitor — the frames
            // were recorded against the state that was just refused.
            // Set both files aside instead of overwriting them, so an
            // operator can still autopsy the refused vault with
            // seer_vault.
            std::error_code rename_ec;
            std::filesystem::rename(ckpt_path,
                                    ckpt_path + ".refused",
                                    rename_ec);
            std::filesystem::rename(ledger->filePath(),
                                    ledger->filePath() + ".refused",
                                    rename_ec);
            return;
        }
    }
    recoverInfo.lastReplayedSeq = recoverInfo.checkpointSeq;

    // Replay the ledger tail. Frames at or below the checkpoint's
    // covered seq are already absorbed by the image (they linger
    // only after a crash between checkpoint-rename and ledger-
    // rotate) and are skipped.
    LedgerScan tail = readLedger(ledger->filePath());
    recoverInfo.ledgerTorn = tail.torn;
    for (const LedgerInput &input : tail.inputs) {
        if (input.seq <= recoverInfo.checkpointSeq) {
            continue;
        }
        recoverInfo.attempted = true;
        std::vector<core::MonitorReport> reports =
            input.kind == LedgerEntry::RawLine
                ? monitorPtr->feedLine(input.line)
                : monitorPtr->feed(input.record);
        recoverInfo.replayReports.insert(
            recoverInfo.replayReports.end(),
            std::make_move_iterator(reports.begin()),
            std::make_move_iterator(reports.end()));
        ++recoverInfo.replayedInputs;
        recoverInfo.lastReplayedSeq = input.seq;
        nextSeq = input.seq;
        recoverInfo.recovered = true;
    }
}

void
VaultedMonitor::resetMonitor()
{
    // Release the old monitor first: it may hold the pulse port the
    // new one binds.
    stageClock = nullptr;
    monitorPtr.reset();
    monitorPtr = std::make_unique<core::WorkflowMonitor>(
        monitorConfig, catalogPtr, specs);
    // seer-pulse: time WAL appends up front so every vaulted
    // instrumented monitor exposes seer_wal_append_us and checkpoint
    // save/restore shapes agree across processes. Null (and nothing
    // timed) when metrics are off.
    obs::Observability *sinks = monitorPtr->observability();
    stageClock = sinks == nullptr ? nullptr : sinks->stageClock();
    if (sinks != nullptr)
        sinks->walAppendLatency();
}

template <typename Append, typename Feed>
std::vector<core::MonitorReport>
VaultedMonitor::ledgered(Append append, Feed feed)
{
    if (!config.enabled()) {
        return feed();
    }
    std::vector<core::MonitorReport> reports;
    {
        // One input on the stage clock: the append is its WalAppend
        // lap, the monitor's stages the rest.
        obs::StageScope input(obs::Stage::Sink, stageClock);
        append();
        reports = feed();
    }
    ++tallies.walAppends;
    ++inputsSinceCheckpoint;
    if (config.checkpointEveryRecords > 0 &&
        inputsSinceCheckpoint >= config.checkpointEveryRecords) {
        checkpoint();
    }
    return reports;
}

std::vector<core::MonitorReport>
VaultedMonitor::feed(const logging::LogRecord &record)
{
    return ledgered(
        [&] { ledger->appendRecord(++nextSeq, record, stageClock); },
        [&] { return monitorPtr->feed(record); });
}

std::vector<core::MonitorReport>
VaultedMonitor::feedLine(const std::string &line)
{
    return ledgered(
        [&] { ledger->appendLine(++nextSeq, line, stageClock); },
        [&] { return monitorPtr->feedLine(line); });
}

std::vector<core::MonitorReport>
VaultedMonitor::finish()
{
    std::vector<core::MonitorReport> reports = monitorPtr->finish();
    if (config.enabled()) {
        checkpoint();
    }
    return reports;
}

bool
VaultedMonitor::checkpoint()
{
    if (!config.enabled()) {
        return false;
    }
    CheckpointMeta meta;
    meta.modelFingerprint = monitorPtr->modelFingerprint();
    meta.coveredSeq = nextSeq;
    meta.monitorTime = monitorPtr->lastTime();

    // Room for the last image plus a quarter: growing the buffer by
    // doubling instead leaves a trail of freed blocks behind, which
    // dominated the vaulted benchmark's peak memory (DESIGN.md §13).
    common::BinWriter monitor_out;
    monitor_out.reserve(tallies.lastCheckpointBytes +
                        tallies.lastCheckpointBytes / 4);
    monitorPtr->saveState(monitor_out);

    std::vector<std::pair<CheckpointSection, std::string>> sections;
    sections.emplace_back(CheckpointSection::Meta, encodeMeta(meta));
    sections.emplace_back(CheckpointSection::Monitor,
                          monitor_out.takeBytes());

    std::uint64_t bytes =
        writeCheckpoint(checkpointPath(config.directory), sections);
    if (bytes == 0) {
        return false;
    }
    ++tallies.checkpointsTaken;
    tallies.lastCheckpointBytes = bytes;
    inputsSinceCheckpoint = 0;
    return ledger->rotate();
}

VaultStats
VaultedMonitor::stats() const
{
    VaultStats out = tallies;
    out.walBytes = ledger == nullptr ? 0 : ledger->bytes();
    return out;
}

} // namespace cloudseer::vault
