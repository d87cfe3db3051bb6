/**
 * @file
 * seer-vault: operator CLI for vault directories (DESIGN.md §13).
 *
 * Inspects the durability state a VaultedMonitor leaves on disk —
 * `checkpoint.ckpt` and `ledger.wal` — without needing the model or a
 * running monitor. Three commands:
 *
 *     seer-vault inspect DIR           # what is in the vault?
 *     seer-vault verify DIR            # is it structurally sound?
 *     seer-vault diff DIR_A DIR_B      # did the state change?
 *
 * `inspect` prints the checkpoint header, Meta fields, per-section
 * sizes, and the ledger's frame count, seq range, and torn-tail flag.
 * `verify` re-derives every structural invariant (magic, version,
 * frame CRCs, section set, End terminator, ledger decode, seq
 * monotonicity) and exits 0 only when all hold — the same checks
 * recovery applies, minus the model-dependent ones. The Monitor
 * section opens with the monitor's interner image, which needs no
 * model and is decoded in full with IdentifierInterner::restoreState;
 * the rest cannot be decoded without the automata, so verification
 * stops at frame and section structure for it. `diff` compares two
 * checkpoints by Meta fields and by the Monitor section's size and
 * checksum, for answering "did anything change between these two
 * snapshots?".
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "logging/identifier_interner.hpp"
#include "vault/vault.hpp"

namespace {

using namespace cloudseer;

const char *
sectionName(vault::CheckpointSection kind)
{
    switch (kind) {
      case vault::CheckpointSection::Meta: return "meta";
      case vault::CheckpointSection::Interner: return "interner";
      case vault::CheckpointSection::Monitor: return "monitor";
      case vault::CheckpointSection::End: return "end";
    }
    return "unknown";
}

/** The body of the first `kind` section, or null. */
const std::string *
sectionBody(const vault::CheckpointScan &scan,
            vault::CheckpointSection kind)
{
    for (const auto &[k, body] : scan.sections)
        if (k == kind)
            return &body;
    return nullptr;
}

/** Ledger facts shared by inspect and verify. */
struct LedgerSummary
{
    bool headerOk = false;
    bool torn = false;
    bool seqMonotonic = true;
    std::size_t entries = 0;
    std::uint64_t firstSeq = 0;
    std::uint64_t lastSeq = 0;
};

LedgerSummary
summarizeLedger(const std::string &directory)
{
    LedgerSummary out;
    vault::LedgerScan scan =
        vault::readLedger(vault::ledgerPath(directory));
    out.headerOk = scan.headerOk;
    out.torn = scan.torn;
    out.entries = scan.inputs.size();
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < scan.inputs.size(); ++i) {
        std::uint64_t seq = scan.inputs[i].seq;
        if (i == 0)
            out.firstSeq = seq;
        else if (seq <= previous)
            out.seqMonotonic = false;
        out.lastSeq = seq;
        previous = seq;
    }
    return out;
}

int
inspect(const std::string &directory)
{
    vault::CheckpointScan ckpt =
        vault::readCheckpoint(vault::checkpointPath(directory));
    std::printf("checkpoint: %s\n",
                vault::checkpointPath(directory).c_str());
    if (!ckpt.headerOk) {
        std::printf("  (missing or unreadable)\n");
    } else {
        std::printf("  complete: %s\n", ckpt.complete ? "yes" : "no");
        if (ckpt.hasMeta) {
            std::printf("  model fingerprint: %016llx\n",
                        static_cast<unsigned long long>(
                            ckpt.meta.modelFingerprint));
            std::printf("  covered ledger seq: %llu\n",
                        static_cast<unsigned long long>(
                            ckpt.meta.coveredSeq));
            std::printf("  monitor clock: %.3f\n",
                        ckpt.meta.monitorTime);
        }
        for (const auto &[kind, body] : ckpt.sections) {
            std::printf("  section %-8s %8zu bytes  crc %08x\n",
                        sectionName(kind), body.size(),
                        common::crc32(body));
        }
    }

    LedgerSummary ledger = summarizeLedger(directory);
    std::printf("ledger: %s\n", vault::ledgerPath(directory).c_str());
    if (!ledger.headerOk) {
        std::printf("  (missing or unreadable)\n");
        return 0;
    }
    std::printf("  entries: %zu\n", ledger.entries);
    if (ledger.entries > 0) {
        std::printf("  seq range: %llu..%llu\n",
                    static_cast<unsigned long long>(ledger.firstSeq),
                    static_cast<unsigned long long>(ledger.lastSeq));
    }
    std::printf("  torn tail: %s\n", ledger.torn ? "yes" : "no");
    return 0;
}

int
verify(const std::string &directory)
{
    int failures = 0;
    auto check = [&failures](bool ok, const char *what) {
        std::printf("  %-44s %s\n", what, ok ? "ok" : "FAIL");
        if (!ok)
            ++failures;
    };

    vault::CheckpointScan ckpt =
        vault::readCheckpoint(vault::checkpointPath(directory));
    std::printf("checkpoint:\n");
    check(ckpt.headerOk, "magic and version");
    check(ckpt.complete, "End terminator present");
    check(ckpt.hasMeta, "Meta section decodes");
    // Recovery refuses an image with the retired Interner section.
    check(sectionBody(ckpt, vault::CheckpointSection::Interner) ==
              nullptr,
          "no retired Interner section");
    const std::string *monitor =
        sectionBody(ckpt, vault::CheckpointSection::Monitor);
    check(monitor != nullptr, "Monitor section present");
    if (monitor != nullptr) {
        common::BinReader in(*monitor);
        check(logging::IdentifierInterner().restoreState(in),
              "Monitor's interner image decodes");
    }

    LedgerSummary ledger = summarizeLedger(directory);
    std::printf("ledger:\n");
    check(ledger.headerOk, "magic and version");
    check(!ledger.torn, "no torn tail");
    check(ledger.seqMonotonic, "seqs strictly increasing");
    if (ckpt.hasMeta && ledger.entries > 0) {
        // After a clean checkpoint the ledger is empty; entries at or
        // below the covered seq mean a crash interrupted the
        // checkpoint/rotate pair (harmless — replay skips them) but
        // are worth surfacing.
        check(ledger.firstSeq > ckpt.meta.coveredSeq,
              "ledger starts past the checkpoint");
    }

    std::printf(failures == 0 ? "vault is sound\n"
                              : "vault has %d problem(s)\n",
                failures);
    return failures == 0 ? 0 : 1;
}

int
diff(const std::string &dir_a, const std::string &dir_b)
{
    vault::CheckpointScan a =
        vault::readCheckpoint(vault::checkpointPath(dir_a));
    vault::CheckpointScan b =
        vault::readCheckpoint(vault::checkpointPath(dir_b));
    if (!a.headerOk || !b.headerOk) {
        std::cerr << "seer-vault: cannot read both checkpoints\n";
        return 2;
    }
    int differences = 0;
    auto field = [&differences](const char *name, double va,
                                double vb) {
        bool same = va == vb;
        if (!same)
            ++differences;
        std::printf("  %-20s %14.3f %14.3f  %s\n", name, va, vb,
                    same ? "" : "DIFFERS");
    };
    std::printf("meta:                %14s %14s\n", "A", "B");
    field("fingerprint",
          static_cast<double>(a.meta.modelFingerprint),
          static_cast<double>(b.meta.modelFingerprint));
    field("covered seq", static_cast<double>(a.meta.coveredSeq),
          static_cast<double>(b.meta.coveredSeq));
    field("monitor clock", a.meta.monitorTime, b.meta.monitorTime);

    std::printf("sections:\n");
    const vault::CheckpointSection kind = vault::CheckpointSection::Monitor;
    const std::string *body_a = sectionBody(a, kind);
    const std::string *body_b = sectionBody(b, kind);
    bool same = body_a != nullptr && body_b != nullptr &&
                body_a->size() == body_b->size() &&
                common::crc32(*body_a) == common::crc32(*body_b);
    if (!same)
        ++differences;
    std::printf("  %-8s A=%zu bytes  B=%zu bytes  %s\n",
                sectionName(kind),
                body_a == nullptr ? 0 : body_a->size(),
                body_b == nullptr ? 0 : body_b->size(),
                same ? "identical" : "DIFFERS");
    std::printf(differences == 0 ? "checkpoints are identical\n"
                                 : "%d field(s) differ\n",
                differences);
    return differences == 0 ? 0 : 1;
}

int
usage(std::ostream &out, int status)
{
    out << "usage: seer-vault <command> ...\n"
           "  inspect DIR       print checkpoint and ledger contents\n"
           "  verify DIR        structural soundness checks (exit 0 = "
           "sound)\n"
           "  diff DIR_A DIR_B  compare two checkpoints\n";
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "--help" || args[0] == "-h")
        return usage(args.empty() ? std::cerr : std::cout,
                     args.empty() ? 2 : 0);
    const std::string &command = args[0];
    if (command == "inspect" && args.size() == 2)
        return inspect(args[1]);
    if (command == "verify" && args.size() == 2)
        return verify(args[1]);
    if (command == "diff" && args.size() == 3)
        return diff(args[1], args[2]);
    return usage(std::cerr, 2);
}
