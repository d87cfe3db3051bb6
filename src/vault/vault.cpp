#include "vault/vault.hpp"

#include <cstdio>
#include <filesystem>
#include <string_view>

#include "logging/record_binio.hpp"

namespace cloudseer::vault {

namespace {

/** Little-endian u32, matching BinWriter's integer encoding. */
void
putU32(char *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
}

std::uint32_t
decodeU32(const char *bytes)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes[i]))
                 << (8 * i);
    }
    return value;
}

/** Magic (8 bytes) + version (u32). */
constexpr std::size_t kHeaderBytes = 12;

/** A frame's 8-byte [u32 len][u32 crc] header. */
void
putFrameHeader(char *out, std::size_t len, std::uint32_t crc)
{
    putU32(out, static_cast<std::uint32_t>(len));
    putU32(out + 4, crc);
}

/** Write one frame whose payload is `head` followed by `body`,
 *  checksummed where they lie instead of joined into a copy. */
void
writeFrame(std::ofstream &out, std::string_view head,
           std::string_view body)
{
    char header[8];
    putFrameHeader(header, head.size() + body.size(),
                   common::crc32(body, common::crc32(head)));
    out.write(header, 8);
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

} // namespace

void
appendFrame(std::ofstream &out, const std::string &payload)
{
    writeFrame(out, {}, payload);
    out.flush();
}

bool
writeFileHeader(std::ofstream &out, const char *magic)
{
    char version[4];
    putU32(version, kVaultVersion);
    out.write(magic, 8);
    out.write(version, 4);
    out.flush();
    return out.good();
}

FrameScan
scanFrames(const std::string &path, const char *magic)
{
    FrameScan scan;
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        return scan;
    }
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    if (contents.size() < kHeaderBytes ||
        contents.compare(0, 8, magic, 8) != 0 ||
        decodeU32(contents.data() + 8) != kVaultVersion) {
        return scan;
    }
    scan.headerOk = true;
    std::size_t pos = kHeaderBytes;
    while (pos < contents.size()) {
        // A frame shorter than its own header, a length pointing past
        // EOF, or a checksum mismatch all mark the torn tail left by
        // a crash mid-append; everything before it is intact.
        if (contents.size() - pos < 8) {
            break;
        }
        std::size_t len = decodeU32(contents.data() + pos);
        std::uint32_t crc = decodeU32(contents.data() + pos + 4);
        if (contents.size() - pos - 8 < len) {
            break;
        }
        std::string payload = contents.substr(pos + 8, len);
        if (common::crc32(payload) != crc) {
            break;
        }
        scan.frames.push_back(std::move(payload));
        pos += 8 + len;
    }
    if (pos < contents.size()) {
        scan.torn = true;
        scan.tornBytes = contents.size() - pos;
    }
    return scan;
}

// --- WriteAheadLedger --------------------------------------------------

bool
WriteAheadLedger::open()
{
    std::error_code ec;
    bool fresh = !std::filesystem::exists(path, ec) ||
                 std::filesystem::file_size(path, ec) == 0;
    out.open(path, std::ios::binary | std::ios::app);
    if (!out.is_open()) {
        return false;
    }
    if (fresh) {
        return writeFileHeader(out, kLedgerMagic);
    }
    return true;
}

void
WriteAheadLedger::enqueue()
{
    // Frame directly into the pending batch — no temporaries, so the
    // per-input cost is two small memcpys and a CRC pass. scratch and
    // pending both keep their capacity across appends.
    const std::string &payload = scratch.bytes();
    char header[8];
    putFrameHeader(header, payload.size(), common::crc32(payload));
    pending.append(header, 8);
    pending += payload;
    if (pending.size() >= kGroupCommitBytes)
        flush();
}

void
WriteAheadLedger::flush()
{
    if (pending.empty() || !out.is_open())
        return;
    out.write(pending.data(),
              static_cast<std::streamsize>(pending.size()));
    out.flush();
    pending.clear();
}

void
WriteAheadLedger::sealFrame(std::size_t start)
{
    std::string_view payload(pending.data() + start + 8,
                             pending.size() - start - 8);
    putFrameHeader(pending.data() + start, payload.size(),
                   common::crc32(payload));
    if (pending.size() >= kGroupCommitBytes)
        flush();
}

void
WriteAheadLedger::appendLine(std::uint64_t seq, const std::string &line,
                             obs::StageClock *clock)
{
    obs::StageScope scope(obs::Stage::WalAppend, clock);
    // Raw lines are the ingest hot path: frame straight into the
    // pending batch — header placeholder first, patched by sealFrame
    // once the payload is in place — so each append is one CRC pass
    // and a single payload copy, no intermediate encode buffer.
    std::size_t start = pending.size();
    pending.append(8, '\0'); // [len][crc], patched below
    char enc[17];
    enc[0] = static_cast<char>(LedgerEntry::RawLine);
    std::uint64_t size = line.size();
    for (int i = 0; i < 8; ++i) {
        enc[1 + i] = static_cast<char>((seq >> (8 * i)) & 0xffu);
        enc[9 + i] = static_cast<char>((size >> (8 * i)) & 0xffu);
    }
    pending.append(enc, 17);
    pending += line;
    sealFrame(start);
}

void
WriteAheadLedger::appendRecord(std::uint64_t seq,
                               const logging::LogRecord &record,
                               obs::StageClock *clock)
{
    obs::StageScope scope(obs::Stage::WalAppend, clock);
    scratch.clear();
    scratch.writeU8(static_cast<std::uint8_t>(LedgerEntry::Record));
    scratch.writeU64(seq);
    logging::writeLogRecord(scratch, record);
    enqueue();
}

bool
WriteAheadLedger::rotate()
{
    // Pending frames predate the checkpoint that triggered this
    // rotation; their inputs are absorbed in the image.
    pending.clear();
    const std::string tmp = path + ".tmp";
    {
        std::ofstream fresh(tmp,
                            std::ios::binary | std::ios::trunc);
        if (!fresh.is_open() ||
            !writeFileHeader(fresh, kLedgerMagic)) {
            return false;
        }
    }
    if (out.is_open()) {
        out.close();
    }
    // rename() is atomic on POSIX: a crash here leaves either the
    // old ledger (stale frames are seq-gated at replay) or the new
    // empty one, never a hybrid.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return false;
    }
    out.open(path, std::ios::binary | std::ios::app);
    return out.is_open();
}

std::uint64_t
WriteAheadLedger::bytes() const
{
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    return (ec ? 0 : static_cast<std::uint64_t>(size)) +
           pending.size();
}

LedgerScan
readLedger(const std::string &path)
{
    LedgerScan scan;
    FrameScan frames = scanFrames(path, kLedgerMagic);
    scan.headerOk = frames.headerOk;
    scan.torn = frames.torn;
    for (const std::string &payload : frames.frames) {
        common::BinReader in(payload);
        LedgerInput input;
        std::uint8_t kind = in.readU8();
        input.seq = in.readU64();
        if (kind == static_cast<std::uint8_t>(LedgerEntry::RawLine)) {
            input.kind = LedgerEntry::RawLine;
            input.line = in.readString();
        } else if (kind ==
                   static_cast<std::uint8_t>(LedgerEntry::Record)) {
            input.kind = LedgerEntry::Record;
            logging::readLogRecord(in, input.record);
        } else {
            in.fail();
        }
        // A frame that passed its CRC but fails to decode means a
        // writer bug or version skew, not a crash; treat it like a
        // torn tail so replay never feeds garbage to the monitor.
        if (!in.ok()) {
            scan.torn = true;
            break;
        }
        scan.inputs.push_back(std::move(input));
    }
    return scan;
}

// --- checkpoint files --------------------------------------------------

std::uint64_t
writeCheckpoint(
    const std::string &path,
    const std::vector<std::pair<CheckpointSection, std::string>>
        &sections)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.is_open() ||
            !writeFileHeader(out, kCheckpointMagic)) {
            return 0;
        }
        // Each frame's payload is the section kind then its body,
        // written straight from the caller's buffer.
        auto section = [&out](CheckpointSection kind,
                              std::string_view body) {
            char tag[4];
            putU32(tag, static_cast<std::uint32_t>(kind));
            writeFrame(out, std::string_view(tag, 4), body);
        };
        for (const auto &[kind, body] : sections)
            section(kind, body);
        section(CheckpointSection::End, {});
        out.flush();
        if (!out.good()) {
            return 0;
        }
    }
    std::error_code ec;
    auto size = std::filesystem::file_size(tmp, ec);
    if (ec || std::rename(tmp.c_str(), path.c_str()) != 0) {
        return 0;
    }
    return static_cast<std::uint64_t>(size);
}

CheckpointScan
readCheckpoint(const std::string &path)
{
    CheckpointScan scan;
    FrameScan frames = scanFrames(path, kCheckpointMagic);
    scan.headerOk = frames.headerOk;
    for (const std::string &payload : frames.frames) {
        if (payload.size() < 4) {
            break;
        }
        auto kind = static_cast<CheckpointSection>(
            decodeU32(payload.data()));
        if (kind == CheckpointSection::End) {
            scan.complete = true;
            break;
        }
        std::string body = payload.substr(4);
        if (kind == CheckpointSection::Meta) {
            scan.hasMeta = decodeMeta(body, scan.meta);
        }
        scan.sections.emplace_back(kind, std::move(body));
    }
    return scan;
}

std::string
encodeMeta(const CheckpointMeta &meta)
{
    common::BinWriter out;
    out.writeU64(meta.modelFingerprint);
    out.writeU64(meta.coveredSeq);
    out.writeF64(meta.monitorTime);
    return out.takeBytes();
}

bool
decodeMeta(const std::string &payload, CheckpointMeta &meta)
{
    common::BinReader in(payload);
    meta.modelFingerprint = in.readU64();
    meta.coveredSeq = in.readU64();
    meta.monitorTime = in.readF64();
    return in.ok();
}

std::string
checkpointPath(const std::string &directory)
{
    return (std::filesystem::path(directory) / "checkpoint.ckpt")
        .string();
}

std::string
ledgerPath(const std::string &directory)
{
    return (std::filesystem::path(directory) / "ledger.wal").string();
}

} // namespace cloudseer::vault
