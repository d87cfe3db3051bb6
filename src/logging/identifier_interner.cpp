#include "logging/identifier_interner.hpp"

#include "common/error.hpp"

namespace cloudseer::logging {

IdToken
IdentifierInterner::lookup(std::string_view value, std::uint64_t hash) const
{
    IdToken token = index.find(hash, [&](IdToken candidate) {
        return tokens[candidate] == value;
    });
    return token == FlatIndex::kNone ? kInvalidIdToken : token;
}

IdToken
IdentifierInterner::append(std::string_view value, std::uint64_t hash)
{
    IdToken token = static_cast<IdToken>(tokens.size());
    CS_ASSERT(token != kInvalidIdToken, "identifier interner full");
    tokens.emplace_back(value);
    index.insert(hash, token);
    return token;
}

IdToken
IdentifierInterner::intern(std::string_view value)
{
    const std::uint64_t hash = hashText(value);
    IdToken token = lookup(value, hash);
    if (token != kInvalidIdToken) {
        ++hitCount;
        return token;
    }
    if (maxEntries != 0 && tokens.size() >= maxEntries) {
        ++capRejectedCount;
        return kInvalidIdToken;
    }
    ++missCount;
    return append(value, hash);
}

IdToken
IdentifierInterner::find(std::string_view value) const
{
    return lookup(value, hashText(value));
}

const std::string &
IdentifierInterner::text(IdToken token) const
{
    CS_ASSERT(token < tokens.size(), "identifier token out of range");
    return tokens[token];
}

std::size_t
IdentifierInterner::size() const
{
    return tokens.size();
}

InternerStats
IdentifierInterner::stats() const
{
    InternerStats out;
    out.size = tokens.size();
    out.hits = hitCount;
    out.misses = missCount;
    out.capacity = maxEntries;
    out.capRejected = capRejectedCount;
    return out;
}

void
IdentifierInterner::setCapacity(std::size_t max_entries)
{
    maxEntries = max_entries;
}

void
IdentifierInterner::snapshotState(common::BinWriter &out) const
{
    out.writeU64(tokens.size());
    for (const std::string &entry : tokens)
        out.writeString(entry);
    out.writeU64(hitCount);
    out.writeU64(missCount);
    out.writeU64(maxEntries);
    out.writeU64(capRejectedCount);
}

bool
IdentifierInterner::restoreState(common::BinReader &in)
{
    // Build the image aside and swap it in only once it all decodes,
    // so a refused image leaves this table as it was. Each text costs
    // at least its 8-byte length prefix.
    IdentifierInterner image;
    std::uint64_t count = in.readCount(8);
    image.tokens.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        std::string entry = in.readString();
        const std::uint64_t hash = hashText(entry);
        if (image.lookup(entry, hash) != kInvalidIdToken)
            in.fail(); // a repeated text would alias two tokens
        else
            image.append(entry, hash);
    }
    image.hitCount = in.readU64();
    image.missCount = in.readU64();
    image.maxEntries = static_cast<std::size_t>(in.readU64());
    image.capRejectedCount = in.readU64();
    if (!in.ok())
        return false;
    *this = std::move(image);
    return true;
}

} // namespace cloudseer::logging
