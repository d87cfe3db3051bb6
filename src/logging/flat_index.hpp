/**
 * @file
 * Open-addressing hash index over a table the caller owns.
 *
 * TemplateCatalog and IdentifierInterner keep their keys in dense
 * vectors indexed by id. This index maps a key's hash to its id without
 * storing the key a second time: each slot is 8 bytes, a 32-bit tag
 * folded from the hash (which also picks the home slot) and the id.
 * Probing is linear and the table doubles at half load; growth re-homes
 * slots from their tags alone, never touching or rehashing a key.
 */

#ifndef CLOUDSEER_LOGGING_FLAT_INDEX_HPP
#define CLOUDSEER_LOGGING_FLAT_INDEX_HPP

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace cloudseer::logging {

/** The key hash both indexes use (word-at-a-time, unseeded). */
inline std::uint64_t
hashText(std::string_view text)
{
    return std::hash<std::string_view>{}(text);
}

/** Map from key hash to dense id; the caller compares keys. */
class FlatIndex
{
  public:
    /** Returned by find() when no slot matches. */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /**
     * The id under `hash` whose key `matches(id)` accepts, or kNone.
     * `matches` runs only on ids whose tag equals the hash's.
     */
    template <typename Matches>
    std::uint32_t
    find(std::uint64_t hash, Matches &&matches) const
    {
        if (slots.empty())
            return kNone;
        const std::uint32_t tag = fold(hash);
        for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
            const Slot &slot = slots[i];
            if (slot.id == kNone)
                return kNone;
            if (slot.tag == tag && matches(slot.id))
                return slot.id;
        }
    }

    /** Add `id` (never kNone) under `hash`; the key must be absent. */
    void
    insert(std::uint64_t hash, std::uint32_t id)
    {
        if ((count + 1) * 2 > slots.size())
            grow();
        place({fold(hash), id});
        ++count;
    }

  private:
    struct Slot
    {
        std::uint32_t tag = 0;
        std::uint32_t id = kNone;
    };

    std::vector<Slot> slots;
    std::size_t mask = 0;
    std::size_t count = 0;

    static std::uint32_t
    fold(std::uint64_t hash)
    {
        return static_cast<std::uint32_t>(hash ^ (hash >> 32));
    }

    void
    place(Slot slot)
    {
        std::size_t i = slot.tag & mask;
        while (slots[i].id != kNone)
            i = (i + 1) & mask;
        slots[i] = slot;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots.empty() ? 16 : slots.size() * 2);
        old.swap(slots);
        mask = slots.size() - 1;
        for (Slot slot : old) {
            if (slot.id != kNone)
                place(slot);
        }
    }
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_FLAT_INDEX_HPP
