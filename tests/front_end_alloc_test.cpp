/**
 * @file
 * Steady-state allocation test for the monitor's per-line front end:
 * once the scan buffers, the catalog and the interner have seen a
 * stream, scanning, looking up and interning it again must not touch
 * the heap. Every global operator new in this binary is counted, which
 * is why the test has a binary of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "eval/accuracy_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/template_catalog.hpp"
#include "logging/variable_extractor.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned form, so each new/delete pair stays malloc/free
// (sanitizers check the pairing).
void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace cloudseer;

TEST(FrontEndAllocation, WarmScanFindInternAllocatesNothing)
{
    eval::DatasetConfig config;
    config.users = 3;
    config.tasksPerUser = 4;
    config.seed = 3;
    const std::vector<logging::LogRecord> stream =
        eval::generateDataset(config).stream;
    ASSERT_GT(stream.size(), 100u);

    logging::VariableExtractor extractor;
    logging::TemplateCatalog catalog;
    logging::IdentifierInterner interner;
    std::string templ;
    std::vector<logging::VariableRef> vars;
    std::vector<logging::IdToken> tokens;

    // Warm-up: what modeling and the first pass leave behind.
    const std::size_t warm_start = gAllocations.load();
    for (const logging::LogRecord &record : stream) {
        extractor.scan(record.body, templ, vars);
        catalog.intern(record.service, templ);
        for (const logging::VariableRef &var : vars)
            tokens.push_back(interner.intern(var.text));
    }
    const std::size_t token_capacity = tokens.size();
    tokens.clear();

    std::size_t misses = 0;
    const std::size_t before = gAllocations.load();
    for (const logging::LogRecord &record : stream) {
        std::uint64_t hash = extractor.scan(record.body, templ, vars);
        misses += catalog.find(record.service, templ, hash) ==
                  logging::kInvalidTemplate;
        for (const logging::VariableRef &var : vars)
            tokens.push_back(interner.intern(var.text));
    }
    const std::size_t after = gAllocations.load();

    EXPECT_GT(before, warm_start); // the counter is live
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(misses, 0u);
    EXPECT_EQ(tokens.size(), token_capacity);
    EXPECT_EQ(interner.stats().misses, interner.size());
}
