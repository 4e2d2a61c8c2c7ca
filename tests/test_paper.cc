/**
 * @file
 * The paper as one golden run: EXPERIMENTS.md must equal a fresh
 * regeneration from the experiment registry (bench/paper.hh), every
 * claim must hold on that same run, and the splice must refuse a
 * document whose generated markers are damaged.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "bench/paper.hh"
#include "common/file.hh"

namespace ruu
{
namespace
{

/** The one run every test here reads; the pool matches PROCESSORS. */
const paper::PaperRun &
run()
{
    static par::Pool pool(4);
    static const paper::PaperRun made = paper::runPaper(&pool);
    return made;
}

std::string
committedDoc()
{
    Expected<std::string> doc = readTextFile(RUU_EXPERIMENTS_MD);
    EXPECT_TRUE(doc) << doc.error().message();
    return doc ? *doc : "";
}

TEST(Paper, ExperimentsMdMatchesAFreshRun)
{
    std::string doc = committedDoc();
    Expected<std::string> fresh = paper::splice(doc, run().blocks);
    ASSERT_TRUE(fresh) << fresh.error().message();
    // Point at the first stale line rather than dumping both files.
    std::size_t at = 0;
    while (at < doc.size() && at < fresh->size() && doc[at] == (*fresh)[at])
        ++at;
    auto lineAt = [&](const std::string &text) {
        std::size_t start = at ? text.rfind('\n', at - 1) + 1 : 0;
        return text.substr(start, text.find('\n', start) - start);
    };
    EXPECT_TRUE(*fresh == doc)
        << "EXPERIMENTS.md is stale from line "
        << 1 + std::count(doc.begin(), doc.begin() + at, '\n')
        << "; regenerate it with `build/bench/paper EXPERIMENTS.md`"
        << "\n  committed: " << lineAt(doc)
        << "\n  fresh:     " << lineAt(*fresh);
}

TEST(Paper, EveryClaimHoldsAndIsQuotedInExperimentsMd)
{
    std::string doc = committedDoc();
    EXPECT_FALSE(run().claims.empty());
    for (const paper::ClaimResult &claim : run().claims) {
        EXPECT_TRUE(claim.holds)
            << "claim " << claim.name << " fails; it read:\n" << claim.read;
        std::size_t at = doc.find("`" + claim.name + "`");
        if (at == std::string::npos) {
            ADD_FAILURE() << "EXPERIMENTS.md does not quote claim "
                          << claim.name;
            continue;
        }
        // The paragraph naming the claim prints every number it pins.
        std::size_t from = doc.rfind("\n\n", at);
        std::string paragraph = doc.substr(from, doc.find("\n\n", at) - from);
        for (const std::string &digits : claim.quoted)
            EXPECT_NE(paragraph.find(digits), std::string::npos)
                << "claim " << claim.name << " pins " << digits
                << ", which its paragraph does not print:" << paragraph;
    }
}

std::string
marker(const std::string &which, const std::string &id)
{
    return "<!-- " + which + " generated: " + id + " -->\n";
}

/** Block @p id's markers around @p body. */
std::string
block(const std::string &id, const std::string &body = "")
{
    return marker("begin", id) + body + marker("end", id);
}

const std::map<std::string, std::string> kToyBlocks = {{"a", "one\n"},
                                                       {"b", "two"}};

TEST(PaperSplice, RefusesDamagedMarkersNamingTheBlock)
{
    const std::pair<std::string, std::string> damaged[] = {
        {block("a"), "b"},                           // missing
        {block("a") + block("b") + block("a"), "a"}, // duplicated
        {block("a") + block("b") + block("c"), "c"}, // unknown
        {block("a") + marker("begin", "b"), "b"},    // never ends
        {block("a") + marker("end", "b"), "b"},      // never began
        {marker("begin", "a") + block("b") + marker("end", "a"), "b"},
    };
    for (const auto &[text, id] : damaged) {
        Expected<std::string> out = paper::splice(text, kToyBlocks);
        ASSERT_FALSE(out) << "accepted:\n" << text;
        EXPECT_NE(out.error().message().find("'" + id + "'"),
                  std::string::npos)
            << out.error().message();
    }
}

TEST(PaperSplice, RefusesADocMissingARegistryBlock)
{
    std::string text = committedDoc();
    std::size_t from = text.find(marker("begin", "table4"));
    std::size_t to = text.find(marker("end", "table4"));
    ASSERT_LT(from, to);
    text.erase(from, to + marker("end", "table4").size() - from);
    Expected<std::string> out = paper::splice(text, run().blocks);
    ASSERT_FALSE(out);
    EXPECT_NE(out.error().message().find("'table4'"), std::string::npos)
        << out.error().message();
}

} // namespace
} // namespace ruu
