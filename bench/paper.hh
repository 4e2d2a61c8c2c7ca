/**
 * @file
 * The paper's evaluation as one experiment registry. Each generated
 * block of EXPERIMENTS.md (Tables 1-6, the per-loop detail, the
 * ablations, §7) is one row: its cells (core, configuration, workloads)
 * and the paper's numbers. runPaper() simulates each distinct cell once
 * on one pool and renders every block; splice() puts them into the
 * fenced blocks between `<!-- begin generated: ID -->` and
 * `<!-- end generated: ID -->`. The paper's shape verdicts are claims:
 * named predicates over the same run, which may only read cells that
 * some block prints.
 */

#ifndef RUU_BENCH_PAPER_HH
#define RUU_BENCH_PAPER_HH

#include <map>
#include <string>
#include <vector>

#include "common/error.hh"
#include "par/pool.hh"

namespace ruu::paper
{

/** One shape verdict of EXPERIMENTS.md, checked on a run. */
struct ClaimResult
{
    std::string name; //!< EXPERIMENTS.md quotes it in backticks
    bool holds = false;
    std::string read; //!< every value the claim read, one per line
    std::vector<std::string> quoted; //!< digits its paragraph must print
};

/** What one run of the whole registry produced. */
struct PaperRun
{
    std::map<std::string, std::string> blocks; //!< text by block ID
    std::vector<ClaimResult> claims;            //!< in document order
};

/**
 * Simulate every distinct cell of every registry row once on @p pool,
 * render every block and check every claim on that one run.
 */
PaperRun runPaper(par::Pool *pool);

/**
 * Replace the body between each pair of generated markers in @p doc
 * with a fenced block of @p blocks' text for that ID. Refuses, naming
 * the block, markers that are missing, duplicated, unbalanced or
 * unknown.
 */
Expected<std::string>
splice(const std::string &doc,
       const std::map<std::string, std::string> &blocks);

} // namespace ruu::paper

#endif // RUU_BENCH_PAPER_HH
