/**
 * @file
 * Regenerate EXPERIMENTS.md in place: run the whole experiment registry
 * once (bench/paper.hh) and re-render every generated block.
 *
 *   usage: paper [-j N] EXPERIMENTS.md
 *
 * `-j N` / `--jobs N` / RUU_JOBS set the pool size; the file comes out
 * byte-identical at any job count. tests/test_paper.cc checks the
 * committed file and the paper's claims against a run of the same
 * registry. Exit status 2 when the file cannot be read or written or
 * its generated markers are malformed.
 */

#include <cstdio>

#include "bench/paper.hh"
#include "common/file.hh"
#include "common/io_faults.hh"

using namespace ruu;

int
main(int argc, char **argv)
{
    par::Pool pool(par::consumeJobsFlag(argc, argv));
    if (argc != 2) {
        std::fprintf(stderr, "usage: paper [-j N] EXPERIMENTS.md\n");
        return 2;
    }
    const std::string path = argv[1];
    Expected<std::string> doc = readTextFile(path);
    if (doc)
        doc = paper::splice(*doc, paper::runPaper(&pool).blocks);
    Expected<bool> written =
        doc ? io::atomicWriteFile(path, *doc) : Expected<bool>(doc.error());
    if (!written) {
        std::fprintf(stderr, "paper: %s\n", written.error().message().c_str());
        return 2;
    }
    return 0;
}
