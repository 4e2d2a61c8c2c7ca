/**
 * @file
 * Crash-contained trial execution.
 *
 * A single bit flip can legitimately make the machine dereference a
 * cleared in-flight slot (SIGSEGV), trip a ruu_assert (SIGABRT), or
 * grind forever. The campaign must classify those outcomes, not die of
 * them, so every trial runs in a forked child. The child reports over
 * a pipe with a two-line protocol:
 *
 *   PRE <flat json>   written the moment the fault is armed (port,
 *                     values, pre-fault snapshot) — so a child that
 *                     subsequently crashes or is killed still leaves
 *                     the injection coordinates behind;
 *   RES <flat json>   the finished TrialResult (journal line format).
 *
 * The parent drains the pipe while enforcing a wall-clock deadline;
 * on expiry the child is SIGKILLed. The child's stderr is captured on
 * a second pipe so assertion text becomes the trial's diagnostic.
 */

#ifndef RUU_INJECT_SANDBOX_HH
#define RUU_INJECT_SANDBOX_HH

#include <chrono>
#include <functional>
#include <mutex>
#include <string>

#include "common/backoff.hh"

namespace ruu::inject
{

/**
 * The pipes a parent tends for one child: @p pending is written to the
 * child's input while its report and its captured stdout/stderr are
 * read. A -1 fd is absent.
 */
struct ChildPipes
{
    int in = -1;         //!< child's input (write end)
    int report = -1;     //!< child's report pipe (read end)
    int err = -1;        //!< child's stdout+stderr (read end)
    std::string pending; //!< bytes not yet written to @p in
    std::string reportText;
    std::string errText;
};

/** Why tendPipes returned. */
enum class TendEnd
{
    Done,     //!< the caller's predicate held
    Eof,      //!< report and err both reached EOF: the child is gone
    Deadline, //!< the deadline passed first
};

/**
 * Write @p pipes.pending and read the report and err pipes (each made
 * non-blocking) until @p done(reportText) holds, both read pipes reach
 * EOF, or @p deadline passes. A child that stops reading its input
 * drops the rest of pending; SIGPIPE never reaches the caller.
 */
TendEnd tendPipes(ChildPipes &pipes,
                  std::chrono::steady_clock::time_point deadline,
                  const std::function<bool(const std::string &)> &done);

/**
 * Held while a child's pipes are made and the child is started, until
 * the parent has closed the child's ends: a sandbox forked meanwhile
 * from another thread would otherwise inherit those ends and hold them
 * open, and the parent would wait on the copy for EOF.
 */
std::unique_lock<std::mutex> spawnLock();

/** The child's half of the reporting pipe. */
class SandboxChannel
{
  public:
    explicit SandboxChannel(int fd) : _fd(fd) {}

    /** Write one "<tag> <payload>" protocol line. */
    void send(const std::string &tag, const std::string &payload) const;

  private:
    int _fd;
};

/** What the parent observed of one sandboxed trial. */
struct SandboxOutcome
{
    enum class Status
    {
        Reported,    //!< child sent RES and exited cleanly
        Crashed,     //!< child died of a signal (or exited reportless)
        TimedOut,    //!< deadline expired; child was SIGKILLed
        SpawnFailed, //!< fork/pipe failure — retryable host trouble
    };

    Status status = Status::SpawnFailed;
    int signal = 0;         //!< terminating signal when Crashed
    int exitCode = 0;       //!< exit status when the child exited
    std::string resLine;    //!< RES payload (empty unless Reported)
    std::string preLine;    //!< PRE payload when it arrived in time
    std::string stderrText; //!< captured child stderr
    std::string spawnError; //!< diagnostic when SpawnFailed
};

/**
 * Run @p body in a forked child with a @p timeoutMs wall-clock
 * deadline. The body must do all of its reporting through the channel;
 * its stdout/stderr are captured, and it must not return control to
 * any caller-owned state (the child _exit()s when the body returns).
 */
SandboxOutcome runSandboxed(const std::function<void(SandboxChannel &)> &body,
                            unsigned timeoutMs);

/**
 * runSandboxed(), retrying SpawnFailed outcomes (fork/pipe failure
 * under transient host pressure) on the shared capped-exponential
 * backoff schedule. Any other outcome — including Crashed and
 * TimedOut, which are the child's verdict, not host trouble — returns
 * immediately. On return @p retriesOut (when non-null) holds the
 * number of retries burned; a still-SpawnFailed outcome means the
 * policy was exhausted.
 */
SandboxOutcome
runSandboxedWithRetry(const std::function<void(SandboxChannel &)> &body,
                      unsigned timeoutMs, const BackoffPolicy &policy,
                      unsigned *retriesOut = nullptr);

} // namespace ruu::inject

#endif // RUU_INJECT_SANDBOX_HH
