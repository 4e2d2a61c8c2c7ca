#include "inject/sandbox.hh"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ruu::inject
{

namespace
{

/** Write all of @p text to @p fd, retrying on EINTR. */
void
writeAll(int fd, const std::string &text)
{
    std::size_t done = 0;
    while (done < text.size()) {
        ssize_t n = ::write(fd, text.data() + done, text.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // parent gone; nothing useful left to do
        }
        done += static_cast<std::size_t>(n);
    }
}

/** Drain whatever is readable from @p fd into @p buffer. */
bool
drain(int fd, std::string &buffer)
{
    char chunk[4096];
    while (true) {
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return false; // EOF
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        return false;
    }
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Extract the payload of the last "<tag> ..." line in @p text. */
std::string
lastPayload(const std::string &text, const std::string &tag)
{
    std::string payload;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        std::size_t len =
            (eol == std::string::npos ? text.size() : eol) - pos;
        if (len > tag.size() + 1 &&
            text.compare(pos, tag.size(), tag) == 0 &&
            text[pos + tag.size()] == ' ')
            payload = text.substr(pos + tag.size() + 1,
                                  len - tag.size() - 1);
        if (eol == std::string::npos)
            break;
        pos = eol + 1;
    }
    return payload;
}

/**
 * Write what @p fd accepts now of @p text from @p done on; false once
 * the reader is gone. SIGPIPE is blocked on this thread for the call,
 * and a SIGPIPE the write raised is consumed.
 */
bool
writeSome(int fd, const std::string &text, std::size_t &done)
{
    sigset_t pipe, old;
    sigemptyset(&pipe);
    sigaddset(&pipe, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe, &old);
    bool open = true;
    while (done < text.size()) {
        ssize_t n = ::write(fd, text.data() + done, text.size() - done);
        if (n >= 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EPIPE) {
            timespec zero{};
            ::sigtimedwait(&pipe, nullptr, &zero);
        }
        open = errno == EAGAIN || errno == EWOULDBLOCK;
        break;
    }
    pthread_sigmask(SIG_SETMASK, &old, nullptr);
    return open;
}

std::mutex spawnMutex;

} // namespace

std::unique_lock<std::mutex>
spawnLock()
{
    return std::unique_lock<std::mutex>(spawnMutex);
}

TendEnd
tendPipes(ChildPipes &pipes, std::chrono::steady_clock::time_point deadline,
          const std::function<bool(const std::string &)> &done)
{
    for (int fd : {pipes.in, pipes.report, pipes.err})
        if (fd >= 0)
            setNonBlocking(fd);
    std::size_t written = 0;
    bool inOpen = pipes.in >= 0 && !pipes.pending.empty();
    bool reportOpen = pipes.report >= 0;
    bool errOpen = pipes.err >= 0;

    TendEnd end = TendEnd::Eof;
    while (reportOpen || errOpen) {
        if (done(pipes.reportText)) {
            end = TendEnd::Done;
            break;
        }
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
            end = TendEnd::Deadline;
            break;
        }
        int waitMs = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        if (waitMs < 1)
            waitMs = 1;

        struct pollfd fds[3];
        nfds_t nfds = 0;
        if (inOpen)
            fds[nfds++] = {pipes.in, POLLOUT, 0};
        if (reportOpen)
            fds[nfds++] = {pipes.report, POLLIN, 0};
        if (errOpen)
            fds[nfds++] = {pipes.err, POLLIN, 0};
        int rc = ::poll(fds, nfds, waitMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (nfds_t i = 0; i < nfds; ++i) {
            if (!fds[i].revents)
                continue;
            if (fds[i].fd == pipes.in) {
                inOpen = writeSome(pipes.in, pipes.pending, written) &&
                         written < pipes.pending.size();
            } else if (fds[i].fd == pipes.report) {
                reportOpen = drain(pipes.report, pipes.reportText);
            } else {
                errOpen = drain(pipes.err, pipes.errText);
            }
        }
    }
    if (end == TendEnd::Eof && done(pipes.reportText))
        end = TendEnd::Done;
    pipes.pending.erase(0, written);
    return end;
}

void
SandboxChannel::send(const std::string &tag,
                     const std::string &payload) const
{
    writeAll(_fd, tag + " " + payload + "\n");
}

SandboxOutcome
runSandboxed(const std::function<void(SandboxChannel &)> &body,
             unsigned timeoutMs)
{
    SandboxOutcome outcome;

    std::unique_lock<std::mutex> spawn = spawnLock();
    int proto[2] = {-1, -1};
    int errp[2] = {-1, -1};
    if (::pipe(proto) != 0) {
        outcome.spawnError =
            std::string("pipe: ") + std::strerror(errno);
        return outcome;
    }
    if (::pipe(errp) != 0) {
        outcome.spawnError =
            std::string("pipe: ") + std::strerror(errno);
        ::close(proto[0]);
        ::close(proto[1]);
        return outcome;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        outcome.spawnError =
            std::string("fork: ") + std::strerror(errno);
        for (int fd : {proto[0], proto[1], errp[0], errp[1]})
            ::close(fd);
        return outcome;
    }

    if (pid == 0) {
        // Child: report on the protocol pipe, fold stdout into the
        // captured stderr stream, and never return to the caller.
        ::close(proto[0]);
        ::close(errp[0]);
        ::dup2(errp[1], 1);
        ::dup2(errp[1], 2);
        ::close(errp[1]);
        SandboxChannel channel(proto[1]);
        body(channel);
        ::close(proto[1]);
        ::_exit(0);
    }

    // Parent.
    ::close(proto[1]);
    ::close(errp[1]);
    spawn.unlock();

    ChildPipes pipes;
    pipes.report = proto[0];
    pipes.err = errp[0];
    bool timedOut =
        tendPipes(pipes,
                  std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(timeoutMs),
                  [](const std::string &) { return false; }) ==
        TendEnd::Deadline;

    int status = 0;
    if (timedOut) {
        ::kill(pid, SIGKILL);
        // Final drain: the child may have reported just before the
        // deadline.
        drain(proto[0], pipes.reportText);
        drain(errp[0], pipes.errText);
    }
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(proto[0]);
    ::close(errp[0]);
    outcome.stderrText = std::move(pipes.errText);
    const std::string &protoBuf = pipes.reportText;

    outcome.preLine = lastPayload(protoBuf, "PRE");
    outcome.resLine = lastPayload(protoBuf, "RES");

    if (timedOut) {
        outcome.status = SandboxOutcome::Status::TimedOut;
        outcome.signal = SIGKILL;
        return outcome;
    }
    if (WIFSIGNALED(status)) {
        outcome.status = SandboxOutcome::Status::Crashed;
        outcome.signal = WTERMSIG(status);
        return outcome;
    }
    outcome.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (outcome.exitCode == 0 && !outcome.resLine.empty())
        outcome.status = SandboxOutcome::Status::Reported;
    else
        outcome.status = SandboxOutcome::Status::Crashed;
    return outcome;
}

SandboxOutcome
runSandboxedWithRetry(const std::function<void(SandboxChannel &)> &body,
                      unsigned timeoutMs, const BackoffPolicy &policy,
                      unsigned *retriesOut)
{
    Backoff backoff(policy);
    SandboxOutcome out = runSandboxed(body, timeoutMs);
    while (out.status == SandboxOutcome::Status::SpawnFailed &&
           !backoff.exhausted()) {
        ::usleep(static_cast<useconds_t>(backoff.nextDelayUs()));
        out = runSandboxed(body, timeoutMs);
    }
    if (retriesOut)
        *retriesOut = backoff.attempts();
    return out;
}

} // namespace ruu::inject
