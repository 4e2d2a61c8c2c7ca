#include "serve/worker.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/flat_json.hh"
#include "common/logging.hh"
#include "engine/engine.hh"
#include "inject/sandbox.hh"
#include "kernels/lll.hh"
#include "sim/json.hh"
#include "trap/storm.hh"

extern char **environ;

namespace ruu::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Keep only the last @p keep characters of @p text. */
std::string
tail(const std::string &text, std::size_t keep)
{
    if (text.size() <= keep)
        return text;
    return "..." + text.substr(text.size() - keep);
}

/** The worker's job body: run @p job in this process. */
JobReply
runHere(const JobSpec &job)
{
    auto resolved = resolveJob(job);
    if (!resolved)
        return {JobStatus::Rejected, resolved.error().message()};
    const Workload &workload = resolved->workload();
    if (job.period == 0) {
        auto core = makeCore(resolved->kind, resolved->config);
        RunResult run = core->run(workload.trace());
        if (!matchesFunctional(run, workload.func))
            ruu_fatal("'%s' committed the wrong state (simulator bug)",
                      workload.name.c_str());
        return {JobStatus::Done, runToJson(workload.name, core->name(),
                                           run, core->stats())};
    }
    // One cell of the `ruusim storm` sweep, unpruned.
    trap::StormCell storm(workload, resolved->kind, resolved->config);
    return {JobStatus::Done,
            storm.json(storm.run(static_cast<Cycle>(job.period), false))};
}

/** Write all of @p text to @p fd; false once the reader is gone. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t done = 0;
    while (done < text.size()) {
        ssize_t n = ::write(fd, text.data() + done, text.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * A close-on-exec pipe whose ends lie above fd 3, so the spawn's dup2
 * onto fds 0-3 never lands on, or clobbers, another of its pipes.
 */
bool
highPipe(int fds[2])
{
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return false;
    for (int i = 0; i < 2; ++i) {
        if (fds[i] > 3)
            continue;
        int moved = ::fcntl(fds[i], F_DUPFD_CLOEXEC, 4);
        ::close(fds[i]);
        fds[i] = moved;
    }
    if (fds[0] >= 0 && fds[1] >= 0)
        return true;
    for (int i = 0; i < 2; ++i)
        if (fds[i] >= 0)
            ::close(fds[i]);
    return false;
}

/** Reap @p pid, SIGKILLing it if it still runs at @p deadline. */
int
reap(pid_t pid, Clock::time_point deadline)
{
    int status = 0;
    for (;;) {
        pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid || (got < 0 && errno != EINTR))
            return status;
        if (Clock::now() >= deadline)
            break;
        ::usleep(1000);
    }
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

} // namespace

Expected<ResolvedJob>
resolveJob(const JobSpec &job)
{
    ResolvedJob resolved;
    auto kind = coreKindFromName(job.core);
    if (!kind)
        return Error("unknown core '" + job.core + "'");
    resolved.kind = *kind;
    resolved.config = UarchConfig::cray1();
    if (!job.configJson.empty()) {
        auto parsed = parseUarchConfig(job.configJson);
        if (!parsed)
            return Error("bad config: " + parsed.error().message());
        resolved.config = parsed.take();
    }
    if (std::string problem = resolved.config.validate(); !problem.empty())
        return Error("bad config: " + problem);
    if (!job.workload.empty()) {
        resolved.kernel = sharedLivermoreWorkload(job.workload);
        if (!resolved.kernel)
            return Error("unknown workload '" + job.workload + "'");
        return resolved;
    }
    auto checked = workloadFromSourceChecked(
        job.program, job.name.empty() ? job.id : job.name);
    if (!checked)
        return checked.error();
    resolved.program = checked.take();
    return resolved;
}

int
runWorker(int jobFd, int replyFd)
{
    // Started through /proc/self/exe, it would list as "exe".
    ::prctl(PR_SET_NAME, "ruusim");
    std::string buffer;
    char chunk[65536];
    for (;;) {
        std::size_t eol = buffer.find('\n');
        if (eol == std::string::npos) {
            ssize_t n = ::read(jobFd, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return 0; // the daemon shut down, or died
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        auto request = parseRequest(buffer.substr(0, eol));
        buffer.erase(0, eol + 1);
        JobReply reply{JobStatus::Failed, "worker: not a submit line"};
        std::string id;
        if (request && request->op == Op::Submit) {
            id = request->job.id;
            reply = runHere(request->job);
        }
        if (!writeAll(replyFd,
                      resultToLine(id, reply.status, false, reply.text) +
                          "\n"))
            return 0;
    }
}

Expected<WorkerPool::Worker>
WorkerPool::spawn()
{
    if (_executable.empty())
        return Error("no worker executable");
    // Every pipe is close-on-exec and the spawn closes every fd past
    // 3, so a worker inherits only its own pipes: not the daemon's
    // sockets, journals, or another worker's input, whose EOF must
    // track the daemon's lifetime alone.
    std::unique_lock<std::mutex> spawnLock = inject::spawnLock();
    int in[2] = {-1, -1}, reply[2] = {-1, -1}, err[2] = {-1, -1};
    if (!highPipe(in) || !highPipe(reply) || !highPipe(err)) {
        Error error(std::string("pipe: ") + std::strerror(errno));
        for (int fd : {in[0], in[1], reply[0], reply[1], err[0], err[1]})
            if (fd >= 0)
                ::close(fd);
        return error;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, err[1], 1);
    posix_spawn_file_actions_adddup2(&actions, err[1], 2);
    posix_spawn_file_actions_adddup2(&actions, reply[1], 3);
    posix_spawn_file_actions_addclosefrom_np(&actions, 4);
    // Its own process group, so a terminal's ^C drains the daemon
    // instead of killing in-flight jobs; a clean signal mask, and the
    // default SIGPIPE, so a worker whose daemon is gone dies writing.
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP |
                                        POSIX_SPAWN_SETSIGMASK |
                                        POSIX_SPAWN_SETSIGDEF);
    posix_spawnattr_setpgroup(&attr, 0);
    sigset_t none, pipe;
    sigemptyset(&none);
    posix_spawnattr_setsigmask(&attr, &none);
    sigemptyset(&pipe);
    sigaddset(&pipe, SIGPIPE);
    posix_spawnattr_setsigdefault(&attr, &pipe);

    // The daemon's engine choice (`serve --engine`) travels along.
    std::string engine =
        std::string("--engine=") + engine::kindName(engine::defaultKind());
    char name[] = "ruusim";
    char *argv[] = {name, const_cast<char *>(kWorkerArg), engine.data(),
                    nullptr};
    pid_t pid = -1;
    int rc = ::posix_spawn(&pid, _executable.c_str(), &actions, &attr, argv,
                           environ);
    posix_spawnattr_destroy(&attr);
    posix_spawn_file_actions_destroy(&actions);
    for (int fd : {in[0], reply[1], err[1]})
        ::close(fd);
    if (rc != 0) {
        for (int fd : {in[1], reply[0], err[0]})
            ::close(fd);
        return Error("spawn '" + _executable + "': " + std::strerror(rc));
    }
    ++_spawns;
    ++_live;
    Worker worker;
    worker.pid = pid;
    worker.in = in[1];
    worker.reply = reply[0];
    worker.err = err[0];
    return worker;
}

void
WorkerPool::retire(Worker &worker, bool kill, int *status)
{
    if (kill)
        ::kill(worker.pid, SIGKILL);
    for (int fd : {worker.in, worker.reply, worker.err})
        ::close(fd);
    // Closing its input ends a healthy worker; a dying one needs no
    // more than a moment.
    int reaped = reap(worker.pid, Clock::now() + std::chrono::seconds(5));
    if (status)
        *status = reaped;
    --_live;
}

JobReply
WorkerPool::run(const JobSpec &job, unsigned deadlineMs,
                const BackoffPolicy &spawnPolicy)
{
    auto deadline = Clock::now() + std::chrono::milliseconds(deadlineMs);
    std::optional<Worker> worker;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        while (!worker && !_idle.empty()) {
            worker = _idle.back();
            _idle.pop_back();
            int status = 0;
            if (::waitpid(worker->pid, &status, WNOHANG) == worker->pid) {
                // Died while idle (killed from outside): not this
                // job's crash, and already reaped.
                for (int fd : {worker->in, worker->reply, worker->err})
                    ::close(fd);
                --_live;
                worker.reset();
            }
        }
    }
    if (!worker) {
        Backoff backoff(spawnPolicy);
        auto spawned = spawn();
        while (!spawned && !backoff.exhausted()) {
            ::usleep(static_cast<useconds_t>(backoff.nextDelayUs()));
            spawned = spawn();
        }
        if (!spawned)
            return {JobStatus::Failed,
                    "worker spawn failed after " +
                        std::to_string(backoff.attempts() + 1) +
                        " attempts: " + spawned.error().message()};
        worker = spawned.take();
    }

    Request request;
    request.op = Op::Submit;
    request.job = job;
    inject::ChildPipes pipes;
    pipes.in = worker->in;
    pipes.report = worker->reply;
    pipes.err = worker->err;
    pipes.pending = requestToLine(request) + "\n";
    inject::TendEnd end = inject::tendPipes(
        pipes, deadline, [](const std::string &reply) {
            return reply.find('\n') != std::string::npos;
        });

    if (end == inject::TendEnd::Deadline) {
        retire(*worker, true, nullptr);
        return {JobStatus::TimedOut,
                "deadline (" + std::to_string(deadlineMs) + " ms) expired"};
    }
    if (end == inject::TendEnd::Eof) {
        int status = 0;
        retire(*worker, false, &status);
        std::string how =
            WIFSIGNALED(status)
                ? std::string("signal ") + strsignal(WTERMSIG(status))
                : "exit code " + std::to_string(WEXITSTATUS(status));
        return {JobStatus::Crashed, "job process died (" + how +
                                        "): " + tail(pipes.errText, 1000)};
    }

    std::size_t eol = pipes.reportText.find('\n');
    auto object = flat::parseObject(pipes.reportText.substr(0, eol));
    auto status = object ? flat::getString(*object, "status")
                         : Expected<std::string>(object.error());
    auto parsed = status ? jobStatusFromName(*status)
                         : Expected<JobStatus>(status.error());
    auto text = parsed ? flat::getString(*object, *parsed == JobStatus::Done
                                                      ? "payload"
                                                      : "error")
                       : Expected<std::string>(parsed.error());
    if (!text || eol + 1 != pipes.reportText.size()) {
        retire(*worker, true, nullptr);
        return {JobStatus::Failed,
                "worker sent an unreadable reply: " +
                    tail(pipes.reportText, 200)};
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _idle.push_back(*worker);
    }
    return {*parsed, *text};
}

void
WorkerPool::shutdown()
{
    std::vector<Worker> idle;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        idle.swap(_idle);
    }
    for (Worker &worker : idle)
        retire(worker, false, nullptr);
}

} // namespace ruu::serve
