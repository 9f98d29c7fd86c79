// bench_spawn — runs one command and reports what it cost.
//
//   bench_spawn <result-file> <program> [args...]
//
// Forks, execs <program> with the given arguments (stdin, stdout and
// stderr inherited), waits for it with wait4 and writes one JSON line to
// <result-file>:
//
//   {"exit": 0, "signal": 0, "wall_s": 0.91, "user_s": 2.3, "sys_s": 0.02,
//    "maxrss_kb": 6872}
//
// wall_s spans fork to reap on CLOCK_MONOTONIC. maxrss_kb is the child's
// own ru_maxrss. Linux carries the pre-exec high-water mark of the forked
// copy into that figure, which is why this launcher is a small static
// binary rather than run.py itself: the floor it leaves is the
// launcher's own ~1 MB, not the interpreter's.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace {

double seconds(const timespec& t) { return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec); }

double seconds(const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec); }

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: bench_spawn <result-file> <program> [args...]\n");
        return 2;
    }
    timespec start{};
    clock_gettime(CLOCK_MONOTONIC, &start);
    const pid_t pid = fork();
    if (pid < 0) {
        std::fprintf(stderr, "bench_spawn: fork: %s\n", std::strerror(errno));
        return 1;
    }
    if (pid == 0) {
        execv(argv[2], argv + 2);
        std::fprintf(stderr, "bench_spawn: exec %s: %s\n", argv[2], std::strerror(errno));
        _exit(127);
    }
    int status = 0;
    rusage usage{};
    pid_t reaped;
    do {
        reaped = wait4(pid, &status, 0, &usage);
    } while (reaped < 0 && errno == EINTR);
    timespec end{};
    clock_gettime(CLOCK_MONOTONIC, &end);
    if (reaped != pid) {
        std::fprintf(stderr, "bench_spawn: wait4: %s\n", std::strerror(errno));
        return 1;
    }

    FILE* out = std::fopen(argv[1], "w");
    if (!out) {
        std::fprintf(stderr, "bench_spawn: cannot write %s: %s\n", argv[1], std::strerror(errno));
        return 1;
    }
    std::fprintf(out,
                 "{\"exit\": %d, \"signal\": %d, \"wall_s\": %.9f, \"user_s\": %.6f, "
                 "\"sys_s\": %.6f, \"maxrss_kb\": %ld}\n",
                 WIFEXITED(status) ? WEXITSTATUS(status) : -1,
                 WIFSIGNALED(status) ? WTERMSIG(status) : 0, seconds(end) - seconds(start),
                 seconds(usage.ru_utime), seconds(usage.ru_stime), usage.ru_maxrss);
    return std::fclose(out) == 0 ? 0 : 1;
}
