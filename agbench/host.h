/**
 * @file
 * Host-side measurements: wall clock, process CPU time, per-thread CPU
 * time of every thread but the caller, and peak resident set size.
 * Linux only (reads /proc/self).
 */

#ifndef AGBENCH_HOST_H
#define AGBENCH_HOST_H

#include <dirent.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace agbench {

/** Seconds on the host's steady clock. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds used by every thread of this process so far. */
inline double
processCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * CPU seconds of every live thread of this process except the calling
 * one, from /proc/self/task/<tid>/schedstat (nanoseconds on CPU).
 */
inline double
otherThreadsCpu()
{
    const long self = long(syscall(SYS_gettid));
    double total = 0.0;
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return 0.0;
    while (const dirent *entry = readdir(dir)) {
        if (entry->d_name[0] < '0' || entry->d_name[0] > '9')
            continue;
        if (std::strtol(entry->d_name, nullptr, 10) == self)
            continue;
        const std::string path = std::string("/proc/self/task/") +
                                 entry->d_name + "/schedstat";
        std::FILE *f = std::fopen(path.c_str(), "r");
        if (f == nullptr)
            continue;
        unsigned long long ns = 0;
        if (std::fscanf(f, "%llu", &ns) == 1)
            total += double(ns) * 1e-9;
        std::fclose(f);
    }
    closedir(dir);
    return total;
}

/** Peak resident set size of this process in MB (VmHWM). */
inline double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

} // namespace agbench

#endif // AGBENCH_HOST_H
