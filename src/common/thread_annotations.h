/**
 * @file
 * Clang Thread Safety Analysis vocabulary for the fleet runtime.
 *
 * The concurrent surface of the simulator — BatchRunner workers, fleet
 * shard sweeps, the metric registry, the trace ring, the flight
 * recorder — used to state its locking rules in comments and rely on
 * TSan runs to catch violations. These macros turn the same rules into
 * compile-time contracts: under Clang, `-Wthread-safety` (a CI leg
 * builds with `-Werror=thread-safety`) rejects any guarded access made
 * without the guarding capability and any call that does not satisfy a
 * declared lock requirement. Under GCC the macros expand to nothing and
 * the wrappers below compile to exactly the std primitives they wrap,
 * so the annotated tree stays a no-op for non-Clang builds.
 *
 * Vocabulary (mirrors the Clang attribute names, AG_ prefixed):
 *
 *  - AG_GUARDED_BY(mu)     field may only be touched holding `mu`;
 *  - AG_PT_GUARDED_BY(mu)  pointee guarded (pointer itself free);
 *  - AG_REQUIRES(mu)       caller must already hold `mu`;
 *  - AG_ACQUIRE/AG_RELEASE function takes / drops the capability;
 *  - AG_EXCLUDES(mu)       function must NOT be entered holding `mu`
 *                          (deadlock guard for self-calling APIs);
 *  - AG_NO_THREAD_SAFETY_ANALYSIS
 *                          opt-out for a function whose safety argument
 *                          is out of scope for the analysis — always
 *                          pair with a comment saying why.
 *
 * Two further macros carry contracts the compiler cannot check but
 * `tools/lint.py` does (see docs/STATIC_ANALYSIS.md):
 *
 *  - AG_SINGLE_WRITER(owners)  exactly one thread — the owner listed —
 *                              may call this mutator (telemetry series);
 *  - AG_CONTROL_THREAD         control-thread-only entry point, must
 *                              not be called from worker sweeps.
 */

#ifndef AGSIM_COMMON_THREAD_ANNOTATIONS_H
#define AGSIM_COMMON_THREAD_ANNOTATIONS_H

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define AG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define AG_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

#define AG_CAPABILITY(x) AG_THREAD_ANNOTATION(capability(x))
#define AG_SCOPED_CAPABILITY AG_THREAD_ANNOTATION(scoped_lockable)
#define AG_GUARDED_BY(x) AG_THREAD_ANNOTATION(guarded_by(x))
#define AG_PT_GUARDED_BY(x) AG_THREAD_ANNOTATION(pt_guarded_by(x))
#define AG_REQUIRES(...) \
    AG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define AG_ACQUIRE(...) \
    AG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define AG_RELEASE(...) \
    AG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define AG_TRY_ACQUIRE(...) \
    AG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define AG_EXCLUDES(...) AG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define AG_ACQUIRED_BEFORE(...) \
    AG_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define AG_ACQUIRED_AFTER(...) \
    AG_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define AG_RETURN_CAPABILITY(x) AG_THREAD_ANNOTATION(lock_returned(x))
#define AG_NO_THREAD_SAFETY_ANALYSIS \
    AG_THREAD_ANNOTATION(no_thread_safety_analysis)

/**
 * Single-writer contract: only the owner(s) named (comma-separated
 * repo-relative files) may call the annotated mutator. Compile-time
 * no-op; enforced by the `single-writer` check in tools/lint.py.
 */
#define AG_SINGLE_WRITER(owners)

/**
 * Control-thread contract: the annotated entry point must only run on
 * the control thread, between worker sweeps. Compile-time no-op,
 * documented here so the threading story is spelled at the API.
 */
#define AG_CONTROL_THREAD

namespace agsim::ag {

/**
 * Capability-annotated std::mutex. Drop-in for the simulator's
 * `std::mutex` members: same storage, same codegen, but fields can be
 * declared AG_GUARDED_BY(mutex_) and helpers AG_REQUIRES(mutex_).
 */
class AG_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() AG_ACQUIRE() { mutex_.lock(); }
    void unlock() AG_RELEASE() { mutex_.unlock(); }
    bool try_lock() AG_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

    /**
     * The wrapped std::mutex, for interop with std condition-variable
     * waits (ag::CondVar routes through here). Lock operations done
     * directly on the native handle are invisible to the analysis —
     * keep them inside this header's wrappers.
     */
    std::mutex &native() { return mutex_; }

  private:
    std::mutex mutex_;
};

/** RAII lock (std::lock_guard shape) the analysis can see. */
class AG_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) AG_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() AG_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * RAII lock over the native handle (std::unique_lock shape) for
 * condition-variable waits. Unlike MutexLock it may be released and
 * re-acquired mid-scope; the analysis tracks both transitions.
 */
class AG_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mutex) AG_ACQUIRE(mutex)
        : mutex_(mutex), lock_(mutex.native())
    {
    }

    ~UniqueLock() AG_RELEASE() {}

    void lock() AG_ACQUIRE() { lock_.lock(); }
    void unlock() AG_RELEASE() { lock_.unlock(); }

    /** The wrapped std::unique_lock (for ag::CondVar only). */
    std::unique_lock<std::mutex> &native() { return lock_; }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

  private:
    Mutex &mutex_;
    std::unique_lock<std::mutex> lock_;
};

/**
 * Condition variable paired with ag::UniqueLock. wait() atomically
 * releases and re-acquires the lock exactly like std::condition_
 * variable; the analysis sees the lock as continuously held across the
 * wait, which is the standard (and sound) modelling: every *observable*
 * access around the wait still happens under the lock. Spell waits as
 * explicit `while (!predicate) cv.wait(lock);` loops — predicate
 * lambdas are analyzed as separate functions and would need their own
 * REQUIRES clauses.
 */
class CondVar
{
  public:
    void wait(UniqueLock &lock) { cv_.wait(lock.native()); }
    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace agsim::ag

#endif // AGSIM_COMMON_THREAD_ANNOTATIONS_H
