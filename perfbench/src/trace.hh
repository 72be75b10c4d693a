/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call the benchmark makes into a ctamem module: name,
 * start, end, the enclosing span on the same thread (its parent) and
 * the track (client or main thread) it ran on.  Spans stay in memory
 * until the run ends and are then written as Chrome trace-event JSON
 * through the in-tree common/json printer, which Perfetto and
 * chrome://tracing open directly.  A disabled tracer records nothing,
 * so the untraced run pays one branch per call site.
 */

#ifndef CTAMEM_PERFBENCH_TRACE_HH
#define CTAMEM_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start; //!< seconds since the tracer's epoch
        double end;
        std::int64_t parent; //!< index into spans(), -1 at the root
        unsigned track;
    };

    /** RAII span: records on destruction, nests per thread. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, unsigned track);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        const char *name_;
        unsigned track_;
        std::int64_t index_ = -1;
        std::int64_t parent_ = -1;
        Clock::time_point start_;
    };

    Tracer(bool enabled, Clock::time_point epoch);

    bool enabled() const { return enabled_; }

    std::size_t size() const;

    /** Name a track (shown as the thread name in the trace viewer). */
    void nameTrack(unsigned track, std::string name);

    /** Write Chrome trace-event JSON; false when the file fails. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    const bool enabled_;
    const Clock::time_point epoch_;

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::string> trackNames_;
};

} // namespace perfbench

#endif // CTAMEM_PERFBENCH_TRACE_HH
