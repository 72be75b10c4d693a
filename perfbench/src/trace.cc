#include "trace.hh"

#include <fstream>
#include <utility>

#include "common/json.hh"

namespace perfbench {

using ctamem::json::Json;

namespace {

/** Innermost open span of the calling thread (-1 = none). */
thread_local std::int64_t tCurrent = -1;

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer(bool enabled, Clock::time_point epoch)
    : enabled_(enabled), epoch_(epoch)
{}

Tracer::Scope::Scope(Tracer &tracer, const char *name, unsigned track)
    : tracer_(tracer), name_(name), track_(track)
{
    if (!tracer_.enabled_)
        return;
    parent_ = tCurrent;
    start_ = Clock::now();
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    index_ = static_cast<std::int64_t>(tracer_.spans_.size());
    const double start =
        std::chrono::duration<double>(start_ - tracer_.epoch_).count();
    tracer_.spans_.push_back({name_, start, start, parent_, track_});
    tCurrent = index_;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    const Clock::time_point end = Clock::now();
    tCurrent = parent_;
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    tracer_.spans_[static_cast<std::size_t>(index_)].end =
        std::chrono::duration<double>(end - tracer_.epoch_).count();
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::nameTrack(unsigned track, std::string name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (trackNames_.size() <= track)
        trackNames_.resize(track + 1);
    trackNames_[track] = std::move(name);
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json events = Json::array();
    for (std::size_t track = 0; track < trackNames_.size(); ++track) {
        Json args = Json::object();
        args.set("name", trackNames_[track]);
        Json meta = Json::object();
        meta.set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 1)
            .set("tid", static_cast<std::uint64_t>(track))
            .set("args", std::move(args));
        events.push(std::move(meta));
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        Json args = Json::object();
        args.set("id", static_cast<std::uint64_t>(i))
            .set("parent", span.parent);
        Json event = Json::object();
        event.set("name", span.name)
            .set("ph", "X")
            .set("pid", 1)
            .set("tid", static_cast<std::uint64_t>(span.track))
            .set("ts", span.start * 1e6)
            .set("dur", (span.end - span.start) * 1e6)
            .set("args", std::move(args));
        events.push(std::move(event));
    }
    Json trace = Json::object();
    trace.set("displayTimeUnit", "ms").set("traceEvents", std::move(events));

    std::ofstream out(path);
    trace.write(out);
    out << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
