/**
 * @file
 * In-memory span recorder for the traced run. Each span has a name, a
 * start and end on the host's steady clock, and the span that caused
 * it. Spans stay in memory and are written once, as one Chrome
 * trace_event file, when the run ends. When disabled, begin() returns
 * 0 and nothing is recorded. Control thread only.
 */

#ifndef AGBENCH_SPANS_H
#define AGBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace agbench {

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** Start or stop recording; spans already recorded are kept. */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Open a span under the innermost open span; returns its id. */
    uint32_t begin(const char *name)
    {
        if (!enabled_)
            return 0;
        Span span;
        span.name = name;
        span.start = nowNs();
        span.parent = open_.empty() ? 0 : open_.back();
        spans_.push_back(span);
        const auto id = uint32_t(spans_.size());
        open_.push_back(id);
        return id;
    }

    /** Close the innermost open span (must be `id`). */
    void end(uint32_t id)
    {
        if (id == 0)
            return;
        spans_[id - 1].end = nowNs();
        open_.pop_back();
    }

    /** Write every span as a Chrome "complete" event; false on error. */
    bool writeChromeTrace(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        std::fprintf(out, "{\"traceEvents\": [");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(out,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                         "\"parent\": %u}}",
                         i == 0 ? "" : ",", s.name,
                         double(s.start) / 1e3,
                         double(s.end - s.start) / 1e3, i + 1, s.parent);
        }
        std::fprintf(out, "\n], \"displayTimeUnit\": \"ms\"}\n");
        return std::fclose(out) == 0;
    }

  private:
    struct Span
    {
        const char *name = "";
        int64_t start = 0;
        int64_t end = 0;
        uint32_t parent = 0;
    };

    static int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name)
        : recorder_(recorder), id_(recorder.begin(name))
    {
    }
    ~ScopedSpan() { recorder_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder_;
    uint32_t id_;
};

} // namespace agbench

#endif // AGBENCH_SPANS_H
