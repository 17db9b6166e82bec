#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.h"
#include "util/json.h"

namespace splashbench {

int
Tracer::begin(const std::string& name, int parent, const std::string& job)
{
    if (!enabled_)
        return -1;
    const double t = now();
    return add(name, t, t, parent, job);
}

void
Tracer::end(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end = now();
}

int
Tracer::add(const std::string& name, double start, double end, int parent,
            const std::string& job)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.job = job;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& span : spans_) {
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start, span.end);
    }
    std::map<std::string, double> self;
    for (const Span& span : spans_) {
        // Union of the child intervals, clipped to the span: children
        // of one span may overlap (concurrent jobs under one runPlan).
        auto& kids = children[static_cast<std::size_t>(span.id)];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double reach = span.start;
        for (const auto& [lo, hi] : kids) {
            const double from = std::max(lo, reach);
            const double to = std::min(hi, span.end);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        self[span.name] += (span.end - span.start) - covered;
    }
    return self;
}

std::string
Tracer::chromeTrace() const
{
    // Trace viewers need the spans of one tid to nest, so a span that
    // overlaps an earlier sibling (concurrent isolated jobs) moves to a
    // lane of its own; every other span stays on its parent's lane.
    std::vector<int> lane(spans_.size(), 1);
    std::vector<double> laneEnd = {0.0, 0.0};
    std::vector<std::size_t> order(spans_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [this](auto a, auto b) {
        return spans_[a].start < spans_[b].start;
    });
    std::map<int, double> siblingEnd; // parent id -> end on its lane
    for (std::size_t i : order) {
        const Span& span = spans_[i];
        if (span.parent >= 0)
            lane[i] = lane[static_cast<std::size_t>(span.parent)];
        auto& end = siblingEnd[span.parent];
        if (span.start < end) {
            std::size_t free = 2;
            while (free < laneEnd.size() && laneEnd[free] > span.start)
                ++free;
            if (free == laneEnd.size())
                laneEnd.push_back(0.0);
            lane[i] = static_cast<int>(free);
            laneEnd[free] = span.end;
        } else {
            end = span.end;
        }
    }

    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\""
           << splash::json::escape(span.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane[i];
        std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                      span.start * 1e6, (span.end - span.start) * 1e6);
        os << buf << ",\"args\":{\"id\":" << span.id
           << ",\"parent\":" << span.parent << ",\"job\":\""
           << splash::json::escape(span.job) << "\"}}";
    }
    os << "\n]}\n";
    return os.str();
}

} // namespace splashbench
