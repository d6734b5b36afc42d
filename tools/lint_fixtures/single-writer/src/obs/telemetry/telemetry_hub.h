#ifndef FIXTURE_TELEMETRY_HUB_H
#define FIXTURE_TELEMETRY_HUB_H

// Fixture: the hub header owns the direct buffer write, so the
// series.buffer.record call below must produce no finding.

namespace fixture {

struct Buffer
{
    void record(double t, double v);
};

struct Series
{
    Buffer buffer;
};

struct Hub
{
    Series series[8];

    void record(int id, double t, double v)
    {
        Series &entry = series[id];
        entry.buffer.record(t, v);
    }
};

} // namespace fixture

#endif
