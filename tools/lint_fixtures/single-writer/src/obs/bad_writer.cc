// Fixture: telemetry series writes outside the pinned owner files. The
// single-writer contract (AG_SINGLE_WRITER) allows hub_->record only
// from fleet_stepper.cc / fleet_service.cc / recovery_manager.cc, and
// the direct buffer write (series.buffer.record) only from
// telemetry_hub.h itself.

namespace fixture {

struct Hub
{
    void record(int series, double t, double v);
};

struct Buffer
{
    void record(double t, double v);
};

struct RogueObserver
{
    Hub *hub_ = nullptr;
    Buffer buffer;

    void sample(double t, double margin)
    {
        hub_->record(0, t, margin);        // EXPECT: single-writer
        buffer.record(t, margin);          // EXPECT: single-writer
        // lint: allow(single-writer): fixture exercising suppression
        hub_->record(1, t, margin);
    }
};

} // namespace fixture
