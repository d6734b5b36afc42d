// Fixture: a component whose parameters hold a pointer (legal: they
// are not state) and whose State embeds one (flagged).

namespace fixture {

struct VfCurve;

class Dpll
{
  public:
    struct State
    {
        double frequency = 0.0;
        const VfCurve *curve = nullptr; // EXPECT: plain-state
    };

    double step(State &core, double v) const;

  private:
    const VfCurve *curve_;
};

} // namespace fixture
