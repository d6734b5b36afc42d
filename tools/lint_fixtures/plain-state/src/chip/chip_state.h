// Fixture: a chip state with members that would alias the source chip
// after a restore, next to the plain members the rule accepts.

#include <functional>
#include <memory>
#include <vector>

#include "clock/dpll.h"
#include "sensors/window.h"

namespace fixture {

struct Vrm;

struct ChipState
{
    double chipPower = 0.0;
    std::vector<double> coreVoltage;
    std::vector<Dpll::State> dpll;
    Vrm *vrm = nullptr; // EXPECT: plain-state
    const Vrm &rail; // EXPECT: plain-state
    const Vrm *const fixedRail = nullptr; // EXPECT: plain-state
    std::vector<const Vrm *> rails; // EXPECT: plain-state
    std::function<void(int)> onStep; // EXPECT: plain-state
    std::unique_ptr<Vrm> owned; // EXPECT: plain-state
    std::shared_ptr<Vrm> shared; // EXPECT: plain-state
    // lint: allow(plain-state): fixture exercise of the suppression
    Vrm *waived = nullptr;

    bool operator==(const ChipState &) const = default;
    double power(const Vrm &vrm) const { return chipPower; }
};

} // namespace fixture
