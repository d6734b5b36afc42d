// Fixture: an included header whose struct is not named State is not
// part of the chip state, so its pointer is out of the rule's reach.

namespace fixture {

struct Sample;

struct WindowCursor
{
    const Sample *latest = nullptr;
};

} // namespace fixture
