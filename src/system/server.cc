#include "system/server.h"

#include "common/error.h"

namespace agsim::system {

void
ServerConfig::validate() const
{
    fatalIf(socketCount == 0, "server needs at least one socket");
    fatalIf(platformPower < Watts{0.0}, "negative platform power");
    fatalIf(rail.loadlineResistance < Ohms{0.0},
            "negative loadline resistance");
    fatalIf(rail.minSetpoint > rail.maxSetpoint,
            "empty rail setpoint window");
    fatalIf(rail.setpointStep <= Volts{0.0},
            "rail setpoint step must be positive");
    chipTemplate.validate();
}

Server::Server(const ServerConfig &config)
    : config_(config), vrm_(config.socketCount, config.rail)
{
    config_.validate();
    chips_.reserve(config_.socketCount);
    for (size_t socket = 0; socket < config_.socketCount; ++socket) {
        chip::ChipConfig chipConfig = config_.chipTemplate;
        chipConfig.railIndex = socket;
        chipConfig.seed = config_.chipTemplate.seed +
                          0x9E3779B9ull * (socket + 1);
        chips_.push_back(std::make_unique<chip::Chip>(chipConfig, &vrm_));
    }
}

chip::Chip &
Server::chip(size_t socket)
{
    panicIf(socket >= chips_.size(), "socket index out of range");
    return *chips_[socket];
}

const chip::Chip &
Server::chip(size_t socket) const
{
    panicIf(socket >= chips_.size(), "socket index out of range");
    return *chips_[socket];
}

std::vector<chip::Chip *>
Server::chips()
{
    std::vector<chip::Chip *> out;
    out.reserve(chips_.size());
    for (auto &c : chips_)
        out.push_back(c.get());
    return out;
}

void
Server::setMode(chip::GuardbandMode mode)
{
    for (auto &c : chips_)
        c->setMode(mode);
}

void
Server::clearLoads()
{
    for (auto &c : chips_)
        c->clearLoads();
}

void
Server::step(Seconds dt)
{
    for (auto &c : chips_)
        c->step(dt);
}

void
Server::settle(Seconds duration, Seconds dt)
{
    fatalIf(duration <= Seconds{0.0} || dt <= Seconds{0.0}, "settle needs positive times");
    const int steps = int(duration / dt);
    for (int i = 0; i < steps; ++i)
        step(dt);
}

Watts
Server::totalChipPower() const
{
    Watts total;
    for (const auto &c : chips_)
        total += c->power();
    return total;
}

Watts
Server::totalSystemPower() const
{
    Watts vcs;
    for (const auto &c : chips_)
        vcs += c->vcsPower();
    return totalChipPower() + vcs + config_.platformPower;
}

} // namespace agsim::system
