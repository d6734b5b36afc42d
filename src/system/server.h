/**
 * @file
 * Two-socket server platform model (paper Sec. 3.1 / Fig. 11).
 *
 * Mirrors the IBM Power 720 (7R2) used in the paper: two POWER7+
 * processors on one board, fed by a shared VRM chip that generates one
 * independently-settable Vdd level per socket, each with its own
 * power-delivery path (its own loadline). Memory, storage and network
 * are powered steadily and modeled as constant platform power.
 */

#ifndef AGSIM_SYSTEM_SERVER_H
#define AGSIM_SYSTEM_SERVER_H

#include <memory>
#include <vector>

#include "chip/chip.h"
#include "chip/chip_config.h"
#include "pdn/vrm.h"

namespace agsim::system {

/** Server-level configuration. */
struct ServerConfig
{
    /** Processor sockets (Power 720: 2). */
    size_t socketCount = 2;
    /** Per-rail VRM electricals (every socket rail is identical). */
    pdn::RailParams rail;
    /**
     * Template chip configuration; each socket gets a copy with its
     * railIndex set and its seed offset so process variation differs
     * across sockets.
     */
    chip::ChipConfig chipTemplate;
    /** Constant platform (memory/disk/network/fans) power. */
    Watts platformPower = Watts{120.0};

    /**
     * Reject nonsensical values (zero sockets, negative platform power,
     * bad rail electricals, invalid chip template) with a descriptive
     * ConfigError. Called by the Server constructor.
     */
    void validate() const;
};

/**
 * The platform: VRM + sockets.
 */
class Server
{
  public:
    explicit Server(const ServerConfig &config = ServerConfig());

    size_t socketCount() const { return chips_.size(); }

    chip::Chip &chip(size_t socket);
    const chip::Chip &chip(size_t socket) const;

    /** Raw chip pointers, one per socket, in socket order. */
    std::vector<chip::Chip *> chips();

    pdn::Vrm &vrm() { return vrm_; }
    const pdn::Vrm &vrm() const { return vrm_; }

    /** Switch every socket's guardband mode. */
    void setMode(chip::GuardbandMode mode);

    /** Set every core on every socket to powered-on idle. */
    void clearLoads();

    /**
     * Advance all sockets by dt, one Chip::step per socket in socket
     * order. Sockets share nothing but the VRM, whose state is per
     * rail, so the order does not change any result.
     */
    void step(Seconds dt);

    /** Warm up firmware/thermal state on all sockets. */
    void settle(Seconds duration = Seconds{1.5}, Seconds dt = Seconds{1e-3});

    /** Sum of all sockets' Vdd-rail power (the paper's metric). */
    Watts totalChipPower() const;

    /** Chip power plus constant platform power. */
    Watts totalSystemPower() const;

    const ServerConfig &config() const { return config_; }

  private:
    ServerConfig config_;
    pdn::Vrm vrm_;
    std::vector<std::unique_ptr<chip::Chip>> chips_;
};

} // namespace agsim::system

#endif // AGSIM_SYSTEM_SERVER_H
