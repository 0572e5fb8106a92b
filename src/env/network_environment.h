#ifndef LEASEOS_ENV_NETWORK_ENVIRONMENT_H
#define LEASEOS_ENV_NETWORK_ENVIRONMENT_H

/**
 * @file
 * Network connectivity and server-health environment.
 *
 * Two of the paper's trigger conditions live here: "the network is
 * disconnected" (K-9's LUB spin) and "the mail server fails" (K-9's LHB
 * wait, Fig. 2: a server that fails each request with some probability).
 * Requests behave accordingly:
 *  - disconnected: fail fast with Disconnected (cheap, so a buggy retry
 *    loop burns CPU, not radio);
 *  - failed by the server: time out after a long server timeout (the app
 *    waits holding its wakelock, CPU mostly idle);
 *  - otherwise: transfer over the radio model and complete with Ok.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/ids.h"
#include "power/radio_model.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace leaseos::env {

/** Completion status of a network request. */
enum class NetResult { Ok, Timeout, IoError, Disconnected };

/**
 * Scriptable connectivity + per-server failure model.
 */
class NetworkEnvironment
{
  public:
    /** How long a failing server stalls a request before timeout. */
    static constexpr sim::Time kServerTimeout = sim::Time::fromSeconds(25.0);

    /** Round-trip latency of a healthy request (before transfer time). */
    static constexpr sim::Time kServerLatency =
        sim::Time::fromMillis(200);

    /** How fast a disconnected request fails locally. */
    static constexpr sim::Time kFastFail = sim::Time::fromMillis(20);

    NetworkEnvironment(sim::Simulator &sim, power::RadioModel &radio,
                       sim::RandomSource &rng);

    // ---- Environment scripting ------------------------------------------

    void setConnected(bool connected) { connected_ = connected; }
    bool connected() const { return connected_; }

    /**
     * Make a server *flaky*: each request independently times out with
     * probability @p failProbability (0 clears flakiness). This is the
     * Fig. 2 condition — a bad mail server that intermittently answers,
     * producing intermittent long wakelock holds.
     */
    void setServerFailProbability(const std::string &server,
                                  double failProbability);

    // ---- App-facing request API -----------------------------------------

    /**
     * Issue an async request of @p bytes to @p server for @p uid; @p cb
     * runs with the outcome. The callback is invoked from a simulator
     * event — apps should wrap it through their AppProcess if they need
     * CPU-sleep pause semantics.
     */
    void httpRequest(Uid uid, const std::string &server,
                     std::uint64_t bytes,
                     std::function<void(NetResult)> cb);

  private:
    sim::Simulator &sim_;
    power::RadioModel &radio_;
    sim::RandomSource &rng_;
    bool connected_ = true;
    std::map<std::string, double> serverFlaky_;
};

} // namespace leaseos::env

#endif // LEASEOS_ENV_NETWORK_ENVIRONMENT_H
