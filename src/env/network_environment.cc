#include "env/network_environment.h"

#include <utility>

namespace leaseos::env {

const char *
netResultName(NetResult r)
{
    switch (r) {
      case NetResult::Ok: return "ok";
      case NetResult::Timeout: return "timeout";
      case NetResult::IoError: return "io_error";
      case NetResult::Disconnected: return "disconnected";
    }
    return "unknown";
}

NetworkEnvironment::NetworkEnvironment(sim::Simulator &sim,
                                       power::RadioModel &radio,
                                       sim::RandomSource &rng)
    : sim_(sim), radio_(radio), rng_(rng)
{
}

void
NetworkEnvironment::setServerFailProbability(const std::string &server,
                                             double failProbability)
{
    if (failProbability <= 0.0) serverFlaky_.erase(server);
    else serverFlaky_[server] = failProbability;
}

void
NetworkEnvironment::httpRequest(Uid uid, const std::string &server,
                                std::uint64_t bytes,
                                std::function<void(NetResult)> cb)
{
    if (!connected_) {
        sim_.schedule(kFastFail,
                      [cb = std::move(cb)] { cb(NetResult::Disconnected); });
        return;
    }
    auto flaky = serverFlaky_.find(server);
    if (flaky != serverFlaky_.end() && rng_.chance(flaky->second)) {
        // The radio carries the request out, then the app waits for the
        // server until the socket timeout fires.
        radio_.transferWifi(uid, bytes / 10 + 1);
        sim_.schedule(kServerTimeout,
                      [cb = std::move(cb)] { cb(NetResult::Timeout); });
        return;
    }
    sim::Time transfer = radio_.transferWifi(uid, bytes);
    sim_.schedule(transfer + kServerLatency,
                  [cb = std::move(cb)] { cb(NetResult::Ok); });
}

} // namespace leaseos::env
