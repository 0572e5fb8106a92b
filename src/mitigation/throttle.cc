#include "mitigation/throttle.h"

namespace leaseos::mitigation {

OneShotThrottler::OneShotThrottler(sim::Simulator &sim,
                                   os::SystemServer &server)
    : sim_(sim), server_(server)
{
}

void
OneShotThrottler::start()
{
    if (started_) return;
    started_ = true;
    powerWatcher_.listen();
    gpsWatcher_.listen();
    sensorWatcher_.listen();
    wifiWatcher_.listen();
}

void
OneShotThrottler::noteAcquired(os::TokenId token,
                               os::ResourceServiceBase &service)
{
    if (!tracked_.insert(token).second) return;
    sim_.schedule(kHoldLimit, [this, token, &service] {
        if (!tracked_.count(token)) return;
        service.suspend(token);
    });
}

void
OneShotThrottler::noteReleased(os::TokenId token)
{
    tracked_.erase(token);
}

} // namespace leaseos::mitigation
