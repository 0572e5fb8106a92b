#ifndef LEASEOS_OS_SERVICE_H
#define LEASEOS_OS_SERVICE_H

/**
 * @file
 * Base class for simulated system services.
 *
 * Services live in the system_server address space; apps reach them via
 * binder IPC. The base class provides the simulator handle, a name, and an
 * IPC accounting helper that charges a small burst of system CPU work per
 * inbound call — that cost is what Fig. 13 measures for lease accounting.
 */

#include <string>

#include "common/ids.h"
#include "power/cpu_model.h"
#include "sim/simulator.h"

namespace leaseos::os {

/**
 * Common plumbing for system services.
 */
class Service
{
  public:
    Service(sim::Simulator &sim, power::CpuModel &cpu, std::string name)
        : sim_(sim), cpu_(cpu), name_(std::move(name)) {}

    virtual ~Service() = default;
    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    const std::string &name() const { return name_; }

  protected:
    /**
     * Account for one inbound binder transaction of @p duration: a short
     * burst of one-core CPU work attributed to the calling uid.
     */
    void
    chargeIpc(Uid uid, sim::Time duration)
    {
        cpu_.runWorkFor(uid, 1.0, duration);
    }

    sim::Simulator &sim_;
    power::CpuModel &cpu_;

  private:
    std::string name_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_SERVICE_H
