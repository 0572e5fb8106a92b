#ifndef LEASEOS_LEASE_LEASEOS_RUNTIME_H
#define LEASEOS_LEASE_LEASEOS_RUNTIME_H

/**
 * @file
 * The LeaseOS runtime: manager + all proxies, wired over a SystemServer.
 *
 * This is the top-level public API for enabling lease-based resource
 * management on a simulated device:
 *
 *   lease::LeaseOsRuntime leaseos(sim, cpu, radio, server, policy);
 *
 * Constructing it transparently interposes on all resource services — no
 * app changes required (§4.2). Destroying it (or building the device
 * without it) is the paper's "flag to completely turn off the lease
 * service" used to get a vanilla-Android baseline.
 */

#include <memory>
#include <vector>

#include "lease/lease_manager.h"
#include "lease/lease_policy.h"
#include "lease/proxies/lease_proxy.h"
#include "os/system_server.h"

namespace leaseos::lease {

/**
 * Assembles and owns the full LeaseOS stack for one device.
 */
class LeaseOsRuntime
{
  public:
    LeaseOsRuntime(sim::Simulator &sim, power::CpuModel &cpu,
                   power::RadioModel &radio, os::SystemServer &server,
                   LeasePolicy policy = {});

    LeaseManagerService &manager() { return *manager_; }
    const LeaseManagerService &manager() const { return *manager_; }

  private:
    std::unique_ptr<LeaseManagerService> manager_;
    /** One proxy per resource type; the manager finds them by type. */
    std::vector<std::unique_ptr<LeaseProxy>> proxies_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASEOS_RUNTIME_H
