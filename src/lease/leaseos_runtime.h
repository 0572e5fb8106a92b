#ifndef LEASEOS_LEASE_LEASEOS_RUNTIME_H
#define LEASEOS_LEASE_LEASEOS_RUNTIME_H

/**
 * @file
 * The LeaseOS runtime: the lease manager, with one proxy per resource
 * type that the manager builds and owns, wired over a SystemServer.
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

#include "lease/lease_manager.h"
#include "lease/lease_policy.h"
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

    LeaseManagerService &manager() { return manager_; }
    const LeaseManagerService &manager() const { return manager_; }

  private:
    LeaseManagerService manager_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASEOS_RUNTIME_H
