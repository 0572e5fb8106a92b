#include "harness/experiment.h"

#include "apps/registry.h"

namespace leaseos::harness {

RunSpec
mitigationCellSpec(const apps::BuggyAppSpec &spec, MitigationMode mode,
                   const MitigationRunOptions &opt)
{
    RunSpec run;
    run.name = spec.display + std::string(" / ") + mitigationModeName(mode);
    run.config = DeviceConfig{}
                     .withMode(mode)
                     .withProfile(opt.profile)
                     .withSeed(opt.seed);
    run.duration = opt.duration;
    run.setup.push_back(spec.trigger);
    run.apps.push_back(spec.install);
    if (opt.userGlances) {
        run.userGlances = true;
        run.glanceInterval = opt.glanceInterval;
        run.glanceLength = opt.glanceLength;
    }
    return run;
}

double
reductionPercent(double baselineMw, double mitigatedMw)
{
    if (baselineMw <= 0.0) return 0.0;
    return 100.0 * (1.0 - mitigatedMw / baselineMw);
}

} // namespace leaseos::harness
