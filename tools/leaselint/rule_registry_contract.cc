/**
 * @file
 * registry-contract: MetricRegistry registration reachable from
 * post-construction / hot code.
 *
 * Registration (counter/histogram/boundCounter/boundGauge) is
 * explicitly single-threaded and allocating — the header says "do it
 * before workers start", and DESIGN.md §8's zero-allocation discipline
 * bans it from the steady state. The hot operations (add/observe)
 * are the only part meant to run per event.
 *
 * A registration call site is legal when every path to it starts in
 * construction or setup code. Concretely, a function is OK when it is:
 *  - a constructor or destructor ("X::X" / "X::~X"),
 *  - named with an init / setup / configure prefix, or main(),
 *  - defined outside src/ (tests, benches, and tools own their phases),
 *  - or ALL of its observed callers are OK (computed as a fixpoint over
 *    the call graph, so a helper called only from constructors — e.g.
 *    EnergyAccountant::makeChannel from the power-model constructor
 *    initializer lists — is fine).
 *
 * A src/ function with NO observed callers is assumed reachable from
 * anywhere and flagged: a public refresh()/poll() entry point that
 * registers on demand is exactly the bug this rule exists to catch.
 */

#include "leaselint/rules.h"

namespace leaselint {

namespace {

bool
baseLegal(const CallGraph &graph, const RepoIndex &repo, FuncId id)
{
    const FuncDef &def = graph.def(id);
    if (!underDir(repo.files[graph.fileOf(id)].path, "src")) return true;
    if (CallGraph::isStructorName(def.name)) return true;
    std::string name = CallGraph::unqualified(def.name);
    if (name == "main") return true;
    static const char *const kSetupPrefixes[] = {"init", "setup",
                                                 "configure"};
    for (const char *prefix : kSetupPrefixes)
        if (name.rfind(prefix, 0) == 0) return true;
    return false;
}

} // namespace

void
linkRegistryContract(const RepoIndex &repo, const CallGraph &graph,
                     std::vector<Finding> &out)
{
    enum State : char { Unknown = 0, Visiting, Ok, Bad };
    std::vector<char> state(graph.funcCount(), Unknown);

    // ok(id) = baseLegal(id) || (has callers && all callers ok); cycles
    // resolve optimistically (a recursive init helper stays legal).
    auto ok = [&](FuncId start) {
        std::vector<FuncId> stack{start};
        while (!stack.empty()) {
            FuncId id = stack.back();
            if (state[id] == Ok || state[id] == Bad) {
                stack.pop_back();
                continue;
            }
            if (baseLegal(graph, repo, id)) {
                state[id] = Ok;
                stack.pop_back();
                continue;
            }
            const std::vector<FuncId> &callers = graph.callers(id);
            if (callers.empty()) {
                state[id] = Bad;
                stack.pop_back();
                continue;
            }
            if (state[id] == Unknown) {
                state[id] = Visiting;
                for (FuncId caller : callers)
                    if (state[caller] == Unknown) stack.push_back(caller);
                continue;
            }
            // All callers settled (Visiting counts as Ok: optimistic on
            // cycles).
            bool allOk = true;
            for (FuncId caller : callers)
                if (state[caller] == Bad) allOk = false;
            state[id] = allOk ? Ok : Bad;
            stack.pop_back();
        }
        return state[start] == Ok;
    };

    auto firstBadCaller = [&](FuncId id) -> std::string {
        for (FuncId caller : graph.callers(id))
            if (state[caller] == Bad)
                return graph.def(caller).name + "()";
        return "no observed caller (assumed reachable from hot paths)";
    };

    for (std::uint32_t fi = 0; fi < repo.files.size(); ++fi) {
        const FileIndex &file = repo.files[fi];
        if (!underDir(file.path, "src")) continue;
        for (const RegSite &site : file.regs) {
            if (site.func == kNoFunc) {
                out.push_back(
                    {"registry-contract", file.path, site.line,
                     "MetricRegistry::" + site.methodName +
                         "() at file scope (static initializer): "
                         "registration order across translation units is "
                         "unspecified — register from a constructor or "
                         "init path instead"});
                continue;
            }
            FuncId id = graph.funcId(fi, site.func);
            if (ok(id)) continue;
            out.push_back(
                {"registry-contract", file.path, site.line,
                 "MetricRegistry::" + site.methodName +
                     "() reachable from post-construction code via " +
                     graph.def(id).name + "() [" + firstBadCaller(id) +
                     "]: registration allocates and is not thread-safe — "
                     "confine it to constructors or init/setup paths "
                     "(hot paths may only add/observe)"});
        }
    }
}

} // namespace leaselint
