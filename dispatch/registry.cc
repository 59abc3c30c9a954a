#include "dispatch/dispatcher.h"

#include "util/logging.h"

namespace structride {

// Factories defined in the per-method translation units.
std::unique_ptr<Dispatcher> MakePruneGdp(const DispatchConfig&);
std::unique_ptr<Dispatcher> MakeTicketAssign(const DispatchConfig&);
std::unique_ptr<Dispatcher> MakeDarmDprs(const DispatchConfig&);
std::unique_ptr<Dispatcher> MakeGas(const DispatchConfig&);
std::unique_ptr<Dispatcher> MakeRtv(const DispatchConfig&);
std::unique_ptr<Dispatcher> MakeSard(const DispatchConfig&);

std::vector<std::string> AllDispatcherNames() {
  // The paper's six comparison methods, in its table order. SARD-O (SARD
  // plus angle pruning) is an alias of SARD: the share-graph builder screens
  // every pair with the pruning's lossless lower-bound form.
  return {"RTV", "pruneGDP", "GAS", "TicketAssign+", "DARM+DPRS", "SARD"};
}

const std::vector<std::string>& ListDispatchers() {
  // The roster plus the aliases the factory accepts.
  static const std::vector<std::string> names = {
      "RTV", "pruneGDP", "GAS", "TicketAssign+", "DARM+DPRS", "SARD",
      "SARD-O"};
  return names;
}

std::unique_ptr<Dispatcher> MakeDispatcher(const std::string& name,
                                           const DispatchConfig& config) {
  if (name == "RTV") return MakeRtv(config);
  if (name == "pruneGDP") return MakePruneGdp(config);
  if (name == "GAS") return MakeGas(config);
  if (name == "TicketAssign+") return MakeTicketAssign(config);
  if (name == "DARM+DPRS") return MakeDarmDprs(config);
  if (name == "SARD" || name == "SARD-O") return MakeSard(config);
  std::string valid;
  for (const std::string& n : ListDispatchers()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  SR_LOG("unknown dispatcher '%s' (valid names: %s)", name.c_str(),
         valid.c_str());
  SR_CHECK(false);
  return nullptr;
}

}  // namespace structride
