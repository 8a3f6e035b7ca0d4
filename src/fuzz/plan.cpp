#include "fuzz/plan.h"

#include "algo/registry.h"
#include "common/check.h"

namespace memu::fuzz {

std::string check_kind_name(CheckKind k) {
  switch (k) {
    case CheckKind::kAtomic: return "atomic";
    case CheckKind::kRegularSwsr: return "regular-swsr";
    case CheckKind::kWeaklyRegular: return "weakly-regular";
  }
  MEMU_UNREACHABLE("unknown check kind");
}

CheckKind check_kind_from_name(const std::string& name) {
  if (name == "atomic") return CheckKind::kAtomic;
  if (name == "regular-swsr") return CheckKind::kRegularSwsr;
  if (name == "weakly-regular") return CheckKind::kWeaklyRegular;
  MEMU_CHECK_MSG(false, "unknown check kind '" << name << "'");
}

CheckKind SystemSpec::default_check() const {
  return algo::lookup(algo).promise == algo::Promise::kAtomic
             ? CheckKind::kAtomic
             : CheckKind::kRegularSwsr;
}

}  // namespace memu::fuzz
