#include "route/route.hpp"

#include <array>

namespace evd::route {
namespace {

/// One routable execution variant of a paradigm's hot stage. Default is
/// not a variant: it names "whatever the paradigm hard-codes".
struct ExecutionPath {
  PathId id;
  const char* paradigm;
  const char* name;  ///< Stable, used in docs and plan descriptions.
};

constexpr std::array<ExecutionPath, 2> kPaths = {{
    {PathId::CnnSparse, "cnn", "cnn.sparse"},
    {PathId::SnnEventDriven, "snn", "snn.event_driven"},
}};

const ExecutionPath* find(PathId id) noexcept {
  for (const ExecutionPath& p : kPaths) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

}  // namespace

const char* path_name(PathId id) noexcept {
  if (id == PathId::Default) return "default";
  const ExecutionPath* p = find(id);
  return p != nullptr ? p->name : "unknown";
}

const char* path_paradigm(PathId id) noexcept {
  const ExecutionPath* p = find(id);
  return p != nullptr ? p->paradigm : "";
}

bool path_valid_for(PathId id, std::string_view paradigm) noexcept {
  if (id == PathId::Default) return true;
  return paradigm == path_paradigm(id) && paradigm.size() > 0;
}

std::optional<PathId> path_from_byte(std::uint8_t raw) noexcept {
  if (raw == 0) return PathId::Default;
  const auto id = static_cast<PathId>(raw);
  if (find(id) != nullptr) return id;
  return std::nullopt;
}

std::vector<PathId> routable(std::string_view paradigm) {
  std::vector<PathId> out{PathId::Default};
  for (const ExecutionPath& p : kPaths) {
    if (paradigm == p.paradigm) out.push_back(p.id);
  }
  return out;
}

}  // namespace evd::route
