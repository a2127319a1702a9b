#include "nn/model_io.hpp"

#include <stdexcept>

#include "common/serialization.hpp"

namespace evd::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4D445645;  // "EVDM"
}

void save_params(const std::string& path, const std::vector<Param*>& params) {
  BinaryWriter writer(path);
  writer.write_u32(kMagic);
  writer.write_u32(static_cast<std::uint32_t>(params.size()));
  for (const auto* p : params) {
    writer.write_string(p->name);
    writer.write_u32(static_cast<std::uint32_t>(p->value.rank()));
    for (Index d = 0; d < p->value.rank(); ++d) {
      writer.write_i64(p->value.dim(d));
    }
    writer.write_f32_vector(p->value.vec());
  }
}

void load_params(const std::string& path, const std::vector<Param*>& params) {
  BinaryReader reader(path);
  if (reader.read_u32() != kMagic) {
    throw std::runtime_error("load_params: bad magic in " + path);
  }
  const auto count = reader.read_u32();
  if (count != params.size()) {
    throw std::runtime_error("load_params: parameter count mismatch (file " +
                             std::to_string(count) + ", model " +
                             std::to_string(params.size()) + ")");
  }
  for (auto* p : params) {
    const std::string name = reader.read_string();
    if (name != p->name) {
      throw std::runtime_error("load_params: expected parameter '" + p->name +
                               "', file has '" + name + "'");
    }
    const auto rank = reader.read_u32();
    std::vector<Index> shape(rank);
    for (auto& d : shape) d = reader.read_i64();
    if (shape != p->value.shape()) {
      throw std::runtime_error("load_params: shape mismatch for '" + name +
                               "'");
    }
    const auto values = reader.read_f32_vector();
    if (static_cast<Index>(values.size()) != p->value.numel()) {
      throw std::runtime_error("load_params: value count mismatch for '" +
                               name + "'");
    }
    p->value.vec() = values;
    ++p->version;
  }
}

}  // namespace evd::nn
