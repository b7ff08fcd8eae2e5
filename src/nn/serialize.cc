#include "src/nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>

#include "src/util/logging.h"

namespace alt {
namespace nn {

namespace {

constexpr char kMagic[4] = {'A', 'L', 'T', 'W'};
constexpr uint32_t kVersion = 1;

void WriteU32(std::ostream* out, uint32_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteI64(std::ostream* out, int64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::istream* in, uint32_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}
bool ReadU64(std::istream* in, uint64_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}
bool ReadI64(std::istream* in, int64_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}

}  // namespace

Status SaveWeights(const Module* module, std::ostream* out) {
  // NamedParameters is also the optimizers' write accessor, hence non-const;
  // this only reads the values it lists.
  auto params = const_cast<Module*>(module)->NamedParameters();
  out->write(kMagic, sizeof(kMagic));
  WriteU32(out, kVersion);
  WriteU64(out, params.size());
  for (auto& [name, param] : params) {
    WriteU64(out, name.size());
    out->write(name.data(), static_cast<std::streamsize>(name.size()));
    const Tensor& t = param->value();
    WriteU64(out, static_cast<uint64_t>(t.ndim()));
    for (int64_t d : t.shape()) WriteI64(out, d);
    out->write(reinterpret_cast<const char*>(t.data()),
               static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
  if (!out->good()) return Status::IOError("write failed");
  return Status::OK();
}

Status SaveWeightsToFile(Module* module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return Status::IOError("cannot open " + path);
  return SaveWeights(module, &out);
}

Status LoadWeights(Module* module, std::istream* in) {
  char magic[4];
  in->read(magic, sizeof(magic));
  if (!in->good() || std::string(magic, 4) != std::string(kMagic, 4)) {
    return Status::InvalidArgument("bad magic");
  }
  uint32_t version = 0;
  if (!ReadU32(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported version");
  }
  uint64_t count = 0;
  if (!ReadU64(in, &count)) return Status::IOError("truncated header");

  auto params = module->NamedParameters();
  std::map<std::string, ag::Variable*> by_name;
  for (auto& [name, param] : params) by_name[name] = param;
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: stream has " + std::to_string(count) +
        ", module has " + std::to_string(params.size()));
  }

  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    if (!ReadU64(in, &name_len) || name_len > 4096) {
      return Status::IOError("bad name length");
    }
    std::string name(name_len, '\0');
    in->read(name.data(), static_cast<std::streamsize>(name_len));
    uint64_t ndim = 0;
    if (!in->good() || !ReadU64(in, &ndim) || ndim > 8) {
      return Status::IOError("bad ndim");
    }
    std::vector<int64_t> shape(ndim);
    for (uint64_t d = 0; d < ndim; ++d) {
      if (!ReadI64(in, &shape[d])) return Status::IOError("truncated shape");
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound("unknown parameter in stream: " + name);
    }
    if (it->second->value().shape() != shape) {
      return Status::InvalidArgument("shape mismatch for " + name);
    }
    Tensor& t = it->second->mutable_value();
    in->read(reinterpret_cast<char*>(t.data()),
             static_cast<std::streamsize>(t.numel() * sizeof(float)));
    if (!in->good()) return Status::IOError("truncated data for " + name);
  }
  return Status::OK();
}

Status LoadWeightsFromFile(Module* module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  return LoadWeights(module, &in);
}

}  // namespace nn
}  // namespace alt
