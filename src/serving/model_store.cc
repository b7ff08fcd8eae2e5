#include "src/serving/model_store.h"

#include <cstdint>
#include <fstream>

#include "src/nas/nas_search.h"
#include "src/nn/serialize.h"
#include "src/resilience/fault_injection.h"
#include "src/util/atomic_file.h"
#include "src/util/json.h"

namespace alt {
namespace serving {

namespace {
constexpr char kMagic[4] = {'A', 'L', 'T', 'M'};
constexpr uint32_t kVersion = 1;
}  // namespace

Status SaveModelBundle(const models::BaseModel* model, std::ostream* out) {
  const std::string config = model->config().ToJson().Dump();
  out->write(kMagic, sizeof(kMagic));
  const uint32_t version = kVersion;
  out->write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t json_len = config.size();
  out->write(reinterpret_cast<const char*>(&json_len), sizeof(json_len));
  out->write(config.data(), static_cast<std::streamsize>(config.size()));
  if (!out->good()) return Status::IOError("bundle header write failed");
  return nn::SaveWeights(model, out);
}

Status SaveModelBundleToFile(const models::BaseModel* model,
                             const std::string& path) {
  ALT_FAULT_RETURN_IF("serving/model_store/save");
  // Temp-file + rename so a crash or short write mid-save never leaves a
  // torn bundle at `path`: readers see the old bundle or the new one.
  return AtomicWriteFile(path, [model](std::ostream* out) {
    return SaveModelBundle(model, out);
  });
}

Result<std::unique_ptr<models::BaseModel>> LoadModelBundle(std::istream* in) {
  char magic[4];
  in->read(magic, sizeof(magic));
  if (!in->good() || std::string(magic, 4) != std::string(kMagic, 4)) {
    return Status::InvalidArgument("not a model bundle");
  }
  uint32_t version = 0;
  in->read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in->good() || version != kVersion) {
    return Status::InvalidArgument("unsupported bundle version");
  }
  uint64_t json_len = 0;
  in->read(reinterpret_cast<char*>(&json_len), sizeof(json_len));
  if (!in->good() || json_len > (64u << 20)) {
    return Status::IOError("bad config length");
  }
  std::string config_text(json_len, '\0');
  in->read(config_text.data(), static_cast<std::streamsize>(json_len));
  if (!in->good()) return Status::IOError("truncated config");

  ALT_ASSIGN_OR_RETURN(Json config_json, Json::Parse(config_text));
  ALT_ASSIGN_OR_RETURN(models::ModelConfig config,
                       models::ModelConfig::FromJson(config_json));
  Rng rng(1);  // Weights are overwritten below; init values are irrelevant.
  ALT_ASSIGN_OR_RETURN(std::unique_ptr<models::BaseModel> model,
                       nas::BuildModel(config, &rng));
  ALT_RETURN_IF_ERROR(nn::LoadWeights(model.get(), in));
  return model;
}

Result<std::unique_ptr<models::BaseModel>> LoadModelBundleFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  return LoadModelBundle(&in);
}

}  // namespace serving
}  // namespace alt
