#ifndef ALT_SRC_SERVING_MODEL_STORE_H_
#define ALT_SRC_SERVING_MODEL_STORE_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "src/models/base_model.h"
#include "src/util/status.h"

namespace alt {
namespace serving {

/// Model bundles carry everything needed to rebuild a model at serving
/// time: the JSON config (including a NAS architecture when present) plus
/// the binary weights. Format:
///   magic "ALTM" | u32 version | u64 json_len | config json | ALTW weights.

Status SaveModelBundle(const models::BaseModel* model, std::ostream* out);
Status SaveModelBundleToFile(const models::BaseModel* model,
                             const std::string& path);

/// Rebuilds the model from a bundle (any encoder kind, including kNas).
Result<std::unique_ptr<models::BaseModel>> LoadModelBundle(std::istream* in);
Result<std::unique_ptr<models::BaseModel>> LoadModelBundleFromFile(
    const std::string& path);

}  // namespace serving
}  // namespace alt

#endif  // ALT_SRC_SERVING_MODEL_STORE_H_
