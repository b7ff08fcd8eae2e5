#ifndef ALT_SRC_NN_SERIALIZE_H_
#define ALT_SRC_NN_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "src/nn/module.h"
#include "src/util/status.h"

namespace alt {
namespace nn {

/// Binary weight (de)serialization. Format:
///   magic "ALTW" | u32 version | u64 param count |
///   per param: u64 name_len | name | u64 ndim | i64 shape[] | f32 data[]
/// Deserialization is by-name with strict shape checks, so weights survive
/// refactors that keep the module structure.

/// Writes every named parameter of `module` to `out`.
Status SaveWeights(const Module* module, std::ostream* out);
Status SaveWeightsToFile(Module* module, const std::string& path);

/// Loads weights into `module`. Fails if a parameter is missing from the
/// stream or shapes mismatch; extra parameters in the stream are an error.
Status LoadWeights(Module* module, std::istream* in);
Status LoadWeightsFromFile(Module* module, const std::string& path);

}  // namespace nn
}  // namespace alt

#endif  // ALT_SRC_NN_SERIALIZE_H_
