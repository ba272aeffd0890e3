// Model checkpoint serialization.
//
// A compact binary container ("KTXC") holding a MoeModelConfig and all model
// tensors, so generated models can be saved once and reloaded by examples,
// tools and tests without regenerating. The format is deliberately simple and
// versioned:
//
//   [magic "KTXC"][u32 version]
//   [config block: tagged scalar fields]
//   [u32 tensor_count] then per tensor:
//     [name length + bytes][u8 dtype][u8 rank][i64 dims...][payload bytes]
//
// All integers little-endian. Loading validates magic, version, dtype tags,
// dimension sanity and payload sizes, and fails with a Status (never UB) on
// truncated or corrupted input.

#ifndef KTX_SRC_MODEL_SERIALIZE_H_
#define KTX_SRC_MODEL_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/model/weights.h"

namespace ktx {

struct ModelFile {
  MoeModelConfig config;
  ModelWeights weights;
};

// Serializes config + weights to the given path (atomically via temp file).
Status SaveModel(const std::string& path, const MoeModelConfig& config,
                 const ModelWeights& weights);

// Loads and validates a checkpoint.
StatusOr<ModelFile> LoadModel(const std::string& path);

// In-memory variants (the file functions are thin wrappers; these make
// round-trip tests and fuzz-ish corruption tests cheap).
std::string SerializeModel(const MoeModelConfig& config, const ModelWeights& weights);
StatusOr<ModelFile> DeserializeModel(const std::string& bytes);

}  // namespace ktx

#endif  // KTX_SRC_MODEL_SERIALIZE_H_
