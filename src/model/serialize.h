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
//
// KV-state serialization ("KTXV") captures one session's cache content —
// rows [0, position) of every layer and stream — gathered LOGICALLY by
// position. Physical layout (block size, shared or private pool, shared or
// private blocks) never leaks into the bytes, so a shared-pool cache with a
// shared-prefix block table serializes identically to a private cache
// holding the same values, and state round-trips across layouts. This
// is the KV-shipping primitive for the scale-out tier (ROADMAP item 5).

#ifndef KTX_SRC_MODEL_SERIALIZE_H_
#define KTX_SRC_MODEL_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/model/kv_cache.h"
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

// Serializes `cache`'s live rows ([0, position), every layer/stream) into a
// KTXV blob. Rows are gathered by logical position: the block layout and
// block sharing never affect the bytes.
std::string SerializeKvState(const MoeModelConfig& config, const KvCache& cache);
// Restores a KTXV blob into `cache`, which must be empty and built for the
// same attention geometry. Every row is copied in; paged caches allocate
// blocks from their pool as needed (kResourceExhausted if it cannot,
// position untouched). Validates magic, version, geometry, and payload size.
Status DeserializeKvState(const std::string& bytes, const MoeModelConfig& config,
                          KvCache* cache);

}  // namespace ktx

#endif  // KTX_SRC_MODEL_SERIALIZE_H_
