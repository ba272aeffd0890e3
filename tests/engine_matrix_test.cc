// Exhaustive engine configuration matrix: every combination of weight
// precision, NUMA placement, deferral depth and graph mode must track the
// reference model. This is the integration sweep that guards
// option interactions the focused tests do not cross.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/core/engine.h"

namespace ktx {
namespace {

struct MatrixCase {
  DType dtype;
  NumaMode numa;
  int deferred;
  bool graph;
};

class EngineMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  static const MoeModelConfig& Config() {
    static const MoeModelConfig config = TinyMlaConfig();  // top_k 4, MLA, grouped gating
    return config;
  }
  static std::shared_ptr<const ModelWeights> Weights() {
    static const auto weights =
        std::make_shared<const ModelWeights>(ModelWeights::Generate(Config(), 99));
    return weights;
  }
};

TEST_P(EngineMatrix, TracksReference) {
  const MatrixCase c = GetParam();
  EngineOptions opts;
  opts.cpu_weight_dtype = c.dtype;
  opts.numa_mode = c.numa;
  opts.n_deferred = c.deferred;
  opts.use_cuda_graph = c.graph;
  HybridEngine engine(Config(), Weights(), opts);

  const std::vector<int> prompt{5, 6, 7, 8};
  const Tensor logits = engine.Prefill(prompt);
  const Tensor decode = engine.DecodeStep(9);

  RefModel ref(Config(), Weights());
  KvCache cache(Config());
  const Tensor ref_prefill = ref.Forward(prompt, &cache).Slice(3, 1).Clone();
  ForwardOptions ref_opts;
  ref_opts.n_deferred = c.deferred;
  const Tensor ref_decode = ref.Forward({9}, &cache, ref_opts);

  const float tol = c.dtype == DType::kBF16 ? 0.05f : c.dtype == DType::kI8 ? 0.1f : 0.4f;
  EXPECT_LT(RelativeError(logits, ref_prefill), tol);
  EXPECT_LT(RelativeError(decode, ref_decode), tol);
  EXPECT_GT(CosineSimilarity(decode, ref_decode), c.dtype == DType::kI4 ? 0.95 : 0.999);
}

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name(DTypeName(c.dtype));
  name += c.numa == NumaMode::kTensorParallel ? "_tp" : "_flat";
  name += "_d" + std::to_string(c.deferred);
  name += c.graph ? "_graph" : "_eager";
  return name;
}

std::vector<MatrixCase> AllCases() {
  std::vector<MatrixCase> cases;
  for (DType dtype : {DType::kBF16, DType::kI8, DType::kI4}) {
    for (NumaMode numa : {NumaMode::kTensorParallel, NumaMode::kNaiveInterleaved}) {
      for (int deferred : {0, 2}) {
        for (bool graph : {true, false}) {
          cases.push_back(MatrixCase{dtype, numa, deferred, graph});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineMatrix, ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace ktx
