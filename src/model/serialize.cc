#include "src/model/serialize.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "src/common/logging.h"

namespace ktx {

namespace {

constexpr char kMagic[4] = {'K', 'T', 'X', 'C'};
constexpr std::uint32_t kVersion = 1;

// --- little-endian primitives ---------------------------------------------------

void PutBytes(std::string* out, const void* data, std::size_t n) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
void Put(std::string* out, T value) {
  PutBytes(out, &value, sizeof(T));
}

void PutString(std::string* out, const std::string& s) {
  Put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  PutBytes(out, s.data(), s.size());
}

struct Cursor {
  const std::string& buf;
  std::size_t pos = 0;

  Status Read(void* dst, std::size_t n) {
    if (pos + n > buf.size()) {
      return OutOfRangeError("truncated checkpoint (needed " + std::to_string(n) +
                             " bytes at offset " + std::to_string(pos) + ")");
    }
    std::memcpy(dst, buf.data() + pos, n);
    pos += n;
    return OkStatus();
  }

  template <typename T>
  StatusOr<T> Get() {
    T value;
    KTX_RETURN_IF_ERROR(Read(&value, sizeof(T)));
    return value;
  }

  StatusOr<std::string> GetString(std::size_t max_len = 1 << 20) {
    KTX_ASSIGN_OR_RETURN(std::uint32_t len, Get<std::uint32_t>());
    if (len > max_len) {
      return OutOfRangeError("implausible string length " + std::to_string(len));
    }
    std::string s(len, '\0');
    KTX_RETURN_IF_ERROR(Read(s.data(), len));
    return s;
  }
};

// --- config block ----------------------------------------------------------------

void WriteConfig(std::string* out, const MoeModelConfig& c) {
  PutString(out, c.name);
  for (std::int64_t v : {c.hidden, c.vocab, static_cast<std::int64_t>(c.num_layers),
                         static_cast<std::int64_t>(c.first_dense_layers), c.dense_inter,
                         static_cast<std::int64_t>(c.num_experts),
                         static_cast<std::int64_t>(c.top_k), c.moe_inter,
                         static_cast<std::int64_t>(c.n_shared_experts),
                         static_cast<std::int64_t>(c.n_group),
                         static_cast<std::int64_t>(c.topk_group),
                         static_cast<std::int64_t>(c.num_heads),
                         static_cast<std::int64_t>(c.num_kv_heads), c.head_dim,
                         c.kv_lora_rank, c.q_lora_rank, c.rope_dim, c.v_head_dim, c.max_seq}) {
    Put<std::int64_t>(out, v);
  }
  Put<std::uint8_t>(out, static_cast<std::uint8_t>(c.gating));
  Put<std::uint8_t>(out, static_cast<std::uint8_t>(c.attention));
  Put<float>(out, c.routed_scaling);
}

StatusOr<MoeModelConfig> ReadConfig(Cursor* in) {
  MoeModelConfig c;
  KTX_ASSIGN_OR_RETURN(c.name, in->GetString());
  std::int64_t vals[19];
  for (std::int64_t& v : vals) {
    KTX_ASSIGN_OR_RETURN(v, in->Get<std::int64_t>());
  }
  c.hidden = vals[0];
  c.vocab = vals[1];
  c.num_layers = static_cast<int>(vals[2]);
  c.first_dense_layers = static_cast<int>(vals[3]);
  c.dense_inter = vals[4];
  c.num_experts = static_cast<int>(vals[5]);
  c.top_k = static_cast<int>(vals[6]);
  c.moe_inter = vals[7];
  c.n_shared_experts = static_cast<int>(vals[8]);
  c.n_group = static_cast<int>(vals[9]);
  c.topk_group = static_cast<int>(vals[10]);
  c.num_heads = static_cast<int>(vals[11]);
  c.num_kv_heads = static_cast<int>(vals[12]);
  c.head_dim = vals[13];
  c.kv_lora_rank = vals[14];
  c.q_lora_rank = vals[15];
  c.rope_dim = vals[16];
  c.v_head_dim = vals[17];
  c.max_seq = vals[18];
  KTX_ASSIGN_OR_RETURN(std::uint8_t gating, in->Get<std::uint8_t>());
  KTX_ASSIGN_OR_RETURN(std::uint8_t attention, in->Get<std::uint8_t>());
  if (gating > 1 || attention > 1) {
    return InvalidArgumentError("bad gating/attention tag");
  }
  c.gating = static_cast<GatingKind>(gating);
  c.attention = static_cast<AttentionKind>(attention);
  KTX_ASSIGN_OR_RETURN(c.routed_scaling, in->Get<float>());
  if (c.hidden <= 0 || c.vocab <= 0 || c.num_layers <= 0 || c.num_layers > 1 << 16 ||
      c.num_experts < 0 || c.num_experts > 1 << 20) {
    return InvalidArgumentError("implausible config values in checkpoint");
  }
  return c;
}

// --- canonical tensor enumeration -------------------------------------------------

// Visits every tensor the config implies, in a fixed order. The same walk
// drives both save and load, so the format cannot drift.
void VisitTensors(const MoeModelConfig& c, ModelWeights& w,
                  const std::function<void(const std::string&, Tensor&)>& fn) {
  fn("embedding", w.embedding);
  fn("final_norm", w.final_norm);
  fn("lm_head", w.lm_head);
  for (int l = 0; l < c.num_layers; ++l) {
    LayerWeights& lw = w.layers[static_cast<std::size_t>(l)];
    const std::string p = "layers." + std::to_string(l) + ".";
    fn(p + "attn_norm", lw.attn_norm);
    fn(p + "ffn_norm", lw.ffn_norm);
    if (c.attention == AttentionKind::kMla) {
      if (c.q_lora_rank > 0) {
        fn(p + "attn.w_dq", lw.attn.w_dq);
      }
      fn(p + "attn.w_uq", lw.attn.w_uq);
      fn(p + "attn.w_dkv", lw.attn.w_dkv);
      fn(p + "attn.w_uk", lw.attn.w_uk);
      fn(p + "attn.w_uv", lw.attn.w_uv);
    } else {
      fn(p + "attn.wq", lw.attn.wq);
      fn(p + "attn.wk", lw.attn.wk);
      fn(p + "attn.wv", lw.attn.wv);
    }
    fn(p + "attn.wo", lw.attn.wo);
    if (!c.is_moe_layer(l)) {
      fn(p + "dense_gate", lw.dense_gate);
      fn(p + "dense_up", lw.dense_up);
      fn(p + "dense_down", lw.dense_down);
      continue;
    }
    fn(p + "router", lw.router);
    if (c.gating == GatingKind::kGroupedSigmoidTopK) {
      fn(p + "router_bias", lw.router_bias);
    }
    if (c.n_shared_experts > 0) {
      fn(p + "shared_gate", lw.shared_gate);
      fn(p + "shared_up", lw.shared_up);
      fn(p + "shared_down", lw.shared_down);
    }
    for (int e = 0; e < c.num_experts; ++e) {
      const std::string ep = p + "experts." + std::to_string(e) + ".";
      fn(ep + "gate", lw.expert_gate[static_cast<std::size_t>(e)]);
      fn(ep + "up", lw.expert_up[static_cast<std::size_t>(e)]);
      fn(ep + "down", lw.expert_down[static_cast<std::size_t>(e)]);
    }
  }
}

void WriteTensor(std::string* out, const std::string& name, const Tensor& t) {
  PutString(out, name);
  Put<std::uint8_t>(out, static_cast<std::uint8_t>(t.dtype()));
  Put<std::uint8_t>(out, static_cast<std::uint8_t>(t.rank()));
  for (std::int64_t d : t.shape()) {
    Put<std::int64_t>(out, d);
  }
  Put<std::uint64_t>(out, static_cast<std::uint64_t>(t.byte_size()));
  PutBytes(out, t.raw(), t.byte_size());
}

StatusOr<Tensor> ReadTensor(Cursor* in, std::string* name) {
  KTX_ASSIGN_OR_RETURN(*name, in->GetString());
  KTX_ASSIGN_OR_RETURN(std::uint8_t dtype_tag, in->Get<std::uint8_t>());
  if (dtype_tag > static_cast<std::uint8_t>(DType::kI32)) {
    return InvalidArgumentError("bad dtype tag for tensor " + *name);
  }
  KTX_ASSIGN_OR_RETURN(std::uint8_t rank, in->Get<std::uint8_t>());
  if (rank > 4) {
    return InvalidArgumentError("implausible rank for tensor " + *name);
  }
  std::vector<std::int64_t> shape;
  std::int64_t numel = 1;
  for (int i = 0; i < rank; ++i) {
    KTX_ASSIGN_OR_RETURN(std::int64_t d, in->Get<std::int64_t>());
    if (d < 0 || d > (1LL << 32)) {
      return InvalidArgumentError("implausible dimension for tensor " + *name);
    }
    shape.push_back(d);
    numel *= d;
  }
  KTX_ASSIGN_OR_RETURN(std::uint64_t payload, in->Get<std::uint64_t>());
  Tensor t(shape, static_cast<DType>(dtype_tag));
  if (payload != t.byte_size() || static_cast<std::int64_t>(t.numel()) != numel) {
    return InvalidArgumentError("payload size mismatch for tensor " + *name);
  }
  KTX_RETURN_IF_ERROR(in->Read(t.raw(), t.byte_size()));
  return t;
}

// Sizes the ModelWeights skeleton so VisitTensors has slots to fill.
ModelWeights MakeSkeleton(const MoeModelConfig& c) {
  ModelWeights w;
  w.layers.resize(static_cast<std::size_t>(c.num_layers));
  for (int l = c.first_dense_layers; l < c.num_layers; ++l) {
    LayerWeights& lw = w.layers[static_cast<std::size_t>(l)];
    lw.expert_gate.resize(static_cast<std::size_t>(c.num_experts));
    lw.expert_up.resize(static_cast<std::size_t>(c.num_experts));
    lw.expert_down.resize(static_cast<std::size_t>(c.num_experts));
  }
  return w;
}

}  // namespace

std::string SerializeModel(const MoeModelConfig& config, const ModelWeights& weights) {
  std::string out;
  PutBytes(&out, kMagic, sizeof(kMagic));
  Put<std::uint32_t>(&out, kVersion);
  WriteConfig(&out, config);

  std::uint32_t count = 0;
  std::string body;
  // const_cast: VisitTensors takes mutable refs to serve the load path; the
  // save lambda only reads.
  VisitTensors(config, const_cast<ModelWeights&>(weights),
               [&](const std::string& name, Tensor& t) {
                 WriteTensor(&body, name, t);
                 ++count;
               });
  Put<std::uint32_t>(&out, count);
  out += body;
  return out;
}

StatusOr<ModelFile> DeserializeModel(const std::string& bytes) {
  Cursor in{bytes};
  char magic[4];
  KTX_RETURN_IF_ERROR(in.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("not a KTXC checkpoint (bad magic)");
  }
  KTX_ASSIGN_OR_RETURN(std::uint32_t version, in.Get<std::uint32_t>());
  if (version != kVersion) {
    return InvalidArgumentError("unsupported checkpoint version " + std::to_string(version));
  }
  ModelFile file;
  KTX_ASSIGN_OR_RETURN(file.config, ReadConfig(&in));
  KTX_ASSIGN_OR_RETURN(std::uint32_t count, in.Get<std::uint32_t>());

  file.weights = MakeSkeleton(file.config);
  // Expected names in canonical order.
  std::vector<std::pair<std::string, Tensor*>> slots;
  VisitTensors(file.config, file.weights, [&](const std::string& name, Tensor& t) {
    slots.emplace_back(name, &t);
  });
  if (count != slots.size()) {
    return InvalidArgumentError("tensor count mismatch: file has " + std::to_string(count) +
                                ", config implies " + std::to_string(slots.size()));
  }
  for (auto& [expected_name, slot] : slots) {
    std::string name;
    KTX_ASSIGN_OR_RETURN(Tensor t, ReadTensor(&in, &name));
    if (name != expected_name) {
      return InvalidArgumentError("tensor order mismatch: expected " + expected_name +
                                  ", found " + name);
    }
    *slot = std::move(t);
  }
  if (in.pos != bytes.size()) {
    return InvalidArgumentError("trailing garbage after checkpoint payload");
  }
  return file;
}

Status SaveModel(const std::string& path, const MoeModelConfig& config,
                 const ModelWeights& weights) {
  const std::string bytes = SerializeModel(config, weights);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return InternalError("cannot open " + tmp + " for writing");
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return InternalError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError("cannot rename " + tmp + " to " + path);
  }
  return OkStatus();
}

StatusOr<ModelFile> LoadModel(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError("cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  const bool ok = std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) {
    return InternalError("short read from " + path);
  }
  return DeserializeModel(bytes);
}

}  // namespace ktx
