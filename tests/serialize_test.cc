// Tests for the versioned checkpoint format (src/serialize): CRC reference
// vectors, bit-exact round-trip fuzzing over random tensor shapes, full-model
// and component (Adam / EMA / RNG) round trips, typed-error contracts, fault
// injection (truncation at and inside every record, random bit flips),
// atomic-write crash safety, keep-last-K retention, resume equivalence of
// the diffusion trainer, and the seeded training-loss golden.
//
// Regenerating the training golden after an INTENTIONAL trainer change:
//   PRISTI_REGEN_GOLDEN=1 ./build/tests/serialize_test
//     --gtest_filter='TrainingGolden.*'
// then commit the rewritten tests/golden/train_loss_aqi36.txt.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/windows.h"
#include "diffusion/ddpm.h"
#include "diffusion/schedule.h"
#include "nn/ema.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "pristi/pristi_model.h"
#include "serialize/checkpoint.h"
#include "serialize/format.h"
#include "tensor/kernels/attention.h"
#include "test_tmpdir.h"

namespace pristi::serialize {
namespace {

namespace fs = std::filesystem;
namespace t = ::pristi::tensor;
using t::Shape;
using t::Tensor;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

// Small but real PriSTI module (attention + MPNN + embeddings), so model
// round trips cover a deep parameter tree with many distinct shapes.
std::unique_ptr<core::PristiModel> MakeTinyModel(int64_t n, int64_t l,
                                                 uint64_t seed) {
  core::PristiConfig config;
  config.num_nodes = n;
  config.window_len = l;
  config.channels = 8;
  config.heads = 2;
  config.layers = 1;
  config.virtual_nodes = 2;
  config.diffusion_emb_dim = 8;
  config.temporal_emb_dim = 8;
  config.node_emb_dim = 4;
  config.adaptive_rank = 4;
  config.graph_diffusion_steps = 1;
  Tensor adjacency(Shape{n, n});
  for (int64_t i = 0; i + 1 < n; ++i) {
    adjacency.at({i, i + 1}) = 1.0f;
    adjacency.at({i + 1, i}) = 1.0f;
  }
  Rng rng(seed);
  return std::make_unique<core::PristiModel>(config, adjacency, rng);
}

// Serializes through an in-memory stream via `fill`, returns the raw bytes.
template <typename Fill>
std::string WriteBytes(Fill fill) {
  std::ostringstream out(std::ios::binary);
  CheckpointWriter writer(out);
  fill(&writer);
  EXPECT_TRUE(writer.Finish());
  return out.str();
}

Status ParseBytes(const std::string& bytes, CheckpointView* view,
                  bool keep_corrupt = false) {
  std::istringstream in(bytes, std::ios::binary);
  return CheckpointView::Parse(in, view, keep_corrupt);
}

void ExpectBitEqual(const Tensor& a, const Tensor& b,
                    const std::string& what) {
  ASSERT_TRUE(t::ShapesEqual(a.shape(), b.shape()))
      << what << ": " << t::ShapeToString(a.shape()) << " vs "
      << t::ShapeToString(b.shape());
  if (a.numel() == 0) return;  // null data pointers; nothing to compare
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0)
      << what << ": payload bytes differ";
}

void ExpectModulesBitEqual(nn::Module& a, nn::Module& b) {
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].first, pb[i].first);
    ExpectBitEqual(pa[i].second.value(), pb[i].second.value(), pa[i].first);
  }
}

// ---------------------------------------------------------------------------
// CRC-32 reference vectors
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesReferenceVectors) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, SeedChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{17}, data.size()}) {
    uint32_t chained = Crc32(data.data(), split);
    chained = Crc32(data.data() + split, data.size() - split, chained);
    EXPECT_EQ(chained, one_shot) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Tensor round-trip fuzz
// ---------------------------------------------------------------------------

TEST(TensorRoundTrip, FuzzRandomShapesBitExact) {
  Rng rng(20240806);
  for (int64_t c = 0; c < 120; ++c) {
    int64_t rank = rng.UniformInt(1, 4);
    Shape shape(static_cast<size_t>(rank));
    for (int64_t d = 0; d < rank; ++d) {
      // Occasionally a zero-length dimension (numel 0 is a legal tensor).
      shape[static_cast<size_t>(d)] =
          rng.Uniform() < 0.05 ? 0 : rng.UniformInt(1, 7);
    }
    Tensor original(shape);
    for (int64_t i = 0; i < original.numel(); ++i) {
      original.data()[i] = static_cast<float>(rng.Normal(0, 100));
    }
    // Sprinkle non-finite and signed-zero values: the round trip is byte
    // exact, so NaN payloads and -0.0 must survive unchanged.
    if (original.numel() > 0) {
      original.data()[0] = -0.0f;
      if (original.numel() > 2) {
        original.data()[1] = std::numeric_limits<float>::quiet_NaN();
        original.data()[2] = -std::numeric_limits<float>::infinity();
      }
    }
    std::string bytes = WriteBytes(
        [&](CheckpointWriter* w) { w->AddTensor("fuzz", original); });
    CheckpointView view;
    ASSERT_TRUE(ParseBytes(bytes, &view).ok()) << "case " << c;
    Tensor decoded;
    ASSERT_TRUE(view.GetTensor("fuzz", &decoded).ok()) << "case " << c;
    ExpectBitEqual(original, decoded, "case " + std::to_string(c));
  }
}

TEST(TensorRoundTrip, ScalarShapeSurvives) {
  Tensor scalar{Shape{}};
  scalar.data()[0] = 3.75f;
  std::string bytes =
      WriteBytes([&](CheckpointWriter* w) { w->AddTensor("s", scalar); });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());
  Tensor decoded;
  ASSERT_TRUE(view.GetTensor("s", &decoded).ok());
  ExpectBitEqual(scalar, decoded, "scalar");
}

TEST(ScalarRoundTrip, I64F64ListAndStringSurvive) {
  std::vector<double> betas = {1e-4, 0.0317, 0.2,
                               std::numeric_limits<double>::epsilon()};
  std::string bytes = WriteBytes([&](CheckpointWriter* w) {
    w->AddI64("epoch", -3);
    w->AddF64("loss", 0.1234567890123456789);
    w->AddF64List("betas", betas);
    w->AddString("kind", "pristi-training");
    w->AddF64List("empty", {});
  });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());
  int64_t epoch = 0;
  double loss = 0;
  std::vector<double> decoded;
  std::string kind;
  ASSERT_TRUE(view.GetI64("epoch", &epoch).ok());
  ASSERT_TRUE(view.GetF64("loss", &loss).ok());
  ASSERT_TRUE(view.GetF64List("betas", &decoded).ok());
  ASSERT_TRUE(view.GetString("kind", &kind).ok());
  EXPECT_EQ(epoch, -3);
  EXPECT_EQ(loss, 0.1234567890123456789);  // bit-exact, not approximate
  ASSERT_EQ(decoded.size(), betas.size());
  for (size_t i = 0; i < betas.size(); ++i) EXPECT_EQ(decoded[i], betas[i]);
  EXPECT_EQ(kind, "pristi-training");
  ASSERT_TRUE(view.GetF64List("empty", &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

// ---------------------------------------------------------------------------
// Full-model round trips
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Storage-layout golden: pooled, view-backed tensors must serialize to the
// exact bytes the pre-shared-storage implementation wrote
// ---------------------------------------------------------------------------

#ifndef PRISTI_STORAGE_GOLDEN_PATH
#define PRISTI_STORAGE_GOLDEN_PATH "tests/golden/serialize_storage_v1.ckpt"
#endif

TEST(StorageGolden, ViewBackedCheckpointBytesMatchPreRefactorFile) {
  // Build the golden's logical contents deliberately through the
  // shared-storage machinery: `base` comes from the buffer pool, `slice` is
  // a zero-copy leading-dim view reshaped in place, and `scalar` is written
  // via a COW header copy. The on-disk bytes depend only on logical shape
  // and values, so they must equal what the owning-vector implementation
  // produced.
  Tensor base = Tensor::Arange(24).Reshaped({2, 3, 4});
  Tensor slice = t::SliceAxis(base, 0, 1, 1).Reshaped({3, 4});
  ASSERT_TRUE(slice.SharesStorage(base));  // really a view, not a copy
  Tensor scalar_owner = Tensor::Scalar(0.5f);
  Tensor scalar = scalar_owner;  // shared header
  std::string bytes = WriteBytes([&](CheckpointWriter* w) {
    w->AddString("meta.kind", "storage-golden");
    w->AddTensor("storage.base", base);
    w->AddTensor("storage.slice", slice);
    w->AddTensor("storage.scalar", scalar);
    w->AddI64("storage.format", 1);
  });

  if (!pristi::GetEnvOr("PRISTI_REGEN_GOLDEN", "").empty()) {
    std::ofstream out(PRISTI_STORAGE_GOLDEN_PATH, std::ios::binary);
    ASSERT_TRUE(out.is_open())
        << "cannot write golden " << PRISTI_STORAGE_GOLDEN_PATH;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    GTEST_SKIP() << "regenerated " << PRISTI_STORAGE_GOLDEN_PATH;
  }

  std::ifstream in(PRISTI_STORAGE_GOLDEN_PATH, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing golden " << PRISTI_STORAGE_GOLDEN_PATH
      << "; regenerate with PRISTI_REGEN_GOLDEN=1";
  std::ostringstream golden_stream(std::ios::binary);
  golden_stream << in.rdbuf();
  std::string golden = golden_stream.str();
  ASSERT_EQ(bytes.size(), golden.size()) << "checkpoint size drifted";
  EXPECT_EQ(bytes, golden) << "checkpoint bytes drifted from the "
                              "pre-refactor serialization";

  // The golden also parses back into tensors bit-equal to the views that
  // wrote it.
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(golden, &view).ok());
  Tensor back;
  ASSERT_TRUE(view.GetTensor("storage.slice", &back).ok());
  ExpectBitEqual(back, slice, "storage.slice");
  ASSERT_TRUE(view.GetTensor("storage.base", &back).ok());
  ExpectBitEqual(back, base, "storage.base");
}

TEST(ModuleRoundTrip, PristiModelStreamRoundTripBitExact) {
  auto a = MakeTinyModel(6, 8, 1);
  auto b = MakeTinyModel(6, 8, 2);  // different init, overwritten by load
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(a->SaveCheckpoint(out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  ASSERT_TRUE(b->LoadCheckpoint(in).ok());
  ExpectModulesBitEqual(*a, *b);
}

TEST(ModuleRoundTrip, FileRoundTrip) {
  auto a = MakeTinyModel(4, 6, 3);
  pristi::testing::TestTempDir tmp;
  std::string path = tmp.File("model.ckpt");
  ASSERT_TRUE(SaveModuleCheckpointFile(*a, path).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // atomic write left no temp

  auto b = MakeTinyModel(4, 6, 4);
  ASSERT_TRUE(LoadModuleCheckpointFile(*b, path).ok());
  ExpectModulesBitEqual(*a, *b);

  Status missing = LoadModuleCheckpointFile(*b, tmp.File("absent.ckpt"));
  EXPECT_EQ(missing.code(), ErrorCode::kIoError);
}

// ---------------------------------------------------------------------------
// Component round trips: Adam, EMA, RNG
// ---------------------------------------------------------------------------

TEST(AdamRoundTrip, StateRestoredConfigVerified) {
  Rng rng(11);
  nn::Mlp net_a(3, 4, 2, rng), net_b(3, 4, 2, rng), net_c(3, 4, 2, rng);
  nn::AdamOptions options;
  options.lr = 5e-4f;
  nn::Adam opt_a(net_a.Parameters(), options);
  // Plant non-trivial state: random moments, a non-zero step count and a
  // schedule-decayed learning rate.
  std::vector<Tensor> m, v;
  for (const Tensor& buf : opt_a.moment1()) {
    m.push_back(Tensor::Randn(buf.shape(), rng));
  }
  for (const Tensor& buf : opt_a.moment2()) {
    v.push_back(Tensor::Randn(buf.shape(), rng));
  }
  opt_a.RestoreState(7, m, v);
  opt_a.set_lr(5e-5f);

  std::string bytes =
      WriteBytes([&](CheckpointWriter* w) { AppendAdam(opt_a, w); });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());

  nn::Adam opt_b(net_b.Parameters(), options);
  ASSERT_TRUE(LoadAdam(&opt_b, view).ok());
  EXPECT_EQ(opt_b.step_count(), 7);
  EXPECT_EQ(opt_b.options().lr, 5e-5f);  // lr is state, restored exactly
  for (size_t i = 0; i < m.size(); ++i) {
    ExpectBitEqual(opt_b.moment1()[i], m[i], "m." + std::to_string(i));
    ExpectBitEqual(opt_b.moment2()[i], v[i], "v." + std::to_string(i));
  }

  // beta1 is configuration: a different live value is a typed error, and
  // the live optimizer is left untouched.
  nn::AdamOptions skewed = options;
  skewed.beta1 = 0.8f;
  nn::Adam opt_c(net_c.Parameters(), skewed);
  EXPECT_EQ(LoadAdam(&opt_c, view).code(), ErrorCode::kConfigMismatch);
  EXPECT_EQ(opt_c.step_count(), 0);
}

TEST(EmaRoundTrip, ShadowRestoredDecayVerified) {
  Rng rng(12);
  nn::Mlp net_a(3, 4, 2, rng), net_b(3, 4, 2, rng);
  nn::EmaWeights ema_a(net_a.Parameters(), 0.9f);
  std::vector<Tensor> shadow;
  for (const Tensor& buf : ema_a.shadow()) {
    shadow.push_back(Tensor::Randn(buf.shape(), rng));
  }
  ema_a.RestoreShadow(shadow);

  std::string bytes =
      WriteBytes([&](CheckpointWriter* w) { AppendEma(ema_a, w); });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());

  nn::EmaWeights ema_b(net_b.Parameters(), 0.9f);
  ASSERT_TRUE(LoadEma(&ema_b, view).ok());
  for (size_t i = 0; i < shadow.size(); ++i) {
    ExpectBitEqual(ema_b.shadow()[i], shadow[i],
                   "shadow." + std::to_string(i));
  }

  nn::EmaWeights ema_c(net_b.Parameters(), 0.5f);
  EXPECT_EQ(LoadEma(&ema_c, view).code(), ErrorCode::kConfigMismatch);
}

TEST(RngRoundTrip, StreamPositionContinuesIdentically) {
  Rng source(99);
  for (int i = 0; i < 37; ++i) source.Normal();  // advance mid-stream
  std::string bytes =
      WriteBytes([&](CheckpointWriter* w) { AppendRng(source, w); });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());
  Rng restored(1);  // different seed, overwritten by the load
  ASSERT_TRUE(LoadRng(&restored, view).ok());
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(restored.Normal(), source.Normal()) << "draw " << i;
  }
}

TEST(RngRoundTrip, GarbageStateIsTypedError) {
  std::string bytes = WriteBytes([&](CheckpointWriter* w) {
    w->AddString("rng.train", "not a mersenne twister");
  });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());
  Rng rng(5), witness(5);
  EXPECT_EQ(LoadRng(&rng, view).code(), ErrorCode::kBadRecord);
  // The failed load did not disturb the stream.
  EXPECT_DOUBLE_EQ(rng.Normal(), witness.Normal());
}

// ---------------------------------------------------------------------------
// Typed-error contracts
// ---------------------------------------------------------------------------

TEST(TypedErrors, MissingTypeShapeAndCountMismatches) {
  auto a = MakeTinyModel(4, 6, 6);
  std::string bytes = WriteBytes([&](CheckpointWriter* w) {
    w->AddI64("answer", 42);
    AppendModule(*a, w);
  });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());

  Tensor tensor;
  int64_t i64 = 0;
  EXPECT_EQ(view.GetTensor("no.such.record", &tensor).code(),
            ErrorCode::kMissingRecord);
  EXPECT_EQ(view.GetTensor("answer", &tensor).code(),
            ErrorCode::kTypeMismatch);
  EXPECT_EQ(view.GetI64("model.__count", &i64).code(), ErrorCode::kOk);

  // Same architecture, different node count: parameter counts match but the
  // node-embedding (and adaptive-adjacency) shapes differ.
  auto wrong_shape = MakeTinyModel(5, 6, 7);
  EXPECT_EQ(LoadModule(*wrong_shape, view).code(), ErrorCode::kShapeMismatch);

  // A completely different module tree: parameter count differs.
  Rng rng(8);
  nn::Mlp mlp(3, 4, 2, rng);
  EXPECT_EQ(LoadModule(mlp, view).code(), ErrorCode::kCountMismatch);
}

TEST(TypedErrors, FailedModuleLoadLeavesWeightsUntouched) {
  auto a = MakeTinyModel(4, 6, 9);
  std::string bytes =
      WriteBytes([&](CheckpointWriter* w) { AppendModule(*a, w); });
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());
  auto victim = MakeTinyModel(5, 6, 10);  // shape-skewed target
  auto witness = MakeTinyModel(5, 6, 10);
  ASSERT_EQ(LoadModule(*victim, view).code(), ErrorCode::kShapeMismatch);
  ExpectModulesBitEqual(*victim, *witness);  // staged load: no partial write
}

TEST(TypedErrors, HeaderDamageIsBadMagicOrVersionSkew) {
  std::string bytes =
      WriteBytes([&](CheckpointWriter* w) { w->AddI64("x", 1); });
  CheckpointView view;

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x20;
  EXPECT_EQ(ParseBytes(bad_magic, &view).code(), ErrorCode::kBadMagic);

  std::string skewed = bytes;
  skewed[sizeof(kMagic)] = static_cast<char>(kFormatVersion + 1);
  EXPECT_EQ(ParseBytes(skewed, &view).code(), ErrorCode::kVersionSkew);

  std::string trailing = bytes + "xx";
  EXPECT_EQ(ParseBytes(trailing, &view).code(), ErrorCode::kBadRecord);
}

// Files that are not checkpoints at all come back as typed errors and leave
// the model untouched: an empty file, a few junk bytes shorter than the
// magic, and the pre-versioned stream layout (u64 parameter count, then per
// parameter a u64-length-prefixed name and a raw tensor), which no loader
// reads any more.
TEST(TypedErrors, NonCheckpointFilesRejectedNotAborted) {
  auto source = MakeTinyModel(4, 6, 12);
  std::ostringstream old_layout(std::ios::binary);
  auto named = source->NamedParameters();
  uint64_t count = named.size();
  old_layout.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (auto& [name, param] : named) {
    uint64_t len = name.size();
    old_layout.write(reinterpret_cast<const char*>(&len), sizeof(len));
    old_layout.write(name.data(), static_cast<std::streamsize>(len));
    t::WriteTensor(old_layout, param.value());
  }

  struct Case {
    std::string what;
    std::string bytes;
    ErrorCode expected;
  };
  const std::vector<Case> cases = {
      {"empty", "", ErrorCode::kTruncated},
      {"short junk", "junk!!!", ErrorCode::kTruncated},
      {"old stream layout", old_layout.str(), ErrorCode::kBadMagic},
  };
  pristi::testing::TestTempDir tmp;
  for (const auto& [what, bytes, expected] : cases) {
    SCOPED_TRACE(what);
    std::string path = tmp.File("not_a_checkpoint.bin");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto victim = MakeTinyModel(4, 6, 13);
    auto witness = MakeTinyModel(4, 6, 13);
    Status status = LoadModuleCheckpointFile(*victim, path);
    EXPECT_EQ(status.code(), expected) << status.ToString();
    ExpectModulesBitEqual(*victim, *witness);
  }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

std::string SmallCheckpointBytes() {
  Rng rng(13);
  nn::Mlp mlp(3, 4, 2, rng);
  return WriteBytes([&](CheckpointWriter* w) {
    w->AddString("meta.kind", "pristi-module");
    AppendModule(mlp, w);
  });
}

TEST(FaultInjection, TruncationAtEveryRecordBoundaryRejected) {
  std::string bytes = SmallCheckpointBytes();
  CheckpointView view;
  ASSERT_TRUE(ParseBytes(bytes, &view).ok());
  ASSERT_GE(view.records().size(), 7u);

  // Every header prefix is typed truncation.
  for (size_t cut = 0; cut < sizeof(kMagic) + sizeof(uint32_t); ++cut) {
    CheckpointView damaged;
    EXPECT_EQ(ParseBytes(bytes.substr(0, cut), &damaged).code(),
              ErrorCode::kTruncated)
        << "header cut at " << cut;
  }
  // Cuts at a record boundary (a clean prefix of records but no end record)
  // are typed truncation; cuts inside a record never parse either.
  for (const Record& record : view.records()) {
    CheckpointView damaged;
    EXPECT_EQ(
        ParseBytes(bytes.substr(0, record.offset), &damaged).code(),
        ErrorCode::kTruncated)
        << "cut before record '" << record.name << "'";
    for (uint64_t inside :
         {record.offset + 4, record.offset + record.byte_size / 2,
          record.offset + record.byte_size - 1}) {
      if (inside >= bytes.size()) continue;
      Status status = ParseBytes(bytes.substr(0, inside), &damaged);
      EXPECT_FALSE(status.ok())
          << "cut inside record '" << record.name << "' at " << inside;
    }
  }
}

TEST(FaultInjection, RandomBitFlipsAlwaysRejectedWithTypedError) {
  std::string bytes = SmallCheckpointBytes();
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    std::string damaged = bytes;
    size_t byte = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    damaged[byte] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
    CheckpointView view;
    Status status = ParseBytes(damaged, &view);
    EXPECT_FALSE(status.ok())
        << "flip in byte " << byte << " went undetected";
    EXPECT_NE(status.code(), ErrorCode::kOk);
    EXPECT_FALSE(status.ToString().empty());
  }
}

TEST(FaultInjection, KeepCorruptModeFlagsTheDamagedRecord) {
  std::string bytes = SmallCheckpointBytes();
  CheckpointView clean;
  ASSERT_TRUE(ParseBytes(bytes, &clean).ok());
  // Flip one payload byte of the second record (a real data record).
  const Record& target = clean.records()[1];
  std::string damaged = bytes;
  damaged[target.offset + target.byte_size - 6] ^= 0x01;

  CheckpointView strict;
  EXPECT_EQ(ParseBytes(damaged, &strict).code(),
            ErrorCode::kChecksumMismatch);

  // Inspect mode still enumerates everything and marks exactly the bad one.
  CheckpointView forensic;
  Status status = ParseBytes(damaged, &forensic, /*keep_corrupt=*/true);
  EXPECT_EQ(status.code(), ErrorCode::kChecksumMismatch);
  ASSERT_EQ(forensic.records().size(), clean.records().size());
  for (size_t i = 0; i < forensic.records().size(); ++i) {
    EXPECT_EQ(forensic.records()[i].crc_ok, i != 1) << "record " << i;
  }
  // Typed access refuses the damaged record even in keep-corrupt mode.
  Tensor tensor;
  int64_t i64 = 0;
  if (forensic.records()[1].tag == RecordTag::kTensor) {
    EXPECT_EQ(forensic.GetTensor(target.name, &tensor).code(),
              ErrorCode::kChecksumMismatch);
  } else {
    EXPECT_EQ(forensic.GetI64(target.name, &i64).code(),
              ErrorCode::kChecksumMismatch);
  }
}

// ---------------------------------------------------------------------------
// Atomic writes and retention
// ---------------------------------------------------------------------------

TEST(AtomicWrite, FailedWriteLeavesTargetAndDropsTemp) {
  pristi::testing::TestTempDir tmp;
  std::string path = tmp.File("state.ckpt");
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream& out) {
                out << "good";
                return Status::Ok();
              }).ok());

  Status failed = WriteFileAtomic(path, [](std::ostream& out) {
    out << "partial garbage that must never become visible";
    return Status::Error(ErrorCode::kIoError, "simulated mid-write crash");
  });
  EXPECT_EQ(failed.code(), ErrorCode::kIoError);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "good");  // the original survived untouched
}

TEST(AtomicWrite, StaleTempFromACrashIsReclaimed) {
  pristi::testing::TestTempDir tmp;
  std::string path = tmp.File("state.ckpt");
  {
    std::ofstream leftover(path + ".tmp", std::ios::binary);
    leftover << "crashed writer leftover";
  }
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream& out) {
                out << "fresh";
                return Status::Ok();
              }).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "fresh");
}

TEST(Retention, PruneKeepsHighestEpochsAndIgnoresStrangers) {
  pristi::testing::TestTempDir tmp;
  std::string dir = tmp.path().string();
  for (int64_t epoch : {1, 2, 3, 10, 4}) {
    std::ofstream(CheckpointFileName(dir, "ckpt", epoch)) << "x";
  }
  // Non-matching names must never be deleted.
  std::ofstream(tmp.File("other-5.ckpt")) << "x";
  std::ofstream(tmp.File("ckpt-notanumber.ckpt")) << "x";
  std::ofstream(tmp.File("ckpt-3.bin")) << "x";

  ASSERT_TRUE(PruneCheckpoints(dir, "ckpt", 2).ok());
  EXPECT_TRUE(fs::exists(CheckpointFileName(dir, "ckpt", 10)));
  EXPECT_TRUE(fs::exists(CheckpointFileName(dir, "ckpt", 4)));
  for (int64_t gone : {1, 2, 3}) {
    EXPECT_FALSE(fs::exists(CheckpointFileName(dir, "ckpt", gone)));
  }
  EXPECT_TRUE(fs::exists(tmp.File("other-5.ckpt")));
  EXPECT_TRUE(fs::exists(tmp.File("ckpt-notanumber.ckpt")));
  EXPECT_TRUE(fs::exists(tmp.File("ckpt-3.bin")));

  // keep_last <= 0 keeps everything.
  ASSERT_TRUE(PruneCheckpoints(dir, "ckpt", 0).ok());
  EXPECT_TRUE(fs::exists(CheckpointFileName(dir, "ckpt", 4)));
}

// ---------------------------------------------------------------------------
// Resume equivalence of the diffusion trainer
// ---------------------------------------------------------------------------

data::ImputationTask MakeTrainTask(int64_t nodes, int64_t steps,
                                   uint64_t seed) {
  Rng rng(seed);
  auto dataset = data::GenerateSynthetic(data::Aqi36LikeConfig(nodes, steps),
                                         rng);
  return data::MakeTask(std::move(dataset), data::MissingPattern::kPoint,
                        data::TaskOptions{.window_len = 8, .stride = 8},
                        rng);
}

diffusion::TrainOptions BaseTrainOptions() {
  diffusion::TrainOptions options;
  options.epochs = 4;
  options.batch_size = 2;
  options.lr = 1e-3f;
  options.ema_decay = 0.99f;
  return options;
}

// Trains 2N epochs straight through with per-epoch checkpointing, then
// treats the mid-flight checkpoint after N epochs as a crash point: a fresh
// model restored from it and trained for the remaining N epochs must match
// the uninterrupted run bit-for-bit — identical loss curve, identical final
// weights. Resume is a pure continuation, not an approximate restart.
void CheckResumeEquivalence(int64_t threads) {
  int64_t previous_threads = ParallelThreadCount();
  SetParallelThreadCount(threads);
  data::ImputationTask task = MakeTrainTask(8, 240, 31);
  diffusion::NoiseSchedule schedule =
      diffusion::NoiseSchedule::Quadratic(8, 1e-4f, 0.2f);

  pristi::testing::TestTempDir tmp;
  auto full_model = MakeTinyModel(8, 8, 5);
  Rng full_rng(77);
  diffusion::TrainOptions full = BaseTrainOptions();
  full.checkpoint_dir = tmp.File("full");
  full.checkpoint_keep_last = 0;  // keep every epoch's checkpoint
  std::vector<double> full_losses = diffusion::TrainDiffusionModel(
      full_model.get(), schedule, task, full, full_rng);
  ASSERT_TRUE(fs::exists(CheckpointFileName(full.checkpoint_dir, "ckpt", 2)));

  // Fresh model with DIFFERENT init and a DIFFERENT rng seed: everything
  // that matters must come out of the checkpoint.
  auto resumed_model = MakeTinyModel(8, 8, 99);
  Rng resumed_rng(123456);
  diffusion::TrainOptions resumed = BaseTrainOptions();
  resumed.checkpoint_dir = tmp.File("resumed");
  resumed.resume_from = CheckpointFileName(full.checkpoint_dir, "ckpt", 2);
  std::vector<double> resumed_losses = diffusion::TrainDiffusionModel(
      resumed_model.get(), schedule, task, resumed, resumed_rng);

  ASSERT_EQ(resumed_losses.size(), full_losses.size());
  for (size_t i = 0; i < full_losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_losses[i], full_losses[i]) << "epoch " << i;
  }
  ExpectModulesBitEqual(*full_model, *resumed_model);
  SetParallelThreadCount(previous_threads);
}

TEST(ResumeEquivalence, SingleThreadBitIdentical) {
  CheckResumeEquivalence(1);
}

TEST(ResumeEquivalence, MultiThreadBitIdentical) {
  CheckResumeEquivalence(4);
}

TEST(ResumeEquivalence, TrainerRetentionKeepsLastK) {
  data::ImputationTask task = MakeTrainTask(6, 160, 47);
  diffusion::NoiseSchedule schedule =
      diffusion::NoiseSchedule::Quadratic(6, 1e-4f, 0.2f);
  pristi::testing::TestTempDir tmp;
  auto model = MakeTinyModel(6, 8, 21);
  Rng rng(55);
  diffusion::TrainOptions options = BaseTrainOptions();
  options.epochs = 5;
  options.ema_decay = 0.0f;
  options.checkpoint_dir = tmp.File("ckpts");
  options.checkpoint_keep_last = 2;
  diffusion::TrainDiffusionModel(model.get(), schedule, task, options, rng);
  for (int64_t epoch = 1; epoch <= 3; ++epoch) {
    EXPECT_FALSE(
        fs::exists(CheckpointFileName(options.checkpoint_dir, "ckpt", epoch)))
        << "epoch " << epoch;
  }
  for (int64_t epoch = 4; epoch <= 5; ++epoch) {
    EXPECT_TRUE(
        fs::exists(CheckpointFileName(options.checkpoint_dir, "ckpt", epoch)))
        << "epoch " << epoch;
  }
  // The surviving checkpoints restore into a fresh model without error.
  auto probe = MakeTinyModel(6, 8, 22);
  CheckpointView view;
  ASSERT_TRUE(ParseCheckpointFile(
                  CheckpointFileName(options.checkpoint_dir, "ckpt", 5),
                  &view)
                  .ok());
  EXPECT_TRUE(LoadModule(*probe, view).ok());
}

// ---------------------------------------------------------------------------
// Seeded training-loss golden
// ---------------------------------------------------------------------------

#ifndef PRISTI_TRAIN_GOLDEN_PATH
#define PRISTI_TRAIN_GOLDEN_PATH "tests/golden/train_loss_aqi36.txt"
#endif

// The short seeded AQI-36-preset run this golden pins down. Always runs on
// the reference (materialized) attention path so the golden's bitwise
// meaning stays independent of the fused kernel's internals; the fused path
// is covered by the 1e-5 tolerance contract in attention_fused_test.
std::vector<double> GoldenTrainingRun() {
  bool fused_was = t::kernels::SetFusedAttentionEnabled(false);
  struct Restore {
    bool prev;
    ~Restore() { t::kernels::SetFusedAttentionEnabled(prev); }
  } restore{fused_was};
  data::ImputationTask task = MakeTrainTask(36, 192, 2024);
  diffusion::NoiseSchedule schedule =
      diffusion::NoiseSchedule::Quadratic(8, 1e-4f, 0.2f);
  auto model = MakeTinyModel(36, 8, 7);
  diffusion::TrainOptions options;
  options.epochs = 3;
  options.batch_size = 4;
  options.lr = 1e-3f;
  Rng rng(314159);
  return diffusion::TrainDiffusionModel(model.get(), schedule, task, options,
                                        rng);
}

TEST(TrainingGolden, SeededAqi36LossCurveMatchesGolden) {
  std::vector<double> losses = GoldenTrainingRun();
  ASSERT_EQ(losses.size(), 3u);
  for (double loss : losses) {
    ASSERT_TRUE(std::isfinite(loss));
    ASSERT_GT(loss, 0.0);
  }

  if (!pristi::GetEnvOr("PRISTI_REGEN_GOLDEN", "").empty()) {
    std::ofstream out(PRISTI_TRAIN_GOLDEN_PATH);
    ASSERT_TRUE(out.is_open())
        << "cannot write golden " << PRISTI_TRAIN_GOLDEN_PATH;
    out.precision(17);
    for (double loss : losses) out << loss << "\n";
    GTEST_SKIP() << "regenerated " << PRISTI_TRAIN_GOLDEN_PATH;
  }

  std::ifstream in(PRISTI_TRAIN_GOLDEN_PATH);
  ASSERT_TRUE(in.is_open())
      << "missing golden " << PRISTI_TRAIN_GOLDEN_PATH
      << "; regenerate with PRISTI_REGEN_GOLDEN=1";
  std::vector<double> golden;
  double value = 0;
  while (in >> value) golden.push_back(value);
  ASSERT_EQ(golden.size(), losses.size());
  constexpr double kTol = 1e-5;
  for (size_t i = 0; i < losses.size(); ++i) {
    EXPECT_NEAR(losses[i], golden[i], kTol)
        << "epoch " << i << ": got " << losses[i] << ", golden " << golden[i]
        << " (regenerate with PRISTI_REGEN_GOLDEN=1 after an intentional "
           "trainer change)";
  }
}

}  // namespace
}  // namespace pristi::serialize
