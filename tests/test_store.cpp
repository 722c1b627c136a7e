//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent program store: round-trip fidelity (a loaded image
/// runs exactly like a fresh compile, across all four cast modes and
/// through μ-coercion graphs), the corruption matrix (truncation at
/// every header boundary, one flipped bit per section, version and key
/// skew — every injected fault must be a counted graceful miss, never
/// UB), crash-consistent writes under injected short-write/fsync
/// faults, size-capped eviction, the makeSub zero-new-nodes invariant
/// after a load, and the file-I/O fault injector itself.
///
//===----------------------------------------------------------------------===//
#include "store/Store.h"

#include "bench_programs/Benchmarks.h"
#include "fuzz/FuzzGen.h"
#include "grift/Grift.h"
#include "service/ExecService.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace grift;
using namespace grift::store;

namespace {

/// Fresh per-test cache directory under the build tree's /tmp.
class StoreTest : public ::testing::Test {
protected:
  std::string Dir;

  void SetUp() override {
    std::string Templ = "/tmp/griftstore-test.XXXXXX";
    std::vector<char> Buf(Templ.begin(), Templ.end());
    Buf.push_back('\0');
    ASSERT_NE(::mkdtemp(Buf.data()), nullptr);
    Dir = Buf.data();
  }

  void TearDown() override {
    if (DIR *D = ::opendir(Dir.c_str())) {
      while (dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Dir + "/" + Name).c_str());
      }
      ::closedir(D);
    }
    ::rmdir(Dir.c_str());
  }

  Store makeStore(uint64_t MaxBytes = 256ull << 20,
                  FaultInjector *Faults = nullptr) {
    StoreConfig C;
    C.Dir = Dir;
    C.MaxBytes = MaxBytes;
    C.Faults = Faults;
    return Store(std::move(C));
  }

  /// Entry files currently on disk (sorted names).
  std::vector<std::string> entries() const {
    std::vector<std::string> Names;
    if (DIR *D = ::opendir(Dir.c_str())) {
      while (dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          Names.push_back(Name);
      }
      ::closedir(D);
    }
    std::sort(Names.begin(), Names.end());
    return Names;
  }

  std::string readFile(const std::string &Path) const {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  }

  void writeFile(const std::string &Path, const std::string &Bytes) const {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  /// Compiles \p Source fresh, publishes it, and returns the fresh run's
  /// result text so callers can diff warm against cold.
  std::string compileAndPut(Store &S, const std::string &Source,
                            CastMode Mode, const std::string &Input,
                            uint64_t &KeyOut) {
    Grift G;
    std::string Errors;
    auto Exe = G.compile(Source, Mode, Errors);
    EXPECT_TRUE(Exe.has_value()) << Errors;
    if (!Exe)
      return "";
    KeyOut = Store::key(Source, Mode, /*Optimize=*/false);
    EXPECT_TRUE(S.put(KeyOut, Exe->program()));
    RunResult R = Exe->run(Input);
    EXPECT_TRUE(R.OK) << R.Error.str();
    return R.Output + "|" + R.ResultText;
  }

  /// Loads \p Key into a fresh engine and runs it; "" on miss.
  std::string loadAndRun(Store &S, uint64_t Key, const std::string &Input) {
    Grift G;
    VMProgram Prog;
    if (!S.load(Key, G.types(), G.coercions(), Prog))
      return "";
    Executable Exe = G.adopt(std::move(Prog));
    RunResult R = Exe.run(Input);
    EXPECT_TRUE(R.OK) << R.Error.str();
    return R.Output + "|" + R.ResultText;
  }
};

/// Casts a value of equirecursive stream type through Dyn and back:
/// under Coercions mode the cast table serializes genuine μ coercions
/// (the only cyclic structure in the image).
const char *MuRoundTrip = R"(
(define count-from : (Int -> (Rec s (Tuple Int (-> s))))
  (lambda ([n : Int]) (tuple n (lambda () (count-from (+ n 1))))))
(define st : (Rec s (Tuple Int (-> s))) (count-from 5))
(define d : Dyn (ann st Dyn))
(define st2 : (Rec s (Tuple Int (-> s))) (ann d (Rec s (Tuple Int (-> s)))))
(tuple-proj st2 0)
)";

} // namespace

//===----------------------------------------------------------------------===//
// Round-trip fidelity
//===----------------------------------------------------------------------===//

TEST_F(StoreTest, RoundTripBenchmarksAllModes) {
  Store S = makeStore();
  struct Row {
    const char *Bench;
    const char *Input;
  };
  const Row Rows[] = {{"sieve", "30"}, {"quicksort", "32"}, {"tak", "8 4 2"}};
  for (const Row &R : Rows) {
    const BenchProgram &B = getBenchmark(R.Bench);
    for (CastMode Mode : AllCastModes) {
      uint64_t Key = 0;
      std::string Cold = compileAndPut(S, B.Source, Mode, R.Input, Key);
      std::string Warm = loadAndRun(S, Key, R.Input);
      EXPECT_EQ(Cold, Warm) << R.Bench << " [" << castModeName(Mode) << "]";
    }
  }
  StoreStats SS = S.stats();
  EXPECT_EQ(SS.Hits, 3u * NumCastModes);
  EXPECT_EQ(SS.Corrupt, 0u);
}

/// The image key folds the mode byte, so the same source under two
/// different backends can never alias one cached image.
TEST_F(StoreTest, ImageKeyDiffersPerMode) {
  const BenchProgram &B = getBenchmark("sieve");
  std::vector<uint64_t> Keys;
  for (CastMode Mode : AllCastModes)
    Keys.push_back(Store::key(B.Source, Mode, /*Optimize=*/false));
  for (size_t I = 0; I != Keys.size(); ++I)
    for (size_t J = I + 1; J != Keys.size(); ++J)
      EXPECT_NE(Keys[I], Keys[J])
          << castModeName(AllCastModes[I]) << " vs "
          << castModeName(AllCastModes[J]);
}

TEST_F(StoreTest, RoundTripMuCoercions) {
  Store S = makeStore();
  uint64_t Key = 0;
  std::string Cold =
      compileAndPut(S, MuRoundTrip, CastMode::Coercions, "", Key);
  EXPECT_EQ(Cold, "|5");
  EXPECT_EQ(loadAndRun(S, Key, ""), Cold);
}

TEST_F(StoreTest, RoundTripFuzzedPrograms) {
  Store S = makeStore();
  RNG Gen(0x5707E5EEDULL); // deterministic suite
  unsigned Iters = fuzz::iterationCount(15);
  for (unsigned I = 0; I != Iters; ++I) {
    fuzz::GenOptions Opts;
    Opts.Structural = true;
    Opts.AllowDyn = (I % 2) == 0; // odd iterations stay Static-compatible
    Grift GenG;
    fuzz::ProgramGen PG(GenG.types(), Gen, Opts);
    std::string Source = PG.program();
    for (CastMode Mode : AllCastModes) {
      if (Opts.AllowDyn && Mode == CastMode::Static)
        continue; // Dyn-annotated programs are not Static-typeable
      Grift G;
      std::string Errors;
      auto Exe = G.compile(Source, Mode, Errors);
      ASSERT_TRUE(Exe.has_value()) << Source << "\n" << Errors;
      uint64_t Key = Store::key(Source, Mode, false);
      ASSERT_TRUE(S.put(Key, Exe->program()));
      RunLimits Limits;
      Limits.MaxSteps = 2000000; // generated programs are small; bound anyway
      RunResult Cold = Exe->run("", Limits);

      Grift G2;
      VMProgram Prog;
      ASSERT_TRUE(S.load(Key, G2.types(), G2.coercions(), Prog))
          << loadStatusName(S.lastStatus()) << ": " << S.lastReason();
      Executable Warm = G2.adopt(std::move(Prog));
      RunResult WarmRun = Warm.run("", Limits);
      ASSERT_EQ(Cold.OK, WarmRun.OK) << Source;
      if (Cold.OK) {
        EXPECT_EQ(Cold.ResultText, WarmRun.ResultText) << Source;
        EXPECT_EQ(Cold.Output, WarmRun.Output) << Source;
      } else {
        // Errors must agree exactly — kind, blame label, message.
        EXPECT_EQ(Cold.Error.str(), WarmRun.Error.str()) << Source;
      }
    }
  }
}

/// A load seeds the caller's make() memo: re-deriving any cast the
/// image carries must return the loaded node with zero allocations —
/// the same zero-new-nodes property a warm factory has for makeSub.
TEST_F(StoreTest, ZeroNewNodesAfterLoad) {
  // Both coercion-compiling backends: coercion-passing reuses the same
  // interned normal-form graph, so a warm load carries the invariant
  // over unchanged.
  for (CastMode Mode : {CastMode::Coercions, CastMode::CoercionPassing}) {
    Store S = makeStore();
    uint64_t Key = 0;
    compileAndPut(S, MuRoundTrip, Mode, "", Key);

    Grift G;
    VMProgram Prog;
    ASSERT_TRUE(S.load(Key, G.types(), G.coercions(), Prog));
    bool SawCast = false;
    for (const CastDescriptor &D : Prog.Casts) {
      if (!D.C || !D.Label)
        continue;
      SawCast = true;
      size_t Before = G.coercions().allocatedNodes();
      const Coercion *Again = G.coercions().make(D.Src, D.Tgt, *D.Label);
      EXPECT_EQ(Again, D.C);
      EXPECT_EQ(G.coercions().allocatedNodes(), Before)
          << "re-deriving a loaded cast allocated coercion nodes ["
          << castModeName(Mode) << "]";
    }
    EXPECT_TRUE(SawCast) << castModeName(Mode);
  }
}

TEST_F(StoreTest, LoadedCoercionsKeepApplyShapes) {
  // Loading re-interns every node, so each one gets its apply shape
  // again: walk the fresh and the loaded cast tables the same way and
  // compare each node's kind, shape and shape type.
  auto Shapes = [](const VMProgram &Prog) {
    std::vector<std::string> Out;
    std::vector<const Coercion *> Work, Seen;
    for (const CastDescriptor &D : Prog.Casts)
      if (D.C)
        Work.push_back(D.C);
    while (!Work.empty()) {
      const Coercion *C = Work.back();
      Work.pop_back();
      if (std::find(Seen.begin(), Seen.end(), C) != Seen.end())
        continue;
      Seen.push_back(C);
      Out.push_back(std::to_string(static_cast<int>(C->kind())) + "/" +
                    std::to_string(static_cast<int>(C->applyShape())) + "/" +
                    (C->applyType() ? C->applyType()->str() : "-"));
      switch (C->kind()) {
      case CoercionKind::Sequence:
      case CoercionKind::RefC:
        Work.insert(Work.end(), {C->first(), C->second()});
        break;
      case CoercionKind::Fun:
        for (size_t I = 0; I != C->arity(); ++I)
          Work.push_back(C->arg(I));
        Work.push_back(C->result());
        break;
      case CoercionKind::TupleC:
        for (size_t I = 0; I != C->tupleSize(); ++I)
          Work.push_back(C->element(I));
        break;
      case CoercionKind::Rec:
        Work.push_back(C->body());
        break;
      default:
        break;
      }
    }
    return Out;
  };
  const char *Atomic = R"(
(define f : (Dyn -> Dyn) (lambda ([x : Int]) (+ x 1)))
(define d : Dyn (ann 41 Dyn))
(define b : Bool (ann (ann #t Dyn) Bool))
(if b (f (ann d Int)) 0)
)";
  for (const char *Source : {Atomic, MuRoundTrip}) {
    Grift Fresh;
    std::string Errors;
    auto Exe = Fresh.compile(Source, CastMode::Coercions, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    Store S = makeStore();
    uint64_t Key = Store::key(Source, CastMode::Coercions, false);
    ASSERT_TRUE(S.put(Key, Exe->program()));

    Grift G;
    VMProgram Prog;
    ASSERT_TRUE(S.load(Key, G.types(), G.coercions(), Prog));
    std::vector<std::string> Before = Shapes(Exe->program());
    EXPECT_EQ(Shapes(Prog), Before) << Source;
    if (Source != Atomic)
      continue;
    // The atomic program's casts reach every shape.
    for (ApplyShape Shape : {ApplyShape::General, ApplyShape::Identity,
                             ApplyShape::Project}) {
      std::string Tag = "/" + std::to_string(static_cast<int>(Shape)) + "/";
      EXPECT_TRUE(std::any_of(Before.begin(), Before.end(),
                              [&](const std::string &Node) {
                                return Node.find(Tag) != std::string::npos;
                              }))
          << Tag;
    }
  }
}

//===----------------------------------------------------------------------===//
// Corruption matrix: every fault is a counted miss, never UB
//===----------------------------------------------------------------------===//

TEST_F(StoreTest, CorruptionTruncationAtEveryHeaderBoundary) {
  Store S = makeStore();
  uint64_t Key = 0;
  compileAndPut(S, MuRoundTrip, CastMode::Coercions, "", Key);
  ASSERT_EQ(entries().size(), 1u);
  std::string Path = Dir + "/" + entries()[0];
  std::string Image = readFile(Path);
  ASSERT_GT(Image.size(), sizeof(ImageHeader) + 5 * sizeof(SectionEntry));

  // Every prefix boundary that means something to the parser: empty
  // file, each header field edge, each section-table entry edge, and a
  // mid-payload cut.
  std::vector<size_t> Cuts = {0, 4, 8, 12, 16, 24, 32, 36, sizeof(ImageHeader)};
  for (unsigned E = 1; E <= 5; ++E)
    Cuts.push_back(sizeof(ImageHeader) + E * sizeof(SectionEntry));
  Cuts.push_back(Image.size() - 1);
  Cuts.push_back(Image.size() / 2);

  uint64_t ExpectCorrupt = 0;
  for (size_t Cut : Cuts) {
    writeFile(Path, Image.substr(0, Cut));
    Grift G;
    VMProgram Prog;
    EXPECT_FALSE(S.load(Key, G.types(), G.coercions(), Prog))
        << "truncation at " << Cut << " loaded successfully";
    ++ExpectCorrupt;
    EXPECT_EQ(S.stats().Corrupt, ExpectCorrupt) << "cut " << Cut;
    EXPECT_TRUE(entries().empty())
        << "corrupt entry not deleted after cut " << Cut;
    writeFile(Path, Image); // restore for the next cut
  }
}

TEST_F(StoreTest, CorruptionOneFlippedBitPerSection) {
  Store S = makeStore();
  uint64_t Key = 0;
  compileAndPut(S, MuRoundTrip, CastMode::Coercions, "", Key);
  std::string Path = Dir + "/" + entries()[0];
  std::string Image = readFile(Path);

  // Recover each section's byte range from the (trusted, freshly
  // written) table, then flip one bit inside each — plus one in the
  // header and one in the table itself.
  std::vector<size_t> Targets = {9,                        // header Version
                                 sizeof(ImageHeader) + 3}; // table entry
  ImageHeader H;
  std::memcpy(&H, Image.data(), sizeof H);
  for (uint32_t I = 0; I != H.SectionCount; ++I) {
    SectionEntry E;
    std::memcpy(&E, Image.data() + sizeof H + I * sizeof E, sizeof E);
    Targets.push_back(static_cast<size_t>(E.Offset) + E.Size / 2);
  }

  uint64_t ExpectCorrupt = 0;
  for (size_t Byte : Targets) {
    std::string Bad = Image;
    Bad[Byte] = static_cast<char>(Bad[Byte] ^ 0x10);
    writeFile(Path, Bad);
    Grift G;
    VMProgram Prog;
    EXPECT_FALSE(S.load(Key, G.types(), G.coercions(), Prog))
        << "bit flip at byte " << Byte << " loaded successfully";
    ++ExpectCorrupt;
    EXPECT_EQ(S.stats().Corrupt, ExpectCorrupt) << "byte " << Byte;
    writeFile(Path, Image);
  }

  // The restored pristine image still loads.
  Grift G;
  VMProgram Prog;
  EXPECT_TRUE(S.load(Key, G.types(), G.coercions(), Prog));
}

TEST_F(StoreTest, CorruptionVersionSkewAndKeyMismatch) {
  Store S = makeStore();
  uint64_t Key = 0;
  compileAndPut(S, "(+ 1 2)", CastMode::Coercions, "", Key);
  std::string Path = Dir + "/" + entries()[0];
  std::string Image = readFile(Path);

  // Version skew with a *valid* header CRC — the one way a future
  // serializer's image reaches the version check at all.
  {
    std::string Skewed = Image;
    ImageHeader H;
    std::memcpy(&H, Skewed.data(), sizeof H);
    H.Version = FormatVersion + 7;
    H.HeaderCRC = headerCRC(H);
    std::memcpy(Skewed.data(), &H, sizeof H);
    writeFile(Path, Skewed);
    Grift G;
    VMProgram Prog;
    EXPECT_FALSE(S.load(Key, G.types(), G.coercions(), Prog));
    EXPECT_EQ(S.lastStatus(), LoadStatus::VersionSkew);
    writeFile(Path, Image);
  }

  // A valid image parked under the wrong key (admin copied a file):
  // the header's embedded key must catch it.
  {
    uint64_t OtherKey = Store::key("(+ 2 2)", CastMode::Coercions, false);
    char Name[32];
    std::snprintf(Name, sizeof Name, "%016llx.img",
                  static_cast<unsigned long long>(OtherKey));
    writeFile(Dir + "/" + Name, Image);
    Grift G;
    VMProgram Prog;
    EXPECT_FALSE(S.load(OtherKey, G.types(), G.coercions(), Prog));
    EXPECT_EQ(S.lastStatus(), LoadStatus::KeyMismatch);
  }
}

TEST_F(StoreTest, KeyCollisionIsACountedMissNotAnotherProgram) {
  // The key is a 64-bit FNV-1a, so two sources can share one. Forge that
  // collision: re-key source A's image (header key and CRC) and publish
  // it under B's key, exactly what a colliding put of A would leave.
  Store S = makeStore();
  const std::string A = "(* 6 7)", B = "(+ 1 2)";
  uint64_t KeyA = Store::key(A, CastMode::Coercions, false);
  uint64_t KeyB = Store::key(B, CastMode::Coercions, false);
  {
    Grift G;
    std::string Errors;
    auto Exe = G.compile(A, CastMode::Coercions, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    ASSERT_TRUE(S.put(KeyA, Exe->program(), A));
  }
  std::string Image = readFile(Dir + "/" + entries()[0]);
  ImageHeader H;
  std::memcpy(&H, Image.data(), sizeof H);
  H.KeyHash = KeyB;
  H.HeaderCRC = headerCRC(H);
  std::memcpy(Image.data(), &H, sizeof H);
  char Name[32];
  std::snprintf(Name, sizeof Name, "%016llx.img",
                static_cast<unsigned long long>(KeyB));
  writeFile(Dir + "/" + Name, Image);

  Grift G;
  VMProgram Prog;
  EXPECT_FALSE(S.load(KeyB, G.types(), G.coercions(), Prog, B));
  EXPECT_EQ(S.lastStatus(), LoadStatus::SourceMismatch);
  StoreStats St = S.stats();
  EXPECT_EQ(St.Hits, 0u);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Corrupt, 0u);

  // A still warm-starts from its own entry, and B's compile replaces the
  // planted image.
  {
    Grift GA;
    VMProgram ProgA;
    ASSERT_TRUE(S.load(KeyA, GA.types(), GA.coercions(), ProgA, A));
    EXPECT_EQ(GA.adopt(std::move(ProgA)).run().ResultText, "42");
  }
  {
    Grift GB;
    std::string Errors;
    auto Exe = GB.compile(B, CastMode::Coercions, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    ASSERT_TRUE(S.put(KeyB, Exe->program(), B));
  }
  Grift GB;
  VMProgram ProgB;
  ASSERT_TRUE(S.load(KeyB, GB.types(), GB.coercions(), ProgB, B));
  EXPECT_EQ(GB.adopt(std::move(ProgB)).run().ResultText, "3");
}

TEST_F(StoreTest, ModeOrOptimizeMismatchIsACountedMissBeforeInterning) {
  // Hand-built images whose header key is the one looked up but whose
  // Meta records another mode, or another optimize flag: what a key
  // collision between two requests for the same source would leave.
  Store S = makeStore();
  const std::string Source = "(ann (ann 1 Dyn) Int)";
  Grift Compiler;
  std::string Errors;
  auto Exe = Compiler.compile(Source, CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  struct Request {
    CastMode Mode;
    bool Optimize;
  };
  for (Request R : {Request{CastMode::TypeBased, false},
                    Request{CastMode::Coercions, true}}) {
    uint64_t Key = Store::key(Source, R.Mode, R.Optimize);
    char Name[32];
    std::snprintf(Name, sizeof Name, "%016llx.img",
                  static_cast<unsigned long long>(Key));
    writeFile(Dir + "/" + Name, serializeProgram(Exe->program(), Key, Source));

    Grift G;
    size_t FreshNodes = G.coercions().allocatedNodes();
    VMProgram Prog;
    EXPECT_FALSE(S.load(Key, G.types(), G.coercions(), Prog, Source, R.Mode,
                        R.Optimize));
    EXPECT_EQ(S.lastStatus(), LoadStatus::ModeMismatch) << S.lastReason();
    EXPECT_EQ(G.coercions().allocatedNodes(), FreshNodes);
    // A collision is not corruption: the entry stays for put() to replace.
    EXPECT_EQ(::access((Dir + "/" + Name).c_str(), F_OK), 0);
  }
  StoreStats St = S.stats();
  EXPECT_EQ(St.Hits, 0u);
  EXPECT_EQ(St.Misses, 2u);
  EXPECT_EQ(St.Corrupt, 0u);

  // The request the image was built for still hits.
  uint64_t Key = Store::key(Source, CastMode::Coercions, false);
  ASSERT_TRUE(S.put(Key, Exe->program(), Source));
  Grift G;
  VMProgram Prog;
  ASSERT_TRUE(S.load(Key, G.types(), G.coercions(), Prog, Source,
                     CastMode::Coercions, false));
  EXPECT_EQ(Prog.Mode, CastMode::Coercions);
  EXPECT_FALSE(Prog.Optimized);
}

TEST_F(StoreTest, VerifyAllSweepsCorruptEntriesAndTempFiles) {
  Store S = makeStore();
  uint64_t K1 = 0, K2 = 0;
  compileAndPut(S, "(+ 1 2)", CastMode::Coercions, "", K1);
  compileAndPut(S, "(* 3 4)", CastMode::Coercions, "", K2);
  ASSERT_EQ(entries().size(), 2u);

  // Corrupt one entry's payload and plant a stray temp file, as a crash
  // mid-write would leave.
  std::string Victim = Dir + "/" + entries()[0];
  std::string Bytes = readFile(Victim);
  Bytes[Bytes.size() - 3] ^= 0x40;
  writeFile(Victim, Bytes);
  writeFile(Dir + "/.1234.0.tmp", "half-written garbage");

  Store::VerifyResult V = S.verifyAll();
  EXPECT_EQ(V.Valid, 1u);
  EXPECT_EQ(V.Removed, 1u);
  EXPECT_EQ(V.TmpRemoved, 1u);
  EXPECT_EQ(entries().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Injected write faults: the store stays consistent
//===----------------------------------------------------------------------===//

TEST_F(StoreTest, ShortWriteLeavesNoVisibleEntry) {
  FaultInjector FI;
  FI.ShortWriteAt = 1;
  Store S = makeStore(256ull << 20, &FI);
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(+ 1 2)", CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value());
  uint64_t Key = Store::key("(+ 1 2)", CastMode::Coercions, false);

  EXPECT_FALSE(S.put(Key, Exe->program()));
  EXPECT_EQ(FI.ShortWritesInjected, 1u);
  // The torn temp file may remain (that is what a crash leaves) but no
  // visible entry may exist, and a lookup is a plain miss.
  for (const std::string &E : entries())
    EXPECT_EQ(E.find(".img"), std::string::npos) << E;
  Grift G2;
  VMProgram Prog;
  EXPECT_FALSE(S.load(Key, G2.types(), G2.coercions(), Prog));
  EXPECT_EQ(S.lastStatus(), LoadStatus::Missing);
  EXPECT_EQ(S.stats().Corrupt, 0u);

  // The sweep clears the debris; the next (unfaulted) put succeeds.
  Store::VerifyResult V = S.verifyAll();
  EXPECT_EQ(V.TmpRemoved, 1u);
  EXPECT_TRUE(S.put(Key, Exe->program()));
  EXPECT_TRUE(S.load(Key, G2.types(), G2.coercions(), Prog));
}

TEST_F(StoreTest, FsyncFailureIsCleanNonPublish) {
  FaultInjector FI;
  FI.FailFsyncAt = 1;
  Store S = makeStore(256ull << 20, &FI);
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(+ 1 2)", CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value());
  uint64_t Key = Store::key("(+ 1 2)", CastMode::Coercions, false);

  EXPECT_FALSE(S.put(Key, Exe->program()));
  EXPECT_EQ(FI.FsyncFailuresInjected, 1u);
  EXPECT_TRUE(entries().empty()); // clean failure: temp unlinked
  EXPECT_TRUE(S.put(Key, Exe->program()));
}

TEST_F(StoreTest, ReadBitFlipIsCountedCorruptMissDiskIntact) {
  FaultInjector FI;
  Store S = makeStore(256ull << 20, &FI);
  uint64_t Key = 0;
  compileAndPut(S, MuRoundTrip, CastMode::Coercions, "", Key);
  std::string Path = Dir + "/" + entries()[0];
  std::string OnDisk = readFile(Path);

  FI.FlipReadBitAt = FI.FileReadCount + 1;
  FI.FlipReadBitIndex = 8 * (sizeof(ImageHeader) + 12) + 3; // section table
  Grift G;
  VMProgram Prog;
  EXPECT_FALSE(S.load(Key, G.types(), G.coercions(), Prog));
  EXPECT_EQ(FI.ReadBitsFlipped, 1u);
  EXPECT_EQ(S.stats().Corrupt, 1u);
  // The store deletes the entry (it cannot distinguish a decayed sector
  // from persistent damage); a clean re-put fully recovers.
  EXPECT_TRUE(entries().empty());
  uint64_t Key2 = 0;
  EXPECT_EQ(compileAndPut(S, MuRoundTrip, CastMode::Coercions, "", Key2),
            "|5");
  EXPECT_EQ(Key2, Key);
  EXPECT_EQ(loadAndRun(S, Key, ""), "|5");
  (void)OnDisk;
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

TEST_F(StoreTest, EvictionKeepsNewestUnderCap) {
  // Cap small enough that a handful of entries overflow it.
  Store Probe = makeStore();
  uint64_t ProbeKey = 0;
  compileAndPut(Probe, "(+ 1 1)", CastMode::Coercions, "", ProbeKey);
  uint64_t OneEntry = readFile(Dir + "/" + entries()[0]).size();
  TearDown();
  SetUp();

  Store S = makeStore(/*MaxBytes=*/OneEntry * 2 + OneEntry / 2);
  std::vector<uint64_t> Keys;
  for (int I = 0; I != 6; ++I) {
    std::string Source = "(+ " + std::to_string(I) + " 1)";
    uint64_t Key = 0;
    compileAndPut(S, Source, CastMode::Coercions, "", Key);
    Keys.push_back(Key);
  }
  StoreStats SS = S.stats();
  EXPECT_GE(SS.Evicted, 1u);
  EXPECT_LE(entries().size(), 3u);

  // The most recent entry always survives.
  Grift G;
  VMProgram Prog;
  EXPECT_TRUE(S.load(Keys.back(), G.types(), G.coercions(), Prog))
      << loadStatusName(S.lastStatus());
}

TEST_F(StoreTest, EvictionSparesJustWrittenUnderMTimeTies) {
  // Two published entries pinned to one identical future mtime: the
  // nanosecond-mtime sort is a tie, and whatever is written next is the
  // mtime-*oldest* file in the directory. The entry just written must
  // survive anyway (it is exempted by identity, not by sort position),
  // and the tie between the other two must resolve by the deterministic
  // secondary key (path), not by readdir order.
  uint64_t K1 = 0, K2 = 0;
  {
    Store Big = makeStore();
    compileAndPut(Big, getBenchmark("sieve").Source, CastMode::Coercions,
                  "30", K1);
    compileAndPut(Big, getBenchmark("quicksort").Source, CastMode::Coercions,
                  "32", K2);
  }
  std::vector<std::string> Pinned = entries();
  ASSERT_EQ(Pinned.size(), 2u);
  struct timespec Future[2];
  Future[0].tv_sec = ::time(nullptr) + 1000;
  Future[0].tv_nsec = 123456789;
  Future[1] = Future[0];
  uint64_t PinnedBytes = 0;
  for (const std::string &Name : Pinned) {
    std::string Path = Dir + "/" + Name;
    ASSERT_EQ(::utimensat(AT_FDCWD, Path.c_str(), Future, 0), 0);
    struct stat St;
    ASSERT_EQ(::stat(Path.c_str(), &St), 0);
    PinnedBytes += static_cast<uint64_t>(St.st_size);
  }

  // Cap at exactly the two pinned entries: the next (tiny) put must
  // evict exactly one of them to get back under the cap.
  Store S = makeStore(/*MaxBytes=*/PinnedBytes);
  uint64_t K3 = 0;
  compileAndPut(S, "(+ 40 2)", CastMode::Coercions, "", K3);
  EXPECT_EQ(S.stats().Evicted, 1u);

  // The just-written entry is loadable despite being mtime-oldest.
  Grift G;
  VMProgram Prog;
  EXPECT_TRUE(S.load(K3, G.types(), G.coercions(), Prog))
      << loadStatusName(S.lastStatus());

  // Of the tied pair, the lexicographically-first path was the victim.
  std::vector<std::string> After = entries();
  EXPECT_EQ(std::count(After.begin(), After.end(), Pinned[0]), 0)
      << "tie must evict the lexicographically-first path";
  EXPECT_EQ(std::count(After.begin(), After.end(), Pinned[1]), 1)
      << "tie must keep the lexicographically-second path";
}

//===----------------------------------------------------------------------===//
// Service integration: store position in the lookup chain
//===----------------------------------------------------------------------===//

TEST_F(StoreTest, ExecServiceWarmStartsAcrossRestart) {
  service::ServiceConfig Config;
  Config.Threads = 2;
  Config.CacheDir = Dir;

  const char *Source = "(ann (ann 41 Dyn) Int)";
  {
    service::ExecService Service(Config);
    service::JobSpec Spec;
    Spec.Source = Source;
    service::JobResult R = Service.submit(Spec).get();
    ASSERT_EQ(R.Status, service::JobStatus::Done);
    service::ServiceStats SS = Service.stats();
    EXPECT_EQ(SS.StoreHits, 0u);
    EXPECT_GE(SS.StoreMisses, 1u);
  }
  {
    // A "restarted" service over the same cache dir: the first compile
    // of the same job is served from the image, not the frontend.
    service::ExecService Service(Config);
    service::JobSpec Spec;
    Spec.Source = Source;
    service::JobResult R = Service.submit(Spec).get();
    ASSERT_EQ(R.Status, service::JobStatus::Done);
    EXPECT_EQ(R.ResultText, "41");
    service::ServiceStats SS = Service.stats();
    EXPECT_GE(SS.StoreHits, 1u);
    EXPECT_EQ(SS.StoreCorrupt, 0u);
  }
}

//===----------------------------------------------------------------------===//
// The injector itself
//===----------------------------------------------------------------------===//

TEST(FileFaults, OneShotOneBasedCountersAdvanceDisarmed) {
  FaultInjector FI;

  // Disarmed: counters advance, nothing fires.
  EXPECT_FALSE(FI.shouldShortWrite());
  EXPECT_FALSE(FI.shouldFailFsync());
  uint64_t Bit = 0;
  EXPECT_FALSE(FI.shouldFlipReadBit(Bit));
  EXPECT_EQ(FI.FileWriteCount, 1u);
  EXPECT_EQ(FI.FsyncCount, 1u);
  EXPECT_EQ(FI.FileReadCount, 1u);

  // 1-based scheduling counts from the disarmed operations already
  // observed: arming "at 3" fires on the third operation overall.
  FI.ShortWriteAt = 3;
  EXPECT_FALSE(FI.shouldShortWrite()); // #2
  EXPECT_TRUE(FI.shouldShortWrite());  // #3 fires
  EXPECT_FALSE(FI.shouldShortWrite()); // #4: one-shot
  EXPECT_EQ(FI.ShortWritesInjected, 1u);

  FI.FailFsyncAt = 2;
  EXPECT_TRUE(FI.shouldFailFsync()); // #2 fires
  EXPECT_FALSE(FI.shouldFailFsync());
  EXPECT_EQ(FI.FsyncFailuresInjected, 1u);

  FI.FlipReadBitAt = 2;
  FI.FlipReadBitIndex = 17;
  EXPECT_TRUE(FI.shouldFlipReadBit(Bit)); // #2 fires
  EXPECT_EQ(Bit, 17u);
  EXPECT_FALSE(FI.shouldFlipReadBit(Bit));
  EXPECT_EQ(FI.ReadBitsFlipped, 1u);
}

//===----------------------------------------------------------------------===//
// validateImage directly (no filesystem)
//===----------------------------------------------------------------------===//

/// The bit-at-a-time CRC-32 the sliced one must agree with.
static uint32_t bytewiseCRC32(const uint8_t *P, size_t Size) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I != Size; ++I) {
    C ^= P[I];
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return ~C;
}

TEST(StoreCRC, CheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(StoreCRC, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  RNG Gen(0xC0FFEE);
  std::vector<uint8_t> Bytes(70 * 1024 + 7);
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(Gen.next());
  for (size_t Offset = 0; Offset != 8; ++Offset)
    for (size_t Length = 0; Length != 65; ++Length)
      ASSERT_EQ(crc32(Bytes.data() + Offset, Length),
                bytewiseCRC32(Bytes.data() + Offset, Length))
          << "offset " << Offset << " length " << Length;
  EXPECT_EQ(crc32(Bytes.data(), Bytes.size()),
            bytewiseCRC32(Bytes.data(), Bytes.size()));
  // A seeded call continues a CRC: both halves equal the whole.
  EXPECT_EQ(crc32(Bytes.data() + 1000, Bytes.size() - 1000,
                  crc32(Bytes.data(), 1000)),
            crc32(Bytes.data(), Bytes.size()));
}

TEST(ValidateImage, AcceptsFreshRejectsTrailingGarbage) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(+ 1 2)", CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value());
  std::string Image = serializeProgram(Exe->program(), /*KeyHash=*/99);

  ImageSections Sections;
  std::string Reason;
  EXPECT_EQ(validateImage(reinterpret_cast<const uint8_t *>(Image.data()),
                          Image.size(), 99, Sections, Reason),
            LoadStatus::Hit)
      << Reason;

  // Key checked when requested, ignored when the caller passes 0.
  EXPECT_EQ(validateImage(reinterpret_cast<const uint8_t *>(Image.data()),
                          Image.size(), 100, Sections, Reason),
            LoadStatus::KeyMismatch);
  EXPECT_EQ(validateImage(reinterpret_cast<const uint8_t *>(Image.data()),
                          Image.size(), 0, Sections, Reason),
            LoadStatus::Hit);

  std::string Padded = Image + "x";
  EXPECT_EQ(validateImage(reinterpret_cast<const uint8_t *>(Padded.data()),
                          Padded.size(), 99, Sections, Reason),
            LoadStatus::TruncatedFile);

  EXPECT_EQ(validateImage(nullptr, 0, 0, Sections, Reason),
            LoadStatus::TruncatedHeader);
}

//===----------------------------------------------------------------------===//
// Bytecode validation of the specialized opcodes
//===----------------------------------------------------------------------===//

namespace {

/// Serializes \p Prog, validates the image and loads it into a fresh
/// engine: the loader's verdict, with its reason in \p Error.
bool reload(const VMProgram &Prog, std::string &Error) {
  std::string Image = serializeProgram(Prog, /*KeyHash=*/99);
  ImageSections Sections;
  if (validateImage(reinterpret_cast<const uint8_t *>(Image.data()),
                    Image.size(), 99, Sections, Error) != LoadStatus::Hit)
    return false;
  Grift G;
  VMProgram Out;
  return loadProgram(Sections, {}, G.types(), G.coercions(), Out, Error) ==
         LoadStatus::Hit;
}

/// The first instruction with opcode \p Code.
Instr *findOp(VMProgram &Prog, Op Code) {
  for (VMFunction &Fn : Prog.Functions)
    for (Instr &I : Fn.Code)
      if (I.Code == Code)
        return &I;
  return nullptr;
}

} // namespace

TEST(ValidateCode, CompareJumpTargetsAreRangeChecked) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(letrec ([f : (Int -> Int) (lambda ([n : Int]) : Int"
                       " (if (< n 10) (f (+ n 1)) n))]) (f 0))",
                       CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  std::string Error;
  ASSERT_TRUE(reload(Exe->program(), Error)) << Error;
  for (int32_t Target : {-1, 1 << 20}) {
    VMProgram Crafted = Exe->program();
    Instr *I = findOp(Crafted, Op::LtIntJumpIfFalse);
    ASSERT_NE(I, nullptr) << Exe->program().str();
    I->A = Target;
    EXPECT_FALSE(reload(Crafted, Error)) << Target;
    EXPECT_NE(Error.find("fused compare/jump target"), std::string::npos)
        << Error;
  }
}
