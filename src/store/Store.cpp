#include "store/Store.h"

#include "coercions/CoercionFactory.h"
#include "types/TypeContext.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace grift;
using namespace grift::store;

namespace {

/// Entries larger than this are treated as corrupt before mapping —
/// an "oversized section" at file granularity (a legitimate image for a
/// request-sized program is a few KiB to a few MiB).
constexpr uint64_t MaxImageBytes = 1ull << 30;

/// FNV-1a over \p Size bytes, continuing from \p Hash.
uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Size) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= P[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

/// Parses a `<16-hex>.img` entry name back to its key; false otherwise.
bool parseEntryName(const char *Name, uint64_t &Key) {
  if (std::strlen(Name) != 20 || std::strcmp(Name + 16, ".img") != 0)
    return false;
  Key = 0;
  for (int I = 0; I != 16; ++I) {
    char C = Name[I];
    uint64_t Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else
      return false;
    Key = Key << 4 | Digit;
  }
  return true;
}

bool isTmpName(const char *Name) {
  size_t Len = std::strlen(Name);
  return Len > 4 && std::strcmp(Name + Len - 4, ".tmp") == 0;
}

/// Full write(2) loop; short kernel writes are retried, injected short
/// writes are not (they model a crash mid-write).
bool writeAll(int Fd, const char *Data, size_t Size) {
  while (Size != 0) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= size_t(N);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// MappedImage
//===----------------------------------------------------------------------===//

MappedImage::MappedImage(MappedImage &&Other) noexcept
    : Data(Other.Data), Size(Other.Size) {
  Other.Data = nullptr;
  Other.Size = 0;
}

MappedImage &MappedImage::operator=(MappedImage &&Other) noexcept {
  if (this != &Other) {
    this->~MappedImage();
    Data = Other.Data;
    Size = Other.Size;
    Other.Data = nullptr;
    Other.Size = 0;
  }
  return *this;
}

MappedImage::~MappedImage() {
  if (Data)
    ::munmap(Data, Size);
}

//===----------------------------------------------------------------------===//
// Store
//===----------------------------------------------------------------------===//

Store::Store(StoreConfig C) : Config(std::move(C)) {
  if (!enabled())
    return;
  // Best-effort recursive-free mkdir: the configured dir plus nothing
  // else (operators create parents; the common case is one level).
  ::mkdir(Config.Dir.c_str(), 0755);
}

uint64_t Store::key(std::string_view Source, CastMode Mode, bool Optimize) {
  uint64_t Hash = 1469598103934665603ull; // FNV offset basis
  Hash = fnv1a(Hash, Source.data(), Source.size());
  uint8_t ModeByte = static_cast<uint8_t>(Mode);
  uint8_t OptByte = Optimize ? 1 : 0;
  uint32_t Version = FormatVersion;
  Hash = fnv1a(Hash, &ModeByte, 1);
  Hash = fnv1a(Hash, &OptByte, 1);
  Hash = fnv1a(Hash, &Version, sizeof Version);
  // Key 0 is reserved as "no expectation" in validateImage.
  return Hash ? Hash : 1;
}

std::string Store::entryPath(uint64_t Key) const {
  return Config.Dir + "/" + hex16(Key) + ".img";
}

LoadStatus Store::mapEntry(const std::string &Path, MappedImage &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return errno == ENOENT ? LoadStatus::Missing : LoadStatus::IOError;
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode)) {
    ::close(Fd);
    return LoadStatus::IOError;
  }
  if (St.st_size == 0) {
    ::close(Fd);
    return LoadStatus::TruncatedHeader;
  }
  if (uint64_t(St.st_size) > MaxImageBytes) {
    ::close(Fd);
    return LoadStatus::BadSectionTable; // oversized entry
  }
  size_t Size = size_t(St.st_size);
  uint64_t BitIndex = 0;
  bool Flip = false;
  if (Config.Faults) {
    // The injector's counters are plain fields; serialize consults from
    // concurrent loaders on the same mutex the write path holds.
    std::lock_guard<std::mutex> Lock(WriteMu);
    Flip = Config.Faults->shouldFlipReadBit(BitIndex);
  }
  // A fault-armed read maps a private copy-on-write view so the injected
  // flip corrupts only what this reader sees, not the file.
  void *P = ::mmap(nullptr, Size, Flip ? PROT_READ | PROT_WRITE : PROT_READ,
                   Flip ? MAP_PRIVATE : MAP_SHARED, Fd, 0);
  ::close(Fd);
  if (P == MAP_FAILED)
    return LoadStatus::IOError;
  Out.Data = static_cast<uint8_t *>(P);
  Out.Size = Size;
  if (Flip) {
    BitIndex %= uint64_t(Size) * 8;
    Out.Data[BitIndex / 8] ^= uint8_t(1u << (BitIndex % 8));
  }
  return LoadStatus::Hit;
}

void Store::noteMiss(LoadStatus Status, std::string Reason, bool IsCorrupt) {
  Misses.fetch_add(1, std::memory_order_relaxed);
  if (IsCorrupt)
    Corrupt.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(WriteMu);
  LastStatus = Status;
  LastReason = std::move(Reason);
}

void Store::removeEntry(const std::string &Path) { ::unlink(Path.c_str()); }

bool Store::load(uint64_t Key, TypeContext &Types, CoercionFactory &Coercions,
                 VMProgram &Out, std::string_view Source,
                 std::optional<CastMode> Mode, bool Optimize) {
  if (!enabled())
    return false;
  std::string Path = entryPath(Key);
  MappedImage Img;
  LoadStatus St = mapEntry(Path, Img);
  if (St == LoadStatus::Missing || St == LoadStatus::IOError) {
    // Nothing on disk (or the environment failed us) — a plain miss,
    // nothing to delete.
    noteMiss(St, St == LoadStatus::Missing ? "" : "open/map failed", false);
    return false;
  }
  std::string Reason;
  ImageSections Secs;
  if (St == LoadStatus::Hit)
    St = validateImage(Img.data(), Img.size(), Key, Secs, Reason);
  if (St != LoadStatus::Hit) {
    // Structurally bad entry: count it, remove it, recompile over it.
    noteMiss(St, std::move(Reason), true);
    removeEntry(Path);
    return false;
  }
  VMProgram Prog;
  St = loadProgram(Secs, {Source, Mode, Optimize}, Types, Coercions, Prog,
                   Reason);
  if (St != LoadStatus::Hit) {
    // A valid image of another request is a collision, not corruption:
    // the follow-up put() overwrites it.
    bool IsCorrupt = St != LoadStatus::SourceMismatch &&
                     St != LoadStatus::ModeMismatch;
    noteMiss(St, std::move(Reason), IsCorrupt);
    if (IsCorrupt)
      removeEntry(Path);
    return false;
  }
  Out = std::move(Prog);
  Hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Store::writeAtomic(const std::string &Path, const std::string &Bytes) {
  std::string Tmp = Config.Dir + "/." +
                    std::to_string(uint64_t(::getpid())) + "." +
                    std::to_string(TmpSeq.fetch_add(1)) + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (Fd < 0)
    return false;
  size_t Size = Bytes.size();
  bool Torn = Config.Faults && Config.Faults->shouldShortWrite();
  if (Torn)
    Size /= 2; // model a crash mid-write: bytes stop, nothing cleans up
  bool Ok = writeAll(Fd, Bytes.data(), Size) && !Torn;
  if (Ok) {
    bool FsyncFailed = Config.Faults && Config.Faults->shouldFailFsync();
    if (FsyncFailed || ::fsync(Fd) != 0)
      Ok = false;
  }
  if (::close(Fd) != 0)
    Ok = false;
  if (!Ok) {
    // A torn write deliberately leaves its temp file behind, exactly as
    // a crash would — verifyAll() sweeps strays. Clean failures clean up.
    if (!Torn)
      ::unlink(Tmp.c_str());
    return false;
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  // Make the rename itself durable (best-effort; a lost rename after a
  // crash is just a cold start).
  int DirFd = ::open(Config.Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  return true;
}

bool Store::put(uint64_t Key, const VMProgram &Prog, std::string_view Source) {
  if (!enabled())
    return false;
  std::string Image = serializeProgram(Prog, Key, Source);
  if (Config.MaxBytes && Image.size() > Config.MaxBytes)
    return false; // could never survive eviction anyway
  std::lock_guard<std::mutex> Lock(WriteMu);
  std::string Path = entryPath(Key);
  if (!writeAtomic(Path, Image))
    return false;
  evictToCap(Path);
  return true;
}

void Store::evictToCap(const std::string &JustWritten) {
  // Caller holds WriteMu.
  if (!Config.MaxBytes)
    return;
  DIR *D = ::opendir(Config.Dir.c_str());
  if (!D)
    return;
  struct Entry {
    std::string Path;
    uint64_t Size;
    uint64_t MTimeNs; ///< nanosecond mtime: bursts of puts within one
                      ///< second must still sort in write order
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  while (struct dirent *E = ::readdir(D)) {
    uint64_t Key;
    if (!parseEntryName(E->d_name, Key))
      continue;
    std::string Path = Config.Dir + "/" + E->d_name;
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    uint64_t MTimeNs = uint64_t(St.st_mtim.tv_sec) * 1000000000ull +
                       uint64_t(St.st_mtim.tv_nsec);
    Entries.push_back({std::move(Path), uint64_t(St.st_size), MTimeNs});
    Total += uint64_t(St.st_size);
  }
  ::closedir(D);
  if (Total <= Config.MaxBytes)
    return;
  // Oldest first, with the path as a deterministic secondary key:
  // nanosecond mtimes can still collide (coarse filesystem clocks,
  // same-tick put bursts), and with an unstable sort and no tie-break
  // the victim among equal-mtime entries would depend on readdir order.
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) {
              if (A.MTimeNs != B.MTimeNs)
                return A.MTimeNs < B.MTimeNs;
              return A.Path < B.Path;
            });
  // Never evict the entry just written — serving it beats strict cap
  // adherence for a single program — which an mtime tie could otherwise
  // sort anywhere, so it is exempted by identity, not by position.
  for (size_t I = 0; I != Entries.size() && Total > Config.MaxBytes; ++I) {
    if (Entries[I].Path == JustWritten)
      continue;
    ::unlink(Entries[I].Path.c_str());
    Total -= Entries[I].Size;
    Evicted.fetch_add(1, std::memory_order_relaxed);
  }
}

Store::VerifyResult Store::verifyAll() {
  VerifyResult R;
  if (!enabled())
    return R;
  DIR *D = ::opendir(Config.Dir.c_str());
  if (!D)
    return R;
  std::vector<std::pair<std::string, uint64_t>> Images; // path, key
  std::vector<std::string> Tmps;
  while (struct dirent *E = ::readdir(D)) {
    uint64_t Key;
    if (parseEntryName(E->d_name, Key))
      Images.emplace_back(Config.Dir + "/" + E->d_name, Key);
    else if (isTmpName(E->d_name))
      Tmps.push_back(Config.Dir + "/" + E->d_name);
  }
  ::closedir(D);
  for (const std::string &Tmp : Tmps) {
    ::unlink(Tmp.c_str());
    ++R.TmpRemoved;
  }
  for (const auto &[Path, Key] : Images) {
    MappedImage Img;
    bool Ok = mapEntry(Path, Img) == LoadStatus::Hit;
    std::string Reason;
    ImageSections Secs;
    if (Ok)
      Ok = validateImage(Img.data(), Img.size(), Key, Secs, Reason) ==
           LoadStatus::Hit;
    if (Ok) {
      // Deep check: the payload must deserialize against a scratch
      // engine, not merely checksum. Any recorded source will do.
      TypeContext Types;
      CoercionFactory Coercions(Types);
      VMProgram Prog;
      Ok = loadProgram(Secs, {}, Types, Coercions, Prog, Reason) ==
           LoadStatus::Hit;
    }
    if (Ok) {
      ++R.Valid;
    } else {
      ::unlink(Path.c_str());
      ++R.Removed;
    }
  }
  return R;
}

LoadStatus Store::lastStatus() const {
  std::lock_guard<std::mutex> Lock(WriteMu);
  return LastStatus;
}

std::string Store::lastReason() const {
  std::lock_guard<std::mutex> Lock(WriteMu);
  return LastReason;
}

StoreStats Store::stats() const {
  StoreStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Corrupt = Corrupt.load(std::memory_order_relaxed);
  S.Evicted = Evicted.load(std::memory_order_relaxed);
  return S;
}
