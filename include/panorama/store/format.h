// The on-disk session-snapshot container (DESIGN.md §4.8): a fixed header
// carrying an explicit schema version and an integrity hash over the
// payload, plus little-endian primitive codecs shared by the writer and the
// bounds-checked reader.
//
//   header  := magic:u32 schema_version:u32 payload_size:u64 payload_hash:u64
//   payload := the section stream session_io.cpp defines
//
// Crash consistency is the *writer's* job (write to a temp file, fsync,
// rename); the reader's job is to reject anything that is not a complete,
// intact snapshot of a supported version with a structured diagnostic —
// truncation, bit rot, and version skew must never half-load a session.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace panorama::store {

inline constexpr std::uint32_t kMagic = 0x4f4e4150u;  // "PANO", little-endian
/// The one schema this build reads and writes. v7 stores what a session
/// holds between submits and no AST: per unit (in bottom-up order) its
/// fingerprints, item records (the loop-granular reuse keys of DESIGN.md
/// §4.9: subtree hash, preceding item's hash, walk range, callee epochs),
/// headerless cached reports and memoized summaries (the summary and the
/// loop summaries by DO walk index, nothing else), plus six option bytes
/// (the ablation switches). It is v6 without the item records' suffix
/// hash, which reuse no longer keys on. Any other version, v1 to v6
/// included, is rejected as version skew.
inline constexpr std::uint32_t kSchemaVersion = 7;
inline constexpr std::size_t kHeaderBytes = 24;

/// FNV-1a over a byte range — the payload integrity hash (and the session's
/// whole-file fingerprint; one hash function, stated once).
std::uint64_t fnv1a(std::string_view bytes);

/// Outcome of a store operation; `error` is a structured one-line diagnostic
/// ("<path>: <what>") when !ok.
struct StoreResult {
  bool ok = false;
  std::string error;
};

/// Appends little-endian primitives to a byte buffer.
class Writer {
 public:
  std::string& bytes() { return bytes_; }
  const std::string& bytes() const { return bytes_; }

  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s);

 private:
  std::string bytes_;
};

/// Bounds-checked little-endian reader: every accessor fails (sticky `ok()
/// == false`) instead of reading past the end, so a truncated or corrupted
/// payload degrades to one structured diagnostic, never UB.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool atEnd() const { return pos_ == bytes_.size(); }
  /// First failure wins; later calls keep the original message.
  void fail(std::string why);
  const std::string& error() const { return error_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  /// Length prefix for a sequence of elements each at least `elemBytes`
  /// long: rejects counts that could not possibly fit in the remaining
  /// payload, so hostile counts cannot drive huge allocations.
  std::uint64_t count(std::size_t elemBytes, std::string_view what);

 private:
  bool take(std::size_t n, const char** out);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

/// Frames `payload` with the header (stamped kSchemaVersion) and writes it
/// crash-consistently: temp file in the target directory, then rename over
/// `path`.
StoreResult writeSnapshotFile(const std::string& path, const std::string& payload);

/// Reads `path`, verifies magic, that the version is kSchemaVersion, size,
/// and hash, and returns the payload in `payload`. Any defect yields a
/// structured diagnostic.
StoreResult readSnapshotFile(const std::string& path, std::string& payload);

}  // namespace panorama::store
