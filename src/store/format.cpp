#include "panorama/store/format.h"

#include <cstdio>

namespace panorama::store {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void Writer::u32(std::uint32_t v) {
  for (int k = 0; k < 4; ++k) bytes_.push_back(static_cast<char>((v >> (8 * k)) & 0xff));
}

void Writer::u64(std::uint64_t v) {
  for (int k = 0; k < 8; ++k) bytes_.push_back(static_cast<char>((v >> (8 * k)) & 0xff));
}

void Writer::str(std::string_view s) {
  u64(s.size());
  bytes_.append(s.data(), s.size());
}

void Reader::fail(std::string why) {
  if (!ok_) return;
  ok_ = false;
  error_ = std::move(why);
}

bool Reader::take(std::size_t n, const char** out) {
  if (!ok_) return false;
  if (bytes_.size() - pos_ < n) {
    fail("truncated snapshot payload");
    return false;
  }
  *out = bytes_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t Reader::u8() {
  const char* p = nullptr;
  if (!take(1, &p)) return 0;
  return static_cast<std::uint8_t>(*p);
}

std::uint32_t Reader::u32() {
  const char* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[k])) << (8 * k);
  return v;
}

std::uint64_t Reader::u64() {
  const char* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[k])) << (8 * k);
  return v;
}

std::string Reader::str() {
  std::uint64_t n = count(1, "string");
  const char* p = nullptr;
  if (!take(static_cast<std::size_t>(n), &p)) return {};
  return std::string(p, static_cast<std::size_t>(n));
}

std::uint64_t Reader::count(std::size_t elemBytes, std::string_view what) {
  std::uint64_t n = u64();
  if (!ok_) return 0;
  const std::uint64_t remaining = bytes_.size() - pos_;
  if (elemBytes != 0 && n > remaining / elemBytes) {
    fail("corrupted snapshot: implausible " + std::string(what) + " count");
    return 0;
  }
  return n;
}

namespace {

void packHeader(std::string& out, const std::string& payload) {
  Writer w;
  w.u32(kMagic);
  w.u32(kSchemaVersion);
  w.u64(payload.size());
  w.u64(fnv1a(payload));
  out = w.bytes();
}

}  // namespace

StoreResult writeSnapshotFile(const std::string& path, const std::string& payload) {
  StoreResult out;
  std::string header;
  packHeader(header, payload);

  // Temp-then-rename in the destination directory: a crash mid-write leaves
  // either the old snapshot or none, never a torn one.
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    out.error = path + ": cannot open for writing";
    return out;
  }
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
            std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  ok = (std::fflush(f) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    out.error = path + ": write failed";
    return out;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    out.error = path + ": cannot replace snapshot (rename failed)";
    return out;
  }
  out.ok = true;
  return out;
}

StoreResult readSnapshotFile(const std::string& path, std::string& payload) {
  StoreResult out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    out.error = path + ": cannot open session snapshot for reading";
    return out;
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool readOk = std::ferror(f) == 0;
  std::fclose(f);
  if (!readOk) {
    out.error = path + ": read failed";
    return out;
  }

  if (bytes.size() < kHeaderBytes) {
    out.error = path + ": truncated snapshot (shorter than the header)";
    return out;
  }
  Reader header(std::string_view(bytes).substr(0, kHeaderBytes));
  const std::uint32_t magic = header.u32();
  const std::uint32_t version = header.u32();
  const std::uint64_t payloadSize = header.u64();
  const std::uint64_t payloadHash = header.u64();
  if (magic != kMagic) {
    out.error = path + ": not a panorama session snapshot (bad magic)";
    return out;
  }
  if (version != kSchemaVersion) {
    out.error = path + ": unsupported schema version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kSchemaVersion) + ")";
    return out;
  }
  const std::uint64_t actual = bytes.size() - kHeaderBytes;
  if (actual < payloadSize) {
    out.error = path + ": truncated snapshot (header claims " + std::to_string(payloadSize) +
                " payload bytes, file has " + std::to_string(actual) + ")";
    return out;
  }
  if (actual > payloadSize) {
    out.error = path + ": corrupted snapshot (trailing bytes after the payload)";
    return out;
  }
  payload = bytes.substr(kHeaderBytes);
  if (fnv1a(payload) != payloadHash) {
    out.error = path + ": corrupted snapshot (integrity hash mismatch)";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace panorama::store
