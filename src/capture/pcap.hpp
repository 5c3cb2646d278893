// Classic libpcap file format engine (DESIGN.md §5i): a streaming,
// strictly bounds-checked reader and a snaplen-aware writer covering both
// endiannesses, microsecond and nanosecond magic, and the two linktypes the
// appliance ingests — Ethernet (what a real tap records) and raw IP (what
// the synthesizer emits).
//
// Parsing follows the fuzz-hardened style of the TLS/QUIC readers: every
// length field is validated against the enclosing structure before any
// bytes are touched, frame payloads are borrowed views into the caller's
// buffer (zero per-record allocation, no allocation bombs), and malformed
// input is a clean error — never a throw, never an out-of-bounds read.
//
// This is the one pcap API in the tree: whole-file reads go through
// ReplayDriver (replay.hpp) or a PcapReader walk with ip_datagram_of, and
// writes through PcapWriter or export_pcap (export.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace vpscope::capture {

/// The linktypes the decode shim understands (frame.hpp).
enum class LinkType : std::uint32_t {
  Ethernet = 1,   // LINKTYPE_ETHERNET: frames start at the L2 header
  Raw = 101,      // LINKTYPE_RAW: records are bare IPv4/IPv6 datagrams
};

/// Global-header facts the reader validated.
struct PcapInfo {
  bool swapped = false;  // file byte order != host byte order
  bool nanos = false;    // 0xa1b23c4d magic: fractions are nanoseconds
  std::uint32_t snaplen = 0;
  LinkType link_type = LinkType::Raw;
};

/// One captured frame, borrowed from the file buffer. `bytes` holds the
/// captured (possibly snaplen-truncated) prefix; `orig_len` the length on
/// the wire.
struct FrameView {
  std::uint64_t timestamp_us = 0;
  std::uint32_t orig_len = 0;
  ByteView bytes;
};

/// Streaming reader over an in-memory pcap image. The buffer must outlive
/// the reader and every FrameView it hands out.
class PcapReader {
 public:
  /// Validates the 24-byte global header. Rejects unknown magic, versions
  /// other than 2.x, and linktypes the shim cannot decode.
  static std::optional<PcapReader> open(ByteView file);

  const PcapInfo& info() const { return info_; }

  /// Next frame, or nullopt at end of input. A clean EOF and a malformed
  /// record both end iteration — check error() to distinguish. Rejected:
  /// record headers truncated mid-field, caplen exceeding the remaining
  /// bytes / the declared snaplen / orig_len, and timestamp fractions past
  /// one second (corrupt length or time fields, the classic parser traps).
  std::optional<FrameView> next();

  bool error() const { return error_ != nullptr; }
  /// Static description of the record that stopped iteration; nullptr when
  /// the stream is clean so far.
  const char* error_message() const { return error_; }

  std::size_t frames_read() const { return frames_; }

 private:
  ByteView data_;
  std::size_t off_ = 0;
  std::size_t frames_ = 0;
  PcapInfo info_;
  const char* error_ = nullptr;
};

/// Append-only pcap writer producing an in-memory blob. Always emits the
/// canonical little-endian microsecond format (magic 0xa1b2c3d4, version
/// 2.4) regardless of host byte order, so written files are byte-stable
/// across machines — the property the golden corpus pins.
class PcapWriter {
 public:
  static constexpr std::uint32_t kDefaultSnaplen = 65535;

  explicit PcapWriter(LinkType link_type, std::uint32_t snaplen = kDefaultSnaplen);

  /// Appends one frame, truncating the stored bytes to the snaplen while
  /// recording the full `orig_len` (pass 0 to use frame.size()).
  void add(std::uint64_t timestamp_us, ByteView frame,
           std::uint32_t orig_len = 0);

  std::size_t frames() const { return frames_; }
  const Bytes& data() const& { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  Bytes out_;
  std::uint32_t snaplen_;
  std::size_t frames_ = 0;
};

/// Whole-file helpers (atomicity not required for capture artifacts).
bool write_pcap_blob_file(const std::string& path, const Bytes& blob);
std::optional<Bytes> read_file_bytes(const std::string& path);

}  // namespace vpscope::capture
