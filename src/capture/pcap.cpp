#include "capture/pcap.hpp"

#include <cstring>
#include <fstream>
#include <iterator>


namespace vpscope::capture {

namespace {

constexpr std::uint32_t kMagicUs = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNs = 0xa1b23c4d;
constexpr std::uint32_t kGlobalHeaderSize = 24;
constexpr std::uint32_t kRecordHeaderSize = 16;

/// Host-order loads with an optional byte swap — the file's byte order is
/// whatever the magic probe said, relative to this host.
struct FieldReader {
  const std::uint8_t* p;
  bool swap;

  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    if (swap) v = __builtin_bswap32(v);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v;
    std::memcpy(&v, p, 2);
    p += 2;
    if (swap) v = __builtin_bswap16(v);
    return v;
  }
};

void put_u32le(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u16le(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

}  // namespace

std::optional<PcapReader> PcapReader::open(ByteView file) {
  if (file.size() < kGlobalHeaderSize) return std::nullopt;

  // The magic probe is byte-order-relative: reading it with a plain memcpy
  // and comparing against the canonical and byte-swapped constants tells us
  // whether the file's order matches the host's, whichever either one is.
  std::uint32_t magic;
  std::memcpy(&magic, file.data(), 4);
  PcapInfo info;
  if (magic == kMagicUs) {
  } else if (magic == __builtin_bswap32(kMagicUs)) {
    info.swapped = true;
  } else if (magic == kMagicNs) {
    info.nanos = true;
  } else if (magic == __builtin_bswap32(kMagicNs)) {
    info.swapped = true;
    info.nanos = true;
  } else {
    return std::nullopt;
  }

  FieldReader hdr{file.data() + 4, info.swapped};
  const std::uint16_t version_major = hdr.u16();
  hdr.u16();  // version minor: any 2.x accepted
  hdr.u32();  // thiszone
  hdr.u32();  // sigfigs
  info.snaplen = hdr.u32();
  const std::uint32_t linktype = hdr.u32();
  if (version_major != 2) return std::nullopt;
  if (linktype != static_cast<std::uint32_t>(LinkType::Ethernet) &&
      linktype != static_cast<std::uint32_t>(LinkType::Raw))
    return std::nullopt;
  info.link_type = static_cast<LinkType>(linktype);

  PcapReader reader;
  reader.data_ = file;
  reader.off_ = kGlobalHeaderSize;
  reader.info_ = info;
  return reader;
}

std::optional<FrameView> PcapReader::next() {
  if (error_) return std::nullopt;
  if (off_ == data_.size()) return std::nullopt;  // clean EOF
  if (data_.size() - off_ < kRecordHeaderSize) {
    error_ = "record header truncated";
    return std::nullopt;
  }
  FieldReader rec{data_.data() + off_, info_.swapped};
  const std::uint32_t ts_sec = rec.u32();
  const std::uint32_t ts_frac = rec.u32();
  const std::uint32_t caplen = rec.u32();
  const std::uint32_t orig_len = rec.u32();
  off_ += kRecordHeaderSize;

  // Every length/time field is validated before the payload is touched.
  const std::uint32_t frac_limit = info_.nanos ? 1'000'000'000u : 1'000'000u;
  if (ts_frac >= frac_limit) {
    error_ = "timestamp fraction past one second";
    return std::nullopt;
  }
  if (caplen > data_.size() - off_) {
    error_ = "caplen exceeds remaining file bytes";
    return std::nullopt;
  }
  if (caplen > orig_len) {
    error_ = "caplen exceeds orig_len";
    return std::nullopt;
  }
  if (info_.snaplen > 0 && caplen > info_.snaplen) {
    error_ = "caplen exceeds declared snaplen";
    return std::nullopt;
  }

  FrameView frame;
  frame.timestamp_us =
      static_cast<std::uint64_t>(ts_sec) * 1'000'000 +
      (info_.nanos ? ts_frac / 1000 : ts_frac);
  frame.orig_len = orig_len;
  frame.bytes = data_.subspan(off_, caplen);
  off_ += caplen;
  ++frames_;
  return frame;
}

PcapWriter::PcapWriter(LinkType link_type, std::uint32_t snaplen)
    : snaplen_(snaplen) {
  put_u32le(out_, kMagicUs);
  put_u16le(out_, 2);  // version major
  put_u16le(out_, 4);  // version minor
  put_u32le(out_, 0);  // thiszone
  put_u32le(out_, 0);  // sigfigs
  put_u32le(out_, snaplen);
  put_u32le(out_, static_cast<std::uint32_t>(link_type));
}

void PcapWriter::add(std::uint64_t timestamp_us, ByteView frame,
                     std::uint32_t orig_len) {
  if (orig_len == 0) orig_len = static_cast<std::uint32_t>(frame.size());
  std::uint32_t caplen = static_cast<std::uint32_t>(frame.size());
  if (snaplen_ > 0 && caplen > snaplen_) caplen = snaplen_;
  if (caplen > orig_len) caplen = orig_len;
  put_u32le(out_, static_cast<std::uint32_t>(timestamp_us / 1'000'000));
  put_u32le(out_, static_cast<std::uint32_t>(timestamp_us % 1'000'000));
  put_u32le(out_, caplen);
  put_u32le(out_, orig_len);
  out_.insert(out_.end(), frame.begin(), frame.begin() + caplen);
  ++frames_;
}

bool write_pcap_blob_file(const std::string& path, const Bytes& blob) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(reinterpret_cast<const char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  return static_cast<bool>(f);
}

std::optional<Bytes> read_file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  Bytes out{std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
  return out;
}

}  // namespace vpscope::capture
