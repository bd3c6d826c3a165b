// Wire protocol for the solver service: length-prefixed, checksummed frames
// over a local stream socket.
//
// Every message is one frame:
//
//   [ FrameHeader : 40 bytes ][ payload : header.payload_len bytes ]
//
// with the header laid out as six little-endian 64/32-bit fields:
//
//   magic        8B  "SPARFRM\0"
//   version      4B  kProtocolVersion
//   type         4B  MsgType
//   request_id   8B  client-chosen; echoed verbatim in the response so an
//                    open-loop client can match replies to in-flight requests
//   payload_len  8B  bytes following the header
//   checksum     8B  framing::checksum_bytes(payload, payload_len,
//                    mix64(type, request_id)) -- the SAME chunked-FNV
//                    discipline as the SPARBIN file format (framing.hpp), so
//                    the digest is independent of thread count AND binds the
//                    header's type/id fields against splicing
//
// Payload layouts (all fields little-endian, doubles as raw IEEE-754 bits):
//
//   kRegisterGraph  u32 name_len, name bytes, u32 spec_len, spec bytes.
//                   The server materializes the graph from the gen spec
//                   (graph::generate_spec) or loads the path, and installs it
//                   in the chain registry under `name`. Reply: kOk.
//   kSolve         u32 name_len, name bytes, u64 n, n doubles (the RHS b).
//                   Reply: kSolveReply with u64 n, n doubles (x), u64
//                   iterations, double relative_residual, u8 converged,
//                   u32 batch_cols (how many columns the serving batch had),
//                   u64 queue_us, u64 solve_us.
//   kStats         empty. Reply: kStatsReply with u32 json_len, json bytes.
//   kShutdown      empty. Reply: kOk, then the server drains and exits.
//   kError         u32 text_len, text bytes (any request can fail this way).
//
// Responses on one connection are serialized by the server; a client may
// pipeline many kSolve requests and read replies in request order.
// Everything here is bounds-checked decode / append-only encode over byte
// vectors; the shared socket layer (support/net.hpp) moves the bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/net.hpp"

namespace spar::server {

// The service rides the shared hardened socket substrate (support/net.hpp),
// the same layer the sharded distributed runtime uses. Aliased here so the
// server code keeps its established vocabulary.
using support::net::Listener;
using support::net::Socket;
using support::net::connect_tcp;
using support::net::connect_unix;

/// Wire version written into every header; a mismatch is rejected on read.
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Encoded FrameHeader size: magic + version + type + id + length + checksum.
inline constexpr std::size_t kFrameHeaderBytes = 40;
/// Refuse absurd frames before allocating (a corrupt length field must not
/// become a 2^60-byte allocation). 1 GiB >> any real RHS here.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

/// Frame type; the payload of each is laid out in the comment at the top.
/// Requests are below 100, replies 100 and up.
enum class MsgType : std::uint32_t {
  kRegisterGraph = 1,  ///< install a named graph (reply kOk)
  kSolve = 2,          ///< solve L(name) x = b (reply kSolveReply)
  kStats = 3,          ///< service + registry counters (reply kStatsReply)
  kShutdown = 4,       ///< drain and exit (reply kOk)
  kOk = 100,           ///< success with no payload
  kSolveReply = 101,   ///< solution plus solve and batch counters
  kStatsReply = 102,   ///< stats JSON
  kError = 103,        ///< failure text, in reply to any request
};

/// Decoded frame header (host-order fields; see the layout comment above).
struct FrameHeader {
  std::uint32_t version = kProtocolVersion;
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
};

/// One full message: header + payload bytes.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  MsgType type() const { return header.type; }
  std::uint64_t request_id() const { return header.request_id; }
};

/// Checksum a payload exactly as the wire requires (chunked FNV seeded with
/// mix64(type, request_id); see framing.hpp for the determinism argument).
std::uint64_t frame_checksum(MsgType type, std::uint64_t request_id,
                             std::span<const std::uint8_t> payload);

/// Writes one frame (header + payload) to the socket.
void send_frame(const Socket& sock, MsgType type, std::uint64_t request_id,
                std::span<const std::uint8_t> payload);

/// Reads one frame. Returns false on clean EOF at a frame boundary. Throws
/// spar::Error on malformed headers, oversized payloads, version mismatch,
/// or checksum failure.
bool recv_frame(const Socket& sock, Frame& out);

/// Append-only payload encoder (little-endian scalars, raw doubles).
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void f64_span(std::span<const double> v);
  void str(const std::string& s);  ///< u32 length + bytes
  std::span<const std::uint8_t> bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked payload decoder; throws spar::Error on truncation.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  void f64_span(std::span<double> out);
  std::string str();  ///< u32 length + bytes
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::size_t k) const;
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Convenience: send a kError frame carrying `text`.
void send_error(const Socket& sock, std::uint64_t request_id, const std::string& text);

}  // namespace spar::server
