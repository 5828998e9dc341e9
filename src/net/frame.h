#ifndef EGOCENSUS_NET_FRAME_H_
#define EGOCENSUS_NET_FRAME_H_

// Wire protocol of the census daemon (docs/SERVER.md): length-prefixed
// binary frames carrying a text header block plus an opaque body.
//
// Frame layout (integers little-endian):
//
//   byte  0      magic 0xEC
//   byte  1      frame type (FrameType)
//   bytes 2..5   u32 payload length N (at most kMaxFramePayload)
//   bytes 6..6+N payload
//
// The magic byte rejects garbage streams on the first byte instead of
// interpreting random data as a length; the length cap rejects hostile or
// corrupt prefixes before any allocation. Payloads are themselves framed as
// RFC-822-style text — `key: value` header lines, a blank line, then the
// body — so every message is printable and greppable while the outer frame
// stays binary-safe (bodies may contain anything, including blank lines).
//
// This header is transport-agnostic on purpose: encode/decode work on byte
// buffers, so unit tests exercise truncation/corruption handling without a
// socket in sight (net/socket.h does the actual I/O).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace egocensus::net {

/// Protocol revision, carried in every HELLO-free exchange via the server's
/// STATUS payload and bumped on any incompatible frame/header change.
/// 2: the QUERY header `degrade-approx: <permille>` became
/// `degrade_approx: <RATE>`, and malformed option values became errors.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// First byte of every frame.
inline constexpr std::uint8_t kFrameMagic = 0xEC;

/// Hard cap on a frame payload: anything larger is a protocol error, not an
/// allocation. Census results over the wire are CSV/JSON text; 64 MiB is
/// orders of magnitude above any legitimate response.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Bytes before the payload: magic + type + u32 length.
inline constexpr std::size_t kFrameHeaderBytes = 6;

/// Request frames (client -> server) occupy 0x01..0x7F; response frames
/// (server -> client) occupy 0x81..0xFF, so a frame's direction is visible
/// from its type byte alone.
enum class FrameType : std::uint8_t {
  // Requests.
  kQuery = 0x01,     // run a census/language query against a loaded graph
  kUpdate = 0x02,    // apply an update stream to a loaded graph
  kStatus = 0x03,    // server + registry + metrics snapshot (JSON body)
  kLoad = 0x04,      // load a graph file into the registry under a name
  kUnload = 0x05,    // drop a named graph from the registry
  kShutdown = 0x06,  // orderly daemon shutdown
  kMetrics = 0x07,   // Prometheus text exposition of the metrics registry
  // Responses.
  kResult = 0x81,  // success; body carries the rendered result
  kError = 0x82,   // request failed; headers carry the status code
  kBusy = 0x83,    // admission control rejected the request
};

/// True for the request half of the type space.
bool IsRequestType(FrameType type);

/// Human-readable frame-type name ("QUERY", "RESULT", ...).
const char* FrameTypeName(FrameType type);

/// One decoded message: a frame type plus the parsed payload. Headers are
/// case-sensitive lowercase keys; repeated keys keep the last value.
struct Message {
  FrameType type = FrameType::kError;
  std::map<std::string, std::string> headers;
  std::string body;

  /// Header accessors with defaults: a missing key — and for HeaderInt a
  /// value that is not an unsigned 64-bit integer — reads as `fallback`.
  std::string Header(const std::string& key, const std::string& fallback) const;
  std::uint64_t HeaderInt(const std::string& key, std::uint64_t fallback) const;
  bool HasHeader(const std::string& key) const {
    return headers.find(key) != headers.end();
  }
};

/// Serializes `message` into a complete frame (header + payload).
/// Header keys/values must not contain '\n' (values are not escaped; the
/// protocol keeps structured data in the body).
std::vector<std::uint8_t> EncodeFrame(const Message& message);

/// Outcome of TryDecodeFrame: a frame needs more bytes, decoded cleanly, or
/// the stream is unrecoverably corrupt (bad magic / oversized length).
enum class DecodeResult : std::uint8_t {
  kNeedMore = 0,
  kFrame,
  kCorrupt,
};

/// Attempts to decode one frame from the front of `buffer`. On kFrame the
/// decoded message is stored in `*message`, `*consumed` is the byte count
/// of the frame, and the caller erases the prefix. On kNeedMore nothing is
/// consumed. On kCorrupt `*error` names the problem (bad magic, oversized
/// or malformed payload) and the connection must be torn down — framing
/// cannot resynchronize inside a byte stream.
DecodeResult TryDecodeFrame(const std::uint8_t* data, std::size_t size,
                            Message* message, std::size_t* consumed,
                            std::string* error);

/// Splits a payload into headers + body (the inverse of EncodeFrame's
/// payload rendering). Malformed header lines (no ':') fail.
[[nodiscard]] Status ParsePayload(std::string_view payload, Message* message);

}  // namespace egocensus::net

#endif  // EGOCENSUS_NET_FRAME_H_
