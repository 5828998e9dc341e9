#include "net/frame.h"

#include <cstring>

#include "util/strings.h"

namespace egocensus::net {

bool IsRequestType(FrameType type) {
  return (static_cast<std::uint8_t>(type) & 0x80) == 0;
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kQuery:
      return "QUERY";
    case FrameType::kUpdate:
      return "UPDATE";
    case FrameType::kStatus:
      return "STATUS";
    case FrameType::kLoad:
      return "LOAD";
    case FrameType::kUnload:
      return "UNLOAD";
    case FrameType::kShutdown:
      return "SHUTDOWN";
    case FrameType::kMetrics:
      return "METRICS";
    case FrameType::kResult:
      return "RESULT";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kBusy:
      return "BUSY";
  }
  return "UNKNOWN";
}

namespace {

bool IsKnownType(std::uint8_t byte) {
  switch (static_cast<FrameType>(byte)) {
    case FrameType::kQuery:
    case FrameType::kUpdate:
    case FrameType::kStatus:
    case FrameType::kLoad:
    case FrameType::kUnload:
    case FrameType::kShutdown:
    case FrameType::kMetrics:
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kBusy:
      return true;
  }
  return false;
}

}  // namespace

std::string Message::Header(const std::string& key,
                            const std::string& fallback) const {
  auto it = headers.find(key);
  return it == headers.end() ? fallback : it->second;
}

std::uint64_t Message::HeaderInt(const std::string& key,
                                 std::uint64_t fallback) const {
  auto it = headers.find(key);
  if (it == headers.end()) return fallback;
  auto value = ParseUint(it->second, ~0ull);
  return value.ok() ? *value : fallback;
}

std::vector<std::uint8_t> EncodeFrame(const Message& message) {
  std::string payload;
  for (const auto& [key, value] : message.headers) {
    payload += key;
    payload += ": ";
    payload += value;
    payload += '\n';
  }
  payload += '\n';
  payload += message.body;

  std::vector<std::uint8_t> frame(kFrameHeaderBytes + payload.size());
  frame[0] = kFrameMagic;
  frame[1] = static_cast<std::uint8_t>(message.type);
  std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  frame[2] = static_cast<std::uint8_t>(length & 0xFF);
  frame[3] = static_cast<std::uint8_t>((length >> 8) & 0xFF);
  frame[4] = static_cast<std::uint8_t>((length >> 16) & 0xFF);
  frame[5] = static_cast<std::uint8_t>((length >> 24) & 0xFF);
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
              payload.size());
  return frame;
}

DecodeResult TryDecodeFrame(const std::uint8_t* data, std::size_t size,
                            Message* message, std::size_t* consumed,
                            std::string* error) {
  if (size < 1) return DecodeResult::kNeedMore;
  if (data[0] != kFrameMagic) {
    *error = "bad frame magic 0x" + std::to_string(data[0]) +
             " (expected 0xEC); stream cannot resynchronize";
    return DecodeResult::kCorrupt;
  }
  if (size < kFrameHeaderBytes) return DecodeResult::kNeedMore;
  if (!IsKnownType(data[1])) {
    *error = "unknown frame type 0x" + std::to_string(data[1]);
    return DecodeResult::kCorrupt;
  }
  std::uint32_t length = static_cast<std::uint32_t>(data[2]) |
                         (static_cast<std::uint32_t>(data[3]) << 8) |
                         (static_cast<std::uint32_t>(data[4]) << 16) |
                         (static_cast<std::uint32_t>(data[5]) << 24);
  if (length > kMaxFramePayload) {
    *error = "frame payload length " + std::to_string(length) +
             " exceeds the " + std::to_string(kMaxFramePayload) +
             "-byte cap";
    return DecodeResult::kCorrupt;
  }
  if (size < kFrameHeaderBytes + length) return DecodeResult::kNeedMore;

  message->type = static_cast<FrameType>(data[1]);
  message->headers.clear();
  message->body.clear();
  std::string_view payload(
      reinterpret_cast<const char*>(data + kFrameHeaderBytes), length);
  Status parsed = ParsePayload(payload, message);
  if (!parsed.ok()) {
    *error = parsed.message();
    return DecodeResult::kCorrupt;
  }
  *consumed = kFrameHeaderBytes + length;
  return DecodeResult::kFrame;
}

[[nodiscard]] Status ParsePayload(std::string_view payload, Message* message) {
  std::size_t pos = 0;
  while (true) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) {
      return Status::ParseError(
          "frame payload ends inside the header block (no blank line)");
    }
    std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) break;  // blank line: headers done, body follows
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("malformed header line (no ':'): " +
                                std::string(line.substr(0, 80)));
    }
    std::string key(StripWhitespace(line.substr(0, colon)));
    std::string value(StripWhitespace(line.substr(colon + 1)));
    if (key.empty()) {
      return Status::ParseError("empty header key in frame payload");
    }
    message->headers[std::move(key)] = std::move(value);
  }
  message->body.assign(payload.substr(pos));
  return Status::Ok();
}

}  // namespace egocensus::net
