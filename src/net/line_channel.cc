#include "net/line_channel.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <poll.h>
#include <sys/socket.h>

namespace recpriv::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining budget in ms for poll(): -1 when the caller wants no timeout.
int RemainingMs(bool bounded, Clock::time_point deadline) {
  if (!bounded) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IOError(what + ": " + std::strerror(err));
}

void StripCr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

uint32_t DecodeU32Le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return uint32_t(b[0]) | (uint32_t(b[1]) << 8) | (uint32_t(b[2]) << 16) |
         (uint32_t(b[3]) << 24);
}

/// A ReadFrame outcome that carries no frame (oversized, EOF, timeout).
FrameResult NoFrame(ReadEvent event) {
  FrameResult result;
  result.event = event;
  return result;
}

void AppendU32Le(std::string& out, uint32_t v) {
  out.push_back(char(v & 0xff));
  out.push_back(char((v >> 8) & 0xff));
  out.push_back(char((v >> 16) & 0xff));
  out.push_back(char((v >> 24) & 0xff));
}

}  // namespace

Result<ReadResult> LineChannel::ReadLine(int timeout_ms) {
  if (!fd_.valid()) return Status::FailedPrecondition("channel is closed");
  const bool bounded = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);

  for (;;) {
    if (!discarding_) {
      const size_t pos = buffer_.find('\n', scan_from_);
      if (pos != std::string::npos) {
        if (pos > options_.max_line_bytes) {
          // The whole line arrived before the incomplete-buffer bound could
          // trip; it is still over the limit. Drop it, keep the session.
          buffer_.erase(0, pos + 1);
          scan_from_ = 0;
          return ReadResult{ReadEvent::kOversized, {}};
        }
        ReadResult result;
        result.event = ReadEvent::kLine;
        result.line = buffer_.substr(0, pos);
        StripCr(result.line);
        buffer_.erase(0, pos + 1);
        scan_from_ = 0;
        return result;
      }
      scan_from_ = buffer_.size();
      if (buffer_.size() > options_.max_line_bytes) {
        // The line in flight is too long to ever accept: stop buffering it
        // and drain to its newline so the session can resynchronize.
        buffer_.clear();
        scan_from_ = 0;
        discarding_ = true;
      }
    }

    if (saw_eof_) {
      ReadResult result;
      if (discarding_) {
        discarding_ = false;
        result.event = ReadEvent::kOversized;
      } else if (!buffer_.empty()) {
        // A final line the peer never terminated before closing.
        result.event = ReadEvent::kLine;
        result.line = std::move(buffer_);
        StripCr(result.line);
        buffer_.clear();
        scan_from_ = 0;
      } else {
        result.event = ReadEvent::kEof;
      }
      return result;
    }

    size_t n = 0;
    RECPRIV_ASSIGN_OR_RETURN(const bool received,
                             Receive(bounded, deadline, &n));
    if (!received) return ReadResult{ReadEvent::kTimeout, {}};
    if (n == 0) continue;  // EOF: handled at the top of the loop
    const char* chunk = chunk_.get();
    if (discarding_) {
      const char* nl = static_cast<const char*>(std::memchr(chunk, '\n', n));
      if (nl != nullptr) {
        // Keep whatever followed the newline: it is the next line's prefix.
        buffer_.assign(nl + 1, size_t(chunk + n - (nl + 1)));
        discarding_ = false;
        return ReadResult{ReadEvent::kOversized, {}};
      }
      // Else: the oversized line continues; drop the chunk.
    } else {
      buffer_.append(chunk, n);
    }
  }
}

Result<bool> LineChannel::Receive(bool bounded, Clock::time_point deadline,
                                  size_t* n_read) {
  if (chunk_ == nullptr) {
    chunk_ = std::make_unique<char[]>(options_.read_chunk_bytes);
  }
  for (;;) {
    // A spent budget (a ReadLine(0), the "take what the kernel already
    // has" call) tries the socket directly instead of polling it first.
    const int remaining = RemainingMs(bounded, deadline);
    if (remaining != 0) {
      struct pollfd pfd;
      pfd.fd = fd_.get();
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int prc = ::poll(&pfd, 1, remaining);
      if (prc < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("poll", errno);
      }
      if (prc == 0) return false;
    }
    const ssize_t n = ::recv(fd_.get(), chunk_.get(), options_.read_chunk_bytes,
                             remaining == 0 ? MSG_DONTWAIT : 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (remaining == 0) return false;
        continue;
      }
      if (errno == EINTR) continue;
      return ErrnoStatus("recv", errno);
    }
    if (n == 0) saw_eof_ = true;
    *n_read = size_t(n);
    return true;
  }
}

bool LineChannel::HasBufferedLine() const {
  if (saw_eof_) return true;
  if (discarding_) return false;
  return buffer_.size() > options_.max_line_bytes ||
         buffer_.find('\n', scan_from_) != std::string::npos;
}

bool LineChannel::HasBufferedFrame() const {
  if (saw_eof_) return true;
  if (frame_discard_ > 0) return !buffer_.empty();
  if (buffer_.size() < kFrameHeaderBytes) return false;
  const size_t len = DecodeU32Le(buffer_.data());
  return len > options_.max_line_bytes ||
         buffer_.size() >= kFrameHeaderBytes + len;
}

Result<FrameResult> LineChannel::ReadFrame(int timeout_ms) {
  if (!fd_.valid()) return Status::FailedPrecondition("channel is closed");
  const bool bounded = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);

  for (;;) {
    if (frame_discard_ > 0) {
      // Inside an oversized frame: its declared length tells us exactly
      // how many bytes to drop before the stream is back in sync.
      const size_t drop = std::min(frame_discard_, buffer_.size());
      buffer_.erase(0, drop);
      scan_from_ = 0;
      frame_discard_ -= drop;
      if (frame_discard_ == 0) return NoFrame(ReadEvent::kOversized);
    } else if (buffer_.size() >= kFrameHeaderBytes) {
      const size_t len = DecodeU32Le(buffer_.data());
      const uint8_t type = uint8_t(buffer_[4]);
      if (len > options_.max_line_bytes) {
        buffer_.erase(0, kFrameHeaderBytes);
        scan_from_ = 0;
        frame_discard_ = len;
        continue;
      }
      if (buffer_.size() >= kFrameHeaderBytes + len) {
        FrameResult result;
        result.event = ReadEvent::kLine;
        result.type = type;
        const char* payload = buffer_.data() + kFrameHeaderBytes;
        if (type == kFrameJsonWithBytes) {
          if (len < 4) {
            return Status::IOError(
                "frame: type-2 payload shorter than its json length prefix");
          }
          const size_t json_len = DecodeU32Le(payload);
          if (4 + json_len > len) {
            return Status::IOError(
                "frame: interior json length " + std::to_string(json_len) +
                " exceeds payload of " + std::to_string(len) + " bytes");
          }
          result.payload.assign(payload + 4, json_len);
          result.attachment.assign(payload + 4 + json_len,
                                   len - 4 - json_len);
        } else {
          result.payload.assign(payload, len);
        }
        buffer_.erase(0, kFrameHeaderBytes + len);
        scan_from_ = 0;
        return result;
      }
    }

    if (saw_eof_) {
      // A partial frame at EOF is dropped: unlike an unterminated final
      // line, a length-prefixed frame is all-or-nothing by construction.
      return NoFrame(ReadEvent::kEof);
    }

    size_t n = 0;
    RECPRIV_ASSIGN_OR_RETURN(const bool received,
                             Receive(bounded, deadline, &n));
    if (!received) return NoFrame(ReadEvent::kTimeout);
    buffer_.append(chunk_.get(), n);
  }
}

std::string LineChannel::EncodeFrame(std::string_view json,
                                     std::string_view attachment) {
  std::string out;
  if (attachment.empty()) {
    out.reserve(kFrameHeaderBytes + json.size());
    AppendU32Le(out, uint32_t(json.size()));
    out.push_back(char(kFrameJson));
    out.append(json);
  } else {
    out.reserve(kFrameHeaderBytes + 4 + json.size() + attachment.size());
    AppendU32Le(out, uint32_t(4 + json.size() + attachment.size()));
    out.push_back(char(kFrameJsonWithBytes));
    AppendU32Le(out, uint32_t(json.size()));
    out.append(json);
    out.append(attachment);
  }
  return out;
}

Status LineChannel::WriteFrame(std::string_view json,
                               std::string_view attachment, int timeout_ms) {
  const uint64_t payload =
      attachment.empty() ? json.size() : 4 + json.size() + attachment.size();
  if (payload > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("frame payload exceeds the u32 length");
  }
  const std::string data = EncodeFrame(json, attachment);
  return WriteRaw(data.data(), data.size(), timeout_ms);
}

Status LineChannel::WriteLine(std::string_view line, int timeout_ms) {
  write_buffer_.assign(line);
  write_buffer_ += '\n';
  return WriteRaw(write_buffer_.data(), write_buffer_.size(), timeout_ms);
}

Status LineChannel::WriteRaw(const char* data, size_t n_bytes,
                             int timeout_ms) {
  if (!fd_.valid()) return Status::FailedPrecondition("channel is closed");
  const bool bounded = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);
  size_t off = 0;
  while (off < n_bytes) {
    // Send first: a socket with room in its buffer (the usual case) takes
    // the bytes without a poll; only a full one waits, up to the timeout.
    const ssize_t n = ::send(fd_.get(), data + off, n_bytes - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      off += size_t(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return ErrnoStatus("send", errno);
    }
    const int remaining = RemainingMs(bounded, deadline);
    if (bounded && remaining == 0) {
      return Status::IOError("write timed out (peer not reading)");
    }
    struct pollfd pfd;
    pfd.fd = fd_.get();
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int prc = ::poll(&pfd, 1, remaining);
    if (prc < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll", errno);
    }
    if (prc == 0) {
      return Status::IOError("write timed out (peer not reading)");
    }
  }
  return Status::OK();
}

}  // namespace recpriv::net
