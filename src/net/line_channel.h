// Line framing over a connected socket: the transport unit of the wire
// protocol (one JSON object per '\n'-terminated line, serve/wire.h).
//
// The reader keeps a bounded buffer: a peer that streams an endless line
// can never grow server memory past `max_line_bytes` — the overlong line is
// drained (discarded to the next newline, without buffering) and reported
// as kOversized so the server can answer with a structured error and keep
// the session. A read that may wait polls first and a write polls once the
// socket buffer is full, so a stalled peer costs at most the configured
// timeout, never a wedged thread; a non-blocking read (timeout 0) and a
// write with room go straight to recv/send. One receive buffer lives as
// long as the channel.
//
// Binary framing: a session that negotiated protocol-level binary frames
// (the wire "hello" op, serve/wire.h) switches from ReadLine/WriteLine to
// ReadFrame/WriteFrame on the SAME channel — buffered bytes carry over, so
// the switch is seamless mid-stream. One frame is
//
//   [u32 LE payload_len][u8 type][payload_len bytes of payload]
//
// where type kFrameJson (1) carries one JSON text (exactly what the line
// framing would have carried, minus the '\n'), and kFrameJsonWithBytes (2)
// carries [u32 LE json_len][json][raw attachment bytes] so bulk payloads
// (snapshot chunks) skip base64 and JSON string escaping entirely. Frames
// respect the same `max_line_bytes` bound as lines: an oversized frame is
// drained by its declared length and reported as kOversized.
//
// One channel is a single session's framing state; it is not thread-safe.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "net/socket.h"

namespace recpriv::net {

/// Binary frame type tags (the u8 after the length prefix).
inline constexpr uint8_t kFrameJson = 1;           ///< payload is JSON text
inline constexpr uint8_t kFrameJsonWithBytes = 2;  ///< JSON + raw attachment
/// Bytes before the payload: u32 length + u8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

struct LineChannelOptions {
  size_t max_line_bytes = 1 << 20;  ///< longest accepted line (sans '\n')
  size_t read_chunk_bytes = 4096;   ///< recv() granularity
};

/// What one ReadLine() call produced.
enum class ReadEvent {
  kLine,       ///< a complete line (in `line`, '\n' and any '\r' stripped)
  kEof,        ///< orderly close; no more lines will arrive
  kTimeout,    ///< no complete line within the timeout; buffered prefix kept
  kOversized,  ///< a line exceeded max_line_bytes and was discarded
};

struct ReadResult {
  ReadEvent event = ReadEvent::kEof;
  std::string line;  ///< valid iff event == kLine
};

/// What one ReadFrame() call produced. Reuses ReadEvent: kLine means "one
/// complete frame" here.
struct FrameResult {
  ReadEvent event = ReadEvent::kEof;
  uint8_t type = 0;        ///< kFrameJson / kFrameJsonWithBytes
  std::string payload;     ///< the JSON text (both frame types)
  std::string attachment;  ///< raw bytes; non-empty only for type 2
};

/// Line-framed reader/writer over an owned connected socket.
class LineChannel {
 public:
  explicit LineChannel(UniqueFd fd, LineChannelOptions options = {})
      : fd_(std::move(fd)), options_(options) {}

  LineChannel(LineChannel&&) = default;
  LineChannel& operator=(LineChannel&&) = default;

  /// Reads until a full line is buffered or `timeout_ms` elapses (< 0 waits
  /// forever). Hard transport failures (reset, closed channel) are a
  /// Status; everything recoverable is a ReadEvent.
  Result<ReadResult> ReadLine(int timeout_ms);

  /// Writes `line` plus '\n', looping until every byte is out or
  /// `timeout_ms` elapses without progress (< 0 waits forever). A peer that
  /// stopped reading (full socket buffer past the timeout) is an error.
  Status WriteLine(std::string_view line, int timeout_ms);

  /// Writes exactly `n` bytes of `data` with no framing added. Fault
  /// injection (net/fault_injector.h) uses this to emit deliberately
  /// unterminated or split lines; normal traffic goes through WriteLine.
  Status WriteRaw(const char* data, size_t n, int timeout_ms);

  // --- binary frames (negotiated sessions only) ----------------------------

  /// Reads one binary frame. Same timeout/ReadEvent contract as ReadLine;
  /// a frame whose declared payload exceeds max_line_bytes is drained by
  /// its length and reported kOversized. A peer that closes mid-frame is
  /// kEof (the partial frame is dropped — frames are all-or-nothing). A
  /// frame whose interior lengths are inconsistent is a hard Status: the
  /// stream can no longer be trusted to resynchronize.
  Result<FrameResult> ReadFrame(int timeout_ms);

  /// Writes one frame: type kFrameJson when `attachment` is empty, else
  /// kFrameJsonWithBytes carrying the raw attachment after the JSON.
  Status WriteFrame(std::string_view json, std::string_view attachment,
                    int timeout_ms);

  /// The exact bytes WriteFrame would send, for callers that need to apply
  /// byte-level transforms (fault injection) before writing.
  static std::string EncodeFrame(std::string_view json,
                                 std::string_view attachment);

  /// True when the next ReadLine / ReadFrame returns without receiving:
  /// a complete line or frame (or an oversized one to report) is
  /// buffered, or the peer has closed. A server waits for input only
  /// when this is false, and then reads once.
  bool HasBufferedLine() const;
  bool HasBufferedFrame() const;

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// Closes the socket; subsequent reads/writes error.
  void Close() { fd_.Reset(); }

 private:
  UniqueFd fd_;
  LineChannelOptions options_;
  using Clock = std::chrono::steady_clock;

  /// Receives once into chunk_: polls first while budget remains, else
  /// tries the socket without blocking. True with `*n_read` bytes (0 at
  /// EOF, which also sets saw_eof_), false on timeout.
  Result<bool> Receive(bool bounded, Clock::time_point deadline,
                       size_t* n_read);

  /// The recv() target, read_chunk_bytes long, allocated on first read.
  std::unique_ptr<char[]> chunk_;
  std::string write_buffer_;  ///< WriteLine's line + '\n', capacity reused
  std::string buffer_;       ///< bytes received but not yet returned
  size_t scan_from_ = 0;     ///< buffer_ offset already scanned for '\n'
  bool discarding_ = false;  ///< inside an oversized line, dropping bytes
  size_t frame_discard_ = 0;  ///< oversized-frame bytes left to drain
  bool saw_eof_ = false;
};

}  // namespace recpriv::net
