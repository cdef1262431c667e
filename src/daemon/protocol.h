// Wire protocol of the dfkyd manager daemon (DESIGN.md Sect. 10), plus the
// strict parsing helpers it shares with dfky_cli.
//
// Requests and responses are single LF-terminated text lines over a
// unix-domain stream socket:
//
//   request  := verb (' ' arg)*
//   response := "ok" (' ' key '=' value)*  |  "err " message
//
// Values never contain spaces or newlines: binary payloads (key files,
// reset bundles, ciphertexts) travel as lowercase hex, lists as
// comma-separated values. One request line yields exactly one response
// line.
//
// Pipelining (DESIGN.md Sect. 11): a request may carry a client-chosen
// tag as its first token, and the response echoes it:
//
//   request  := ['@' id ' '] verb (' ' arg)*
//   response := ['@' id ' '] ("ok" (' ' key '=' value)* | "err " message)
//
// Tagged requests on one connection may complete OUT OF ORDER (a sharded
// daemon runs them concurrently), so the tag — not arrival order — maps a
// response to its request. Untagged requests keep the strict one-in
// one-out ordering and never overlap tagged ones.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.h"

namespace dfky::daemon {

/// Hard cap on one protocol line (request or response), framing included.
/// Generous enough for a sec2048 reset bundle in hex; anything larger is a
/// protocol violation, not a bigger buffer.
constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

/// Strict base-10 uint64 parse: digits only (no sign, no whitespace, no
/// 0x), non-empty, must fit. Everything the CLI and the daemon accept as a
/// number goes through here — the stoull family's undocumented tolerance
/// for "-5" (wraps) and leading spaces is exactly the bug class this
/// replaces.
std::optional<std::uint64_t> parse_u64(std::string_view s);

std::string hex_encode(BytesView data);
/// Lowercase/uppercase hex -> bytes; nullopt on odd length or non-hex.
std::optional<Bytes> hex_decode(std::string_view hex);

/// Splits a request line on spaces; runs of spaces collapse, so empty
/// tokens never appear.
std::vector<std::string> split_tokens(std::string_view line);

/// A request line with its optional `@<id>` pipeline tag peeled off.
struct TaggedLine {
  std::optional<std::uint64_t> id;  // set iff the line began with a tag
  std::string_view body;            // the line after the tag (whole line if none)
  bool bad_tag = false;             // began with '@' but the id is malformed
};
/// Recognizes a leading `@<id>` token (strict parse_u64 id). A lone '@' or
/// a non-numeric id sets bad_tag — the daemon answers `err`, it does not
/// guess. The returned views alias `line`.
TaggedLine split_request_tag(std::string_view line);

/// Prefixes `response` with the `@<id> ` echo when `id` is set.
std::string tag_response(std::optional<std::uint64_t> id,
                         std::string response);

std::string ok_response(
    const std::vector<std::pair<std::string, std::string>>& fields = {});
/// The message is flattened to one line (newlines become spaces).
std::string err_response(std::string_view message);

struct Response {
  bool ok = false;
  std::optional<std::uint64_t> id;            // echoed pipeline tag, if any
  std::string error;                          // "err" responses
  std::map<std::string, std::string> fields;  // "ok" responses
};

/// Parses one response line (no trailing newline), including an optional
/// leading `@<id>` echo; nullopt when the line fits neither grammar
/// production.
std::optional<Response> parse_response(std::string_view line);

/// A request's answer, as the request handler gives it to the front end.
struct HandlerResult {
  std::string response;   // one response line, no trailing newline
  bool shutdown = false;  // a `shutdown` request was acknowledged
};
/// Delivers a request's answer. Called exactly once, from any thread: a
/// read is answered on the thread that handles it, a mutation on its
/// shard's committer once the mutation is durable.
using Reply = std::function<void(HandlerResult)>;

/// Incremental LF framing for a non-blocking byte stream (the reactor's
/// per-connection read path, DESIGN.md Sect. 15). Bytes go in as they
/// arrive, complete lines come out with the LF (and an optional trailing
/// CR) stripped. The scan position is remembered across feeds, so a line
/// arriving in many small reads costs one pass over each byte, not a
/// re-scan of the whole buffer per read. A partial line growing past
/// `max_line_bytes` poisons the framer: the connection is violating the
/// protocol and must be answered `err` and closed, not buffered further.
class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line_bytes = kMaxLineBytes)
      : max_(max_line_bytes) {}

  /// Appends raw bytes. Returns false when the framer is already
  /// poisoned (the bytes are dropped).
  bool feed(std::string_view data);
  /// Pops the next complete line, or nullopt when none is buffered (or
  /// the framer is poisoned). Overflow is detected here, so drain every
  /// complete line after each feed() — buffered() only means "incomplete
  /// tail" once next() has returned nullopt.
  std::optional<std::string> next();

  bool overflowed() const { return overflow_; }
  /// Bytes buffered but not yet returned (the incomplete tail).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;   // start of the first unreturned line
  std::size_t scan_ = 0;  // resume point for the LF scan
  std::size_t max_;
  bool overflow_ = false;
};

}  // namespace dfky::daemon
