#include "daemon/protocol.h"

namespace dfky::daemon {

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty() || s.size() > 20) return std::nullopt;  // 2^64-1 is 20 digits
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

std::string hex_encode(BytesView data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const byte b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<Bytes> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<byte>((hi << 4) | lo));
  }
  return out;
}

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

TaggedLine split_request_tag(std::string_view line) {
  TaggedLine out;
  out.body = line;
  if (line.empty() || line[0] != '@') return out;
  const std::size_t end = line.find(' ');
  const std::string_view tag =
      line.substr(1, end == std::string_view::npos ? end : end - 1);
  const auto id = parse_u64(tag);
  if (!id) {
    out.bad_tag = true;
    return out;
  }
  out.id = *id;
  out.body = end == std::string_view::npos ? std::string_view{}
                                           : line.substr(end + 1);
  return out;
}

std::string tag_response(std::optional<std::uint64_t> id,
                         std::string response) {
  if (!id) return response;
  // GCC 12 -Wrestrict false positive inside libstdc++'s char_traits.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
  return "@" + std::to_string(*id) + " " + std::move(response);
#pragma GCC diagnostic pop
}

std::string ok_response(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "ok";
  for (const auto& [k, v] : fields) {
    out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::string err_response(std::string_view message) {
  std::string out = "err ";
  for (const char c : message) out += (c == '\n' || c == '\r') ? ' ' : c;
  return out;
}

bool LineFramer::feed(std::string_view data) {
  if (overflow_) return false;
  buf_.append(data);
  return true;
}

std::optional<std::string> LineFramer::next() {
  if (overflow_) return std::nullopt;
  const std::size_t start = scan_ < pos_ ? pos_ : scan_;
  const std::size_t lf = buf_.find('\n', start);
  if (lf == std::string::npos) {
    scan_ = buf_.size();
    if (buf_.size() - pos_ > max_) overflow_ = true;
    return std::nullopt;
  }
  std::size_t end = lf;
  if (end > pos_ && buf_[end - 1] == '\r') --end;
  if (end - pos_ > max_) {
    overflow_ = true;
    return std::nullopt;
  }
  std::string line = buf_.substr(pos_, end - pos_);
  pos_ = lf + 1;
  scan_ = pos_;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = scan_ = 0;
  } else if (pos_ > (std::size_t{64} << 10)) {
    // Amortized compaction: drop the consumed prefix once it dominates.
    buf_.erase(0, pos_);
    scan_ -= pos_;
    pos_ = 0;
  }
  return line;
}

std::optional<Response> parse_response(std::string_view line) {
  Response resp;
  if (line.starts_with("@")) {
    const TaggedLine tagged = split_request_tag(line);
    if (tagged.bad_tag || !tagged.id) return std::nullopt;
    resp.id = tagged.id;
    line = tagged.body;
  }
  if (line == "ok" || line.starts_with("ok ")) {
    resp.ok = true;
    for (const std::string& tok :
         split_tokens(line.substr(2))) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos || eq == 0) return std::nullopt;
      resp.fields[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    return resp;
  }
  if (line.starts_with("err ")) {
    resp.error = std::string(line.substr(4));
    return resp;
  }
  return std::nullopt;
}

}  // namespace dfky::daemon
