#include "json.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace jecb::benchmark {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> Document() {
    std::optional<Json> v = Value(0);
    SkipSpace();
    if (!v || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<std::string> String() {
    if (!Eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      char e = text_[pos_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u':
          // Non-ASCII escapes never occur in the files read here; keep a
          // placeholder rather than decoding UTF-16.
          if (pos_ + 4 > text_.size()) return std::nullopt;
          pos_ += 4;
          out += '?';
          break;
        default: out += e; break;  // \" \\ \/
      }
    }
    return std::nullopt;
  }

  std::optional<Json> Value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    SkipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    Json v;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::kObject;
      if (Eat('}')) return v;
      do {
        std::optional<std::string> key = String();
        if (!key || !Eat(':')) return std::nullopt;
        std::optional<Json> item = Value(depth + 1);
        if (!item) return std::nullopt;
        v.fields.emplace_back(std::move(*key), std::move(*item));
      } while (Eat(','));
      return Eat('}') ? std::optional<Json>(std::move(v)) : std::nullopt;
    }
    if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::kArray;
      if (Eat(']')) return v;
      do {
        std::optional<Json> item = Value(depth + 1);
        if (!item) return std::nullopt;
        v.items.push_back(std::move(*item));
      } while (Eat(','));
      return Eat(']') ? std::optional<Json>(std::move(v)) : std::nullopt;
    }
    if (c == '"') {
      std::optional<std::string> s = String();
      if (!s) return std::nullopt;
      v.kind = Json::Kind::kString;
      v.string = std::move(*s);
      return v;
    }
    if (Literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (Literal("false")) {
      v.kind = Json::Kind::kBool;
      return v;
    }
    if (Literal("null")) return v;
    // Number: hand the longest numeric prefix to strtod.
    size_t end = pos_;
    while (end < text_.size() && std::strchr("+-.eE0123456789", text_[end]) != nullptr) ++end;
    if (end == pos_) return std::nullopt;
    const std::string digits(text_.substr(pos_, end - pos_));
    char* stop = nullptr;
    v.number = std::strtod(digits.c_str(), &stop);
    if (stop != digits.c_str() + digits.size()) return std::nullopt;
    v.kind = Json::Kind::kNumber;
    pos_ = end;
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<Json> ParseJson(std::string_view text) { return Parser(text).Document(); }

std::optional<Json> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return ParseJson(text.str());
}

}  // namespace jecb::benchmark
