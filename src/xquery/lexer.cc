#include "xquery/lexer.h"

#include <cctype>
#include <cstdio>

namespace ufilter::xq {

namespace {

/// Renders a rejected byte printably: update text arrives off the wire, so
/// error messages must stay readable for NULs, control bytes and non-ASCII
/// instead of embedding the raw byte.
std::string DescribeByte(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  if (std::isprint(u)) return std::string("'") + c + "'";
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%02X", u);
  return std::string("byte ") + buf;
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)); }

/// End (one past the closing '>') of the XML element opening at `start`,
/// tracking tag depth; npos when it never closes.
size_t PayloadEnd(std::string_view s, size_t start) {
  size_t i = start;
  int depth = 0;
  while (i < s.size()) {
    if (s[i] != '<') {
      ++i;
      continue;
    }
    size_t gt = s.find('>', i);
    if (gt == std::string_view::npos) break;
    if (i + 1 < s.size() && s[i + 1] == '/') {
      --depth;
      if (depth == 0) return gt + 1;
    } else if (s[gt - 1] != '/') {
      ++depth;
    } else if (depth == 0) {
      return gt + 1;  // self-closing root element
    }
    i = gt + 1;
  }
  return std::string_view::npos;
}

}  // namespace

bool IsKeyword(const Token& t, const char* kw) {
  if (t.kind != TokenKind::kIdent) return false;
  size_t i = 0;
  for (; i < t.text.size() && kw[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(t.text[i])) !=
        std::tolower(static_cast<unsigned char>(kw[i]))) {
      return false;
    }
  }
  return i == t.text.size() && kw[i] == '\0';
}

Tokenizer::Tokenizer(std::string_view source, bool update)
    : s_(source), update_(update) {}

Token Tokenizer::Fail(Status status) {
  status_ = std::move(status);
  pos_ = s_.size();
  return Token{TokenKind::kEnd, {}, s_.size()};
}

Token Tokenizer::Next() {
  const std::string_view s = s_;
  size_t i = pos_;
  while (i < s.size() && IsSpace(s[i])) ++i;
  pos_ = i;
  if (!status_.ok() || i >= s.size()) {
    return Token{TokenKind::kEnd, {}, s.size()};
  }
  const bool payload = payload_next_;
  payload_next_ = false;
  const size_t start = i;
  auto Emit = [&](TokenKind kind, size_t text_begin, size_t text_end,
                  size_t end) {
    pos_ = end;
    return Token{kind, s.substr(text_begin, text_end - text_begin), start};
  };
  char c = s[i];
  if (payload && c == '<') {
    size_t end = PayloadEnd(s, start);
    if (end == std::string_view::npos) {
      pos_ = s.size();  // the parser reports the unclosed payload
      return Token{TokenKind::kXml, {}, start};
    }
    return Emit(TokenKind::kXml, start, end, end);
  }
  if (c == '$') {
    ++i;
    while (i < s.size() && (IsAlnum(s[i]) || s[i] == '_')) ++i;
    if (i == start + 1) {
      return Fail(Status::ParseError("lone '$' at offset " +
                                     std::to_string(start)));
    }
    return Emit(TokenKind::kVariable, start + 1, i, i);
  }
  if (c == '"' || c == '\'') {
    size_t close = s.find(c, start + 1);
    if (close == std::string_view::npos) {
      return Fail(Status::ParseError("unterminated string at offset " +
                                     std::to_string(start)));
    }
    return Emit(TokenKind::kString, start + 1, close, close + 1);
  }
  if (IsDigit(c) || (c == '-' && i + 1 < s.size() && IsDigit(s[i + 1]))) {
    if (c == '-') ++i;
    bool saw_dot = false;
    while (i < s.size() && (IsDigit(s[i]) || (s[i] == '.' && !saw_dot))) {
      if (s[i] == '.') saw_dot = true;
      ++i;
    }
    return Emit(TokenKind::kNumber, start, i, i);
  }
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    while (i < s.size() && (IsAlnum(s[i]) || s[i] == '_' || s[i] == '-')) {
      ++i;
    }
    Token tok = Emit(TokenKind::kIdent, start, i, i);
    payload_next_ = update_ && in_block_ &&
                    (IsKeyword(tok, "INSERT") || IsKeyword(tok, "WITH"));
    return tok;
  }
  TokenKind kind;
  switch (c) {
    case '<':
      kind = TokenKind::kLess;
      break;
    case '>':
      kind = TokenKind::kGreater;
      break;
    case '=':
      kind = TokenKind::kEquals;
      break;
    case '!':
      kind = TokenKind::kBang;
      break;
    case '/':
      kind = TokenKind::kSlash;
      break;
    case '(':
      kind = TokenKind::kLParen;
      break;
    case ')':
      kind = TokenKind::kRParen;
      break;
    case '{':
      kind = TokenKind::kLBrace;
      in_block_ = in_block_ || update_;
      break;
    case '}':
      kind = TokenKind::kRBrace;
      break;
    case ',':
      kind = TokenKind::kComma;
      break;
    case '&':
    case ';':
    case '.':
    case ':':
    case '*':
    case '@':
    case '-':
    case '?':
      // Punctuation the fragment has no use for lexes as a filler ident,
      // so the parser (not the lexer) rejects it where it is misplaced.
      kind = TokenKind::kIdent;
      break;
    default:
      return Fail(Status::ParseError("unexpected " + DescribeByte(c) +
                                     " at offset " + std::to_string(start)));
  }
  return Emit(kind, start, start + 1, start + 1);
}

Lexer::Lexer(std::string source, bool update) : source_(std::move(source)) {
  Tokenizer tokenizer(source_, update);
  while (true) {
    tokens_.push_back(tokenizer.Next());
    if (tokens_.back().kind == TokenKind::kEnd) break;
  }
  status_ = tokenizer.status();
}

}  // namespace ufilter::xq
