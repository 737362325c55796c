#include "xquery/normalize.h"

#include <cctype>

#include "common/strings.h"
#include "xml/parser.h"
#include "xquery/lexer.h"

namespace ufilter::xq {

namespace {

/// The placeholder a lifted literal leaves in the shape. '#' never lexes
/// outside a string or a payload, so no literal-free text can spell it.
const char* Placeholder(LiteralClass cls) {
  switch (cls) {
    case LiteralClass::kInteger:
      return "#i";
    case LiteralClass::kDecimal:
      return "#d";
    case LiteralClass::kString:
      return "#s";
    case LiteralClass::kText:
      return "#t";
  }
  return "#?";
}

/// True when `s` is empty or all whitespace: the XML parser drops such text
/// runs (it trims every run).
bool IsBlank(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Walks a kXml token's text as alternating markup (`<...>`, one tag each,
/// ending at the first '>' as the tokenizer's span scan does) and text runs
/// (the bytes between two tags).
class PayloadParts {
 public:
  explicit PayloadParts(std::string_view xml) : xml_(xml) {}

  /// The next part; false at the end. Text runs may be blank.
  bool Next(std::string_view* part, bool* is_text) {
    if (pos_ >= xml_.size()) return false;
    size_t end;
    if (xml_[pos_] == '<') {
      size_t gt = xml_.find('>', pos_);
      end = gt == std::string_view::npos ? xml_.size() : gt + 1;
      *is_text = false;
    } else {
      end = xml_.find('<', pos_);
      if (end == std::string_view::npos) end = xml_.size();
      *is_text = true;
    }
    *part = xml_.substr(pos_, end - pos_);
    pos_ = end;
    return true;
  }

 private:
  std::string_view xml_;
  size_t pos_ = 0;
};

/// LiftUpdate's pass; `*stopped_at` receives the offset where lifting
/// stopped when it fails.
Status Lift(std::string_view source, LiftedUpdate* out, size_t* stopped_at) {
  out->shape.clear();
  out->literals.clear();
  out->shape.reserve(source.size());
  auto AddLiteral = [out](LiteralClass cls, std::string_view text) {
    out->shape += Placeholder(cls);
    out->literals.push_back({cls, std::string(text)});
  };
  Tokenizer tokenizer(source, /*update=*/true);
  size_t prev_end = 0;
  // A string right after `document (` names a document: it stays.
  bool after_document = false;
  bool after_document_paren = false;
  while (true) {
    Token tok = tokenizer.Next();
    if (tok.kind == TokenKind::kEnd) break;
    if (!out->shape.empty() && tok.offset > prev_end) out->shape += ' ';
    const std::string_view raw =
        source.substr(tok.offset, tokenizer.pos() - tok.offset);
    switch (tok.kind) {
      case TokenKind::kNumber:
        AddLiteral(tok.text.find('.') == std::string_view::npos
                       ? LiteralClass::kInteger
                       : LiteralClass::kDecimal,
                   tok.text);
        break;
      case TokenKind::kString:
        if (after_document_paren) {
          out->shape += raw;
        } else {
          AddLiteral(LiteralClass::kString, tok.text);
        }
        break;
      case TokenKind::kXml: {
        if (tok.text.empty()) {
          *stopped_at = tok.offset;
          return Status::ParseError("unterminated XML payload at offset " +
                                    std::to_string(tok.offset));
        }
        PayloadParts parts(tok.text);
        std::string_view part;
        bool is_text = false;
        while (parts.Next(&part, &is_text)) {
          if (is_text) {
            if (!IsBlank(part)) AddLiteral(LiteralClass::kText, part);
          } else if (part.size() > 1 && (part[1] == '!' || part[1] == '?')) {
            *stopped_at = tok.offset;
            return Status::NotSupported(
                "payload markup other than tags at offset " +
                std::to_string(tok.offset));
          } else {
            out->shape += part;
          }
        }
        break;
      }
      default:
        out->shape += raw;
        break;
    }
    after_document_paren =
        after_document && tok.kind == TokenKind::kLParen;
    after_document = IsKeyword(tok, "document");
    prev_end = tokenizer.pos();
  }
  *stopped_at = prev_end;
  return tokenizer.status();
}

}  // namespace

Status LiftUpdate(std::string_view source, LiftedUpdate* out) {
  size_t stopped_at = 0;
  return Lift(source, out, &stopped_at);
}

std::string NormalizeUpdateText(const std::string& source) {
  LiftedUpdate lifted;
  size_t stopped_at = 0;
  if (Lift(source, &lifted, &stopped_at).ok()) return lifted.shape;
  // Keep the unlexed rest, whitespace collapsed, so the text stays
  // recognizable (it is never a cache key).
  bool space = false;
  for (size_t i = stopped_at; i < source.size(); ++i) {
    if (std::isspace(static_cast<unsigned char>(source[i]))) {
      space = true;
      continue;
    }
    if (space && !lifted.shape.empty()) lifted.shape += ' ';
    space = false;
    lifted.shape += source[i];
  }
  return lifted.shape;
}

Result<Value> LiteralValue(LiteralClass cls, std::string_view text) {
  switch (cls) {
    case LiteralClass::kInteger:
      return Value::FromText(std::string(text), ValueType::kInt);
    case LiteralClass::kDecimal:
      return Value::FromText(std::string(text), ValueType::kDouble);
    case LiteralClass::kString:
      return Value::String(Trim(std::string(text)));
    case LiteralClass::kText: {
      // What the XML parser makes of a text run, then what the update
      // parser makes of the text node.
      UFILTER_ASSIGN_OR_RETURN(std::string decoded,
                               xml::DecodeText(Trim(std::string(text))));
      return Value::String(PayloadTextValue(decoded));
    }
  }
  return Status::Internal("unknown literal class");
}

std::string PayloadTextValue(const std::string& decoded) {
  std::string t = Trim(decoded);
  if (t.size() >= 2 && t.front() == '"' && t.back() == '"') {
    t = Trim(t.substr(1, t.size() - 2));
  }
  return t;
}

uint64_t HashUpdateTemplate(const std::string& normalized) {
  return Fnv1a(normalized);
}

}  // namespace ufilter::xq
