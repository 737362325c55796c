// Character-level tokenizer for the XQuery fragment. Keeps <, >, =, !, /
// as single-character tokens; the parser combines them contextually (so
// `$b/price<50` lexes correctly and `<book>` can start a constructor).
//
// In an update statement the XML payload of an INSERT or of a REPLACE ...
// WITH is one raw token: its text is XML character data, so quotes and
// apostrophes in it are plain characters, not string delimiters. The parser
// and the plan-cache lifter (normalize.h) both read this one tokenizer, so
// they agree on where every literal starts and ends.
#ifndef UFILTER_XQUERY_LEXER_H_
#define UFILTER_XQUERY_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ufilter::xq {

enum class TokenKind {
  kIdent,     // FOR, IN, WHERE, book, text (keywords resolved by parser)
  kVariable,  // $book (text() excludes the $)
  kString,    // "..."
  kNumber,    // 50.00, 1990
  kXml,       // raw payload element of INSERT / REPLACE ... WITH (updates)
  kLess,      // <
  kGreater,   // >
  kEquals,    // =
  kBang,      // !
  kSlash,     // /
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kEnd,
};

/// A token is a view into the tokenized source, which must outlive it.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  /// Ident name, variable name (no $), string content (no quotes), number,
  /// or the whole raw payload element. An empty kXml token is a payload
  /// that never closes (the parser reports it).
  std::string_view text;
  size_t offset = 0;  // into the source
};

/// True when `t` is the identifier `kw`; keywords are case-insensitive.
bool IsKeyword(const Token& t, const char* kw);

/// \brief Single-pass tokenizer producing one token per Next() call, with
/// no allocation per token.
class Tokenizer {
 public:
  /// `update` turns on raw payload tokens: after the UPDATE block's `{`, a
  /// `<` following INSERT or WITH starts a kXml token that runs to the end
  /// of the element it opens.
  Tokenizer(std::string_view source, bool update);

  /// The next token; kEnd at the end of the input and after an error.
  Token Next();
  /// Source offset just past the last token returned.
  size_t pos() const { return pos_; }
  const Status& status() const { return status_; }

 private:
  Token Fail(Status status);

  std::string_view s_;
  size_t pos_ = 0;
  bool update_ = false;
  bool in_block_ = false;        // an update's `{` has been read
  bool payload_next_ = false;    // the last token was INSERT or WITH
  Status status_;
};

/// \brief The whole token vector of a source (the parser looks ahead).
class Lexer {
 public:
  explicit Lexer(std::string source, bool update = false);
  Lexer(const Lexer&) = delete;  // tokens view into source_
  Lexer& operator=(const Lexer&) = delete;

  const std::vector<Token>& tokens() const { return tokens_; }
  const Status& status() const { return status_; }

 private:
  std::string source_;
  std::vector<Token> tokens_;
  Status status_;
};

}  // namespace ufilter::xq

#endif  // UFILTER_XQUERY_LEXER_H_
