#include "xquery/parser.h"

#include "xml/parser.h"
#include "xquery/lexer.h"
#include "xquery/normalize.h"

namespace ufilter::xq {

namespace {

/// Gives every text node of a payload the value PayloadTextValue defines
/// (surrounding double quotes stripped) and counts the text nodes.
void NormalizePayload(xml::Node* node, int* text_nodes) {
  if (node->is_text()) {
    node->set_label(PayloadTextValue(node->label()));
    ++*text_nodes;
    return;
  }
  for (const xml::NodePtr& c : node->children()) {
    NormalizePayload(c.get(), text_nodes);
  }
}

class Parser {
 public:
  Parser(const std::string& source, bool update)
      : lexer_(source, update), update_(update) {}

  Result<ViewQuery> ParseViewQuery() {
    UFILTER_RETURN_NOT_OK(lexer_.status());
    ViewQuery query;
    if (Peek().kind == TokenKind::kLess) {
      // Root wrapper <Tag> flwr, flwr, ... </Tag>
      Advance();
      UFILTER_ASSIGN_OR_RETURN(query.root_tag, ExpectIdent("root tag"));
      UFILTER_RETURN_NOT_OK(Expect(TokenKind::kGreater, ">"));
      while (!(Peek().kind == TokenKind::kLess &&
               Peek(1).kind == TokenKind::kSlash)) {
        UFILTER_ASSIGN_OR_RETURN(FlwrPtr flwr, ParseFlwr());
        query.flwrs.push_back(std::move(flwr));
        if (Peek().kind == TokenKind::kComma) Advance();
      }
      Advance();  // <
      Advance();  // /
      UFILTER_ASSIGN_OR_RETURN(std::string close, ExpectIdent("close tag"));
      if (close != query.root_tag) {
        return Status::ParseError("mismatched root tags <" + query.root_tag +
                                  "> ... </" + close + ">");
      }
      UFILTER_RETURN_NOT_OK(Expect(TokenKind::kGreater, ">"));
    } else {
      query.root_tag = "root";
      while (IsKeyword(Peek(), "FOR")) {
        UFILTER_ASSIGN_OR_RETURN(FlwrPtr flwr, ParseFlwr());
        query.flwrs.push_back(std::move(flwr));
        if (Peek().kind == TokenKind::kComma) Advance();
      }
    }
    if (query.flwrs.empty()) {
      return Status::ParseError("view query has no FLWR expression");
    }
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kEnd, "end of input"));
    return query;
  }

  Result<UpdateStmt> ParseUpdateStmt() {
    UFILTER_RETURN_NOT_OK(lexer_.status());
    UpdateStmt stmt;
    if (!IsKeyword(Peek(), "FOR")) {
      return Status::ParseError("update must start with FOR");
    }
    Advance();
    while (true) {
      ForBinding binding;
      UFILTER_ASSIGN_OR_RETURN(binding.variable, ExpectVariable());
      // 'IN' or '='
      if (IsKeyword(Peek(), "IN")) {
        Advance();
      } else if (Peek().kind == TokenKind::kEquals) {
        Advance();
      } else {
        return Status::ParseError("expected IN or = in FOR binding");
      }
      UFILTER_ASSIGN_OR_RETURN(binding.path, ParsePath());
      stmt.bindings.push_back(std::move(binding));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (IsKeyword(Peek(), "WHERE")) {
      Advance();
      UFILTER_RETURN_NOT_OK(ParseConditionList(&stmt.conditions));
    }
    if (!IsKeyword(Peek(), "UPDATE")) {
      return Status::ParseError("expected UPDATE clause");
    }
    Advance();
    UFILTER_ASSIGN_OR_RETURN(stmt.target_variable, ExpectVariable());
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kLBrace, "{"));
    // One or more comma-separated actions per UPDATE block.
    while (true) {
      UpdateAction action;
      if (IsKeyword(Peek(), "INSERT")) {
        Advance();
        action.op = UpdateOpType::kInsert;
        UFILTER_ASSIGN_OR_RETURN(action.payload,
                                 ParsePayload(&action.payload_param));
      } else if (IsKeyword(Peek(), "DELETE")) {
        Advance();
        action.op = UpdateOpType::kDelete;
        UFILTER_ASSIGN_OR_RETURN(action.victim, ParsePath());
      } else if (IsKeyword(Peek(), "REPLACE")) {
        Advance();
        action.op = UpdateOpType::kReplace;
        UFILTER_ASSIGN_OR_RETURN(action.victim, ParsePath());
        if (!IsKeyword(Peek(), "WITH")) {
          return Status::ParseError("expected WITH in REPLACE");
        }
        Advance();
        UFILTER_ASSIGN_OR_RETURN(action.payload,
                                 ParsePayload(&action.payload_param));
      } else {
        return Status::ParseError("expected INSERT, DELETE or REPLACE");
      }
      stmt.actions.push_back(std::move(action));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    stmt.SyncMirrors();
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kRBrace, "}"));
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kEnd, "end of input"));
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= lexer_.tokens().size()) i = lexer_.tokens().size() - 1;
    return lexer_.tokens()[i];
  }
  const Token& Advance() { return lexer_.tokens()[pos_++]; }

  Status Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      return Status::ParseError(std::string("expected ") + what +
                                " at offset " + std::to_string(Peek().offset) +
                                ", got '" + std::string(Peek().text) + "'");
    }
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::ParseError(std::string("expected ") + what +
                                " at offset " + std::to_string(Peek().offset));
    }
    return std::string(Advance().text);
  }

  Result<std::string> ExpectVariable() {
    if (Peek().kind != TokenKind::kVariable) {
      return Status::ParseError("expected $variable at offset " +
                                std::to_string(Peek().offset));
    }
    return std::string(Advance().text);
  }

  Result<Path> ParsePath() {
    Path path;
    if (IsKeyword(Peek(), "document")) {
      Advance();
      UFILTER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "("));
      if (Peek().kind != TokenKind::kString) {
        return Status::ParseError("expected document name string");
      }
      path.from_document = true;
      path.document = std::string(Advance().text);
      UFILTER_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
    } else if (Peek().kind == TokenKind::kVariable) {
      path.variable = std::string(Advance().text);
    } else {
      return Status::ParseError("expected path at offset " +
                                std::to_string(Peek().offset));
    }
    while (Peek().kind == TokenKind::kSlash) {
      Advance();
      if (IsKeyword(Peek(), "text") && Peek(1).kind == TokenKind::kLParen &&
          Peek(2).kind == TokenKind::kRParen) {
        Advance();
        Advance();
        Advance();
        path.text_fn = true;
        break;
      }
      UFILTER_ASSIGN_OR_RETURN(std::string step, ExpectIdent("path step"));
      path.steps.push_back(step);
    }
    return path;
  }

  Result<Operand> ParseOperand() {
    Operand op;
    if (Peek().kind == TokenKind::kVariable || IsKeyword(Peek(), "document")) {
      op.kind = Operand::Kind::kPath;
      UFILTER_ASSIGN_OR_RETURN(op.path, ParsePath());
      return op;
    }
    if (Peek().kind == TokenKind::kString ||
        Peek().kind == TokenKind::kNumber) {
      const Token& tok = Advance();
      LiteralClass cls = tok.kind == TokenKind::kString
                             ? LiteralClass::kString
                         : tok.text.find('.') == std::string_view::npos
                             ? LiteralClass::kInteger
                             : LiteralClass::kDecimal;
      op.kind = Operand::Kind::kLiteral;
      UFILTER_ASSIGN_OR_RETURN(op.literal, LiteralValue(cls, tok.text));
      if (update_) op.param = next_param_++;
      return op;
    }
    return Status::ParseError("expected operand at offset " +
                              std::to_string(Peek().offset));
  }

  Result<CompareOp> ParseCompareOp() {
    switch (Peek().kind) {
      case TokenKind::kEquals:
        Advance();
        return CompareOp::kEq;
      case TokenKind::kBang:
        Advance();
        UFILTER_RETURN_NOT_OK(Expect(TokenKind::kEquals, "= after !"));
        return CompareOp::kNe;
      case TokenKind::kLess:
        Advance();
        if (Peek().kind == TokenKind::kEquals) {
          Advance();
          return CompareOp::kLe;
        }
        if (Peek().kind == TokenKind::kGreater) {  // <> alias for !=
          Advance();
          return CompareOp::kNe;
        }
        return CompareOp::kLt;
      case TokenKind::kGreater:
        Advance();
        if (Peek().kind == TokenKind::kEquals) {
          Advance();
          return CompareOp::kGe;
        }
        return CompareOp::kGt;
      default:
        return Status::ParseError("expected comparison operator at offset " +
                                  std::to_string(Peek().offset));
    }
  }

  Result<Condition> ParseCondition() {
    bool parens = false;
    if (Peek().kind == TokenKind::kLParen) {
      parens = true;
      Advance();
    }
    Condition cond;
    UFILTER_ASSIGN_OR_RETURN(cond.lhs, ParseOperand());
    UFILTER_ASSIGN_OR_RETURN(cond.op, ParseCompareOp());
    UFILTER_ASSIGN_OR_RETURN(cond.rhs, ParseOperand());
    if (parens) UFILTER_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
    return cond;
  }

  Status ParseConditionList(std::vector<Condition>* out) {
    while (true) {
      UFILTER_ASSIGN_OR_RETURN(Condition cond, ParseCondition());
      out->push_back(std::move(cond));
      if (IsKeyword(Peek(), "AND")) {
        Advance();
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Result<FlwrPtr> ParseFlwr() {
    if (!IsKeyword(Peek(), "FOR")) {
      return Status::ParseError("expected FOR at offset " +
                                std::to_string(Peek().offset));
    }
    Advance();
    auto flwr = std::make_unique<Flwr>();
    while (true) {
      ForBinding binding;
      UFILTER_ASSIGN_OR_RETURN(binding.variable, ExpectVariable());
      if (!IsKeyword(Peek(), "IN")) {
        return Status::ParseError("expected IN in FOR binding");
      }
      Advance();
      UFILTER_ASSIGN_OR_RETURN(binding.path, ParsePath());
      flwr->bindings.push_back(std::move(binding));
      if (Peek().kind == TokenKind::kComma &&
          Peek(1).kind == TokenKind::kVariable) {
        Advance();
        continue;
      }
      break;
    }
    if (IsKeyword(Peek(), "WHERE")) {
      Advance();
      UFILTER_RETURN_NOT_OK(ParseConditionList(&flwr->conditions));
    }
    if (!IsKeyword(Peek(), "RETURN")) {
      return Status::ParseError("expected RETURN at offset " +
                                std::to_string(Peek().offset));
    }
    Advance();
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kLBrace, "{"));
    UFILTER_RETURN_NOT_OK(
        ParseContentList(TokenKind::kRBrace, &flwr->contents));
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kRBrace, "}"));
    return flwr;
  }

  /// Parses content items until `terminator` (not consumed). Inside an
  /// element constructor the terminator is the '</' of the close tag.
  Status ParseContentList(TokenKind terminator, std::vector<Content>* out) {
    while (true) {
      const Token& t = Peek();
      if (t.kind == terminator) break;
      if (t.kind == TokenKind::kLess && Peek(1).kind == TokenKind::kSlash) {
        break;  // close tag of enclosing constructor
      }
      Content content;
      if (t.kind == TokenKind::kVariable) {
        content.kind = Content::Kind::kProjection;
        UFILTER_ASSIGN_OR_RETURN(content.projection, ParsePath());
      } else if (IsKeyword(t, "FOR")) {
        content.kind = Content::Kind::kFlwr;
        UFILTER_ASSIGN_OR_RETURN(content.flwr, ParseFlwr());
      } else if (t.kind == TokenKind::kLess) {
        content.kind = Content::Kind::kElement;
        UFILTER_ASSIGN_OR_RETURN(content.element, ParseElementCtor());
      } else {
        return Status::ParseError("unexpected content at offset " +
                                  std::to_string(t.offset));
      }
      out->push_back(std::move(content));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      // Allow missing commas between constructor siblings.
      continue;
    }
    return Status::OK();
  }

  Result<ElementCtorPtr> ParseElementCtor() {
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kLess, "<"));
    auto ctor = std::make_unique<ElementCtor>();
    UFILTER_ASSIGN_OR_RETURN(ctor->tag, ExpectIdent("element tag"));
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kGreater, ">"));
    UFILTER_RETURN_NOT_OK(ParseContentList(TokenKind::kEnd, &ctor->children));
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kLess, "<"));
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kSlash, "/"));
    UFILTER_ASSIGN_OR_RETURN(std::string close, ExpectIdent("close tag"));
    if (close != ctor->tag) {
      return Status::ParseError("mismatched constructor tags <" + ctor->tag +
                                "> ... </" + close + ">");
    }
    UFILTER_RETURN_NOT_OK(Expect(TokenKind::kGreater, ">"));
    return ctor;
  }

  /// Parses the raw payload token at the cursor with the XML parser;
  /// `*first_param` receives the parameter slot of its first text node.
  Result<xml::NodePtr> ParsePayload(int* first_param) {
    const Token& tok = Peek();
    if (tok.kind != TokenKind::kXml) {
      return Status::ParseError("expected XML element at offset " +
                                std::to_string(tok.offset));
    }
    if (tok.text.empty()) {
      return Status::ParseError("unterminated XML payload at offset " +
                                std::to_string(tok.offset));
    }
    Advance();
    UFILTER_ASSIGN_OR_RETURN(xml::NodePtr payload,
                             xml::Parse(std::string(tok.text)));
    *first_param = next_param_;
    NormalizePayload(payload.get(), &next_param_);
    return payload;
  }

  Lexer lexer_;
  bool update_;
  size_t pos_ = 0;
  /// The next literal parameter slot (updates only).
  int next_param_ = 0;
};

}  // namespace

Result<ViewQuery> ParseViewQuery(const std::string& source) {
  Parser parser(source, /*update=*/false);
  return parser.ParseViewQuery();
}

Result<UpdateStmt> ParseUpdate(const std::string& source) {
  Parser parser(source, /*update=*/true);
  return parser.ParseUpdateStmt();
}

}  // namespace ufilter::xq
