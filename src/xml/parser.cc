#include "xml/parser.h"

#include <cctype>

#include "common/strings.h"

namespace ufilter::xml {

namespace {

/// Element-nesting ceiling: ParseElement recurses per level, so without a
/// cap a hostile document ("<a><a><a>..." — a few hundred KB is enough)
/// overflows the stack instead of returning Status. Far above any real
/// view document, far below any stack limit.
constexpr int kMaxElementDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<NodePtr> ParseDocument() {
    SkipProlog();
    UFILTER_ASSIGN_OR_RETURN(NodePtr root, ParseElement(/*depth=*/0));
    SkipWhitespaceAndComments();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing content after root element at " +
                                std::to_string(pos_));
    }
    return root;
  }

 private:
  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_.compare(pos_, 4, "<!--") == 0) {
        size_t end = text_.find("-->", pos_ + 4);
        pos_ = (end == std::string::npos) ? text_.size() : end + 3;
      } else {
        break;
      }
    }
  }

  void SkipProlog() {
    SkipWhitespaceAndComments();
    if (text_.compare(pos_, 5, "<?xml") == 0) {
      size_t end = text_.find("?>", pos_);
      pos_ = (end == std::string::npos) ? text_.size() : end + 2;
    }
    SkipWhitespaceAndComments();
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == '.' ||
            text_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::ParseError("expected name at offset " +
                                std::to_string(pos_));
    }
    return text_.substr(start, pos_ - start);
  }

  Result<NodePtr> ParseElement(int depth) {
    if (depth >= kMaxElementDepth) {
      return Status::ParseError("element nesting deeper than " +
                                std::to_string(kMaxElementDepth) +
                                " at offset " + std::to_string(pos_));
    }
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Status::ParseError("expected '<' at offset " +
                                std::to_string(pos_));
    }
    ++pos_;
    UFILTER_ASSIGN_OR_RETURN(std::string tag, ParseName());
    // Skip (and ignore) whitespace before '>' or '/>'.
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (text_.compare(pos_, 2, "/>") == 0) {
      pos_ += 2;
      return Node::Element(tag);
    }
    if (pos_ >= text_.size() || text_[pos_] != '>') {
      return Status::ParseError("malformed start tag <" + tag + ">");
    }
    ++pos_;

    NodePtr element = Node::Element(tag);
    std::string text_run;
    auto FlushText = [&]() -> Status {
      std::string trimmed = Trim(text_run);
      text_run.clear();
      if (trimmed.empty()) return Status::OK();
      UFILTER_ASSIGN_OR_RETURN(std::string decoded, DecodeText(trimmed));
      element->AddChild(Node::Text(decoded));
      return Status::OK();
    };

    while (true) {
      if (pos_ >= text_.size()) {
        return Status::ParseError("unterminated element <" + tag + ">");
      }
      if (text_.compare(pos_, 4, "<!--") == 0) {
        size_t end = text_.find("-->", pos_ + 4);
        pos_ = (end == std::string::npos) ? text_.size() : end + 3;
        continue;
      }
      if (text_.compare(pos_, 2, "</") == 0) {
        UFILTER_RETURN_NOT_OK(FlushText());
        pos_ += 2;
        UFILTER_ASSIGN_OR_RETURN(std::string close, ParseName());
        if (close != tag) {
          return Status::ParseError("mismatched close tag </" + close +
                                    "> for <" + tag + ">");
        }
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Status::ParseError("malformed close tag </" + tag + ">");
        }
        ++pos_;
        return element;
      }
      if (text_[pos_] == '<') {
        UFILTER_RETURN_NOT_OK(FlushText());
        UFILTER_ASSIGN_OR_RETURN(NodePtr child, ParseElement(depth + 1));
        element->AddChild(std::move(child));
        continue;
      }
      text_run += text_[pos_++];
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::string> DecodeText(const std::string& raw) {
  std::string out;
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] != '&') {
      out += raw[i++];
      continue;
    }
    size_t semi = raw.find(';', i);
    if (semi == std::string::npos) {
      return Status::ParseError("unterminated entity");
    }
    std::string ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out += '&';
    } else if (ent == "lt") {
      out += '<';
    } else if (ent == "gt") {
      out += '>';
    } else if (ent == "quot") {
      out += '"';
    } else if (ent == "apos") {
      out += '\'';
    } else {
      return Status::ParseError("unknown entity '&" + ent + ";'");
    }
    i = semi + 1;
  }
  return out;
}

Result<NodePtr> Parse(const std::string& text) {
  Parser parser(text);
  return parser.ParseDocument();
}

}  // namespace ufilter::xml
