// Literal lifting: the U-Filter plan-cache key is an update's *shape*, its
// text with every literal value taken out. Everything U-Filter compiles for
// an update (binding, STAR, the step-3 probe plans) depends on the shape
// alone; the literal values come back per request as numbered parameters.
//
// What is lifted: each WHERE comparison literal (string or number) and each
// text run of a payload element. What the shape keeps: document("...")
// names, tags, paths, operators, each literal's lexical class (integer,
// decimal, string, payload text), and whether a payload element has text
// at all. Insignificant whitespace (outside literals, and between payload
// tags) collapses, so layout variants share a shape. Two updates share a
// shape exactly when they differ only in layout and in literal values of
// the same classes; the values themselves are kept byte for byte.
#ifndef UFILTER_XQUERY_NORMALIZE_H_
#define UFILTER_XQUERY_NORMALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace ufilter::xq {

/// Lexical class of a lifted literal; part of the shape.
enum class LiteralClass : uint8_t { kInteger, kDecimal, kString, kText };

/// One lifted literal, exactly as written: a number's digits, a string's
/// content without its quotes, or a payload text run with its entities.
struct Literal {
  LiteralClass cls = LiteralClass::kString;
  std::string text;
};

/// An update's shape plus its literals in source order. The parser numbers
/// literal operands and payload text nodes in the same order (see
/// Operand::param and UpdateAction::payload_param).
struct LiftedUpdate {
  std::string shape;
  std::vector<Literal> literals;
};

/// Lifts `source` in one tokenizer pass. Fails when the text does not lex
/// (with the tokenizer's error), when a payload never closes, or when a
/// payload holds markup other than tags (a comment, CDATA section or
/// processing instruction), whose text the lifter cannot split into runs.
Status LiftUpdate(std::string_view source, LiftedUpdate* out);

/// The shape of `source` (LiftUpdate's); text that does not lift keeps its
/// unlexed rest with whitespace collapsed. Never fails.
std::string NormalizeUpdateText(const std::string& source);

/// The value the parser reads for a literal: numbers and strings as typed
/// WHERE values, a payload text run as the text node it becomes (trimmed,
/// entities decoded, surrounding double quotes stripped). Fails only where
/// the parser fails: an integer out of range or an unknown entity.
Result<Value> LiteralValue(LiteralClass cls, std::string_view text);

/// The text node the parser makes of an already decoded payload text:
/// trimmed, with surrounding double quotes stripped (the paper writes
/// <bookid>"98004"</bookid> for string values).
std::string PayloadTextValue(const std::string& decoded);

/// FNV-1a hash of a shape, for cheap cache bucketing and for grouping one
/// template's requests in logs.
uint64_t HashUpdateTemplate(const std::string& normalized);

}  // namespace ufilter::xq

#endif  // UFILTER_XQUERY_NORMALIZE_H_
