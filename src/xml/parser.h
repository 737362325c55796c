// Minimal XML parser for the fragment the library emits and consumes:
// elements, text, entities, comments. No attributes/namespaces/CDATA (the
// paper's views and update payloads use none).
#ifndef UFILTER_XML_PARSER_H_
#define UFILTER_XML_PARSER_H_

#include <string>

#include "common/result.h"
#include "xml/node.h"

namespace ufilter::xml {

/// Parses `text` into a single root element.
Result<NodePtr> Parse(const std::string& text);

/// Decodes the five predefined entities (&amp; &lt; &gt; &quot; &apos;) in
/// character data, as Parse does for every text node.
Result<std::string> DecodeText(const std::string& raw);

}  // namespace ufilter::xml

#endif  // UFILTER_XML_PARSER_H_
