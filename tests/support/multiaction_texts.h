// The book-view statements of tests/integration/multiaction_test.cc, shared
// with the check-path parity test.
#ifndef UFILTER_TESTS_SUPPORT_MULTIACTION_TEXTS_H_
#define UFILTER_TESTS_SUPPORT_MULTIACTION_TEXTS_H_

#include <string>
#include <vector>

namespace ufilter::test_support {

/// Book 98001 loses its reviews and gains review 009 ("replacement").
inline constexpr const char kDeleteThenInsert[] =
    "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
    "\"98001\" UPDATE $book { DELETE $book/review, INSERT "
    "<review><reviewid>009</reviewid><comment>replacement</comment>"
    "</review> }";
/// The same with comment "x".
inline constexpr const char kDeleteThenInsertX[] =
    "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
    "\"98001\" UPDATE $book { DELETE $book/review, INSERT "
    "<review><reviewid>009</reviewid><comment>x</comment></review> }";
/// The second action (deleting the publisher) is untranslatable.
inline constexpr const char kDeleteThenUntranslatable[] =
    "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
    "\"98001\" UPDATE $book { DELETE $book/review, DELETE "
    "$book/publisher }";
/// The delete must also remove the review the insert just added.
inline constexpr const char kInsertThenDelete[] =
    "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
    "\"98003\" UPDATE $book { INSERT <review><reviewid>009</reviewid>"
    "<comment>x</comment></review>, DELETE $book/review }";
/// One conditionally translatable delete (translation minimization).
inline constexpr const char kMinimizedDelete[] =
    "FOR $root IN document(\"v\"), $book = $root/book WHERE "
    "$book/price > 40.00 UPDATE $root { DELETE $book }";

inline std::vector<std::string> MultiActionTexts() {
  return {kDeleteThenInsert, kDeleteThenInsertX, kDeleteThenUntranslatable,
          kInsertThenDelete, kMinimizedDelete};
}

}  // namespace ufilter::test_support

#endif  // UFILTER_TESTS_SUPPORT_MULTIACTION_TEXTS_H_
