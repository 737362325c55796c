// Literal-lifted plans must be invisible in every report: the plan cache
// keys on an update's shape (its text with the literal values taken out),
// so a request is often served by a plan compiled from another request's
// text. This suite pins that down against a golden corpus of full reports.
//
//  - GoldenReports: every corpus text, compiled on a fresh instance, gives
//    the report recorded in shape_golden.txt.
//  - Same-shape pairs: for every ordered pair (A, B) of corpus texts that
//    share a shape, checking B right after A (so B binds its values into
//    A's cached plan) gives B's golden report — in process, through the
//    check service's fast path and writer lane, and over the wire.
//
// The golden file was recorded from the compile-per-text implementation
// that preceded literal lifting. To re-record it (only when a report is
// meant to change), run this binary with UFILTER_WRITE_GOLDEN=1 and
// --gtest_filter=ShapeEquivalenceTest.GoldenReports.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures/bookdb.h"
#include "fixtures/psd.h"
#include "fixtures/tpch_views.h"
#include "net/client.h"
#include "net/server.h"
#include "relational/sqlgen.h"
#include "relational/tpch.h"
#include "service/check_service.h"
#include "ufilter/checker.h"
#include "xquery/normalize.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::UFilter;
using relational::Database;

enum class Fixture { kBook, kTpch, kPsdKeyword, kPsdProtein };

struct Case {
  std::string name;
  Fixture fixture;
  std::string text;
};

// --- Corpus ----------------------------------------------------------------

/// `text` with the first occurrence of `from` replaced by `to`.
std::string Swap(std::string text, const std::string& from,
                 const std::string& to) {
  size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from << " not in " << text;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

// The TPC-H texts follow the request templates of the wire-to-verdict
// benchmark (Vfail over region, keys drawn from a scale-0.2 database:
// customers 0..29, orders 0..299, nations 0..24, regions 0..4).
const char kCustomerPath[] = "document(\"V.xml\")/region/nation/customer";
const char kOrderPath[] = "document(\"V.xml\")/region/nation/customer/order";

std::string ForCustomer(const std::string& key) {
  return std::string("FOR $customer IN ") + kCustomerPath +
         "\nWHERE $customer/c_custkey/text() = " + key +
         "\nUPDATE $customer {\n  ";
}

std::string ForOrder(const std::string& key) {
  return std::string("FOR $order IN ") + kOrderPath +
         "\nWHERE $order/o_orderkey/text() = " + key +
         "\nUPDATE $order {\n  ";
}

std::string LineitemXml(int line, const std::string& quantity = "5") {
  return "<lineitem><l_linenumber>" + std::to_string(line) +
         "</l_linenumber><l_quantity>" + quantity +
         "</l_quantity><l_shipmode>AIR</l_shipmode></lineitem>";
}

std::string ReplaceName(const std::string& key, const std::string& name) {
  return ForCustomer(key) + "REPLACE $customer/c_name WITH <c_name>" + name +
         "</c_name>\n}";
}

std::string ReplacePrice(const std::string& key, const std::string& price) {
  return ForOrder(key) + "REPLACE $order/o_totalprice WITH <o_totalprice>" +
         price + "</o_totalprice>\n}";
}

std::string InsertLine(const std::string& key, int line,
                       const std::string& quantity = "5") {
  return ForOrder(key) + "INSERT " + LineitemXml(line, quantity) + "\n}";
}

std::string ReplaceAndInsert(const std::string& key, const std::string& price,
                             int line) {
  return ForOrder(key) + "REPLACE $order/o_totalprice WITH <o_totalprice>" +
         price + "</o_totalprice>,\n  INSERT " + LineitemXml(line) + "\n}";
}

std::vector<Case> Corpus() {
  std::vector<Case> cases;
  auto add = [&](std::string name, Fixture f, std::string text) {
    cases.push_back({std::move(name), f, std::move(text)});
  };

  // Book view: the paper's running example and literal variants of it.
  for (int u = 1; u <= 13; ++u) {
    add("u" + std::to_string(u), Fixture::kBook, fixtures::PaperUpdate(u));
  }
  const std::string& u2 = fixtures::PaperUpdate(2);
  const std::string& u4 = fixtures::PaperUpdate(4);
  const std::string& u5 = fixtures::PaperUpdate(5);
  const std::string& u8 = fixtures::PaperUpdate(8);
  const std::string& u10 = fixtures::PaperUpdate(10);
  const std::string& u12 = fixtures::PaperUpdate(12);
  const std::string& u13 = fixtures::PaperUpdate(13);
  add("u2_other_book", Fixture::kBook, Swap(u2, "\"98001\"", "\"98003\""));
  add("u5_price60", Fixture::kBook, Swap(u5, "50.00", "60.00"));
  add("u8_price45_50", Fixture::kBook, Swap(u8, "40.00", "45.50"));
  add("u8_price_negative", Fixture::kBook, Swap(u8, "40.00", "-5.00"));
  add("u8_price_int40", Fixture::kBook, Swap(u8, "40.00", "40"));
  add("u8_price_int_negative", Fixture::kBook, Swap(u8, "40.00", "-1"));
  add("u8_price_int_overflow", Fixture::kBook,
      Swap(u8, "40.00", "99999999999999999999"));
  add("u10_price30", Fixture::kBook, Swap(u10, "40.00", "30.00"));
  add("u12_single_quoted", Fixture::kBook,
      Swap(u12, "\"Data on the Web\"", "'Data on the Web'"));
  add("u12_padded", Fixture::kBook,
      Swap(u12, "\"Data on the Web\"", "\"  Data on the Web  \""));
  add("u13_other_review", Fixture::kBook,
      Swap(Swap(u13, "001", "002"), "Easy read and useful.",
           "Dense but thorough."));
  add("u13_entity", Fixture::kBook,
      Swap(u13, "Easy read and useful.", "Easy read &amp; useful."));
  add("u13_bad_entity", Fixture::kBook,
      Swap(u13, "Easy read and useful.", "Easy read &bogus; useful."));
  add("u4_new_book", Fixture::kBook,
      Swap(Swap(Swap(u4, "\"98001\"", "\"98005\""), "\"Operating Systems\"",
                "Compilers"),
           "20.00", "30.00"));
  add("u4_price_zero", Fixture::kBook, Swap(u4, "20.00", "0.00"));
  add("u4_price_not_a_number", Fixture::kBook, Swap(u4, "20.00", "cheap"));
  add("u4_title_quoted_empty", Fixture::kBook,
      Swap(u4, "\"Operating Systems\"", "\"\""));
  const std::string literal_pair =
      "FOR $book IN document(\"BookView.xml\")/book\nWHERE 1 = 2\n"
      "UPDATE $book {\n  DELETE $book/review\n}";
  add("literal_vs_literal", Fixture::kBook, literal_pair);
  add("literal_vs_literal_other", Fixture::kBook,
      Swap(literal_pair, "1 = 2", "3 = 4"));
  add("not_an_update", Fixture::kBook, "THIS IS NOT AN UPDATE");
  add("unlexable", Fixture::kBook, "FOR $b IN `x`");

  // TPC-H Vfail(region): every benchmark template, present and missing
  // keys, and values that break NOT NULL, a CHECK or a domain.
  add("delete_key_leaf", Fixture::kTpch,
      ForCustomer("3") + "DELETE $customer/c_custkey\n}");
  add("delete_key_leaf_missing", Fixture::kTpch,
      ForCustomer("999") + "DELETE $customer/c_custkey\n}");
  add("delete_region", Fixture::kTpch,
      fixtures::DeleteElementUpdate("region", 1));
  add("delete_region_missing", Fixture::kTpch,
      fixtures::DeleteElementUpdate("region", 7));
  add("insert_missing_order", Fixture::kTpch, InsertLine("5000", 1));
  add("insert_taken_line", Fixture::kTpch, InsertLine("17", 2));
  add("insert_fresh_line", Fixture::kTpch, InsertLine("17", 9));
  add("insert_fresh_line_other", Fixture::kTpch, InsertLine("250", 12));
  add("insert_quantity_zero", Fixture::kTpch, InsertLine("17", 10, "0"));
  add("delete_order", Fixture::kTpch,
      fixtures::DeleteElementUpdate("order", 42));
  add("delete_order_missing", Fixture::kTpch,
      fixtures::DeleteElementUpdate("order", 4242));
  add("delete_customer", Fixture::kTpch,
      fixtures::DeleteElementUpdate("customer", 7));
  add("delete_customer_missing", Fixture::kTpch,
      fixtures::DeleteElementUpdate("customer", 777));
  add("delete_nation", Fixture::kTpch,
      fixtures::DeleteElementUpdate("nation", 3));
  add("delete_nation_missing", Fixture::kTpch,
      fixtures::DeleteElementUpdate("nation", 30));
  add("delete_lineitem", Fixture::kTpch,
      fixtures::DeleteElementUpdate("lineitem", 3));
  add("replace_name", Fixture::kTpch, ReplaceName("5", "Customer5v17"));
  add("replace_name_missing", Fixture::kTpch,
      ReplaceName("555", "Customer555v3"));
  add("replace_name_negative_key", Fixture::kTpch,
      ReplaceName("-3", "Customer3v1"));
  add("replace_name_spaced", Fixture::kTpch, ReplaceName("5", "Ann   Lee"));
  add("replace_name_single_spaced", Fixture::kTpch,
      ReplaceName("5", "Ann Lee"));
  add("replace_name_quoted_empty", Fixture::kTpch, ReplaceName("5", "\"\""));
  add("replace_name_empty", Fixture::kTpch, ReplaceName("5", ""));
  add("replace_price", Fixture::kTpch, ReplacePrice("9", "1234.56"));
  add("replace_price_missing", Fixture::kTpch, ReplacePrice("9999", "12.50"));
  add("replace_price_negative", Fixture::kTpch, ReplacePrice("9", "-5.00"));
  add("replace_price_zero", Fixture::kTpch, ReplacePrice("9", "0"));
  add("replace_price_not_a_number", Fixture::kTpch,
      ReplacePrice("9", "abc"));
  add("replace_and_insert", Fixture::kTpch,
      ReplaceAndInsert("11", "99.95", 7));
  add("replace_and_insert_other", Fixture::kTpch,
      ReplaceAndInsert("12", "10.00", 8));
  add("delete_customer_by_name", Fixture::kTpch,
      "FOR $root IN document(\"V.xml\"), $region IN $root/region,\n"
      "    $nation IN $region/nation, $customer IN $nation/customer\n"
      "WHERE $customer/c_name/text() = \"Customer#4\"\n"
      "UPDATE $nation {\n  DELETE $customer\n}");
  add("delete_customer_by_other_name", Fixture::kTpch,
      "FOR $root IN document(\"V.xml\"), $region IN $root/region,\n"
      "    $nation IN $region/nation, $customer IN $nation/customer\n"
      "WHERE $customer/c_name/text() = \"Customer#404\"\n"
      "UPDATE $nation {\n  DELETE $customer\n}");
  add("delete_orders_over_price", Fixture::kTpch,
      "FOR $root IN document(\"V.xml\"), $region IN $root/region,\n"
      "    $nation IN $region/nation, $customer IN $nation/customer,\n"
      "    $order IN $customer/order\n"
      "WHERE $order/o_totalprice/text() > 495000.50 AND "
      "$customer/c_custkey/text() < 10\n"
      "UPDATE $customer {\n  DELETE $order\n}");
  add("delete_orders_over_other_price", Fixture::kTpch,
      "FOR $root IN document(\"V.xml\"), $region IN $root/region,\n"
      "    $nation IN $region/nation, $customer IN $nation/customer,\n"
      "    $order IN $customer/order\n"
      "WHERE $order/o_totalprice/text() > 400000.00 AND "
      "$customer/c_custkey/text() < 3\n"
      "UPDATE $customer {\n  DELETE $order\n}");

  // PSD: a view that is not well-nested, and a protein-centric one.
  const std::string kw_delete =
      "FOR $keyword IN document(\"v\")/keyword, $protein IN "
      "$keyword/protein WHERE $keyword/kid/text() = \"K01\" AND "
      "$protein/pid/text() = \"P001\" UPDATE $keyword { DELETE $protein }";
  add("psd_keyword_delete", Fixture::kPsdKeyword, kw_delete);
  add("psd_keyword_delete_other", Fixture::kPsdKeyword,
      Swap(Swap(kw_delete, "K01", "K02"), "P001", "P002"));
  const std::string kw_insert =
      "FOR $keyword IN document(\"v\")/keyword WHERE $keyword/kid/text() = "
      "\"K01\" UPDATE $keyword { INSERT <protein><pid>P003</pid>"
      "<name>Lysozyme C</name><annotation><aid>A9</aid>"
      "<note>new link</note></annotation></protein> }";
  add("psd_keyword_insert", Fixture::kPsdKeyword, kw_insert);
  add("psd_keyword_insert_other", Fixture::kPsdKeyword,
      Swap(Swap(Swap(kw_insert, "K01", "K02"), "A9", "A8"), "new link",
           "second link"));
  const std::string protein_delete =
      "FOR $root IN document(\"v\"), $protein = $root/protein WHERE "
      "$protein/pid/text() = \"P003\" UPDATE $root { DELETE $protein }";
  add("psd_protein_delete", Fixture::kPsdProtein, protein_delete);
  add("psd_protein_delete_other", Fixture::kPsdProtein,
      Swap(protein_delete, "P003", "P001"));
  return cases;
}

// --- Instances ---------------------------------------------------------------

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
};

std::unique_ptr<Database> MakeDatabase(Fixture f) {
  Result<std::unique_ptr<Database>> db = Status::Internal("no fixture");
  switch (f) {
    case Fixture::kBook:
      db = fixtures::MakeBookDatabase();
      break;
    case Fixture::kTpch: {
      relational::tpch::TpchOptions options;
      options.scale = 0.2;
      db = relational::tpch::MakeDatabase(options);
      break;
    }
    case Fixture::kPsdKeyword:
    case Fixture::kPsdProtein:
      db = fixtures::MakePsdDatabase();
      break;
  }
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

std::string ViewQuery(Fixture f) {
  switch (f) {
    case Fixture::kBook:
      return fixtures::BookViewQuery();
    case Fixture::kTpch:
      return fixtures::VFailQuery("region");
    case Fixture::kPsdKeyword:
      return fixtures::PsdKeywordViewQuery();
    case Fixture::kPsdProtein:
      return fixtures::PsdProteinViewQuery();
  }
  return "";
}

std::unique_ptr<UFilter> MakeFilter(Database* db, Fixture f) {
  auto uf = UFilter::Create(db, ViewQuery(f));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  return uf.ok() ? std::move(*uf) : nullptr;
}

Instance MakeInstance(Fixture f) {
  Instance inst;
  inst.db = MakeDatabase(f);
  inst.uf = MakeFilter(inst.db.get(), f);
  return inst;
}

// --- Canonical report text -------------------------------------------------

/// One field per line; newlines and backslashes escaped so a field never
/// spans lines. Timings are left out: they are the only report fields
/// that may differ between two runs of the same check.
std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string Canonical(const CheckReport& r) {
  std::string out;
  out += "outcome: " + std::string(check::CheckOutcomeName(r.outcome)) + "\n";
  out += "error: " + Escape(r.error.ToString()) + "\n";
  out += "star: " + std::string(check::TranslatabilityName(r.star_class)) +
         "\n";
  out += "condition: " + Escape(r.condition) + "\n";
  out += "translation: " +
         Escape(relational::UpdateSequenceToSql(r.translation)) + "\n";
  out += "rows: " + std::to_string(r.rows_affected) + "\n";
  out += "zero_tuple: " + std::to_string(r.zero_tuple_warning ? 1 : 0) + "\n";
  for (const std::string& p : r.probes) out += "probe: " + Escape(p) + "\n";
  return out;
}

std::string GoldenPath() {
  std::string file = __FILE__;
  return file.substr(0, file.rfind('/')) + "/shape_golden.txt";
}

/// Case name -> canonical report, from the golden file.
std::map<std::string, std::string> LoadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(GoldenPath());
  EXPECT_TRUE(in.good()) << "cannot read " << GoldenPath();
  std::string line;
  std::string* current = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("=== ", 0) == 0) {
      current = &golden[line.substr(4)];
    } else if (current != nullptr && !line.empty() && line[0] != '#') {
      *current += line + "\n";
    }
  }
  return golden;
}

CheckOptions Dry() {
  CheckOptions dry;
  dry.apply = false;
  return dry;
}

/// Ordered pairs (A, B), A != B, of corpus texts that share a fixture and a
/// shape.
std::vector<std::pair<const Case*, const Case*>> SameShapePairs(
    const std::vector<Case>& corpus) {
  std::vector<std::pair<const Case*, const Case*>> pairs;
  for (const Case& a : corpus) {
    for (const Case& b : corpus) {
      if (&a == &b || a.fixture != b.fixture || a.text == b.text) continue;
      if (xq::NormalizeUpdateText(a.text) == xq::NormalizeUpdateText(b.text)) {
        pairs.emplace_back(&a, &b);
      }
    }
  }
  return pairs;
}

class ShapeEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = Corpus();
    if (std::getenv("UFILTER_WRITE_GOLDEN") == nullptr) golden_ = LoadGolden();
  }

  /// The golden report of `c` (fails the test when it is missing).
  std::string Golden(const Case& c) {
    auto it = golden_.find(c.name);
    EXPECT_NE(it, golden_.end()) << "no golden report for " << c.name;
    return it == golden_.end() ? "" : it->second;
  }

  std::vector<Case> corpus_;
  std::map<std::string, std::string> golden_;
};

// --- Tests -------------------------------------------------------------------

TEST_F(ShapeEquivalenceTest, GoldenReports) {
  std::map<Fixture, std::unique_ptr<Database>> dbs;
  std::ostringstream written;
  written << "# Golden CheckReports of tests/integration/"
             "shape_equivalence_test.cc:\n# each text compiled alone on a "
             "fresh U-Filter instance, apply=false.\n";
  for (const Case& c : corpus_) {
    std::unique_ptr<Database>& db = dbs[c.fixture];
    if (db == nullptr) db = MakeDatabase(c.fixture);
    std::unique_ptr<UFilter> uf = MakeFilter(db.get(), c.fixture);
    ASSERT_NE(uf, nullptr);
    std::string got = Canonical(uf->Check(c.text, Dry()));
    written << "=== " << c.name << "\n" << got;
    if (golden_.empty()) continue;  // recording
    EXPECT_EQ(got, Golden(c)) << c.name << ":\n" << c.text;
  }
  if (std::getenv("UFILTER_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    out << written.str();
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
  }
}

TEST_F(ShapeEquivalenceTest, CorpusCoversSharedShapes) {
  // The pair tests below are only as strong as the pairs they see: the
  // paper's u3/u13 (conflict vs executed) and u11/u12 (conflict vs
  // zero-tuple warning) must be among them.
  auto pairs = SameShapePairs(corpus_);
  auto has = [&](const std::string& a, const std::string& b) {
    for (const auto& [x, y] : pairs) {
      if (x->name == a && y->name == b) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("u3", "u13"));
  EXPECT_TRUE(has("u13", "u3"));
  EXPECT_TRUE(has("u11", "u12"));
  EXPECT_TRUE(has("u12", "u11"));
  EXPECT_TRUE(has("insert_taken_line", "insert_fresh_line"));
  EXPECT_TRUE(has("replace_name_spaced", "replace_name_single_spaced"));
  EXPECT_TRUE(has("replace_and_insert", "replace_and_insert_other"));
  EXPECT_FALSE(has("u1", "u4")) << "an empty <title> is its own shape";
  EXPECT_GE(pairs.size(), 60u);
}

TEST_F(ShapeEquivalenceTest, SameShapePairsInProcess) {
  std::map<Fixture, std::unique_ptr<Database>> dbs;
  for (const auto& [a, b] : SameShapePairs(corpus_)) {
    std::unique_ptr<Database>& db = dbs[a->fixture];
    if (db == nullptr) db = MakeDatabase(a->fixture);
    std::unique_ptr<UFilter> uf = MakeFilter(db.get(), a->fixture);
    ASSERT_NE(uf, nullptr);
    (void)uf->Check(a->text, Dry());
    EXPECT_EQ(Canonical(uf->Check(b->text, Dry())), Golden(*b))
        << b->name << " after " << a->name;
  }
}

TEST_F(ShapeEquivalenceTest, SameShapePairsThroughService) {
  // Fast path: both requests check-only. Writer lane: B applied (the
  // database changes, so each pair gets a fresh instance).
  for (const auto& [a, b] : SameShapePairs(corpus_)) {
    Instance inst = MakeInstance(a->fixture);
    ASSERT_NE(inst.uf, nullptr);
    service::CheckServiceOptions options;
    options.worker_threads = 1;
    service::CheckService svc(inst.uf.get(), options);
    auto session = svc.OpenSession();
    (void)svc.Submit(session, a->text, Dry()).get();
    EXPECT_EQ(Canonical(svc.Submit(session, b->text, Dry()).get()),
              Golden(*b))
        << b->name << " after " << a->name << " (fast path)";
    CheckOptions apply;
    apply.apply = true;
    EXPECT_EQ(Canonical(svc.Submit(session, b->text, apply).get()),
              Golden(*b))
        << b->name << " after " << a->name << " (writer lane)";
  }
}

TEST_F(ShapeEquivalenceTest, SameShapePairsOverTheWire) {
  std::map<Fixture, Instance> instances;
  std::map<Fixture, std::unique_ptr<net::Server>> servers;
  for (const auto& [a, b] : SameShapePairs(corpus_)) {
    Instance& inst = instances[a->fixture];
    if (inst.uf == nullptr) inst = MakeInstance(a->fixture);
    std::unique_ptr<net::Server>& server = servers[a->fixture];
    if (server == nullptr) {
      net::ServerOptions opts;
      opts.service.worker_threads = 1;
      auto started = net::Server::Start(inst.uf.get(), opts);
      ASSERT_TRUE(started.ok()) << started.status().ToString();
      server = std::move(*started);
    }
    // Each pair starts from an empty cache, so B binds into A's plan.
    inst.uf->plan_cache().Clear();
    net::ClientOptions client_opts;
    client_opts.port = server->port();
    net::Client client(client_opts);
    ASSERT_TRUE(client.Check(a->text, /*apply=*/false).ok());
    auto resp = client.Check(b->text, /*apply=*/false);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    // The wire carries the verdict, the error and the row count.
    std::string wire = "outcome: " + std::string(net::VerdictName(
                                         resp->verdict)) +
                       "\nerror: " + resp->message +
                       "\nrows: " + std::to_string(resp->rows_affected);
    Instance fresh = MakeInstance(b->fixture);
    CheckReport expected = fresh.uf->Check(b->text, Dry());
    std::string want =
        "outcome: " +
        std::string(net::VerdictName(
            expected.outcome == CheckOutcome::kExecuted ? net::Verdict::kExecuted
            : expected.outcome == CheckOutcome::kInvalid
                ? net::Verdict::kInvalid
            : expected.outcome == CheckOutcome::kUntranslatable
                ? net::Verdict::kUntranslatable
                : net::Verdict::kDataConflict)) +
        "\nerror: " + expected.error.message() +
        "\nrows: " + std::to_string(expected.rows_affected);
    EXPECT_EQ(wire, want) << b->name << " after " << a->name;
    EXPECT_EQ(Canonical(expected), Golden(*b)) << b->name;
  }
}

}  // namespace
}  // namespace ufilter
