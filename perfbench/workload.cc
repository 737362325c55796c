#include "workload.h"

#include <cstdio>

namespace perfbench {

namespace {

// Row counts of relational::tpch::MakeDatabase at kScale.
constexpr int64_t kRegions = 5;
constexpr int64_t kNations = 25;
constexpr int64_t kCustomers = 600;
constexpr int64_t kOrders = 6000;
constexpr int64_t kLinesPerOrder = 4;
// Line numbers past the generated ones: reads insert into [5, 69), the
// apply_mixed writer into [1000, 2000), so no read's verdict ever depends
// on what the writer has applied so far.
constexpr int64_t kFreshLineBase = kLinesPerOrder + 1;
constexpr int64_t kFreshLineSpan = 64;
constexpr int64_t kWriterLineBase = 1000;
constexpr int64_t kWriterLineSpan = 1000;

/// Keys per template in the hot keyspace. A template with at most
/// kHotWholeKeyspace keys keeps all of them: a nation delete's cascade
/// grows with the nation's customers, so a seed-drawn handful of nations
/// would make the slowest 2% of requests, and with them p99, depend on the
/// seed. 9 templates x 3 keys + 5 regions + 25 nations = 57 texts, well
/// inside the 128-entry plan cache even when its shards fill unevenly.
constexpr int kHotKeysPerTemplate = 3;
constexpr int64_t kHotWholeKeyspace = kNations;

enum Template {
  kDeleteKeyLeaf,      // step 1: a key leaf cannot be deleted
  kDeleteRegion,       // step 2: regions are republished under the root
  kInsertMissingOrder, // step 3: Fig. 17 Fail1, the anchor order is absent
  kInsertTakenLine,    // step 3: the line number already exists
  kDeleteOrder,
  kDeleteCustomer,
  kDeleteNation,       // cascades over ~1,200 rows
  kInsertFreshLine,
  kReplaceName,
  kReplacePrice,
  kReplaceAndInsert,   // two actions: leaves the fast path
  kTemplateCount,
};

struct TemplateSpec {
  Expect expect;
  int per_mille;  // share of the read mix
  int64_t key_lo, key_hi;
};

// The funnel mix: 10% step-1, 15% step-2, 15% step-3 conflicts, 57%
// executed on the fast path (2% nation cascades), 3% escalated. The shares
// are assumptions, not measured from real traffic (see README.md); every
// run prints the shares it realised.
constexpr TemplateSpec kSpecs[kTemplateCount] = {
    {Expect::kInvalid, 100, 0, kCustomers},
    {Expect::kUntranslatable, 150, 0, kRegions},
    {Expect::kConflict, 75, kOrders, 10 * kOrders},
    {Expect::kConflict, 75, 0, kOrders},
    {Expect::kExecuted, 110, 0, kOrders},
    {Expect::kExecuted, 110, 0, kCustomers},
    {Expect::kExecuted, 20, 0, kNations},
    {Expect::kExecuted, 110, 0, kOrders},
    {Expect::kExecuted, 110, 0, kCustomers},
    {Expect::kExecuted, 110, 0, kOrders},
    {Expect::kEscalated, 30, 0, kOrders},
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char kCustomerPath[] = "document(\"V.xml\")/region/nation/customer";
const char kOrderPath[] = "document(\"V.xml\")/region/nation/customer/order";

std::string Num(int64_t v) { return std::to_string(v); }

/// A price in (0, 500000) with two decimals, as the CHECK o_totalprice > 0
/// constraint requires.
std::string Price(uint64_t r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%02llu",
                static_cast<unsigned long long>(10 + r % 499990),
                static_cast<unsigned long long>((r >> 20) % 100));
  return buf;
}

std::string LineitemXml(int64_t line) {
  return "<lineitem><l_linenumber>" + Num(line) +
         "</l_linenumber><l_quantity>5</l_quantity>"
         "<l_shipmode>AIR</l_shipmode></lineitem>";
}

std::string ForCustomer(int64_t c) {
  return std::string("FOR $customer IN ") + kCustomerPath +
         "\nWHERE $customer/c_custkey/text() = " + Num(c) +
         "\nUPDATE $customer {\n  ";
}

std::string ForOrder(int64_t o) {
  return std::string("FOR $order IN ") + kOrderPath +
         "\nWHERE $order/o_orderkey/text() = " + Num(o) +
         "\nUPDATE $order {\n  ";
}

/// Deletes the element of `tag` whose key leaf is `key`; the FOR chain
/// binds every ancestor, so the victim is bound last.
std::string DeleteElement(const char* tag, const char* key_leaf, int64_t key) {
  static const char* const kChain[] = {"region", "nation", "customer",
                                       "order"};
  std::string stmt = "FOR $root IN document(\"V.xml\")";
  std::string parent = "root";
  for (const char* level : kChain) {
    stmt += ",\n    $" + std::string(level) + " IN $" + parent + "/" + level;
    if (std::string(level) == tag) break;
    parent = level;
  }
  return stmt + "\nWHERE $" + tag + "/" + key_leaf + "/text() = " + Num(key) +
         "\nUPDATE $" + parent + " {\n  DELETE $" + tag + "\n}";
}

std::string DeleteLineitem(int64_t order, int64_t line) {
  return "FOR $root IN document(\"V.xml\"), $region IN $root/region,\n"
         "    $nation IN $region/nation, $customer IN $nation/customer,\n"
         "    $order IN $customer/order, $lineitem IN $order/lineitem\n"
         "WHERE $lineitem/l_linenumber/text() = " +
         Num(line) + " AND $order/o_orderkey/text() = " + Num(order) +
         "\nUPDATE $order {\n  DELETE $lineitem\n}";
}

std::string ReplaceName(int64_t c, uint64_t r) {
  return ForCustomer(c) + "REPLACE $customer/c_name WITH <c_name>Customer" +
         Num(c) + "v" + Num(static_cast<int64_t>(r % 1000)) +
         "</c_name>\n}";
}

std::string ReplacePrice(int64_t o, uint64_t r) {
  return ForOrder(o) + "REPLACE $order/o_totalprice WITH <o_totalprice>" +
         Price(r) + "</o_totalprice>\n}";
}

std::string InsertLine(int64_t o, int64_t line) {
  return ForOrder(o) + "INSERT " + LineitemXml(line) + "\n}";
}

/// The text of template `t` on key `key`; `r` supplies replacement values.
Request MakeRead(int t, int64_t key, uint64_t r) {
  Request req;
  req.expect = kSpecs[t].expect;
  switch (t) {
    case kDeleteKeyLeaf:
      req.text = ForCustomer(key) + "DELETE $customer/c_custkey\n}";
      break;
    case kDeleteRegion:
      req.text = DeleteElement("region", "r_regionkey", key);
      break;
    case kInsertMissingOrder:
    case kInsertTakenLine:
      req.text = InsertLine(key, 1 + key % kLinesPerOrder);
      break;
    case kDeleteOrder:
      req.text = DeleteElement("order", "o_orderkey", key);
      break;
    case kDeleteCustomer:
      req.text = DeleteElement("customer", "c_custkey", key);
      break;
    case kDeleteNation:
      req.text = DeleteElement("nation", "n_nationkey", key);
      break;
    case kInsertFreshLine:
      req.text = InsertLine(key, kFreshLineBase + key % kFreshLineSpan);
      break;
    case kReplaceName:
      req.text = ReplaceName(key, r);
      break;
    case kReplacePrice:
      req.text = ReplacePrice(key, r);
      break;
    case kReplaceAndInsert:
      req.text = ForOrder(key) +
                 "REPLACE $order/o_totalprice WITH <o_totalprice>" + Price(r) +
                 "</o_totalprice>,\n  INSERT " +
                 LineitemXml(kFreshLineBase + key % kFreshLineSpan) + "\n}";
      break;
  }
  return req;
}

}  // namespace

const char* ExpectName(Expect e) {
  switch (e) {
    case Expect::kInvalid:
      return "invalid";
    case Expect::kUntranslatable:
      return "untranslatable";
    case Expect::kConflict:
      return "conflict";
    case Expect::kExecuted:
      return "executed";
    case Expect::kEscalated:
      return "escalated";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kCheckHot, Workload::kCheckCold, Workload::kApplyMixed}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kCheckHot:
      return "check_hot";
    case Workload::kCheckCold:
      return "check_cold";
    case Workload::kApplyMixed:
      return "apply_mixed";
  }
  return "?";
}

Rng::Rng(uint64_t seed) : state_(SplitMix(seed) | 1) {}

uint64_t Rng::Next() {
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  return state_ * 0x2545F4914F6CDD1DULL;
}

ReadStream::ReadStream(Workload workload, uint64_t seed, int connection)
    : hot_(workload != Workload::kCheckCold),
      rng_(SplitMix(seed) ^ SplitMix(static_cast<uint64_t>(workload) * 131 +
                                     static_cast<uint64_t>(connection) + 1)) {
  if (!hot_) return;
  // The pools depend on the seed only, so every connection of a run shares
  // the same <= 57 texts.
  Rng pool_rng(SplitMix(seed ^ 0x686f74));
  pools_.resize(kTemplateCount);
  for (int t = 0; t < kTemplateCount; ++t) {
    const TemplateSpec& spec = kSpecs[t];
    if (spec.key_hi - spec.key_lo <= kHotWholeKeyspace) {
      for (int64_t k = spec.key_lo; k < spec.key_hi; ++k) {
        pools_[t].push_back(k);
      }
      continue;
    }
    for (int i = 0; i < kHotKeysPerTemplate; ++i) {
      pools_[t].push_back(pool_rng.Below(spec.key_lo, spec.key_hi));
    }
  }
}

Request ReadStream::Next() {
  int pick = static_cast<int>(rng_.Below(0, 1000));
  int t = 0;
  while (pick >= kSpecs[t].per_mille) {
    pick -= kSpecs[t].per_mille;
    ++t;
  }
  if (!hot_) {
    return MakeRead(t, rng_.Below(kSpecs[t].key_lo, kSpecs[t].key_hi),
                    rng_.Next());
  }
  int64_t key = pools_[t][rng_.Next() % pools_[t].size()];
  // Hot replacement values follow the key, so each (template, key) is one
  // text.
  return MakeRead(t, key, SplitMix(static_cast<uint64_t>(key)));
}

WriteStream::WriteStream(uint64_t seed) : rng_(SplitMix(seed ^ 0x777269)) {}

Request WriteStream::Next() {
  Request req;
  req.apply = true;
  req.expect = Expect::kExecuted;
  switch (count_++ % 3) {
    case 0:
      req.text = ReplaceName(rng_.Below(0, kCustomers), rng_.Next());
      break;
    case 1:
      req.text = ReplacePrice(rng_.Below(0, kOrders), rng_.Next());
      break;
    default:
      if (live_.size() - live_head_ < kPairLag) {
        int64_t order = rng_.Below(0, kOrders);
        int64_t line = kWriterLineBase +
                       static_cast<int64_t>(next_line_++ % kWriterLineSpan);
        live_.emplace_back(order, line);
        req.text = InsertLine(order, line);
      } else {
        auto [order, line] = live_[live_head_++];
        req.text = DeleteLineitem(order, line);
      }
      break;
  }
  return req;
}

std::vector<Request> ProbeRequests() {
  return {MakeRead(kDeleteKeyLeaf, 1, 0), MakeRead(kDeleteRegion, 0, 0),
          MakeRead(kInsertMissingOrder, kOrders + 1, 0),
          MakeRead(kDeleteOrder, 5, 0), MakeRead(kReplaceAndInsert, 7, 0)};
}

}  // namespace perfbench
