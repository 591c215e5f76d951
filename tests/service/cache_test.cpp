#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace cref::service {
namespace {

CacheEntry sample_positive() {
  CacheEntry e;
  e.relation = Relation::kConvergence;
  e.holds = true;
  e.reason = "";
  JobCertificate c;
  c.positive = true;
  c.rho = {3, 2, 1, 0};
  c.sigma = {0, 1, 0, 2};
  c.c_region = {1, 1, 0, 0};
  c.compressed.push_back({0, 3, {0, 1, 2, 3}});
  c.compressed.push_back({1, 3, {1, 2, 3}});
  e.certificate = std::move(c);
  return e;
}

CacheEntry sample_negative() {
  CacheEntry e;
  e.relation = Relation::kStabilizing;
  e.holds = false;
  e.reason = "stabilizing-to: C deadlocks in a state whose image is not a reachable deadlock of A";
  e.witness = {7};
  JobCertificate c;
  c.positive = false;
  c.kind = ViolationKind::kUnreachableImage;
  c.a_closed = {1, 1, 0};
  c.stab.a_reachable = {1, 0};  // unused for negatives but must round-trip
  e.certificate = std::move(c);
  return e;
}

void expect_equal(const CacheEntry& x, const CacheEntry& y) {
  EXPECT_EQ(x.relation, y.relation);
  EXPECT_EQ(x.holds, y.holds);
  EXPECT_EQ(x.reason, y.reason);
  EXPECT_EQ(x.witness, y.witness);
  ASSERT_EQ(x.certificate.has_value(), y.certificate.has_value());
  if (!x.certificate) return;
  const JobCertificate& a = *x.certificate;
  const JobCertificate& b = *y.certificate;
  EXPECT_EQ(a.positive, b.positive);
  EXPECT_EQ(a.rho, b.rho);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.c_region, b.c_region);
  ASSERT_EQ(a.compressed.size(), b.compressed.size());
  for (std::size_t i = 0; i < a.compressed.size(); ++i) {
    EXPECT_EQ(a.compressed[i].s, b.compressed[i].s);
    EXPECT_EQ(a.compressed[i].t, b.compressed[i].t);
    EXPECT_EQ(a.compressed[i].path, b.compressed[i].path);
  }
  EXPECT_EQ(a.stab.a_reachable, b.stab.a_reachable);
  EXPECT_EQ(a.stab.a_parent, b.stab.a_parent);
  EXPECT_EQ(a.stab.a_depth, b.stab.a_depth);
  EXPECT_EQ(a.stab.rho, b.stab.rho);
  EXPECT_EQ(a.stab.sigma, b.stab.sigma);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.init_path, b.init_path);
  EXPECT_EQ(a.a_closed, b.a_closed);
}

TEST(CacheSerializationTest, RoundTripsBothPolarities) {
  for (const CacheEntry& e : {sample_positive(), sample_negative()}) {
    auto back = parse_entry(serialize_entry(e));
    ASSERT_TRUE(back.has_value());
    expect_equal(e, *back);
  }
  CacheEntry bare;  // no certificate, empty reason/witness
  bare.relation = Relation::kEverywhere;
  bare.holds = true;
  auto back = parse_entry(serialize_entry(bare));
  ASSERT_TRUE(back.has_value());
  expect_equal(bare, *back);
}

TEST(CacheSerializationTest, StrictParserRejectsMalformedText) {
  const std::string good = serialize_entry(sample_positive());
  EXPECT_TRUE(parse_entry(good).has_value());

  EXPECT_FALSE(parse_entry("").has_value());
  EXPECT_FALSE(parse_entry("cref-cache 2\n").has_value());  // unknown version
  // Truncation: every strict prefix (cut at line boundaries) must fail.
  for (std::size_t pos = good.find('\n'); pos != std::string::npos && pos + 1 < good.size();
       pos = good.find('\n', pos + 1))
    EXPECT_FALSE(parse_entry(good.substr(0, pos + 1)).has_value()) << "prefix to " << pos;
  EXPECT_FALSE(parse_entry(good + "extra\n").has_value());  // trailing garbage

  std::string bad = good;
  bad.replace(bad.find("relation convergence"), 20, "relation mystery-rel");
  EXPECT_FALSE(parse_entry(bad).has_value());

  bad = good;
  bad.replace(bad.find("rho 4"), 5, "rho 9");  // count/payload mismatch
  EXPECT_FALSE(parse_entry(bad).has_value());

  bad = good;
  bad.replace(bad.find("1100"), 4, "11x0");  // bad region bit
  EXPECT_FALSE(parse_entry(bad).has_value());
}

TEST(CacheSerializationTest, AcceptsOnlyWhatTheWriterEmits) {
  // Every single-byte edit of a full entry either parses to an entry
  // that serializes back to exactly the edited text, or is a miss: the
  // parser takes no text the writer would not have written.
  CacheEntry e = sample_positive();
  e.reason = "two words";
  e.witness = {5, 6};
  JobCertificate& c = *e.certificate;
  c.stab.a_reachable = {1, 0, 1};
  c.stab.a_parent = {StabilizationCertificate::kNoParent, 0, 0};
  c.stab.a_depth = {0, 1, 1};
  c.stab.rho = {9};
  c.stab.sigma = {10};
  c.init_path = {2};
  c.a_closed = {0, 1};
  c.refine = "refine-cert 1\nend\n";
  const std::string good = serialize_entry(e);
  ASSERT_TRUE(parse_entry(good).has_value());
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::string> edits = {good.substr(0, i) + good.substr(i + 1),
                                      good.substr(0, i) + ' ' + good.substr(i)};
    for (char ch : {' ', '0', '1', '9', '-', '\n', 'x'})
      if (good[i] != ch) edits.push_back(good.substr(0, i) + ch + good.substr(i + 1));
    for (const std::string& text : edits) {
      const auto back = parse_entry(text);
      if (!back) continue;
      ++accepted;
      EXPECT_EQ(serialize_entry(*back), text);
    }
  }
  EXPECT_GT(accepted, 0u);  // digit edits inside lists stay well-formed
}

TEST(CacheSerializationTest, NumbersOutOfTheirFieldTypeAreAMiss) {
  CacheEntry e = sample_negative();
  e.certificate->stab.a_depth = {3};
  const std::string good = serialize_entry(e);
  std::string bad = good;
  bad.replace(bad.find("stab-depth 1 3"), 14, "stab-depth 1 4294967299");  // 2^32 + 3
  EXPECT_FALSE(parse_entry(bad).has_value());
  bad = good;
  bad.replace(bad.find("holds 0"), 7, "holds 00");
  EXPECT_FALSE(parse_entry(bad).has_value());
}

TEST(CacheLruTest, EvictsLeastRecentlyUsed) {
  VerdictCache cache(2);
  Digest k1 = hash_u64(1), k2 = hash_u64(2), k3 = hash_u64(3);
  CacheEntry e;
  e.reason = "one";
  cache.store(k1, e);
  e.reason = "two";
  cache.store(k2, e);
  ASSERT_TRUE(cache.lookup(k1).has_value());  // refresh k1: k2 becomes LRU
  e.reason = "three";
  cache.store(k3, e);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(k2).has_value());
  ASSERT_TRUE(cache.lookup(k1).has_value());
  EXPECT_EQ(cache.lookup(k1)->reason, "one");
  EXPECT_EQ(cache.lookup(k3)->reason, "three");
}

TEST(CacheDiskTest, PersistsAcrossInstancesAndRejectsTamperedFiles) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "cref-cache-test").string();
  std::filesystem::remove_all(dir);
  const Digest key = hash_u64(99);
  {
    VerdictCache cache(4, dir);
    cache.store(key, sample_negative());
  }
  VerdictCache fresh(4, dir);
  auto hit = fresh.lookup(key);
  ASSERT_TRUE(hit.has_value());
  expect_equal(sample_negative(), *hit);

  // Corrupt the file: a fresh instance must treat it as a miss.
  const auto file = std::filesystem::path(dir) / (key.hex() + ".entry");
  ASSERT_TRUE(std::filesystem::exists(file));
  std::ofstream(file, std::ios::trunc) << "cref-cache 1\ngarbage\n";
  VerdictCache fresh2(4, dir);
  EXPECT_FALSE(fresh2.lookup(key).has_value());
}

}  // namespace
}  // namespace cref::service
