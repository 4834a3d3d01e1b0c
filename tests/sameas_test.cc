#include "sameas/sameas_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sameas/translator.h"
#include "sameas/union_find.h"
#include "util/random.h"

namespace sofya {
namespace {

TEST(UnionFindTest, SingletonsAreTheirOwnRoots) {
  UnionFind uf(3);
  EXPECT_EQ(uf.Find(0), 0u);
  EXPECT_EQ(uf.Find(2), 2u);
  EXPECT_FALSE(uf.Connected(0, 1));
}

TEST(UnionFindTest, UnionConnects) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(0, 1));  // Already merged.
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.SetSize(1), 2u);
}

TEST(UnionFindTest, TransitivityAcrossChains) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 3));
  EXPECT_EQ(uf.SetSize(0), 4u);
  EXPECT_FALSE(uf.Connected(0, 4));
}

TEST(UnionFindTest, GrowPreservesExistingSets) {
  UnionFind uf(2);
  uf.Union(0, 1);
  uf.Grow(5);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 4));
  EXPECT_EQ(uf.size(), 5u);
}

// Property: union-find equivalence matches a brute-force reachability check.
class UnionFindProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnionFindProperty, MatchesBruteForceClosure) {
  Rng rng(GetParam());
  const size_t n = 40;
  UnionFind uf(n);
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) adj[i][i] = true;
  for (int e = 0; e < 30; ++e) {
    const size_t a = rng.Below(n);
    const size_t b = rng.Below(n);
    uf.Union(a, b);
    adj[a][b] = adj[b][a] = true;
  }
  // Floyd-Warshall closure.
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (adj[i][k] && adj[k][j]) adj[i][j] = true;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(uf.Connected(i, j), adj[i][j]) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFindProperty,
                         ::testing::Values(1ULL, 9ULL, 77ULL));

Term Kb1(const std::string& local) { return Term::Iri("http://kb1/" + local); }
Term Kb2(const std::string& local) { return Term::Iri("http://kb2/" + local); }

TEST(SameAsIndexTest, LinkMakesEquivalent) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  EXPECT_TRUE(index.AreEquivalent(Kb1("a"), Kb2("a")));
  EXPECT_TRUE(index.AreEquivalent(Kb2("a"), Kb1("a")));
  EXPECT_FALSE(index.AreEquivalent(Kb1("a"), Kb2("b")));
  EXPECT_EQ(index.num_links(), 1u);
  EXPECT_EQ(index.num_terms(), 2u);
}

TEST(SameAsIndexTest, UnknownTermsNeverEquivalent) {
  SameAsIndex index;
  EXPECT_FALSE(index.AreEquivalent(Kb1("x"), Kb2("x")));
}

TEST(SameAsIndexTest, TransitiveChains) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  index.AddLink(Kb2("a"), Term::Iri("http://kb3/a"));
  EXPECT_TRUE(index.AreEquivalent(Kb1("a"), Term::Iri("http://kb3/a")));
}

TEST(SameAsIndexTest, RedundantLinksDontInflateCount) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  index.AddLink(Kb2("a"), Kb1("a"));
  EXPECT_EQ(index.num_links(), 1u);
}

TEST(SameAsIndexTest, EquivalentsOfExcludesSelf) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  index.AddLink(Kb1("a"), Term::Iri("http://kb3/a"));
  auto eq = index.EquivalentsOf(Kb1("a"));
  ASSERT_EQ(eq.size(), 2u);
  for (const Term& t : eq) EXPECT_NE(t, Kb1("a"));
  EXPECT_TRUE(index.EquivalentsOf(Kb1("unknown")).empty());
}

TEST(SameAsIndexTest, TranslateToFindsNamespaceMatch) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("aX"));
  auto translated = index.TranslateTo(Kb1("a"), "http://kb2/");
  ASSERT_TRUE(translated.ok());
  EXPECT_EQ(*translated, Kb2("aX"));
}

TEST(SameAsIndexTest, TranslateToErrors) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  EXPECT_TRUE(index.TranslateTo(Kb1("zzz"), "http://kb2/")
                  .status()
                  .IsNotFound());  // Unknown term.
  EXPECT_TRUE(index.TranslateTo(Kb1("a"), "http://kb9/")
                  .status()
                  .IsNotFound());  // No equivalent in that namespace.
}

TEST(SameAsIndexTest, TranslateToIdentityWhenAlreadyInNamespace) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  auto same = index.TranslateTo(Kb1("a"), "http://kb1/");
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, Kb1("a"));
}

TEST(SameAsIndexTest, UnindexedIriInTargetNamespaceTranslatesToItself) {
  // The shared-identifier regime: two KBs minting the same IRIs need no
  // links at all — an IRI already carrying the target prefix IS its own
  // translation, even when the index has never seen it.
  SameAsIndex empty;
  auto same = empty.TranslateTo(Kb1("a"), "http://kb1/");
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, Kb1("a"));

  // Cross-namespace without a link is still untranslatable.
  EXPECT_TRUE(empty.TranslateTo(Kb1("a"), "http://kb2/").status().IsNotFound());
  // Literals have no namespace; the identity shortcut must not apply.
  EXPECT_FALSE(empty.TranslateTo(Term::Literal("http://kb1/x"), "http://kb1/")
                   .ok());
}

TEST(SameAsIndexTest, AmbiguousTranslationIsDeterministic) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("z"));
  index.AddLink(Kb1("a"), Kb2("b"));  // Noisy second link, same class.
  auto translated = index.TranslateTo(Kb1("a"), "http://kb2/");
  ASSERT_TRUE(translated.ok());
  EXPECT_EQ(*translated, Kb2("b"));  // Lexicographically smallest.
}

// Reference translation: walks the link graph for x's class and scans its
// members for the smallest IRI under the prefix.
StatusOr<Term> ReferenceTranslate(
    const std::vector<std::pair<Term, Term>>& links, const Term& x,
    const std::string& prefix) {
  auto under = [&](const Term& t) {
    return t.is_iri() && t.lexical().compare(0, prefix.size(), prefix) == 0;
  };
  std::set<Term> members = {x};
  bool known = false;
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [a, b] : links) {
      if (a == x || b == x) known = true;
      if (members.count(a) != members.count(b)) {
        members.insert(a);
        members.insert(b);
        grew = true;
      }
    }
  }
  if (!known) {
    if (under(x)) return x;
    return Status::NotFound("unknown");
  }
  for (const Term& m : members) {  // Ascending: the first hit is smallest.
    if (m != x && under(m)) return m;
  }
  if (under(x)) return x;
  return Status::NotFound("no equivalent");
}

// Property: over random noisy link sets (several members per namespace in
// one class, terms already in the target namespace, literals, unknown
// terms), TranslateTo agrees with the reference scan for every prefix, and
// keeps agreeing after further links are added once tables exist.
class SameAsTranslateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SameAsTranslateProperty, MatchesReferenceScan) {
  Rng rng(GetParam());
  auto random_term = [&]() -> Term {
    const std::string local = std::to_string(rng.Below(12));
    switch (rng.Below(4)) {
      case 0:
        return Kb1(local);
      case 1:
        return Kb2(local);
      case 2:
        return Term::Iri("http://kb3/" + local);
      default:
        return rng.Bernoulli(0.5) ? Term::Literal("http://kb2/" + local)
                                  : Kb2("x" + local);
    }
  };
  std::vector<Term> probes;
  for (int i = 0; i < 12; ++i) {
    const std::string local = std::to_string(i);
    probes.push_back(Kb1(local));
    probes.push_back(Kb2(local));
    probes.push_back(Kb2("x" + local));
    probes.push_back(Term::Iri("http://kb3/" + local));
    probes.push_back(Term::Literal("http://kb2/" + local));
  }
  probes.push_back(Kb1("unknown"));
  probes.push_back(Kb2("unknown"));
  const std::vector<std::string> prefixes = {"http://kb1/", "http://kb2/",
                                             "http://kb", "http://kb9/"};

  SameAsIndex index;
  std::vector<std::pair<Term, Term>> links;
  auto add_links = [&](int n) {
    for (int i = 0; i < n; ++i) {
      links.emplace_back(random_term(), random_term());
      index.AddLink(links.back().first, links.back().second);
    }
  };
  auto check = [&] {
    for (const std::string& prefix : prefixes) {
      for (const Term& x : probes) {
        const StatusOr<Term> want = ReferenceTranslate(links, x, prefix);
        const StatusOr<Term> got = index.TranslateTo(x, prefix);
        ASSERT_EQ(got.ok(), want.ok())
            << x.ToNTriples() << " under " << prefix;
        if (want.ok()) {
          EXPECT_EQ(*got, *want) << x.ToNTriples() << " under " << prefix;
        } else {
          EXPECT_TRUE(got.status().IsNotFound());
        }
        EXPECT_EQ(index.HasTranslationTo(x, prefix), want.ok());
      }
    }
  };
  add_links(25);
  check();
  add_links(15);  // Drops the tables the first check built.
  check();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SameAsTranslateProperty,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 42ULL, 77ULL,
                                           1234ULL));

// Eight threads translate at once right after an AddLink: they race to
// build the prefix tables and must all read complete ones.
TEST(SameAsIndexTest, ConcurrentTranslationsAfterAddLink) {
  SameAsIndex index;
  for (int i = 0; i < 300; ++i) {
    index.AddLink(Kb1(std::to_string(i)), Kb2(std::to_string(i)));
  }
  ASSERT_TRUE(index.TranslateTo(Kb1("0"), "http://kb2/").ok());
  index.AddLink(Kb1("300"), Kb2("300"));

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i <= 300; ++i) {
        const std::string local = std::to_string((i + t * 37) % 301);
        const bool to_kb2 = (i + t) % 2 == 0;
        const Term from = to_kb2 ? Kb1(local) : Kb2(local);
        const Term want = to_kb2 ? Kb2(local) : Kb1(local);
        auto got = index.TranslateTo(from, to_kb2 ? "http://kb2/"
                                                  : "http://kb1/");
        if (!got.ok() || *got != want) ++wrong;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(TranslatorTest, LiteralsPassThrough) {
  SameAsIndex index;
  CrossKbTranslator translator(&index, "http://kb2/");
  const Term lit = Term::Literal("42");
  auto t = translator.Translate(lit);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, lit);
  EXPECT_TRUE(translator.CanTranslate(lit));
}

TEST(TranslatorTest, IriGoesThroughLinks) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  CrossKbTranslator translator(&index, "http://kb2/");
  EXPECT_TRUE(translator.CanTranslate(Kb1("a")));
  EXPECT_FALSE(translator.CanTranslate(Kb1("b")));
  EXPECT_EQ(translator.Translate(Kb1("a")).value(), Kb2("a"));
}

}  // namespace
}  // namespace sofya
