#include "sameas/sameas_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "endpoint/local_endpoint.h"
#include "rdf/knowledge_base.h"
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

/// Two KBs for the translator: kb1 is the source, kb2 the target.
///   linked, image in kb2:      a≡A, b≡B
///   linked, image not in kb2:  c≡C, and d≡D, e≡D (one image, two sources)
///   unlinked:                  u
///   literals:                  "shared" (also in kb2), "only1"
///   kb2-namespace IRIs in kb1: kb2/s (in kb2), kb2/t (not in kb2)
class TranslatorWorld {
 public:
  TranslatorWorld() : kb1_("kb1", "http://kb1/"), kb2_("kb2", "http://kb2/") {
    kb1_.AddFact("a", "p", "b");
    kb1_.AddFact("a", "p", "c");
    kb1_.AddFact("d", "p", "e");
    kb1_.AddFact("u", "p", "a");
    kb1_.AddLiteralFact("a", "label", "shared");
    kb1_.AddLiteralFact("b", "label", "only1");
    kb1_.AddTriple(Kb1("a"), Kb1("p"), Kb2("s"));
    kb1_.AddTriple(Kb1("a"), Kb1("p"), Kb2("t"));
    kb2_.AddFact("A", "q", "B");
    kb2_.AddFact("s", "q", "A");
    kb2_.AddLiteralFact("A", "name", "shared");
    for (const auto& [l, r] : std::initializer_list<
             std::pair<const char*, const char*>>{
             {"a", "A"}, {"b", "B"}, {"c", "C"}, {"d", "D"}, {"e", "D"}}) {
      links_.AddLink(Kb1(l), Kb2(r));
    }
  }

  KnowledgeBase kb1_, kb2_;
  SameAsIndex links_;
};

/// What the id forms say about one source id.
struct Seen {
  IdImage image;
  TermId target = kNullTermId;        ///< TranslateId.
  TermId target_image = kNullTermId;  ///< TargetImageOf(target), if any.
};

/// Every kb1 id through the id forms, on `threads` threads at once; the
/// threads must agree.
std::vector<Seen> TranslateAllConcurrently(const CrossKbTranslator& translator,
                                           TermId max_id, int threads) {
  std::vector<std::vector<Seen>> per_thread(threads,
                                            std::vector<Seen>(max_id + 1));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the ids from a different start, so first
      // translations of one id race.
      for (TermId k = 0; k < max_id; ++k) {
        const TermId id = 1 + (k + static_cast<TermId>(t) * 3) % max_id;
        Seen& seen = per_thread[t][id];
        auto target = translator.TranslateId(id);
        auto image = translator.ImageOf(id);
        ASSERT_TRUE(target.ok() && image.ok());
        seen.image = *image;
        seen.target = *target;
        if (seen.target != kNullTermId) {
          auto target_image = translator.TargetImageOf(seen.target);
          ASSERT_TRUE(target_image.ok());
          seen.target_image = *target_image;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 1; t < threads; ++t) {
    for (TermId id = 1; id <= max_id; ++id) {
      EXPECT_EQ(per_thread[t][id].image.image, per_thread[0][id].image.image);
      EXPECT_EQ(per_thread[t][id].image.literal,
                per_thread[0][id].image.literal);
      EXPECT_EQ(per_thread[t][id].target, per_thread[0][id].target);
      EXPECT_EQ(per_thread[t][id].target_image,
                per_thread[0][id].target_image);
    }
  }
  return per_thread[0];
}

/// Checks every kb1 id against the term path run serially: Translate, then
/// the target's LookupTerm. Image ids must name image terms one to one,
/// whether or not kb2 holds the image.
void ExpectMatchesTermPath(const TranslatorWorld& world,
                           const CrossKbTranslator& translator,
                           const std::vector<Seen>& seen) {
  std::map<Term, TermId> image_ids;
  std::set<TermId> used;
  for (TermId id = 1; id <= world.kb1_.dict().max_id(); ++id) {
    const Term& term = world.kb1_.dict().Decode(id);
    const Seen& got = seen[id];
    EXPECT_EQ(got.image.literal, term.is_literal()) << term.ToNTriples();
    auto translated = translator.Translate(term);
    if (!translated.ok()) {
      EXPECT_FALSE(got.image.has_image()) << term.ToNTriples();
      EXPECT_EQ(got.target, kNullTermId) << term.ToNTriples();
      continue;
    }
    EXPECT_EQ(got.target, world.kb2_.dict().Lookup(*translated))
        << term.ToNTriples();
    ASSERT_TRUE(got.image.has_image()) << term.ToNTriples();
    auto [it, inserted] = image_ids.emplace(*translated, got.image.image);
    EXPECT_EQ(it->second, got.image.image) << term.ToNTriples();
    if (inserted) {
      EXPECT_TRUE(used.insert(got.image.image).second)
          << "two image terms share an image id: " << term.ToNTriples();
    }
    if (got.target != kNullTermId) {
      EXPECT_EQ(got.target_image, got.image.image) << term.ToNTriples();
    }
  }
}

TEST(TranslatorTest, IdFormsMatchTermPathOnEightThreads) {
  TranslatorWorld world;
  LocalEndpoint source(&world.kb1_);
  LocalEndpoint target(&world.kb2_);
  CrossKbTranslator translator(&world.links_, &source, &target);
  const TermId max_id = world.kb1_.dict().max_id();

  const std::vector<Seen> first =
      TranslateAllConcurrently(translator, max_id, 8);
  ExpectMatchesTermPath(world, translator, first);
  // The cases the world was built for, spelled out.
  auto seen = [&](const Term& t) { return first[world.kb1_.dict().Lookup(t)]; };
  EXPECT_NE(seen(Kb1("a")).target, kNullTermId);
  EXPECT_TRUE(seen(Kb1("c")).image.has_image());
  EXPECT_EQ(seen(Kb1("c")).target, kNullTermId);  // C is not in kb2.
  EXPECT_EQ(seen(Kb1("d")).image.image, seen(Kb1("e")).image.image);
  EXPECT_NE(seen(Kb1("c")).image.image, seen(Kb1("d")).image.image);
  EXPECT_FALSE(seen(Kb1("u")).image.has_image());
  EXPECT_NE(seen(Term::Literal("shared")).target, kNullTermId);
  EXPECT_TRUE(seen(Term::Literal("only1")).image.literal);
  EXPECT_EQ(seen(Term::Literal("only1")).target, kNullTermId);
  EXPECT_NE(seen(Kb2("s")).target, kNullTermId);
  EXPECT_EQ(seen(Kb2("t")).target, kNullTermId);

  // Memo hits answer the same, serially too.
  for (TermId id = 1; id <= max_id; ++id) {
    EXPECT_EQ(*translator.TranslateId(id), first[id].target);
    EXPECT_EQ(translator.ImageOf(id)->image, first[id].image.image);
  }
}

TEST(TranslatorTest, AbsentImageResolvesAfterWriteInternsIt) {
  TranslatorWorld world;
  LocalEndpoint source(&world.kb1_);
  LocalEndpoint target(&world.kb2_);
  CrossKbTranslator translator(&world.links_, &source, &target);
  const TermId c = world.kb1_.dict().Lookup(Kb1("c"));
  const TermId only1 = world.kb1_.dict().Lookup(Term::Literal("only1"));

  const std::vector<Seen> before =
      TranslateAllConcurrently(translator, world.kb1_.dict().max_id(), 8);
  ASSERT_EQ(before[c].target, kNullTermId);
  ASSERT_EQ(before[only1].target, kNullTermId);

  // A write interns C and the literal.
  world.kb2_.AddFact("C", "q", "B");
  world.kb2_.AddLiteralFact("C", "name", "only1");
  const std::vector<Seen> after =
      TranslateAllConcurrently(translator, world.kb1_.dict().max_id(), 8);
  ExpectMatchesTermPath(world, translator, after);
  EXPECT_EQ(after[c].target, world.kb2_.dict().Lookup(Kb2("C")));
  EXPECT_EQ(after[only1].target,
            world.kb2_.dict().Lookup(Term::Literal("only1")));
  // The images keep their ids.
  EXPECT_EQ(after[c].image.image, before[c].image.image);
  EXPECT_EQ(after[only1].image.image, before[only1].image.image);
}

TEST(TranslatorTest, LinkAddedAfterFirstLookupIsSeen) {
  TranslatorWorld world;
  LocalEndpoint source(&world.kb1_);
  LocalEndpoint target(&world.kb2_);
  CrossKbTranslator translator(&world.links_, &source, &target);
  const TermId u = world.kb1_.dict().Lookup(Kb1("u"));
  const TermId a = world.kb1_.dict().Lookup(Kb1("a"));
  EXPECT_FALSE(translator.ImageOf(u)->has_image());
  EXPECT_EQ(*translator.TranslateId(u), kNullTermId);
  EXPECT_EQ(*translator.TranslateId(a), world.kb2_.dict().Lookup(Kb2("A")));

  // u gains an image; a gains a smaller equivalent, which wins.
  world.links_.AddLink(Kb1("u"), Kb2("B"));
  world.links_.AddLink(Kb1("a"), Kb2("0a"));
  world.kb2_.AddFact("0a", "q", "B");
  const std::vector<Seen> after =
      TranslateAllConcurrently(translator, world.kb1_.dict().max_id(), 8);
  ExpectMatchesTermPath(world, translator, after);
  EXPECT_EQ(after[u].target, world.kb2_.dict().Lookup(Kb2("B")));
  EXPECT_EQ(after[a].target, world.kb2_.dict().Lookup(Kb2("0a")));
}

TEST(TranslatorTest, LiteralsPassThrough) {
  SameAsIndex index;
  KnowledgeBase kb1("kb1", "http://kb1/");
  KnowledgeBase kb2("kb2", "http://kb2/");
  LocalEndpoint source(&kb1);
  LocalEndpoint target(&kb2);
  CrossKbTranslator translator(&index, &source, &target);
  const Term lit = Term::Literal("42");
  auto t = translator.Translate(lit);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, lit);
}

TEST(TranslatorTest, IriGoesThroughLinks) {
  SameAsIndex index;
  index.AddLink(Kb1("a"), Kb2("a"));
  KnowledgeBase kb1("kb1", "http://kb1/");
  KnowledgeBase kb2("kb2", "http://kb2/");
  LocalEndpoint source(&kb1);
  LocalEndpoint target(&kb2);
  CrossKbTranslator translator(&index, &source, &target);
  EXPECT_TRUE(translator.Translate(Kb1("a")).ok());
  EXPECT_FALSE(translator.Translate(Kb1("b")).ok());
  EXPECT_EQ(translator.Translate(Kb1("a")).value(), Kb2("a"));
}

}  // namespace
}  // namespace sofya
