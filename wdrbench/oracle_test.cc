// Checks the oracle against a closure derived by hand, and checks that its
// comparison rejects a result with one row dropped or one row added.
// Exits non-zero on the first failure.
#include <cstdio>
#include <string>
#include <vector>

#include "gen.h"
#include "oracle.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::string Ex(const std::string& local) {
  return "<http://ex.org/" + local + ">";
}

}  // namespace

int main() {
  using wdrbench::kDomain;
  using wdrbench::kRange;
  using wdrbench::kSubClassOf;
  using wdrbench::kSubPropertyOf;
  using wdrbench::kType;
  using wdrbench::Triple;
  const std::vector<Triple> base = {
      {Ex("Prof"), kSubClassOf, Ex("Person")},
      {Ex("Dean"), kSubClassOf, Ex("Prof")},
      {Ex("headOf"), kSubPropertyOf, Ex("worksFor")},
      {Ex("worksFor"), kSubPropertyOf, Ex("memberOf")},
      {Ex("memberOf"), kDomain, Ex("Person")},
      {Ex("memberOf"), kRange, Ex("Org")},
      {Ex("a"), kType, Ex("Dean")},
      {Ex("a"), Ex("headOf"), Ex("d")},
      {Ex("b"), Ex("memberOf"), "\"x\""},
  };
  // By hand: rdfs11 Dean ⊑ Person; rdfs5 headOf ⊑ memberOf; rdfs7 a
  // worksFor d, a memberOf d; rdfs9 a : Prof, a : Person; rdfs3 d : Org;
  // rdfs2 b : Person (a : Person again). A literal object gets no type.
  const std::vector<Triple> derived = {
      {Ex("Dean"), kSubClassOf, Ex("Person")},
      {Ex("headOf"), kSubPropertyOf, Ex("memberOf")},
      {Ex("a"), Ex("worksFor"), Ex("d")},
      {Ex("a"), Ex("memberOf"), Ex("d")},
      {Ex("a"), kType, Ex("Prof")},
      {Ex("a"), kType, Ex("Person")},
      {Ex("d"), kType, Ex("Org")},
      {Ex("b"), kType, Ex("Person")},
  };
  const wdrbench::Oracle oracle(base);
  Expect(oracle.closure_size() == base.size() + derived.size(),
         "closure size " + std::to_string(oracle.closure_size()) + " != 17");
  for (const auto& t : base) Expect(oracle.Contains(t), "base " + t.s);
  for (const auto& t : derived) {
    Expect(oracle.Contains(t), "derived " + t.s + " " + t.p + " " + t.o);
  }
  Expect(!oracle.Contains({"\"x\"", kType, Ex("Org")}), "literal typed");

  wdrbench::BenchQuery people{"people", "", {{"?x", kType, Ex("Person")}},
                              {"?x"}};
  const auto want = oracle.Answer(people);
  Expect(want == std::vector<wdrbench::Row>{{Ex("a")}, {Ex("b")}},
         "?x a Person");
  Expect(wdrbench::Diff({{Ex("b")}, {Ex("a")}}, want).empty(),
         "same rows in another order");
  Expect(!wdrbench::Diff({{Ex("a")}}, want).empty(), "row dropped accepted");
  Expect(!wdrbench::Diff({{Ex("a")}, {Ex("b")}, {Ex("d")}}, want).empty(),
         "row added accepted");
  Expect(!wdrbench::Diff({{Ex("a")}, {Ex("b")}, {Ex("b")}}, want).empty(),
         "duplicate row accepted");

  wdrbench::BenchQuery join{
      "join", "", {{"?x", Ex("memberOf"), "?y"}, {"?y", kType, Ex("Org")}},
      {"?x", "?y"}};
  Expect(oracle.Answer(join) ==
             std::vector<wdrbench::Row>{{Ex("a"), Ex("d")}},
         "?x memberOf ?y . ?y a Org");

  if (failures == 0) std::printf("oracle_test: ok\n");
  return failures == 0 ? 0 : 1;
}
