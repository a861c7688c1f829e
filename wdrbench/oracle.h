// The benchmark's correctness oracle, written from the RDFS rule
// definitions alone and sharing no code with the program under test. It
// saturates a set of N-Triples-form string triples with a naive fixpoint
// of rdfs2, rdfs3, rdfs5, rdfs7, rdfs9 and rdfs11 (each round applies
// every rule to the whole set, until a round adds nothing) and answers a
// basic graph pattern with hash joins over the closure.
#ifndef WDRBENCH_ORACLE_H_
#define WDRBENCH_ORACLE_H_

#include <array>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gen.h"

namespace wdrbench {

using Row = std::vector<std::string>;

class Oracle {
 public:
  explicit Oracle(const std::vector<Triple>& base);

  size_t closure_size() const { return triples_.size(); }
  bool Contains(const Triple& t) const;
  // Distinct answers, sorted.
  std::vector<Row> Answer(const BenchQuery& q) const;

 private:
  using Id = int;
  using T3 = std::array<Id, 3>;
  struct Hash {
    size_t operator()(const T3& t) const {
      return (static_cast<size_t>(t[0]) * 0x9e3779b97f4a7c15ULL) ^
             (static_cast<size_t>(t[1]) * 0xc2b2ae3d27d4eb4fULL) ^
             static_cast<size_t>(t[2]);
    }
  };
  Id Intern(const std::string& term);
  Id Find(const std::string& term) const;  // -1 when unknown

  std::unordered_map<std::string, Id> ids_;
  std::vector<std::string> terms_;
  std::unordered_set<T3, Hash> set_;
  std::vector<T3> triples_;
};

// Compares a result (rows in any order) with the oracle's answer. Returns
// an empty string when they are equal as multisets, else a short report
// of the first differences.
std::string Diff(std::vector<Row> got, const std::vector<Row>& want);

}  // namespace wdrbench

#endif  // WDRBENCH_ORACLE_H_
