// Seeded input generator of the benchmark. Everything the program under
// test receives is text made here: the university ontology and instance
// data as N-Triples, Q1–Q10 as SPARQL, the write stream as SPARQL UPDATE,
// and the server clients' request draws. The same seed gives the same
// text. Terms are kept in N-Triples form ("<iri>", "\"literal\"") so the
// oracle can work on the very strings the store decodes its rows into.
#ifndef WDRBENCH_GEN_H_
#define WDRBENCH_GEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace wdrbench {

struct Triple {
  std::string s, p, o;
  friend bool operator==(const Triple&, const Triple&) = default;
};

// splitmix64: tiny, seedable and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n), n > 0.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  // True with probability pct / 100.
  bool Percent(int pct) { return Below(100) < static_cast<size_t>(pct); }

 private:
  uint64_t state_;
};

// Vocabulary helpers, all in N-Triples form.
std::string Ub(const std::string& local);    // ontology term
std::string Data(const std::string& local);  // instance term
extern const std::string kType, kSubClassOf, kSubPropertyOf, kDomain, kRange;

// One student as generated: its triples are what an instance update
// deletes and what the server's parameter draws point at.
struct Student {
  std::string iri;
  std::vector<Triple> triples;
};

struct Dataset {
  std::vector<Triple> ontology;
  std::vector<Triple> instances;
  std::vector<std::string> departments;
  std::vector<std::string> professors;
  std::vector<std::string> courses;
  std::vector<std::string> people;  // professors, lecturers, students
  std::vector<Student> students;
};

// LUBM-style data over the university ontology: per university 4
// departments, each with 12 courses, 8 professors (3 publications each),
// 4 lecturers and 60 students. Resources are typed at the most specific
// class and linked with the most specific properties, so the general
// classes and properties hold only by entailment.
Dataset GenerateUniversities(uint64_t seed, int universities);

std::string ToNTriples(const std::vector<Triple>& triples);

// A query both as SPARQL text (for the program) and as a basic graph
// pattern (for the oracle). Pattern slots starting with '?' are variables.
struct BenchQuery {
  std::string name;
  std::string sparql;
  std::vector<Triple> bgp;
  std::vector<std::string> select;
};

// Q1–Q10 over the ontology's hierarchies (see README.md).
const std::vector<BenchQuery>& StandardQueries();

// One SPARQL UPDATE request: an INSERT DATA and a DELETE DATA of one
// kind, with the triples they carry kept for the oracle's replay.
struct UpdateRequest {
  bool schema = false;
  std::string sparql;
  std::vector<Triple> inserted;
  std::vector<Triple> deleted;
};

// The write stream. Instance requests insert a new student and delete
// one generated student (each at most once, in a seeded order); schema
// requests re-insert one absent edge of a fixed pool of subclass,
// subproperty, domain and range edges and delete one present edge, in a
// fixed rotation, so the schema keeps its size. Every insert is new and
// every delete hits a base triple, so no request is a no-op.
class UpdateStream {
 public:
  UpdateStream(const Dataset& data, uint64_t seed, const std::string& tag);
  UpdateRequest Next(bool schema);
  // Schema requests repeat with this period.
  size_t schema_period() const { return present_.size() + absent_.size(); }

 private:
  const Dataset& data_;
  Rng rng_;
  std::string tag_;
  std::vector<size_t> victims_;  // student indexes, deleted in this order
  size_t next_victim_ = 0;
  size_t next_new_ = 0;
  std::deque<Triple> present_, absent_;  // schema edges
};

std::string UpdateText(const std::vector<Triple>& inserted,
                       const std::vector<Triple>& deleted);

// A text query for the server or read-after-write checks, with its BGP.
BenchQuery TypesOf(const std::string& subject);
BenchQuery MembersOf(const std::string& organization);

}  // namespace wdrbench

#endif  // WDRBENCH_GEN_H_
