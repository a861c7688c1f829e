#include "gen.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace wdrbench {

namespace {

const char* kUbNs = "http://wdr.example.org/univ#";
const char* kDataNs = "http://wdr.example.org/data#";
const char* kRdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
const char* kRdfs = "http://www.w3.org/2000/01/rdf-schema#";

std::string Iri(const std::string& full) { return "<" + full + ">"; }

std::string Name(const std::string& kind, int a, int b = -1, int c = -1) {
  std::string local = kind + std::to_string(a);
  if (b >= 0) local += "_" + std::to_string(b);
  if (c >= 0) local += "_" + std::to_string(c);
  return Data(local);
}

std::vector<Triple> Ontology() {
  std::vector<Triple> t;
  auto sc = [&](const char* a, const char* b) {
    t.push_back({Ub(a), kSubClassOf, Ub(b)});
  };
  auto sp = [&](const char* a, const char* b) {
    t.push_back({Ub(a), kSubPropertyOf, Ub(b)});
  };
  auto dom = [&](const char* p, const char* c) {
    t.push_back({Ub(p), kDomain, Ub(c)});
  };
  auto rng = [&](const char* p, const char* c) {
    t.push_back({Ub(p), kRange, Ub(c)});
  };
  sc("Employee", "Person");
  sc("Faculty", "Employee");
  sc("Professor", "Faculty");
  sc("FullProfessor", "Professor");
  sc("AssociateProfessor", "Professor");
  sc("AssistantProfessor", "Professor");
  sc("Lecturer", "Faculty");
  sc("Student", "Person");
  sc("UndergraduateStudent", "Student");
  sc("GraduateStudent", "Student");
  sc("PhdStudent", "GraduateStudent");
  sc("University", "Organization");
  sc("Department", "Organization");
  sc("ResearchGroup", "Organization");
  sc("Course", "Work");
  sc("GraduateCourse", "Course");
  sc("Publication", "Work");
  sc("Article", "Publication");
  sc("Book", "Publication");
  sp("worksFor", "memberOf");
  sp("headOf", "worksFor");
  sp("doctoralDegreeFrom", "degreeFrom");
  sp("mastersDegreeFrom", "degreeFrom");
  sp("undergraduateDegreeFrom", "degreeFrom");
  dom("memberOf", "Person");
  rng("memberOf", "Organization");
  dom("headOf", "Faculty");
  dom("degreeFrom", "Person");
  rng("degreeFrom", "University");
  dom("teacherOf", "Faculty");
  rng("teacherOf", "Course");
  dom("takesCourse", "Student");
  rng("takesCourse", "Course");
  dom("advisor", "Student");
  rng("advisor", "Professor");
  dom("publicationAuthor", "Publication");
  rng("publicationAuthor", "Person");
  dom("subOrganizationOf", "Organization");
  rng("subOrganizationOf", "Organization");
  dom("name", "Work");
  return t;
}

BenchQuery MakeQuery(std::string name, std::vector<Triple> bgp,
                     std::vector<std::string> select) {
  std::string text = "PREFIX rdf: <" + std::string(kRdf) +
                     ">\nPREFIX ub: <" + kUbNs + ">\nSELECT DISTINCT";
  for (const auto& v : select) text += " " + v;
  text += " WHERE {";
  auto shorten = [](const std::string& term) {
    if (term[0] != '<') return term;
    const std::string ub = std::string("<") + kUbNs;
    if (term.compare(0, ub.size(), ub) == 0) {
      return "ub:" + term.substr(ub.size(), term.size() - ub.size() - 1);
    }
    if (term == kType) return std::string("rdf:type");
    return term;
  };
  for (size_t i = 0; i < bgp.size(); ++i) {
    text += (i == 0 ? " " : " . ") + shorten(bgp[i].s) + " " +
            shorten(bgp[i].p) + " " + shorten(bgp[i].o);
  }
  text += " }";
  return {std::move(name), std::move(text), std::move(bgp),
          std::move(select)};
}

}  // namespace

std::string Ub(const std::string& local) { return Iri(kUbNs + local); }
std::string Data(const std::string& local) { return Iri(kDataNs + local); }
const std::string kType = Iri(std::string(kRdf) + "type");
const std::string kSubClassOf = Iri(std::string(kRdfs) + "subClassOf");
const std::string kSubPropertyOf = Iri(std::string(kRdfs) + "subPropertyOf");
const std::string kDomain = Iri(std::string(kRdfs) + "domain");
const std::string kRange = Iri(std::string(kRdfs) + "range");

Dataset GenerateUniversities(uint64_t seed, int universities) {
  Dataset d;
  d.ontology = Ontology();
  Rng rng(seed);
  auto& out = d.instances;
  auto add = [&](const std::string& s, const std::string& p,
                 const std::string& o) { out.push_back({s, p, o}); };
  const char* ranks[] = {"FullProfessor", "AssociateProfessor",
                         "AssistantProfessor"};
  const char* degrees[] = {"doctoralDegreeFrom", "mastersDegreeFrom",
                           "undergraduateDegreeFrom"};
  std::vector<std::string> univs;
  for (int u = 0; u < universities; ++u) {
    univs.push_back(Name("University", u));
    add(univs.back(), kType, Ub("University"));
  }
  for (int u = 0; u < universities; ++u) {
    for (int dep = 0; dep < 4; ++dep) {
      const std::string dept = Name("Department", u, dep);
      d.departments.push_back(dept);
      add(dept, kType, Ub("Department"));
      add(dept, Ub("subOrganizationOf"), univs[u]);
      std::vector<std::string> courses;
      for (int c = 0; c < 12; ++c) {
        courses.push_back(Name("Course", u, dep, c));
        add(courses.back(), kType,
            Ub(rng.Percent(30) ? "GraduateCourse" : "Course"));
        add(courses.back(), Ub("name"),
            "\"Course " + std::to_string(u) + "-" + std::to_string(dep) +
                "-" + std::to_string(c) + "\"");
        d.courses.push_back(courses.back());
      }
      std::vector<std::string> profs;
      for (int p = 0; p < 8; ++p) {
        const std::string prof = Name("Professor", u, dep, p);
        profs.push_back(prof);
        d.professors.push_back(prof);
        d.people.push_back(prof);
        add(prof, kType, Ub(ranks[rng.Below(3)]));
        add(prof, Ub(p == 0 ? "headOf" : "worksFor"), dept);
        add(prof, Ub(degrees[rng.Below(3)]), univs[rng.Below(univs.size())]);
        const size_t teaches = 1 + rng.Below(2);
        for (size_t t = 0; t < teaches; ++t) {
          add(prof, Ub("teacherOf"), courses[rng.Below(courses.size())]);
        }
        for (int pub = 0; pub < 3; ++pub) {
          const std::string doc =
              prof.substr(0, prof.size() - 1) + "_pub" + std::to_string(pub) +
              ">";
          add(doc, kType, Ub(rng.Percent(80) ? "Article" : "Book"));
          add(doc, Ub("publicationAuthor"), prof);
        }
      }
      for (int l = 0; l < 4; ++l) {
        const std::string lect = Name("Lecturer", u, dep, l);
        d.people.push_back(lect);
        add(lect, kType, Ub("Lecturer"));
        add(lect, Ub("worksFor"), dept);
        add(lect, Ub("teacherOf"), courses[rng.Below(courses.size())]);
      }
      for (int s = 0; s < 60; ++s) {
        Student st{Name("Student", u, dep, s), {}};
        auto sadd = [&](const std::string& p, const std::string& o) {
          st.triples.push_back({st.iri, p, o});
          add(st.iri, p, o);
        };
        if (rng.Percent(30)) {
          sadd(kType, Ub(rng.Percent(40) ? "PhdStudent" : "GraduateStudent"));
          sadd(Ub("advisor"), profs[rng.Below(profs.size())]);
        } else {
          sadd(kType, Ub("UndergraduateStudent"));
        }
        sadd(Ub("memberOf"), dept);
        for (int c = 0; c < 3; ++c) {
          sadd(Ub("takesCourse"), courses[rng.Below(courses.size())]);
        }
        // Repeated course draws give duplicate triples; keep them once.
        std::sort(st.triples.begin() + 1, st.triples.end(),
                  [](const Triple& a, const Triple& b) {
                    return std::tie(a.p, a.o) < std::tie(b.p, b.o);
                  });
        st.triples.erase(
            std::unique(st.triples.begin() + 1, st.triples.end()),
            st.triples.end());
        d.people.push_back(st.iri);
        d.students.push_back(std::move(st));
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Triple& a, const Triple& b) {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return d;
}

std::string ToNTriples(const std::vector<Triple>& triples) {
  std::string text;
  text.reserve(triples.size() * 120);
  for (const auto& t : triples) {
    text += t.s;
    text += ' ';
    text += t.p;
    text += ' ';
    text += t.o;
    text += " .\n";
  }
  return text;
}

const std::vector<BenchQuery>& StandardQueries() {
  static const std::vector<BenchQuery> queries = [] {
    const std::string x = "?x", y = "?y";
    std::vector<BenchQuery> q;
    q.push_back(MakeQuery("Q1", {{x, kType, Ub("Person")}}, {x}));
    q.push_back(MakeQuery("Q2", {{x, kType, Ub("FullProfessor")}}, {x}));
    q.push_back(MakeQuery("Q3", {{x, Ub("memberOf"), y}}, {x, y}));
    q.push_back(MakeQuery("Q4", {{x, Ub("headOf"), y}}, {x}));
    q.push_back(MakeQuery(
        "Q5", {{x, kType, Ub("Student")}, {x, Ub("takesCourse"), y}}, {x, y}));
    q.push_back(MakeQuery("Q6",
                          {{x, kType, Ub("Faculty")},
                           {x, Ub("teacherOf"), y},
                           {y, kType, Ub("Course")}},
                          {x, y}));
    q.push_back(MakeQuery(
        "Q7", {{x, Ub("degreeFrom"), "?u"}, {"?u", kType, Ub("University")}},
        {x, "?u"}));
    q.push_back(MakeQuery("Q8", {{x, kType, "?c"}}, {x, "?c"}));
    q.push_back(MakeQuery(
        "Q9", {{"?s", Ub("advisor"), "?p"}, {"?p", kType, Ub("Professor")}},
        {"?s", "?p"}));
    q.push_back(MakeQuery("Q10",
                          {{"?p", kType, Ub("Employee")},
                           {"?s", Ub("advisor"), "?p"},
                           {"?s", kType, Ub("GraduateStudent")}},
                          {"?p", "?s"}));
    return q;
  }();
  return queries;
}

BenchQuery TypesOf(const std::string& subject) {
  return MakeQuery("types", {{subject, kType, "?c"}}, {"?c"});
}

BenchQuery MembersOf(const std::string& organization) {
  return MakeQuery("members", {{"?x", Ub("memberOf"), organization}}, {"?x"});
}

std::string UpdateText(const std::vector<Triple>& inserted,
                       const std::vector<Triple>& deleted) {
  std::string text;
  if (!inserted.empty()) text += "INSERT DATA {\n" + ToNTriples(inserted) + "}";
  if (!inserted.empty() && !deleted.empty()) text += " ;\n";
  if (!deleted.empty()) text += "DELETE DATA {\n" + ToNTriples(deleted) + "}";
  return text;
}

UpdateStream::UpdateStream(const Dataset& data, uint64_t seed,
                           const std::string& tag)
    : data_(data), rng_(seed), tag_(tag) {
  victims_.resize(data.students.size());
  for (size_t i = 0; i < victims_.size(); ++i) victims_[i] = i;
  for (size_t i = victims_.size(); i > 1; --i) {
    std::swap(victims_[i - 1], victims_[rng_.Below(i)]);
  }
  // Removable edges of the ontology (present at the start) and edges the
  // ontology lacks (absent at the start). No edge here is entailed by the
  // others, and no subclass or subproperty edge that the load-time closure
  // extends transitively is ever deleted: a saturation store keeps the
  // transitive edges such a delete should retract (see README.md).
  const Triple present[] = {
      {Ub("University"), kSubClassOf, Ub("Organization")},
      {Ub("Department"), kSubClassOf, Ub("Organization")},
      {Ub("doctoralDegreeFrom"), kSubPropertyOf, Ub("degreeFrom")},
      {Ub("mastersDegreeFrom"), kSubPropertyOf, Ub("degreeFrom")},
      {Ub("teacherOf"), kRange, Ub("Course")},
      {Ub("takesCourse"), kRange, Ub("Course")},
      {Ub("advisor"), kDomain, Ub("Student")},
      {Ub("memberOf"), kDomain, Ub("Person")},
  };
  const Triple absent[] = {
      {Ub("Lecturer"), kSubClassOf, Ub("Professor")},
      {Ub("ResearchGroup"), kSubClassOf, Ub("Department")},
      {Ub("teacherOf"), kSubPropertyOf, Ub("memberOf")},
      {Ub("takesCourse"), kDomain, Ub("Person")},
  };
  present_.assign(std::begin(present), std::end(present));
  absent_.assign(std::begin(absent), std::end(absent));
}

UpdateRequest UpdateStream::Next(bool schema) {
  UpdateRequest r;
  r.schema = schema;
  if (schema) {
    // A fixed rotation, the same for every seed, so the schema requests'
    // costs do not depend on the seed.
    r.inserted.push_back(absent_.front());
    r.deleted.push_back(present_.front());
    absent_.pop_front();
    present_.pop_front();
    present_.push_back(r.inserted[0]);
    absent_.push_back(r.deleted[0]);
  } else {
    // A new student like the generated ones, in a department and with a
    // professor drawn from the data.
    const std::string s = Data(tag_ + "New" + std::to_string(next_new_++));
    const size_t dep = rng_.Below(data_.departments.size());
    r.inserted.push_back(
        {s, kType, Ub(rng_.Percent(50) ? "PhdStudent" : "GraduateStudent")});
    r.inserted.push_back({s, Ub("memberOf"), data_.departments[dep]});
    r.inserted.push_back(
        {s, Ub("advisor"), data_.professors[rng_.Below(data_.professors.size())]});
    r.inserted.push_back(
        {s, Ub("takesCourse"), data_.courses[rng_.Below(data_.courses.size())]});
    // Past the last generated student the stream would delete nothing;
    // the writers never run that long (checked by the caller).
    r.deleted = data_.students[victims_.at(next_victim_++)].triples;
  }
  r.sparql = UpdateText(r.inserted, r.deleted);
  return r;
}

}  // namespace wdrbench
