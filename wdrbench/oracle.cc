#include "oracle.h"

#include <algorithm>
#include <cstring>

namespace wdrbench {

Oracle::Id Oracle::Intern(const std::string& term) {
  auto [it, added] = ids_.emplace(term, static_cast<Id>(terms_.size()));
  if (added) terms_.push_back(term);
  return it->second;
}

Oracle::Id Oracle::Find(const std::string& term) const {
  auto it = ids_.find(term);
  return it == ids_.end() ? -1 : it->second;
}

Oracle::Oracle(const std::vector<Triple>& base) {
  const Id type = Intern(kType), sc = Intern(kSubClassOf),
           sp = Intern(kSubPropertyOf), dom = Intern(kDomain),
           rng = Intern(kRange);
  for (const auto& t : base) {
    T3 x{Intern(t.s), Intern(t.p), Intern(t.o)};
    if (set_.insert(x).second) triples_.push_back(x);
  }
  auto literal = [&](Id id) { return terms_[id][0] == '"'; };
  for (bool grew = true; grew;) {
    // Per-predicate view of the current set, rebuilt every round.
    std::unordered_map<Id, std::vector<std::pair<Id, Id>>> by_p;
    for (const auto& t : triples_) by_p[t[1]].push_back({t[0], t[2]});
    auto edges = [&](Id p) -> const std::vector<std::pair<Id, Id>>& {
      static const std::vector<std::pair<Id, Id>> kNone;
      auto it = by_p.find(p);
      return it == by_p.end() ? kNone : it->second;
    };
    std::vector<T3> derived;
    for (const auto& [p, c] : edges(dom)) {  // rdfs2
      for (const auto& [s, o] : edges(p)) derived.push_back({s, type, c});
    }
    for (const auto& [p, c] : edges(rng)) {  // rdfs3
      for (const auto& [s, o] : edges(p)) {
        if (!literal(o)) derived.push_back({o, type, c});
      }
    }
    for (const auto& [p1, p2] : edges(sp)) {
      for (const auto& [q2, p3] : edges(sp)) {  // rdfs5
        if (q2 == p2) derived.push_back({p1, sp, p3});
      }
      for (const auto& [s, o] : edges(p1)) derived.push_back({s, p2, o});  // rdfs7
    }
    std::unordered_map<Id, std::vector<Id>> supers;
    for (const auto& [c1, c2] : edges(sc)) supers[c1].push_back(c2);
    for (const auto& [s, c] : edges(type)) {  // rdfs9
      auto it = supers.find(c);
      if (it == supers.end()) continue;
      for (Id c2 : it->second) derived.push_back({s, type, c2});
    }
    for (const auto& [c1, c2] : edges(sc)) {  // rdfs11
      auto it = supers.find(c2);
      if (it == supers.end()) continue;
      for (Id c3 : it->second) derived.push_back({c1, sc, c3});
    }
    grew = false;
    for (const auto& t : derived) {
      if (set_.insert(t).second) {
        triples_.push_back(t);
        grew = true;
      }
    }
  }
}

bool Oracle::Contains(const Triple& t) const {
  const Id s = Find(t.s), p = Find(t.p), o = Find(t.o);
  return s >= 0 && p >= 0 && o >= 0 && set_.count(T3{s, p, o}) != 0;
}

std::vector<Row> Oracle::Answer(const BenchQuery& q) const {
  // Bindings: one slot per variable, -1 while unbound.
  std::vector<std::string> vars;
  auto slot = [&](const std::string& v) {
    auto it = std::find(vars.begin(), vars.end(), v);
    if (it != vars.end()) return static_cast<int>(it - vars.begin());
    vars.push_back(v);
    return static_cast<int>(vars.size() - 1);
  };
  for (const auto& a : q.bgp) {
    for (const std::string* x : {&a.s, &a.p, &a.o}) {
      if ((*x)[0] == '?') slot(*x);
    }
  }
  std::vector<std::vector<Id>> table{std::vector<Id>(vars.size(), -1)};
  for (const auto& atom : q.bgp) {
    if (table.empty()) break;
    const std::string* terms[3] = {&atom.s, &atom.p, &atom.o};
    int var[3];
    Id constant[3];
    for (int i = 0; i < 3; ++i) {
      var[i] = (*terms[i])[0] == '?' ? slot(*terms[i]) : -1;
      constant[i] = var[i] < 0 ? Find(*terms[i]) : -1;
      if (var[i] < 0 && constant[i] < 0) return {};  // unknown constant
    }
    // Matches of this atom alone, as partial bindings.
    std::vector<std::vector<Id>> matches;
    for (const auto& t : triples_) {
      std::vector<Id> b(vars.size(), -1);
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        if (var[i] < 0) {
          ok = t[i] == constant[i];
        } else if (b[var[i]] >= 0) {
          ok = b[var[i]] == t[i];
        } else {
          b[var[i]] = t[i];
        }
      }
      if (ok) matches.push_back(std::move(b));
    }
    // Hash join on the variables bound on both sides.
    std::vector<int> shared;
    for (int i = 0; i < 3; ++i) {
      if (var[i] >= 0 && table[0][var[i]] >= 0 &&
          std::find(shared.begin(), shared.end(), var[i]) == shared.end()) {
        shared.push_back(var[i]);
      }
    }
    auto key = [&](const std::vector<Id>& b) {
      std::string k(shared.size() * sizeof(Id), '\0');
      for (size_t i = 0; i < shared.size(); ++i) {
        std::memcpy(&k[i * sizeof(Id)], &b[shared[i]], sizeof(Id));
      }
      return k;
    };
    std::unordered_map<std::string, std::vector<size_t>> index;
    for (size_t i = 0; i < matches.size(); ++i) {
      index[key(matches[i])].push_back(i);
    }
    std::vector<std::vector<Id>> next;
    for (const auto& left : table) {
      auto it = index.find(key(left));
      if (it == index.end()) continue;
      for (size_t i : it->second) {
        std::vector<Id> b = left;
        for (size_t v = 0; v < b.size(); ++v) {
          if (matches[i][v] >= 0) b[v] = matches[i][v];
        }
        next.push_back(std::move(b));
      }
    }
    table = std::move(next);
  }
  std::vector<Row> rows;
  for (const auto& b : table) {
    Row r;
    for (const auto& v : q.select) r.push_back(terms_[b[slot(v)]]);
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

std::string Diff(std::vector<Row> got, const std::vector<Row>& want) {
  std::sort(got.begin(), got.end());
  if (got == want) return "";
  auto show = [](const Row& r) {
    std::string s;
    for (const auto& t : r) s += " " + t;
    return s;
  };
  std::string report = "got " + std::to_string(got.size()) + " rows, want " +
                       std::to_string(want.size());
  size_t i = 0, j = 0, shown = 0;
  while ((i < got.size() || j < want.size()) && shown < 3) {
    if (j == want.size() || (i < got.size() && got[i] < want[j])) {
      report += "; extra" + show(got[i++]);
      ++shown;
    } else if (i == got.size() || want[j] < got[i]) {
      report += "; missing" + show(want[j++]);
      ++shown;
    } else {
      ++i;
      ++j;
    }
  }
  return report;
}

}  // namespace wdrbench
