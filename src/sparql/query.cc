#include "sparql/query.h"

#include <algorithm>
#include <charconv>

#include "util/string_util.h"

namespace sofya {

VarId SelectQuery::NewVar(std::string name) {
  var_names_.push_back(std::move(name));
  return static_cast<VarId>(var_names_.size() - 1);
}

SelectQuery& SelectQuery::Where(NodeRef s, NodeRef p, NodeRef o) {
  clauses_.push_back(PatternClause{s, p, o});
  return *this;
}

SelectQuery& SelectQuery::Filter(FilterExpr filter) {
  filters_.push_back(filter);
  return *this;
}

SelectQuery& SelectQuery::Select(std::vector<VarId> vars) {
  projection_ = std::move(vars);
  return *this;
}

SelectQuery& SelectQuery::Distinct(bool distinct) {
  distinct_ = distinct;
  return *this;
}

SelectQuery& SelectQuery::Limit(uint64_t limit) {
  limit_ = limit;
  return *this;
}

SelectQuery& SelectQuery::Offset(uint64_t offset) {
  offset_ = offset;
  return *this;
}

Status SelectQuery::Validate() const {
  if (clauses_.empty()) {
    return Status::InvalidArgument("query has no WHERE clauses");
  }
  auto check_ref = [&](const NodeRef& ref) -> Status {
    if (ref.is_var() &&
        (ref.var() < 0 || ref.var() >= static_cast<VarId>(num_vars()))) {
      return Status::InvalidArgument(
          StrFormat("variable id %d out of range (have %zu vars)", ref.var(),
                    num_vars()));
    }
    return Status::OK();
  };
  for (const auto& c : clauses_) {
    SOFYA_RETURN_IF_ERROR(check_ref(c.subject));
    SOFYA_RETURN_IF_ERROR(check_ref(c.predicate));
    SOFYA_RETURN_IF_ERROR(check_ref(c.object));
  }
  auto check_var = [&](VarId v) -> Status {
    if (v < 0 || v >= static_cast<VarId>(num_vars())) {
      return Status::InvalidArgument(
          StrFormat("variable id %d out of range (have %zu vars)", v,
                    num_vars()));
    }
    return Status::OK();
  };
  for (const auto& f : filters_) {
    SOFYA_RETURN_IF_ERROR(check_var(f.lhs));
    if (f.kind == FilterExpr::Kind::kVarEqVar ||
        f.kind == FilterExpr::Kind::kVarNeqVar) {
      SOFYA_RETURN_IF_ERROR(check_var(f.rhs_var));
    }
  }
  for (VarId v : projection_) {
    SOFYA_RETURN_IF_ERROR(check_var(v));
  }
  return Status::OK();
}

namespace {

std::string RenderNode(const NodeRef& ref, const SelectQuery& q,
                       const Dictionary& dict) {
  if (ref.is_var()) return "?" + q.var_name(ref.var());
  if (!dict.Contains(ref.term())) {
    return StrFormat("<urn:sofya:id:%u>", ref.term());
  }
  return dict.Decode(ref.term()).ToNTriples();
}

std::string RenderVar(const SelectQuery& q, VarId v) {
  return "?" + q.var_name(v);
}

}  // namespace

std::string SelectQuery::RenderKey(QueryKeyMode mode,
                                   const TermKeyRenderer* constants) const {
  const VarId n = static_cast<VarId>(num_vars());

  // canon[v] is the id variable v renders as; order[i] is the variable
  // rendered as i. Both live in a stack buffer for the usual few variables.
  constexpr VarId kInlineVars = 16;
  VarId inline_ids[2 * kInlineVars];
  std::vector<VarId> heap_ids;
  VarId* canon = inline_ids;
  if (n > kInlineVars) {
    heap_ids.resize(2 * static_cast<size_t>(n));
    canon = heap_ids.data();
  }
  VarId* order = canon + n;
  if (mode == QueryKeyMode::kPlan) {
    for (VarId v = 0; v < n; ++v) canon[v] = order[v] = v;
  } else {
    std::fill(canon, canon + n, VarId{-1});
    VarId next = 0;
    auto visit = [&](VarId v) {
      if (v >= 0 && v < n && canon[v] < 0) {
        order[next] = v;
        canon[v] = next++;
      }
    };
    if (projection_.empty()) {
      // SELECT *: every declared variable is projected, declaration order.
      for (VarId v = 0; v < n; ++v) visit(v);
    } else {
      for (VarId v : projection_) visit(v);
    }
    for (const auto& c : clauses_) {
      if (c.subject.is_var()) visit(c.subject.var());
      if (c.predicate.is_var()) visit(c.predicate.var());
      if (c.object.is_var()) visit(c.object.var());
    }
    for (const auto& f : filters_) {
      visit(f.lhs);
      visit(f.rhs_var);
    }
    for (VarId v = 0; v < n; ++v) visit(v);
  }
  auto var_id = [&](VarId v) -> VarId {
    if (v < 0) return -1;
    return v < n ? canon[v] : v;
  };

  std::string out;
  out.reserve(64 + 24 * clauses_.size() + 16 * filters_.size() +
              8 * static_cast<size_t>(n));
  auto add_int = [&out](auto value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  auto add_term = [&](TermId id) {
    out += '#';
    if (constants == nullptr) {
      add_int(id);
    } else {
      constants->Append(id, out);
    }
  };
  auto add_node = [&](const NodeRef& ref) {
    if (ref.is_var()) {
      out += '?';
      add_int(var_id(ref.var()));
    } else {
      add_term(ref.term());
    }
    out += ' ';
  };

  out += "v:";
  for (VarId i = 0; i < n; ++i) {
    out += var_names_[order[i]];
    out += ',';
  }
  out += ";c:";
  for (const auto& c : clauses_) {
    add_node(c.subject);
    add_node(c.predicate);
    add_node(c.object);
    out += '.';
  }
  out += ";f:";
  for (const auto& f : filters_) {
    add_int(static_cast<int>(f.kind));
    out += '/';
    add_int(var_id(f.lhs));
    out += '/';
    add_int(var_id(f.rhs_var));
    out += '/';
    if (constants == nullptr) {
      // By-id keys spell the filter constant as a bare id (kNullTermId when
      // absent): CachingEndpoint shards entries by the key's hash, so these
      // bytes decide which entries a full cache evicts — and query counts.
      add_int(f.rhs_term);
    } else if (f.rhs_term == kNullTermId) {
      out += '-';
    } else {
      add_term(f.rhs_term);
    }
    out += ',';
  }
  out += ";p:";
  if (projection_.empty()) {
    for (VarId v = 0; v < n; ++v) {
      add_int(var_id(v));
      out += ',';
    }
  } else {
    for (VarId v : projection_) {
      add_int(var_id(v));
      out += ',';
    }
  }
  if (mode == QueryKeyMode::kPlan) return out;  // Plans ignore modifiers.

  const bool ask = mode == QueryKeyMode::kAsk;
  out += !ask && distinct_ ? ";d1" : ";d0";
  out += ";l:";
  add_int(ask ? kNoLimit : limit_);
  out += ";o:";
  add_int(ask ? uint64_t{0} : offset_);
  if (ask) out += "#ask";
  return out;
}

std::string SelectQuery::ToSparql(const Dictionary& dict) const {
  std::string out = "SELECT ";
  if (distinct_) out += "DISTINCT ";
  if (projection_.empty()) {
    out += "*";
  } else {
    std::vector<std::string> vars;
    vars.reserve(projection_.size());
    for (VarId v : projection_) vars.push_back(RenderVar(*this, v));
    out += Join(vars, " ");
  }
  out += RenderWhere(dict);
  if (offset_ > 0) out += StrFormat(" OFFSET %llu",
                                    static_cast<unsigned long long>(offset_));
  if (limit_ != kNoLimit) {
    out += StrFormat(" LIMIT %llu", static_cast<unsigned long long>(limit_));
  }
  return out;
}

std::string SelectQuery::ToSparqlAsk(const Dictionary& dict) const {
  return "ASK" + RenderWhere(dict);
}

std::string SelectQuery::RenderWhere(const Dictionary& dict) const {
  std::string out = " WHERE {\n";
  for (const auto& c : clauses_) {
    out += "  " + RenderNode(c.subject, *this, dict) + " " +
           RenderNode(c.predicate, *this, dict) + " " +
           RenderNode(c.object, *this, dict) + " .\n";
  }
  for (const auto& f : filters_) {
    std::string expr;
    switch (f.kind) {
      case FilterExpr::Kind::kVarEqVar:
        expr = RenderVar(*this, f.lhs) + " = " + RenderVar(*this, f.rhs_var);
        break;
      case FilterExpr::Kind::kVarNeqVar:
        expr = RenderVar(*this, f.lhs) + " != " + RenderVar(*this, f.rhs_var);
        break;
      case FilterExpr::Kind::kVarEqTerm:
        expr = RenderVar(*this, f.lhs) + " = " +
               (dict.Contains(f.rhs_term)
                    ? dict.Decode(f.rhs_term).ToNTriples()
                    : StrFormat("<urn:sofya:id:%u>", f.rhs_term));
        break;
      case FilterExpr::Kind::kVarNeqTerm:
        expr = RenderVar(*this, f.lhs) + " != " +
               (dict.Contains(f.rhs_term)
                    ? dict.Decode(f.rhs_term).ToNTriples()
                    : StrFormat("<urn:sofya:id:%u>", f.rhs_term));
        break;
      case FilterExpr::Kind::kIsIri:
        expr = "isIRI(" + RenderVar(*this, f.lhs) + ")";
        break;
      case FilterExpr::Kind::kIsLiteral:
        expr = "isLiteral(" + RenderVar(*this, f.lhs) + ")";
        break;
    }
    out += "  FILTER(" + expr + ")\n";
  }
  out += "}";
  return out;
}

}  // namespace sofya
