#include "sparql/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace sofya {

namespace {

/// Token kinds produced by the lexer.
enum class TokKind {
  kKeyword,   ///< SELECT / DISTINCT / WHERE / FILTER / VALUES / LIMIT / ...
  kVar,       ///< ?name
  kIri,       ///< <...>
  kPname,     ///< prefix:local or prefix: (in prologue)
  kLiteral,   ///< "..." with optional @lang / ^^<dt> (pre-assembled Term)
  kPunct,     ///< { } ( ) . * = != :
  kInt,       ///< unsigned integer
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // Keyword (upper-cased), var name, pname, punct, int.
  Term literal;       // For kLiteral.
  std::string iri;    // For kIri.
  size_t pos = 0;     // Byte offset, for error messages.
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<Token> Next() {
    SkipSpaceAndComments();
    Token token;
    token.pos = pos_;
    if (pos_ >= text_.size()) return token;  // kEnd.

    const char c = text_[pos_];

    if (c == '?' || c == '$') {
      ++pos_;
      const size_t start = pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
      if (pos_ == start) return Error("empty variable name");
      token.kind = TokKind::kVar;
      token.text = std::string(text_.substr(start, pos_ - start));
      return token;
    }

    if (c == '<') {
      const size_t close = text_.find('>', pos_ + 1);
      if (close == std::string_view::npos) return Error("unterminated IRI");
      token.kind = TokKind::kIri;
      token.iri = std::string(text_.substr(pos_ + 1, close - pos_ - 1));
      pos_ = close + 1;
      return token;
    }

    if (c == '"') {
      return LexLiteral(&token);
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      token.kind = TokKind::kInt;
      token.text = std::string(text_.substr(start, pos_ - start));
      return token;
    }

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const size_t start = pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
      std::string word(text_.substr(start, pos_ - start));
      // prefixed name? (word ':' [local])
      if (pos_ < text_.size() && text_[pos_] == ':') {
        ++pos_;
        const size_t local_start = pos_;
        while (pos_ < text_.size() &&
               (IsNameChar(text_[pos_]) || text_[pos_] == '/' ||
                text_[pos_] == '#')) {
          ++pos_;
        }
        token.kind = TokKind::kPname;
        token.text =
            word + ":" + std::string(text_.substr(local_start,
                                                  pos_ - local_start));
        return token;
      }
      const std::string upper = [&] {
        std::string u = word;
        for (char& ch : u) {
          ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
        }
        return u;
      }();
      if (upper == "SELECT" || upper == "DISTINCT" || upper == "WHERE" ||
          upper == "FILTER" || upper == "LIMIT" || upper == "OFFSET" ||
          upper == "PREFIX" || upper == "ISIRI" || upper == "ISLITERAL" ||
          upper == "VALUES" || upper == "UNDEF") {
        token.kind = TokKind::kKeyword;
        token.text = upper;
        return token;
      }
      return Error(StrFormat("unexpected word '%s'", word.c_str()));
    }

    if (c == '!' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
      token.kind = TokKind::kPunct;
      token.text = "!=";
      pos_ += 2;
      return token;
    }
    if (c == '{' || c == '}' || c == '(' || c == ')' || c == '.' ||
        c == '*' || c == '=' || c == ':') {
      token.kind = TokKind::kPunct;
      token.text = std::string(1, c);
      ++pos_;
      return token;
    }
    return Error(StrFormat("unexpected character '%c'", c));
  }

 private:
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-';
  }

  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_[pos_] == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  StatusOr<Token> LexLiteral(Token* token) {
    size_t i = pos_ + 1;
    bool escaped = false;
    while (i < text_.size()) {
      if (escaped) {
        escaped = false;
      } else if (text_[i] == '\\') {
        escaped = true;
      } else if (text_[i] == '"') {
        break;
      }
      ++i;
    }
    if (i >= text_.size()) return Error("unterminated string literal");
    const std::string lexical =
        UnescapeNTriples(text_.substr(pos_ + 1, i - pos_ - 1));
    pos_ = i + 1;
    token->kind = TokKind::kLiteral;
    if (pos_ < text_.size() && text_[pos_] == '@') {
      ++pos_;
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ == start) return Error("empty language tag");
      token->literal = Term::LangLiteral(
          lexical, std::string(text_.substr(start, pos_ - start)));
      return *token;
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '^' &&
        text_[pos_ + 1] == '^') {
      pos_ += 2;
      if (pos_ >= text_.size() || text_[pos_] != '<') {
        return Error("expected <datatype> after ^^");
      }
      const size_t close = text_.find('>', pos_ + 1);
      if (close == std::string_view::npos) {
        return Error("unterminated datatype IRI");
      }
      token->literal = Term::TypedLiteral(
          lexical, std::string(text_.substr(pos_ + 1, close - pos_ - 1)));
      pos_ = close + 1;
      return *token;
    }
    token->literal = Term::Literal(lexical);
    return *token;
  }

  Status Error(std::string message) const {
    return Status::ParseError(
        StrFormat("%s (at offset %zu)", message.c_str(), pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  Parser(std::string_view text, const TermInterner& intern,
         const PrefixMap* prefixes)
      : lexer_(text), intern_(intern) {
    if (prefixes != nullptr) {
      for (const auto& [prefix, ns_iri] : prefixes->Bindings()) {
        prefixes_.Bind(prefix, ns_iri);
      }
    }
  }

  StatusOr<SelectQuery> Parse() {
    SOFYA_RETURN_IF_ERROR(Advance());
    SOFYA_RETURN_IF_ERROR(ParsePrologue());
    SOFYA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));

    SelectQuery query;
    if (CurrentIsKeyword("DISTINCT")) {
      query.Distinct();
      SOFYA_RETURN_IF_ERROR(Advance());
    }

    std::vector<std::string> projection_names;
    bool select_all = false;
    if (CurrentIsPunct("*")) {
      select_all = true;
      SOFYA_RETURN_IF_ERROR(Advance());
    } else {
      while (current_.kind == TokKind::kVar) {
        projection_names.push_back(current_.text);
        SOFYA_RETURN_IF_ERROR(Advance());
      }
      if (projection_names.empty()) {
        return Status::ParseError("SELECT needs '*' or at least one ?var");
      }
    }

    SOFYA_RETURN_IF_ERROR(ExpectKeyword("WHERE"));
    SOFYA_RETURN_IF_ERROR(ExpectPunct("{"));

    while (!CurrentIsPunct("}")) {
      if (current_.kind == TokKind::kEnd) {
        return Status::ParseError("unterminated WHERE group (missing '}')");
      }
      if (CurrentIsKeyword("FILTER")) {
        SOFYA_RETURN_IF_ERROR(Advance());
        SOFYA_RETURN_IF_ERROR(ParseFilter(&query));
      } else if (CurrentIsKeyword("VALUES")) {
        SOFYA_RETURN_IF_ERROR(Advance());
        SOFYA_RETURN_IF_ERROR(ParseValues(&query));
      } else {
        SOFYA_RETURN_IF_ERROR(ParseClause(&query));
      }
    }
    SOFYA_RETURN_IF_ERROR(Advance());  // Consume '}'.

    // Modifiers, any order.
    while (current_.kind == TokKind::kKeyword) {
      if (current_.text == "LIMIT") {
        SOFYA_RETURN_IF_ERROR(Advance());
        SOFYA_ASSIGN_OR_RETURN(uint64_t n, ExpectInt());
        query.Limit(n);
      } else if (current_.text == "OFFSET") {
        SOFYA_RETURN_IF_ERROR(Advance());
        SOFYA_ASSIGN_OR_RETURN(uint64_t n, ExpectInt());
        query.Offset(n);
      } else {
        return Status::ParseError(
            StrFormat("unexpected keyword '%s' after WHERE group",
                      current_.text.c_str()));
      }
    }
    if (current_.kind != TokKind::kEnd) {
      return Status::ParseError("trailing content after query");
    }

    // Resolve the projection.
    if (!select_all) {
      std::vector<VarId> projection;
      for (const std::string& name : projection_names) {
        auto it = vars_.find(name);
        if (it == vars_.end()) {
          return Status::ParseError(StrFormat(
              "projected variable ?%s never used in WHERE", name.c_str()));
        }
        projection.push_back(it->second);
      }
      query.Select(std::move(projection));
    }

    // Transfer variable declarations (insertion-ordered).
    SelectQuery final_query;
    for (const std::string& name : var_order_) final_query.NewVar(name);
    for (const auto& clause : query.clauses()) {
      final_query.Where(clause.subject, clause.predicate, clause.object);
    }
    for (const auto& filter : query.filters()) final_query.Filter(filter);
    final_query.Select(query.projection());
    final_query.Values(query.values_vars(), query.values_cells());
    final_query.Distinct(query.distinct());
    final_query.Limit(query.limit()).Offset(query.offset());
    SOFYA_RETURN_IF_ERROR(final_query.Validate());
    return final_query;
  }

 private:
  Status Advance() {
    SOFYA_ASSIGN_OR_RETURN(current_, lexer_.Next());
    return Status::OK();
  }

  bool CurrentIsKeyword(const char* kw) const {
    return current_.kind == TokKind::kKeyword && current_.text == kw;
  }
  bool CurrentIsPunct(const char* p) const {
    return current_.kind == TokKind::kPunct && current_.text == p;
  }

  Status ExpectKeyword(const char* kw) {
    if (!CurrentIsKeyword(kw)) {
      return Status::ParseError(StrFormat("expected %s", kw));
    }
    return Advance();
  }
  Status ExpectPunct(const char* p) {
    if (!CurrentIsPunct(p)) {
      return Status::ParseError(StrFormat("expected '%s'", p));
    }
    return Advance();
  }
  StatusOr<uint64_t> ExpectInt() {
    if (current_.kind != TokKind::kInt) {
      return Status::ParseError("expected an integer");
    }
    uint64_t value = 0;
    const char* end = current_.text.data() + current_.text.size();
    const auto [ptr, ec] = std::from_chars(current_.text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      return Status::ParseError(StrFormat("integer %s out of range",
                                          current_.text.c_str()));
    }
    SOFYA_RETURN_IF_ERROR(Advance());
    return value;
  }

  Status ParsePrologue() {
    while (CurrentIsKeyword("PREFIX")) {
      SOFYA_RETURN_IF_ERROR(Advance());
      std::string prefix;
      if (current_.kind == TokKind::kPname &&
          EndsWith(current_.text, ":")) {
        prefix = current_.text.substr(0, current_.text.size() - 1);
      } else if (current_.kind == TokKind::kPname) {
        // "ex:" lexes as pname with empty local when followed by space;
        // handle "ex" ":" too.
        prefix = current_.text;
        const size_t colon = prefix.find(':');
        if (colon != std::string::npos && colon + 1 == prefix.size()) {
          prefix.pop_back();
        } else if (colon != std::string::npos) {
          return Status::ParseError("malformed PREFIX declaration");
        }
      } else if (current_.kind == TokKind::kPunct && current_.text == ":") {
        prefix = "";  // Default prefix.
      } else {
        return Status::ParseError("expected 'prefix:' after PREFIX");
      }
      SOFYA_RETURN_IF_ERROR(Advance());
      if (current_.kind != TokKind::kIri) {
        return Status::ParseError("expected <iri> in PREFIX declaration");
      }
      prefixes_.Bind(prefix, current_.iri);
      SOFYA_RETURN_IF_ERROR(Advance());
    }
    return Status::OK();
  }

  VarId VarFor(const std::string& name, SelectQuery* query) {
    auto it = vars_.find(name);
    if (it != vars_.end()) return it->second;
    const VarId id = query->NewVar(name);
    vars_.emplace(name, id);
    var_order_.push_back(name);
    return id;
  }

  /// Parses one term position; returns a NodeRef (consuming tokens).
  StatusOr<NodeRef> ParseNode(SelectQuery* query) {
    switch (current_.kind) {
      case TokKind::kVar: {
        const NodeRef ref = NodeRef::Variable(VarFor(current_.text, query));
        SOFYA_RETURN_IF_ERROR(Advance());
        return ref;
      }
      case TokKind::kIri: {
        const NodeRef ref =
            NodeRef::Constant(intern_(Term::Iri(current_.iri)));
        SOFYA_RETURN_IF_ERROR(Advance());
        return ref;
      }
      case TokKind::kPname: {
        SOFYA_ASSIGN_OR_RETURN(std::string iri,
                               prefixes_.Expand(current_.text));
        SOFYA_RETURN_IF_ERROR(Advance());
        return NodeRef::Constant(intern_(Term::Iri(iri)));
      }
      case TokKind::kLiteral: {
        const NodeRef ref = NodeRef::Constant(intern_(current_.literal));
        SOFYA_RETURN_IF_ERROR(Advance());
        return ref;
      }
      default:
        return Status::ParseError(
            StrFormat("expected a term at offset %zu", current_.pos));
    }
  }

  Status ParseClause(SelectQuery* query) {
    SOFYA_ASSIGN_OR_RETURN(NodeRef s, ParseNode(query));
    SOFYA_ASSIGN_OR_RETURN(NodeRef p, ParseNode(query));
    SOFYA_ASSIGN_OR_RETURN(NodeRef o, ParseNode(query));
    query->Where(s, p, o);
    // The trailing '.' is optional before '}'.
    if (CurrentIsPunct(".")) SOFYA_RETURN_IF_ERROR(Advance());
    return Status::OK();
  }

  /// `VALUES (?v…) { (t…) … }`, after the keyword: one block per query,
  /// every cell a constant (UNDEF is refused), every row as wide as the
  /// variable list.
  Status ParseValues(SelectQuery* query) {
    if (query->has_values()) {
      return Status::ParseError("only one VALUES block is supported");
    }
    SOFYA_RETURN_IF_ERROR(ExpectPunct("("));
    std::vector<VarId> vars;
    while (current_.kind == TokKind::kVar) {
      const VarId var = VarFor(current_.text, query);
      if (std::find(vars.begin(), vars.end(), var) != vars.end()) {
        return Status::ParseError(StrFormat("VALUES names ?%s twice",
                                            current_.text.c_str()));
      }
      vars.push_back(var);
      SOFYA_RETURN_IF_ERROR(Advance());
    }
    if (vars.empty()) {
      return Status::ParseError("VALUES needs at least one ?var");
    }
    SOFYA_RETURN_IF_ERROR(ExpectPunct(")"));
    SOFYA_RETURN_IF_ERROR(ExpectPunct("{"));
    std::vector<TermId> cells;
    while (CurrentIsPunct("(")) {
      SOFYA_RETURN_IF_ERROR(Advance());
      size_t width = 0;
      while (!CurrentIsPunct(")")) {
        if (current_.kind == TokKind::kEnd) {
          return Status::ParseError("unterminated VALUES row");
        }
        if (CurrentIsKeyword("UNDEF")) {
          return Status::ParseError("UNDEF is not supported in VALUES");
        }
        if (current_.kind == TokKind::kVar) {
          return Status::ParseError("a VALUES row holds constants only");
        }
        SOFYA_ASSIGN_OR_RETURN(NodeRef node, ParseNode(query));
        cells.push_back(node.term());
        ++width;
      }
      if (width != vars.size()) {
        return Status::ParseError(
            StrFormat("VALUES row has %zu terms for %zu variables", width,
                      vars.size()));
      }
      SOFYA_RETURN_IF_ERROR(Advance());  // Consume ')'.
    }
    if (current_.kind == TokKind::kEnd) {
      return Status::ParseError("unterminated VALUES block (missing '}')");
    }
    SOFYA_RETURN_IF_ERROR(ExpectPunct("}"));
    query->Values(std::move(vars), std::move(cells));
    return Status::OK();
  }

  Status ParseFilter(SelectQuery* query) {
    SOFYA_RETURN_IF_ERROR(ExpectPunct("("));

    if (CurrentIsKeyword("ISIRI") || CurrentIsKeyword("ISLITERAL")) {
      const bool is_iri = current_.text == "ISIRI";
      SOFYA_RETURN_IF_ERROR(Advance());
      SOFYA_RETURN_IF_ERROR(ExpectPunct("("));
      if (current_.kind != TokKind::kVar) {
        return Status::ParseError("isIRI/isLiteral takes a variable");
      }
      const VarId var = VarFor(current_.text, query);
      SOFYA_RETURN_IF_ERROR(Advance());
      SOFYA_RETURN_IF_ERROR(ExpectPunct(")"));
      SOFYA_RETURN_IF_ERROR(ExpectPunct(")"));
      query->Filter(is_iri ? FilterExpr::IsIri(var)
                           : FilterExpr::IsLiteral(var));
      return Status::OK();
    }

    if (current_.kind != TokKind::kVar) {
      return Status::ParseError("FILTER comparison must start with a ?var");
    }
    const VarId lhs = VarFor(current_.text, query);
    SOFYA_RETURN_IF_ERROR(Advance());

    bool negated;
    if (CurrentIsPunct("=")) {
      negated = false;
    } else if (CurrentIsPunct("!=")) {
      negated = true;
    } else {
      return Status::ParseError("expected '=' or '!=' in FILTER");
    }
    SOFYA_RETURN_IF_ERROR(Advance());

    if (current_.kind == TokKind::kVar) {
      const VarId rhs = VarFor(current_.text, query);
      SOFYA_RETURN_IF_ERROR(Advance());
      query->Filter(negated ? FilterExpr::VarNeqVar(lhs, rhs)
                            : FilterExpr::VarEqVar(lhs, rhs));
    } else {
      SOFYA_ASSIGN_OR_RETURN(NodeRef node, ParseNode(query));
      query->Filter(negated ? FilterExpr::VarNeqTerm(lhs, node.term())
                            : FilterExpr::VarEqTerm(lhs, node.term()));
    }
    return ExpectPunct(")");
  }

  Lexer lexer_;
  Token current_;
  const TermInterner& intern_;
  PrefixMap prefixes_;
  std::unordered_map<std::string, VarId> vars_;
  std::vector<std::string> var_order_;
};

}  // namespace

StatusOr<SelectQuery> ParseSelectQuery(std::string_view text,
                                       const TermInterner& intern,
                                       const PrefixMap* prefixes) {
  Parser parser(text, intern, prefixes);
  return parser.Parse();
}

StatusOr<SelectQuery> ParseSelectQuery(std::string_view text,
                                       Dictionary* dict,
                                       const PrefixMap* prefixes) {
  TermInterner intern = [dict](const Term& t) { return dict->Intern(t); };
  return ParseSelectQuery(text, intern, prefixes);
}

}  // namespace sofya
