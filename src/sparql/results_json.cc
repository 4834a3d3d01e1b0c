#include "sparql/results_json.h"

#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace sofya {
namespace {

// ------------------------------------------------------------ JSON reader
//
// One pass over the document, no tree: each binding is turned into a Term
// and interned the moment it has been read. Members may come in any order,
// `results` before `head` included; members the format does not define are
// skipped but still checked to be valid JSON. Numbers are only checked for
// their characters: the format never needs their value.

constexpr int kMaxDepth = 64;

class ResultsReader {
 public:
  /// `intern` set: a SELECT document; null: an ASK document.
  ResultsReader(std::string_view text, const TermInterner* intern)
      : text_(text), intern_(intern) {}

  /// Reads the whole document.
  Status Read() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    if (text_[pos_] != '{') {
      SOFYA_RETURN_IF_ERROR(SkipValue(0));
      SOFYA_RETURN_IF_ERROR(ExpectEnd());
      return Status::ParseError("sparql-json: document is not an object");
    }
    SOFYA_RETURN_IF_ERROR(ReadObject(0, [this](std::string_view key,
                                               int depth) -> Status {
      if (intern_ != nullptr && key == "head" && !have_head_) {
        have_head_ = true;
        return ReadHead(depth);
      }
      if (intern_ != nullptr && key == "results" && !have_results_) {
        have_results_ = true;
        return ReadResults(depth);
      }
      if (intern_ == nullptr && key == "boolean" && !have_boolean_) {
        have_boolean_ = true;
        boolean_ = ConsumeLiteral("true");
        boolean_valid_ = boolean_ || ConsumeLiteral("false");
        return boolean_valid_ ? Status::OK() : SkipValue(depth);
      }
      return SkipValue(depth);
    }));
    SOFYA_RETURN_IF_ERROR(ExpectEnd());
    if (intern_ == nullptr) {
      if (!boolean_valid_) {
        return Status::ParseError("sparql-json: ASK result missing boolean");
      }
      return Status::OK();
    }
    if (!have_head_) return Status::ParseError("sparql-json: missing head");
    if (!have_results_) {
      return Status::ParseError("sparql-json: missing results");
    }
    if (!have_bindings_) {
      return Status::ParseError("sparql-json: missing results.bindings");
    }
    ResolvePending();
    return Status::OK();
  }

  ResultSet& results() { return results_; }
  bool boolean() const { return boolean_; }

 private:
  Status Error(const char* message) const {
    return Status::ParseError(
        StrFormat("json: %s (at byte %zu)", message, pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// Skips whitespace, then consumes `c` if it is next.
  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Skips whitespace, then consumes `literal` if it is next.
  bool ConsumeLiteral(std::string_view literal) {
    SkipWhitespace();
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Status ExpectEnd() {
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return Status::OK();
  }

  /// Reads the object at pos_ (a value at `depth`), calling
  /// `on_member(key, depth + 1)` with pos_ at each member's value; the
  /// callback must consume that value.
  template <typename OnMember>
  Status ReadObject(int depth, OnMember&& on_member) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    ++pos_;  // '{'
    if (Consume('}')) return Status::OK();
    std::string key_scratch;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      SOFYA_ASSIGN_OR_RETURN(std::string_view key, ReadString(key_scratch));
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unexpected end of input");
      SOFYA_RETURN_IF_ERROR(on_member(key, depth + 1));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  /// ReadObject's array twin: `on_element(depth + 1)` per element.
  template <typename OnElement>
  Status ReadArray(int depth, OnElement&& on_element) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    ++pos_;  // '['
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unexpected end of input");
      SOFYA_RETURN_IF_ERROR(on_element(depth + 1));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  /// Checks and skips any JSON value at `depth`.
  Status SkipValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      return ReadObject(depth, [this](std::string_view, int member_depth) {
        return SkipValue(member_depth);
      });
    }
    if (c == '[') {
      return ReadArray(depth, [this](int element_depth) {
        return SkipValue(element_depth);
      });
    }
    if (c == '"') {
      std::string scratch;
      return ReadString(scratch).status();
    }
    if (ConsumeLiteral("true") || ConsumeLiteral("false") ||
        ConsumeLiteral("null")) {
      return Status::OK();
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      return Status::OK();
    }
    return Error("unexpected character");
  }

  /// Appends a Unicode code point as UTF-8.
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp <= 0x7f) {
      out->push_back(static_cast<char>(cp));
    } else if (cp <= 0x7ff) {
      out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp <= 0xffff) {
      out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  StatusOr<uint32_t> ReadHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("malformed \\u escape");
      }
    }
    return value;
  }

  /// Reads the string at pos_ (its opening quote). A string without escapes
  /// is returned as a view of the document; one with escapes is decoded
  /// into `scratch` and the view points there.
  StatusOr<std::string_view> ReadString(std::string& scratch) {
    const size_t start = ++pos_;  // Past '"'.
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '"') {
      return text_.substr(start, pos_++ - start);
    }
    scratch.assign(text_.substr(start, pos_ - start));
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return std::string_view(scratch);
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        scratch.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': scratch.push_back('"'); break;
        case '\\': scratch.push_back('\\'); break;
        case '/': scratch.push_back('/'); break;
        case 'b': scratch.push_back('\b'); break;
        case 'f': scratch.push_back('\f'); break;
        case 'n': scratch.push_back('\n'); break;
        case 'r': scratch.push_back('\r'); break;
        case 't': scratch.push_back('\t'); break;
        case 'u': {
          SOFYA_ASSIGN_OR_RETURN(uint32_t cp, ReadHex4());
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate must follow.
            if (text_.substr(pos_, 2) != "\\u") {
              return Error("unpaired high surrogate");
            }
            pos_ += 2;
            SOFYA_ASSIGN_OR_RETURN(uint32_t low, ReadHex4());
            if (low < 0xdc00 || low > 0xdfff) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, &scratch);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  /// Reads a string member into `out`; false (value skipped) when the value
  /// is not a string.
  StatusOr<bool> ReadStringMember(int depth, std::string& out) {
    if (text_[pos_] != '"') {
      SOFYA_RETURN_IF_ERROR(SkipValue(depth));
      return false;
    }
    SOFYA_ASSIGN_OR_RETURN(std::string_view value, ReadString(scratch_));
    out.assign(value);
    return true;
  }

  // ------------------------------------------------- results-format layer

  Status ReadHead(int depth) {
    if (text_[pos_] != '{') {
      return Status::ParseError("sparql-json: missing head");
    }
    bool have_vars = false;
    return ReadObject(depth, [&](std::string_view key, int member_depth) {
      if (key != "vars" || have_vars) return SkipValue(member_depth);
      have_vars = true;
      if (text_[pos_] != '[') {
        return Status::ParseError("sparql-json: head.vars is not an array");
      }
      return ReadArray(member_depth, [this](int) -> Status {
        if (text_[pos_] != '"') {
          return Status::ParseError(
              "sparql-json: head.vars entry not a string");
        }
        SOFYA_ASSIGN_OR_RETURN(std::string_view name, ReadString(scratch_));
        results_.var_names.emplace_back(name);
        return Status::OK();
      });
    });
  }

  Status ReadResults(int depth) {
    if (text_[pos_] != '{') {
      return Status::ParseError("sparql-json: missing results");
    }
    return ReadObject(depth, [this](std::string_view key, int member_depth) {
      if (key != "bindings" || have_bindings_) return SkipValue(member_depth);
      have_bindings_ = true;
      if (text_[pos_] != '[') {
        return Status::ParseError("sparql-json: missing results.bindings");
      }
      return ReadArray(member_depth, [this](int solution_depth) {
        return ReadSolution(solution_depth);
      });
    });
  }

  /// One solution: a row of the head's width, each bound variable's cell
  /// interned. Before the head is known, cells wait in pending_ by name.
  Status ReadSolution(int depth) {
    if (text_[pos_] != '{') {
      return Status::ParseError("sparql-json: solution is not an object");
    }
    const size_t row_index = results_.rows.size();
    results_.rows.emplace_back(results_.var_names.size(), kNullTermId);
    return ReadObject(depth, [&](std::string_view var, int member_depth)
                                 -> Status {
      int column = -1;
      if (have_head_) {
        column = ColumnOf(var);
        // Bindings for undeclared variables are ignored (lenient, like most
        // clients: some servers omit head.vars entries under projection *).
        if (column < 0) return SkipValue(member_depth);
      }
      std::string pending_name = have_head_ ? std::string() : std::string(var);
      if (text_[pos_] != '{') {
        return Status::ParseError("sparql-json: binding is not an object");
      }
      SOFYA_ASSIGN_OR_RETURN(TermId id, ReadBinding(member_depth));
      if (column >= 0) {
        results_.rows[row_index][column] = id;
      } else {
        pending_.push_back({row_index, std::move(pending_name), id});
      }
      return Status::OK();
    });
  }

  /// One binding object: its term, interned. The first `type`, `value`,
  /// `xml:lang` and `datatype` members count, and only when they are
  /// strings; any other member is skipped.
  StatusOr<TermId> ReadBinding(int depth) {
    static constexpr std::string_view kFields[] = {"type", "value",
                                                   "xml:lang", "datatype"};
    std::string* const out[] = {&type_, &value_, &lang_, &datatype_};
    bool seen[4] = {}, is_string[4] = {};
    SOFYA_RETURN_IF_ERROR(ReadObject(
        depth, [&](std::string_view key, int member_depth) -> Status {
          for (int i = 0; i < 4; ++i) {
            if (key != kFields[i] || seen[i]) continue;
            seen[i] = true;
            SOFYA_ASSIGN_OR_RETURN(is_string[i],
                                   ReadStringMember(member_depth, *out[i]));
            return Status::OK();
          }
          return SkipValue(member_depth);
        }));
    if (!is_string[0] || !is_string[1]) {
      return Status::ParseError("sparql-json: binding missing type/value");
    }
    Term term;
    if (type_ == "uri") {
      term = Term::Iri(value_);
    } else if (type_ == "bnode") {
      term = Term::Iri("_:" + value_);
    } else if (type_ == "literal" || type_ == "typed-literal") {
      if (is_string[2] && !lang_.empty()) {
        term = Term::LangLiteral(value_, lang_);
      } else if (is_string[3] && !datatype_.empty()) {
        term = Term::TypedLiteral(value_, datatype_);
      } else {
        term = Term::Literal(value_);
      }
    } else {
      return Status::ParseError("sparql-json: unknown binding type '" + type_ +
                                "'");
    }
    return (*intern_)(term);
  }

  int ColumnOf(std::string_view var) const {
    for (size_t i = 0; i < results_.var_names.size(); ++i) {
      if (results_.var_names[i] == var) return static_cast<int>(i);
    }
    return -1;
  }

  /// Places the cells read before the head, now that its columns are known.
  void ResolvePending() {
    for (auto& row : results_.rows) row.resize(results_.var_names.size());
    for (const PendingCell& cell : pending_) {
      const int column = ColumnOf(cell.var);
      if (column >= 0) results_.rows[cell.row][column] = cell.id;
    }
  }

  struct PendingCell {
    size_t row;
    std::string var;
    TermId id;
  };

  std::string_view text_;
  size_t pos_ = 0;
  const TermInterner* intern_;

  bool have_head_ = false;
  bool have_results_ = false;
  bool have_bindings_ = false;
  bool have_boolean_ = false;
  bool boolean_valid_ = false;
  bool boolean_ = false;
  ResultSet results_;
  std::vector<PendingCell> pending_;

  // Reused buffers: decoded strings and the current binding's members.
  std::string scratch_, type_, value_, lang_, datatype_;
};

}  // namespace

StatusOr<ResultSet> ParseSparqlResultsJson(std::string_view json,
                                           const TermInterner& intern) {
  ResultsReader reader(json, &intern);
  SOFYA_RETURN_IF_ERROR(reader.Read());
  return std::move(reader.results());
}

StatusOr<bool> ParseSparqlAskJson(std::string_view json) {
  ResultsReader reader(json, nullptr);
  SOFYA_RETURN_IF_ERROR(reader.Read());
  return reader.boolean();
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

StatusOr<std::string> WriteSparqlResultsJson(const ResultSet& results,
                                             const TermDecoder& decode) {
  std::string out = "{\"head\":{\"vars\":[";
  for (size_t i = 0; i < results.var_names.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += JsonEscape(results.var_names[i]);
    out += '"';
  }
  out += "]},\"results\":{\"bindings\":[";
  for (size_t r = 0; r < results.rows.size(); ++r) {
    if (r > 0) out += ',';
    out += '{';
    bool first = true;
    for (size_t c = 0; c < results.rows[r].size() &&
                       c < results.var_names.size();
         ++c) {
      const TermId id = results.rows[r][c];
      if (id == kNullTermId) continue;  // Unbound: omitted per the spec.
      SOFYA_ASSIGN_OR_RETURN(Term term, decode(id));
      if (!first) out += ',';
      first = false;
      out += '"';
      out += JsonEscape(results.var_names[c]);
      out += "\":{";
      if (term.is_iri()) {
        if (term.is_blank()) {
          out += "\"type\":\"bnode\",\"value\":\"" +
                 JsonEscape(term.lexical().substr(2)) + '"';
        } else {
          out += "\"type\":\"uri\",\"value\":\"" +
                 JsonEscape(term.lexical()) + '"';
        }
      } else {
        out += "\"type\":\"literal\",\"value\":\"" +
               JsonEscape(term.lexical()) + '"';
        if (!term.language().empty()) {
          out += ",\"xml:lang\":\"" + JsonEscape(term.language()) + '"';
        } else if (!term.datatype().empty()) {
          out += ",\"datatype\":\"" + JsonEscape(term.datatype()) + '"';
        }
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}}";
  return out;
}

std::string WriteSparqlAskJson(bool value) {
  return std::string("{\"head\":{},\"boolean\":") +
         (value ? "true" : "false") + "}";
}

}  // namespace sofya
