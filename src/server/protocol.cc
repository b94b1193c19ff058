#include "server/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

namespace hsdb {
namespace server {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(std::move(tok));
  return tokens;
}

/// Parses a token as a literal of the column's engine type. Dates travel as
/// day numbers; anything is a valid varchar.
Result<Value> ParseLiteral(const std::string& tok, DataType type) {
  errno = 0;
  char* end = nullptr;
  switch (type) {
    case DataType::kInt32:
    case DataType::kInt64:
    case DataType::kDate: {
      long long v = std::strtoll(tok.c_str(), &end, 10);
      if (end != tok.c_str() + tok.size() || tok.empty() || errno == ERANGE) {
        return Status::InvalidArgument("bad integer literal '" + tok + "'");
      }
      if (type == DataType::kInt64) return Value(static_cast<int64_t>(v));
      if (v < INT32_MIN || v > INT32_MAX) {
        return Status::InvalidArgument("literal out of int32 range: " + tok);
      }
      if (type == DataType::kDate) {
        return Value(Date{static_cast<int32_t>(v)});
      }
      return Value(static_cast<int32_t>(v));
    }
    case DataType::kDouble: {
      double v = std::strtod(tok.c_str(), &end);
      if (end != tok.c_str() + tok.size() || tok.empty()) {
        return Status::InvalidArgument("bad double literal '" + tok + "'");
      }
      return Value(v);
    }
    case DataType::kVarchar:
      return Value(tok);
  }
  return Status::Internal("unhandled data type");
}

Result<ColumnId> ResolveColumn(const Schema& schema, const std::string& name) {
  std::optional<ColumnId> id = schema.FindColumn(name);
  if (!id.has_value()) {
    return Status::InvalidArgument("unknown column '" + name + "'");
  }
  return *id;
}

/// "a,b,c" -> column ids; "*" -> every column in schema order.
Result<std::vector<ColumnId>> ParseColumnList(const Schema& schema,
                                              const std::string& tok) {
  std::vector<ColumnId> out;
  if (tok == "*") {
    for (ColumnId c = 0; c < schema.num_columns(); ++c) out.push_back(c);
    return out;
  }
  size_t pos = 0;
  while (pos <= tok.size()) {
    size_t comma = tok.find(',', pos);
    if (comma == std::string::npos) comma = tok.size();
    HSDB_ASSIGN_OR_RETURN(ColumnId id,
                          ResolveColumn(schema, tok.substr(pos, comma - pos)));
    out.push_back(id);
    pos = comma + 1;
  }
  return out;
}

/// One where-term "<col><op><val>" with op in {=, <, <=, >, >=}.
Result<PredicateTerm> ParseTerm(const Schema& schema, const std::string& tok) {
  size_t op_pos = tok.find_first_of("<>=");
  if (op_pos == std::string::npos || op_pos == 0) {
    return Status::InvalidArgument("bad predicate term '" + tok +
                                   "' (want <col><op><val>)");
  }
  std::string op(1, tok[op_pos]);
  size_t val_pos = op_pos + 1;
  if ((op == "<" || op == ">") && val_pos < tok.size() &&
      tok[val_pos] == '=') {
    op += '=';
    ++val_pos;
  }
  HSDB_ASSIGN_OR_RETURN(ColumnId id,
                        ResolveColumn(schema, tok.substr(0, op_pos)));
  HSDB_ASSIGN_OR_RETURN(
      Value v, ParseLiteral(tok.substr(val_pos), schema.column(id).type));
  PredicateTerm term;
  term.column = ColumnRef{id, 0};
  if (op == "=") {
    term.range = ValueRange::Eq(v);
  } else if (op == "<") {
    term.range = ValueRange::Less(v);
  } else if (op == "<=") {
    term.range = ValueRange::AtMost(v);
  } else if (op == ">") {
    term.range = ValueRange::Greater(v);
  } else {
    term.range = ValueRange::AtLeast(v);
  }
  return term;
}

/// Parses the trailing clauses shared by select/count/aggregates: terms
/// after "where", and hands "limit"/"by" back to the caller via `pos`.
Result<Predicate> ParseWhere(const Schema& schema,
                             const std::vector<std::string>& tokens,
                             size_t* pos) {
  Predicate predicate;
  ++*pos;  // consume "where"
  bool any = false;
  while (*pos < tokens.size() && tokens[*pos] != "limit" &&
         tokens[*pos] != "by") {
    HSDB_ASSIGN_OR_RETURN(PredicateTerm term,
                          ParseTerm(schema, tokens[*pos]));
    predicate.push_back(std::move(term));
    ++*pos;
    any = true;
  }
  if (!any) return Status::InvalidArgument("empty where clause");
  return predicate;
}

Result<const Schema*> ResolveTable(const SchemaResolver& resolver,
                                   const std::string& name) {
  const Schema* schema = resolver(name);
  if (schema == nullptr) {
    return Status::NotFound("unknown table '" + name + "'");
  }
  return schema;
}

Result<Request> ParseSelect(const std::vector<std::string>& tokens,
                            const SchemaResolver& resolver) {
  if (tokens.size() < 3) {
    return Status::InvalidArgument("usage: select <table> <cols> [where ...]");
  }
  HSDB_ASSIGN_OR_RETURN(const Schema* schema,
                        ResolveTable(resolver, tokens[1]));
  SelectQuery q;
  q.table = tokens[1];
  HSDB_ASSIGN_OR_RETURN(q.select_columns,
                        ParseColumnList(*schema, tokens[2]));
  size_t pos = 3;
  if (pos < tokens.size() && tokens[pos] == "where") {
    HSDB_ASSIGN_OR_RETURN(q.predicate, ParseWhere(*schema, tokens, &pos));
  }
  if (pos < tokens.size() && tokens[pos] == "limit") {
    if (pos + 1 >= tokens.size()) {
      return Status::InvalidArgument("limit needs a count");
    }
    HSDB_ASSIGN_OR_RETURN(
        Value n, ParseLiteral(tokens[pos + 1], DataType::kInt64));
    if (n.as_int64() < 0) return Status::InvalidArgument("negative limit");
    q.limit = static_cast<size_t>(n.as_int64());
    pos += 2;
  }
  if (pos != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after '" +
                                   tokens[pos] + "'");
  }
  Request req;
  req.kind = Request::Kind::kQuery;
  req.query = std::move(q);
  return req;
}

Result<Request> ParseAggregate(const std::vector<std::string>& tokens,
                               const SchemaResolver& resolver) {
  const std::string& cmd = tokens[0];
  bool is_count = cmd == "count";
  size_t min_tokens = is_count ? 2 : 3;
  if (tokens.size() < min_tokens) {
    return Status::InvalidArgument("usage: " + cmd +
                                   (is_count ? " <table> [where ...]"
                                             : " <table> <col> [where ...]"));
  }
  HSDB_ASSIGN_OR_RETURN(const Schema* schema,
                        ResolveTable(resolver, tokens[1]));
  AggregationQuery q;
  q.tables.push_back(tokens[1]);
  AggregateExpr expr;
  if (is_count) {
    expr.fn = AggFn::kCount;
  } else {
    expr.fn = cmd == "sum"   ? AggFn::kSum
              : cmd == "avg" ? AggFn::kAvg
              : cmd == "min" ? AggFn::kMin
                             : AggFn::kMax;
    HSDB_ASSIGN_OR_RETURN(ColumnId id, ResolveColumn(*schema, tokens[2]));
    if (!IsNumeric(schema->column(id).type)) {
      return Status::InvalidArgument("cannot aggregate varchar column '" +
                                     tokens[2] + "'");
    }
    expr.column = ColumnRef{id, 0};
  }
  q.aggregates.push_back(expr);
  size_t pos = is_count ? 2 : 3;
  if (pos < tokens.size() && tokens[pos] == "where") {
    HSDB_ASSIGN_OR_RETURN(q.predicate, ParseWhere(*schema, tokens, &pos));
  }
  if (pos < tokens.size() && tokens[pos] == "by") {
    if (pos + 1 >= tokens.size()) {
      return Status::InvalidArgument("by needs a column list");
    }
    HSDB_ASSIGN_OR_RETURN(std::vector<ColumnId> groups,
                          ParseColumnList(*schema, tokens[pos + 1]));
    for (ColumnId id : groups) q.group_by.push_back(ColumnRef{id, 0});
    pos += 2;
  }
  if (pos != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after '" +
                                   tokens[pos] + "'");
  }
  Request req;
  req.kind = Request::Kind::kQuery;
  req.query = std::move(q);
  return req;
}

/// Splits "v1,v2,..." and types element i by schema column i.
Result<Row> ParseRowLiteral(const Schema& schema, const std::string& tok) {
  Row row;
  size_t pos = 0;
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (pos > tok.size()) {
      return Status::InvalidArgument("row literal has too few values");
    }
    size_t comma = tok.find(',', pos);
    if (comma == std::string::npos) comma = tok.size();
    HSDB_ASSIGN_OR_RETURN(Value v,
                          ParseLiteral(tok.substr(pos, comma - pos),
                                       schema.column(c).type));
    row.push_back(std::move(v));
    pos = comma + 1;
  }
  if (pos <= tok.size()) {
    return Status::InvalidArgument("row literal has too many values");
  }
  return row;
}

Result<Request> ParseInsert(const std::vector<std::string>& tokens,
                            const SchemaResolver& resolver) {
  if (tokens.size() != 3) {
    return Status::InvalidArgument("usage: insert <table> <v1,v2,...>");
  }
  HSDB_ASSIGN_OR_RETURN(const Schema* schema,
                        ResolveTable(resolver, tokens[1]));
  InsertQuery q;
  q.table = tokens[1];
  HSDB_ASSIGN_OR_RETURN(q.row, ParseRowLiteral(*schema, tokens[2]));
  Request req;
  req.kind = Request::Kind::kQuery;
  req.query = std::move(q);
  return req;
}

Result<Request> ParseUpdate(const std::vector<std::string>& tokens,
                            const SchemaResolver& resolver) {
  if (tokens.size() < 5 || tokens[3] != "where") {
    return Status::InvalidArgument(
        "usage: update <table> <col>=<val>[,...] where <term> ...");
  }
  HSDB_ASSIGN_OR_RETURN(const Schema* schema,
                        ResolveTable(resolver, tokens[1]));
  UpdateQuery q;
  q.table = tokens[1];
  const std::string& sets = tokens[2];
  size_t pos = 0;
  while (pos <= sets.size()) {
    size_t comma = sets.find(',', pos);
    if (comma == std::string::npos) comma = sets.size();
    std::string assign = sets.substr(pos, comma - pos);
    size_t eq = assign.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("bad assignment '" + assign +
                                     "' (want <col>=<val>)");
    }
    HSDB_ASSIGN_OR_RETURN(ColumnId id,
                          ResolveColumn(*schema, assign.substr(0, eq)));
    HSDB_ASSIGN_OR_RETURN(Value v, ParseLiteral(assign.substr(eq + 1),
                                                schema->column(id).type));
    q.set_columns.push_back(id);
    q.set_values.push_back(std::move(v));
    pos = comma + 1;
  }
  size_t where_pos = 3;
  HSDB_ASSIGN_OR_RETURN(q.predicate, ParseWhere(*schema, tokens, &where_pos));
  if (where_pos != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after '" +
                                   tokens[where_pos] + "'");
  }
  Request req;
  req.kind = Request::Kind::kQuery;
  req.query = std::move(q);
  return req;
}

Result<Request> ParseDelete(const std::vector<std::string>& tokens,
                            const SchemaResolver& resolver) {
  if (tokens.size() < 2) {
    return Status::InvalidArgument("usage: delete <table> [where ...]");
  }
  HSDB_ASSIGN_OR_RETURN(const Schema* schema,
                        ResolveTable(resolver, tokens[1]));
  DeleteQuery q;
  q.table = tokens[1];
  size_t pos = 2;
  if (pos < tokens.size() && tokens[pos] == "where") {
    HSDB_ASSIGN_OR_RETURN(q.predicate, ParseWhere(*schema, tokens, &pos));
  }
  if (pos != tokens.size()) {
    return Status::InvalidArgument("trailing tokens after '" +
                                   tokens[pos] + "'");
  }
  Request req;
  req.kind = Request::Kind::kQuery;
  req.query = std::move(q);
  return req;
}

void AppendRow(const Row& row, std::string* out) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out->push_back('\t');
    out->append(row[i].ToString());
  }
  out->push_back('\n');
}

/// The query-command dispatch shared by the top level and `explain`: any
/// command that produces a Request::Kind::kQuery.
Result<Request> ParseQueryCommand(const std::vector<std::string>& tokens,
                                  const SchemaResolver& resolver) {
  const std::string& cmd = tokens[0];
  if (cmd == "select") return ParseSelect(tokens, resolver);
  if (cmd == "count" || cmd == "sum" || cmd == "avg" || cmd == "min" ||
      cmd == "max") {
    return ParseAggregate(tokens, resolver);
  }
  if (cmd == "insert") return ParseInsert(tokens, resolver);
  if (cmd == "update") return ParseUpdate(tokens, resolver);
  if (cmd == "delete") return ParseDelete(tokens, resolver);
  return Status::InvalidArgument("unknown command '" + cmd + "'");
}

Result<Request> ParseExplain(std::vector<std::string> tokens,
                             const SchemaResolver& resolver) {
  tokens.erase(tokens.begin());  // drop "explain"
  bool analyze = false;
  if (!tokens.empty() && tokens[0] == "analyze") {
    analyze = true;
    tokens.erase(tokens.begin());
  }
  if (tokens.empty()) {
    return Status::InvalidArgument(
        "usage: explain [analyze] <query-command...>");
  }
  HSDB_ASSIGN_OR_RETURN(Request req, ParseQueryCommand(tokens, resolver));
  req.kind = analyze ? Request::Kind::kExplainAnalyze : Request::Kind::kExplain;
  return req;
}

}  // namespace

Result<Request> ParseRequest(const std::string& line,
                             const SchemaResolver& resolver) {
  if (line.size() > kMaxLineBytes) {
    return Status::OutOfRange("request line exceeds " +
                              std::to_string(kMaxLineBytes) + " bytes");
  }
  std::string trimmed = line;
  while (!trimmed.empty() &&
         (trimmed.back() == '\r' || trimmed.back() == '\n')) {
    trimmed.pop_back();
  }
  std::vector<std::string> tokens = Tokenize(trimmed);
  if (tokens.empty()) return Status::InvalidArgument("empty request");
  const std::string& cmd = tokens[0];

  Request req;
  if (cmd == "ping" || cmd == "stats" || cmd == "tables" || cmd == "quit") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument(cmd + " takes no arguments");
    }
    req.kind = cmd == "ping"     ? Request::Kind::kPing
               : cmd == "stats"  ? Request::Kind::kStats
               : cmd == "tables" ? Request::Kind::kTables
                                 : Request::Kind::kQuit;
    return req;
  }
  if (cmd == "schema") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: schema <table>");
    }
    HSDB_RETURN_IF_ERROR(ResolveTable(resolver, tokens[1]).status());
    req.kind = Request::Kind::kSchema;
    req.table = tokens[1];
    return req;
  }
  if (cmd == "explain") return ParseExplain(std::move(tokens), resolver);
  return ParseQueryCommand(tokens, resolver);
}

std::string FormatAggregate(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatResponse(const QueryResult& result, QueryKind kind) {
  std::string out;
  switch (kind) {
    case QueryKind::kSelect:
      out = "ok " + std::to_string(result.rows.size()) + "\n";
      for (const Row& row : result.rows) AppendRow(row, &out);
      return out;
    case QueryKind::kAggregation:
      if (!result.rows.empty() || result.aggregates.empty()) {
        // Grouped: one row per group, [group values..., aggregates...].
        out = "ok " + std::to_string(result.rows.size()) + "\n";
        for (const Row& row : result.rows) AppendRow(row, &out);
        return out;
      }
      out = "ok 1\n";
      for (size_t i = 0; i < result.aggregates.size(); ++i) {
        if (i > 0) out.push_back('\t');
        out.append(FormatAggregate(result.aggregates[i]));
      }
      out.push_back('\n');
      return out;
    case QueryKind::kInsert:
    case QueryKind::kUpdate:
    case QueryKind::kDelete:
      return "ok 1\n" + std::to_string(result.affected_rows) + "\n";
  }
  return "ok 0\n";
}

std::string FormatLines(const std::vector<std::string>& lines) {
  std::string out = "ok " + std::to_string(lines.size()) + "\n";
  for (const std::string& line : lines) {
    out.append(line);
    out.push_back('\n');
  }
  return out;
}

std::string FormatError(const Status& status) {
  std::string msg = status.ToString();
  for (char& c : msg) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "err " + msg + "\n";
}

}  // namespace server
}  // namespace hsdb
