#include "pdb/table.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace jigsaw::pdb {

Result<std::size_t> Schema::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns();
  cols.insert(cols.end(), right.columns().begin(), right.columns().end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const auto& c : columns_) {
    parts.push_back(c.name + ":" + ValueTypeName(c.type));
  }
  // Appended, not "(" + std::string: see BinaryExpr::ToString.
  std::string out = "(";
  out += Join(parts, ", ");
  out += ")";
  return out;
}

bool ValueFitsColumn(const Value& v, ValueType declared) {
  if (v.is_null()) return true;
  switch (declared) {
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kBool:
      return v.IsNumeric();
    case ValueType::kString:
      return v.type() == ValueType::kString;
    case ValueType::kNull:
      return false;
  }
  return false;
}

Status Table::AddRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu != schema arity %zu", row.size(),
                  schema_.num_columns()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!ValueFitsColumn(row[i], schema_.column(i).type)) {
      return Status::InvalidArgument(StrFormat(
          "column '%s': value of type %s does not fit declared type %s",
          schema_.column(i).name.c_str(), ValueTypeName(row[i].type()),
          ValueTypeName(schema_.column(i).type)));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

void Table::AppendRowUnchecked(Row row) {
  JIGSAW_DCHECK(row.size() == schema_.num_columns());
  rows_.push_back(std::move(row));
}

Result<std::vector<double>> Table::NumericColumn(
    const std::string& name) const {
  JIGSAW_ASSIGN_OR_RETURN(std::size_t idx, schema_.IndexOf(name));
  std::vector<double> out;
  out.reserve(rows_.size());
  for (const auto& r : rows_) {
    if (!r[idx].IsNumeric()) {
      return Status::ExecutionError("column '" + name + "' is not numeric");
    }
    out.push_back(r[idx].AsDouble());
  }
  return out;
}

std::string Table::ToCsv() const {
  std::string out;
  for (std::size_t i = 0; i < schema_.num_columns(); ++i) {
    if (i > 0) out += ',';
    out += schema_.column(i).name;
  }
  out += '\n';
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (i > 0) out += ',';
      out += r[i].ToString();
    }
    out += '\n';
  }
  return out;
}

Result<Table> Table::FromCsv(const std::string& text, const Schema& schema) {
  Table out(schema);
  const auto lines = Split(text, '\n');
  bool first = true;
  for (const auto& line : lines) {
    if (first) {
      first = false;  // header
      continue;
    }
    if (Trim(line).empty()) continue;
    const auto fields = Split(line, ',');
    if (fields.size() != schema.num_columns()) {
      return Status::ParseError("csv arity mismatch: " + line);
    }
    Row row;
    row.reserve(fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
      JIGSAW_ASSIGN_OR_RETURN(
          Value v, Value::Parse(fields[i], schema.column(i).type));
      row.push_back(std::move(v));
    }
    JIGSAW_RETURN_IF_ERROR(out.AddRow(std::move(row)));
  }
  return out;
}

std::string Table::ToString(std::size_t max_rows) const {
  std::string out = schema_.ToString() + "\n";
  for (std::size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    for (std::size_t c = 0; c < rows_[i].size(); ++c) {
      if (c > 0) out += " | ";
      out += rows_[i][c].ToString();
    }
    out += '\n';
  }
  if (rows_.size() > max_rows) {
    out += StrFormat("... (%zu rows total)\n", rows_.size());
  }
  return out;
}

}  // namespace jigsaw::pdb
