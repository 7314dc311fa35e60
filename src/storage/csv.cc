#include "storage/csv.h"

#include <cstdlib>

namespace opd::storage {

namespace {

bool NeedsQuoting(const std::string& s, char delimiter) {
  for (char c : s) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteCell(const std::string& s, char delimiter) {
  if (!NeedsQuoting(s, delimiter)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

// Splits one CSV record honoring quotes; advances *pos past the record's
// trailing newline.
std::vector<std::string> ReadRecord(const std::string& text, size_t* pos,
                                    char delimiter) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  size_t i = *pos;
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\n') {
      ++i;
      break;
    } else if (c != '\r') {
      cell.push_back(c);
    }
    ++i;
  }
  cells.push_back(std::move(cell));
  *pos = i;
  return cells;
}

Result<Value> ConvertCell(const std::string& cell, DataType type,
                          const CsvOptions& options, size_t row) {
  if (cell == options.null_token) return Value::Null();
  switch (type) {
    case DataType::kInt64: {
      char* end = nullptr;
      long long v = std::strtoll(cell.c_str(), &end, 10);
      if (end == cell.c_str() || *end != '\0') {
        return Status::InvalidArgument("row " + std::to_string(row) +
                                       ": not an integer: '" + cell + "'");
      }
      return Value(static_cast<int64_t>(v));
    }
    case DataType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') {
        return Status::InvalidArgument("row " + std::to_string(row) +
                                       ": not a number: '" + cell + "'");
      }
      return Value(v);
    }
    case DataType::kBool:
      if (cell == "true" || cell == "1") return Value(true);
      if (cell == "false" || cell == "0") return Value(false);
      return Status::InvalidArgument("row " + std::to_string(row) +
                                     ": not a bool: '" + cell + "'");
    case DataType::kString:
      return Value(cell);
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

}  // namespace

std::string ToCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  const Schema& schema = table.schema();
  if (options.header) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      out += QuoteCell(schema.column(c).name, options.delimiter);
    }
    out.push_back('\n');
  }
  for (const RowBatch& batch : *table.ToBatches()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        if (c > 0) out.push_back(options.delimiter);
        const ColumnVector& col = batch.column(c);
        if (col.IsNull(r)) {
          out += options.null_token;
        } else {
          out += QuoteCell(col.GetValue(r).ToString(), options.delimiter);
        }
      }
      out.push_back('\n');
    }
  }
  return out;
}

Result<Table> FromCsv(const std::string& text, const Schema& schema,
                      const std::string& table_name,
                      const CsvOptions& options) {
  Table table(table_name, schema);
  size_t pos = 0;
  size_t row_number = 0;
  if (options.header) {
    if (pos >= text.size()) {
      return Status::InvalidArgument("missing header row");
    }
    auto header = ReadRecord(text, &pos, options.delimiter);
    if (header.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "header has " + std::to_string(header.size()) + " columns, schema " +
          std::to_string(schema.num_columns()));
    }
    for (size_t c = 0; c < header.size(); ++c) {
      if (header[c] != schema.column(c).name) {
        return Status::InvalidArgument("header column " + std::to_string(c) +
                                       " is '" + header[c] + "', expected '" +
                                       schema.column(c).name + "'");
      }
    }
    ++row_number;
  }
  while (pos < text.size()) {
    // A lone newline at EOF is a trailing terminator, not a record (an empty
    // line elsewhere is a record — e.g. a null cell in a 1-column table).
    if (text[pos] == '\n' && pos + 1 == text.size()) break;
    auto cells = ReadRecord(text, &pos, options.delimiter);
    ++row_number;
    if (cells.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "row " + std::to_string(row_number) + " has " +
          std::to_string(cells.size()) + " cells, schema has " +
          std::to_string(schema.num_columns()));
    }
    Row row;
    row.reserve(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      OPD_ASSIGN_OR_RETURN(
          Value value,
          ConvertCell(cells[c], schema.column(c).type, options, row_number));
      row.push_back(std::move(value));
    }
    OPD_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

}  // namespace opd::storage
