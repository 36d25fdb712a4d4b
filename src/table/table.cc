#include "table/table.h"

#include "common/logging.h"

namespace recpriv::table {

Table::Table(SchemaPtr schema) : schema_(std::move(schema)) {
  RECPRIV_CHECK(schema_ != nullptr) << "Table requires a schema";
  columns_.resize(schema_->num_attributes());
}

Result<Table> Table::FromColumns(SchemaPtr schema,
                                 std::vector<std::vector<uint32_t>> columns) {
  if (schema == nullptr) return Status::InvalidArgument("null schema");
  if (columns.size() != schema->num_attributes()) {
    return Status::InvalidArgument(
        "column count mismatch: got " + std::to_string(columns.size()) +
        ", schema has " + std::to_string(schema->num_attributes()));
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].size() != rows) {
      return Status::InvalidArgument("ragged columns: attribute " +
                                     schema->attribute(c).name);
    }
    const uint32_t dom = uint32_t(schema->attribute(c).domain.size());
    for (const uint32_t code : columns[c]) {
      if (code >= dom) {
        return Status::OutOfRange("code " + std::to_string(code) +
                                  " out of domain for attribute " +
                                  schema->attribute(c).name);
      }
    }
  }
  Table out(std::move(schema));
  out.columns_ = std::move(columns);
  out.num_rows_ = rows;
  return out;
}

Status Table::ValidateRow(std::span<const uint32_t> codes) const {
  if (codes.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity mismatch: got " + std::to_string(codes.size()) +
        ", schema has " + std::to_string(columns_.size()));
  }
  for (size_t c = 0; c < codes.size(); ++c) {
    if (codes[c] >= schema_->attribute(c).domain.size()) {
      return Status::OutOfRange("code " + std::to_string(codes[c]) +
                                " out of domain for attribute " +
                                schema_->attribute(c).name);
    }
  }
  return Status::OK();
}

Status Table::AppendRow(std::span<const uint32_t> codes) {
  RECPRIV_RETURN_NOT_OK(ValidateRow(codes));
  AppendRowUnchecked(codes);
  return Status::OK();
}

void Table::AppendRowUnchecked(std::span<const uint32_t> codes) {
  RECPRIV_DCHECK(codes.size() == columns_.size());
  for (size_t c = 0; c < codes.size(); ++c) columns_[c].push_back(codes[c]);
  ++num_rows_;
}

Result<std::string> Table::ValueAt(size_t row, size_t col) const {
  if (col >= columns_.size()) return Status::OutOfRange("column out of range");
  if (row >= num_rows_) return Status::OutOfRange("row out of range");
  return schema_->attribute(col).domain.GetValue(columns_[col][row]);
}

std::vector<uint64_t> Table::SaHistogram() const {
  std::vector<uint64_t> hist(schema_->sa_domain_size(), 0);
  const auto& sa = columns_[schema_->sensitive_index()];
  for (uint32_t code : sa) {
    RECPRIV_DCHECK(code < hist.size());
    ++hist[code];
  }
  return hist;
}

Table Table::Select(std::span<const size_t> row_indices) const {
  Table out(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const std::vector<uint32_t>& src = columns_[c];
    std::vector<uint32_t>& dst = out.columns_[c];
    dst.resize(row_indices.size());
    for (size_t i = 0; i < row_indices.size(); ++i) {
      RECPRIV_DCHECK(row_indices[i] < num_rows_);
      dst[i] = src[row_indices[i]];
    }
  }
  out.num_rows_ = row_indices.size();
  return out;
}

Table Table::Clone() const {
  Table out(schema_);
  out.columns_ = columns_;
  out.num_rows_ = num_rows_;
  return out;
}

void Table::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
}

}  // namespace recpriv::table
