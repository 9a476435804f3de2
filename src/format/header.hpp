// The netCDF classic file header: model, serialization, and layout.
//
// Paper §3.1: "Physically, the dataset file is divided into two parts: file
// header and array data. The header contains all information (or metadata)
// about dimensions, attributes, and variables except for the variable data
// itself." This module implements the CDF-1 (classic) and CDF-2 (64-bit
// offset) grammars:
//
//   header  := magic numrecs dim_list gatt_list var_list
//   magic   := 'C' 'D' 'F' version        (version 1 or 2)
//   dim     := name length                (length 0 marks the record dim)
//   attr    := name nc_type nelems values (values padded to 4 bytes)
//   var     := name ndims dimid* vatt_list nc_type vsize begin
//
// plus the layout rules that place fixed-size arrays contiguously after the
// header and interleave record variables' records after them (Figure 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "format/types.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"
#include "util/xdr.hpp"

namespace ncformat {

/// Dimension length value marking the unlimited (record) dimension.
constexpr std::uint64_t kUnlimitedLen = 0;
/// Variable id naming the global attributes in the attribute edits.
constexpr int kGlobalVarId = -1;

/// Classic-format limits (from netcdf.h).
constexpr std::size_t kMaxName = 256;
constexpr std::size_t kMaxDims = 1024;
constexpr std::size_t kMaxVars = 8192;
constexpr std::size_t kMaxAttrs = 8192;
constexpr std::size_t kMaxVarDims = 1024;

struct Dim {
  std::string name;
  std::uint64_t len = 0;  ///< kUnlimitedLen (0) for the record dimension

  [[nodiscard]] bool is_unlimited() const { return len == kUnlimitedLen; }
};

/// An attribute: name + typed value array (held in host byte order; the
/// codec converts to/from the big-endian on-disk form).
struct Attr {
  std::string name;
  NcType type = NcType::kByte;
  std::vector<std::byte> data;  ///< host-order packed values

  [[nodiscard]] std::uint64_t nelems() const {
    return data.size() / TypeSize(type);
  }

  static Attr Text(std::string name, std::string_view value);
  template <typename T>
  static Attr Numeric(std::string name, NcType type, std::span<const T> values);

  [[nodiscard]] std::string AsText() const;
};

struct Var {
  std::string name;
  std::vector<std::int32_t> dimids;
  std::vector<Attr> attrs;
  NcType type = NcType::kByte;

  // Layout (computed by Header::ComputeLayout, read from file on open).
  std::uint64_t vsize = 0;  ///< bytes per variable (per record if record var)
  std::uint64_t begin = 0;  ///< file offset of first byte (of first record)

  [[nodiscard]] int FindAttr(std::string_view aname) const;
};

/// The complete in-memory header of an open dataset. Both the serial and
/// the parallel library keep one of these per open file ("a copy is cached
/// in local memory on each process", paper §4.2.1).
struct Header {
  int version = 2;  ///< 1 = CDF-1 (32-bit begins), 2 = CDF-2 (64-bit begins)
  std::uint64_t numrecs = 0;
  std::vector<Dim> dims;
  std::vector<Attr> gatts;
  std::vector<Var> vars;

  // ---- queries ----
  [[nodiscard]] int unlimited_dimid() const;
  [[nodiscard]] int FindDim(std::string_view name) const;
  [[nodiscard]] int FindVar(std::string_view name) const;
  [[nodiscard]] bool IsRecordVar(int varid) const;
  /// Dimension lengths of a variable, record dim included as current numrecs.
  [[nodiscard]] std::vector<std::uint64_t> VarShape(int varid) const;
  /// Elements per variable instance (per record for record variables).
  [[nodiscard]] std::uint64_t VarInstanceElems(int varid) const;
  /// Bytes between the starts of consecutive records (the interleaved record
  /// slab size; Figure 1). Includes the single-record-variable special case.
  [[nodiscard]] std::uint64_t recsize() const;
  /// File offset where the data section begins (== encoded header size).
  [[nodiscard]] std::uint64_t data_begin() const;
  /// Total file bytes implied by the header (fixed part + numrecs records).
  [[nodiscard]] std::uint64_t FileSize() const;

  // ---- define-mode and attribute edits ----
  // The netCDF define-mode and attribute functions, with their error codes.
  // Both libraries check their mode, then forward here.
  pnc::Result<int> DefDim(const std::string& name, std::uint64_t len);
  pnc::Result<int> DefVar(const std::string& name, NcType type,
                          std::vector<std::int32_t> dimids);
  [[nodiscard]] pnc::Status RenameDim(int dimid, const std::string& name);
  [[nodiscard]] pnc::Status RenameVar(int varid, const std::string& name);
  /// Add or replace attribute `att` of `varid` (kGlobalVarId: global). Out
  /// of define mode only an existing attribute may be replaced, by one of
  /// its type that is no larger: the header cannot grow without a relayout.
  [[nodiscard]] pnc::Status PutAtt(int varid, Attr att, bool defining);
  [[nodiscard]] pnc::Result<Attr> GetAtt(int varid,
                                         std::string_view name) const;
  [[nodiscard]] pnc::Status DelAtt(int varid, std::string_view name);
  [[nodiscard]] pnc::Status RenameAtt(int varid, std::string_view old_name,
                                      const std::string& new_name);

  // ---- validation & layout ----
  /// Check naming rules, dimension/variable constraints, and format limits.
  [[nodiscard]] pnc::Status Validate() const;
  /// Compute vsize/begin for every variable. `min_data_begin` reserves
  /// header space (used to avoid moving data when re-entering define mode
  /// grows the header). Fails if CDF-1 offsets overflow 32 bits.
  [[nodiscard]] pnc::Status ComputeLayout(std::uint64_t min_data_begin = 0);

  // ---- codec ----
  void Encode(std::vector<std::byte>& out) const;
  static pnc::Result<Header> Decode(pnc::ConstByteSpan in);

  /// Encoded size without materializing the encoding.
  [[nodiscard]] std::uint64_t EncodedSize() const;

  friend bool operator==(const Header& a, const Header& b);

 private:
  std::uint64_t data_begin_ = 0;
  std::uint64_t recsize_ = 0;
};

template <typename T>
Attr Attr::Numeric(std::string name, NcType type, std::span<const T> values) {
  Attr a;
  a.name = std::move(name);
  a.type = type;
  a.data.resize(values.size() * sizeof(T));
  std::memcpy(a.data.data(), values.data(), a.data.size());
  return a;
}

}  // namespace ncformat
