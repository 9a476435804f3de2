#include "format/header.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

namespace ncformat {

namespace {

// List tags from the file format grammar.
constexpr std::int32_t kTagDimension = 0x0A;
constexpr std::int32_t kTagVariable = 0x0B;
constexpr std::int32_t kTagAttribute = 0x0C;

bool NameOk(const std::string& name) {
  if (name.empty() || name.size() > kMaxName) return false;
  if (name.find('/') != std::string::npos) return false;
  const char c = name.front();
  const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     (c >= '0' && c <= '9') || c == '_';
  return alnum;
}

std::uint64_t NameEncodedSize(const std::string& name) {
  return 4 + pnc::xdr::RoundUp4(name.size());
}

std::uint64_t AttrEncodedSize(const Attr& a) {
  return NameEncodedSize(a.name) + 4 + 4 +
         pnc::xdr::RoundUp4(a.nelems() * TypeSize(a.type));
}

/// Convert host-order packed values to the big-endian on-disk form.
void EncodeValues(pnc::xdr::Encoder& enc, NcType type,
                  pnc::ConstByteSpan host) {
  const std::size_t n = host.size();
  std::vector<std::byte> out(n);
  switch (type) {
    case NcType::kByte:
    case NcType::kChar:
      std::memcpy(out.data(), host.data(), n);
      break;
    case NcType::kShort:
      pnc::xdr::EncodeArray<std::int16_t>(
          {reinterpret_cast<const std::int16_t*>(host.data()), n / 2},
          out.data());
      break;
    case NcType::kInt:
      pnc::xdr::EncodeArray<std::int32_t>(
          {reinterpret_cast<const std::int32_t*>(host.data()), n / 4},
          out.data());
      break;
    case NcType::kFloat:
      pnc::xdr::EncodeArray<float>(
          {reinterpret_cast<const float*>(host.data()), n / 4}, out.data());
      break;
    case NcType::kDouble:
      pnc::xdr::EncodeArray<double>(
          {reinterpret_cast<const double*>(host.data()), n / 8}, out.data());
      break;
  }
  enc.PutBytes(out);
  enc.PadTo4();
}

pnc::Status DecodeValues(pnc::xdr::Decoder& dec, NcType type,
                         std::uint64_t nelems, std::vector<std::byte>& host) {
  const std::uint64_t n = nelems * TypeSize(type);
  std::vector<std::byte> raw(n);
  PNC_RETURN_IF_ERROR(dec.GetBytes(raw));
  PNC_RETURN_IF_ERROR(dec.SkipPadTo4());
  host.resize(n);
  switch (type) {
    case NcType::kByte:
    case NcType::kChar:
      std::memcpy(host.data(), raw.data(), n);
      break;
    case NcType::kShort:
      pnc::xdr::DecodeArray<std::int16_t>(
          raw.data(), {reinterpret_cast<std::int16_t*>(host.data()), n / 2});
      break;
    case NcType::kInt:
      pnc::xdr::DecodeArray<std::int32_t>(
          raw.data(), {reinterpret_cast<std::int32_t*>(host.data()), n / 4});
      break;
    case NcType::kFloat:
      pnc::xdr::DecodeArray<float>(
          raw.data(), {reinterpret_cast<float*>(host.data()), n / 4});
      break;
    case NcType::kDouble:
      pnc::xdr::DecodeArray<double>(
          raw.data(), {reinterpret_cast<double*>(host.data()), n / 8});
      break;
  }
  return pnc::Status::Ok();
}

void EncodeAttrList(pnc::xdr::Encoder& enc, const std::vector<Attr>& attrs) {
  if (attrs.empty()) {
    enc.PutI32(0);
    enc.PutI32(0);
    return;
  }
  enc.PutI32(kTagAttribute);
  enc.PutI32(static_cast<std::int32_t>(attrs.size()));
  for (const auto& a : attrs) {
    enc.PutName(a.name);
    enc.PutI32(static_cast<std::int32_t>(a.type));
    enc.PutI32(static_cast<std::int32_t>(a.nelems()));
    EncodeValues(enc, a.type, a.data);
  }
}

/// Untrusted counts from the file are bounded against what the remaining
/// buffer could possibly hold (each list entry costs at least `min_entry`
/// encoded bytes), so a corrupted count cannot trigger a huge allocation —
/// it reports truncation instead.
pnc::Status CheckedCount(const pnc::xdr::Decoder& dec, std::int32_t count,
                         std::uint64_t min_entry) {
  if (count < 0) return pnc::Status(pnc::Err::kNotNc, "negative count");
  if (static_cast<std::uint64_t>(count) * min_entry > dec.remaining())
    return pnc::Status(pnc::Err::kTrunc, "list count exceeds buffer");
  return pnc::Status::Ok();
}

pnc::Status DecodeAttrList(pnc::xdr::Decoder& dec, std::vector<Attr>& attrs) {
  std::int32_t tag = 0, count = 0;
  PNC_RETURN_IF_ERROR(dec.GetI32(tag));
  PNC_RETURN_IF_ERROR(dec.GetI32(count));
  if (tag == 0 && count == 0) return pnc::Status::Ok();
  if (tag != kTagAttribute || count < 0)
    return pnc::Status(pnc::Err::kNotNc, "bad attribute list tag");
  PNC_RETURN_IF_ERROR(CheckedCount(dec, count, /*name+type+nelems=*/12));
  attrs.resize(static_cast<std::size_t>(count));
  for (auto& a : attrs) {
    PNC_RETURN_IF_ERROR(dec.GetName(a.name));
    std::int32_t t = 0, nelems = 0;
    PNC_RETURN_IF_ERROR(dec.GetI32(t));
    if (!IsValidType(t)) return pnc::Status(pnc::Err::kBadType, a.name);
    a.type = static_cast<NcType>(t);
    PNC_RETURN_IF_ERROR(dec.GetI32(nelems));
    if (nelems < 0) return pnc::Status(pnc::Err::kNotNc, "negative nelems");
    if (static_cast<std::uint64_t>(nelems) * TypeSize(a.type) >
        dec.remaining())
      return pnc::Status(pnc::Err::kTrunc, "attribute exceeds buffer");
    PNC_RETURN_IF_ERROR(
        DecodeValues(dec, a.type, static_cast<std::uint64_t>(nelems), a.data));
  }
  return pnc::Status::Ok();
}

}  // namespace

// ------------------------------------------------------------------- Attr

Attr Attr::Text(std::string name, std::string_view value) {
  Attr a;
  a.name = std::move(name);
  a.type = NcType::kChar;
  a.data.resize(value.size());
  std::memcpy(a.data.data(), value.data(), value.size());
  return a;
}

std::string Attr::AsText() const {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

int Var::FindAttr(std::string_view aname) const {
  for (std::size_t i = 0; i < attrs.size(); ++i)
    if (attrs[i].name == aname) return static_cast<int>(i);
  return -1;
}

// ----------------------------------------------------------------- Header

int Header::unlimited_dimid() const {
  for (std::size_t i = 0; i < dims.size(); ++i)
    if (dims[i].is_unlimited()) return static_cast<int>(i);
  return -1;
}

int Header::FindDim(std::string_view name) const {
  for (std::size_t i = 0; i < dims.size(); ++i)
    if (dims[i].name == name) return static_cast<int>(i);
  return -1;
}

int Header::FindVar(std::string_view name) const {
  for (std::size_t i = 0; i < vars.size(); ++i)
    if (vars[i].name == name) return static_cast<int>(i);
  return -1;
}

bool Header::IsRecordVar(int varid) const {
  const auto& v = vars[static_cast<std::size_t>(varid)];
  return !v.dimids.empty() &&
         dims[static_cast<std::size_t>(v.dimids[0])].is_unlimited();
}

std::vector<std::uint64_t> Header::VarShape(int varid) const {
  const auto& v = vars[static_cast<std::size_t>(varid)];
  std::vector<std::uint64_t> shape;
  shape.reserve(v.dimids.size());
  for (auto d : v.dimids) {
    const auto& dim = dims[static_cast<std::size_t>(d)];
    shape.push_back(dim.is_unlimited() ? numrecs : dim.len);
  }
  return shape;
}

std::uint64_t Header::VarInstanceElems(int varid) const {
  const auto& v = vars[static_cast<std::size_t>(varid)];
  std::uint64_t n = 1;
  for (std::size_t i = 0; i < v.dimids.size(); ++i) {
    const auto& dim = dims[static_cast<std::size_t>(v.dimids[i])];
    if (i == 0 && dim.is_unlimited()) continue;
    n *= dim.len;
  }
  return n;
}

std::uint64_t Header::recsize() const { return recsize_; }
std::uint64_t Header::data_begin() const { return data_begin_; }

std::uint64_t Header::FileSize() const {
  std::uint64_t end = data_begin_;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (IsRecordVar(static_cast<int>(i))) continue;
    end = std::max(end, vars[i].begin + vars[i].vsize);
  }
  bool any_rec = false;
  std::uint64_t rec_base = 0;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (!IsRecordVar(static_cast<int>(i))) continue;
    if (!any_rec || vars[i].begin < rec_base) rec_base = vars[i].begin;
    any_rec = true;
  }
  if (any_rec) end = std::max(end, rec_base + numrecs * recsize_);
  return end;
}

// ------------------------------------------------------------------ edits

pnc::Result<int> Header::DefDim(const std::string& name, std::uint64_t len) {
  if (FindDim(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  if (len == kUnlimitedLen && unlimited_dimid() >= 0)
    return pnc::Status(pnc::Err::kUnlimit, name);
  if (dims.size() >= kMaxDims) return pnc::Status(pnc::Err::kMaxDims);
  dims.push_back({name, len});
  return static_cast<int>(dims.size()) - 1;
}

pnc::Result<int> Header::DefVar(const std::string& name, NcType type,
                                std::vector<std::int32_t> dimids) {
  if (FindVar(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  if (vars.size() >= kMaxVars) return pnc::Status(pnc::Err::kMaxVars);
  if (!IsValidType(static_cast<std::int32_t>(type)))
    return pnc::Status(pnc::Err::kBadType, name);
  for (std::size_t i = 0; i < dimids.size(); ++i) {
    const auto d = dimids[i];
    if (d < 0 || static_cast<std::size_t>(d) >= dims.size())
      return pnc::Status(pnc::Err::kBadDim, name);
    if (dims[static_cast<std::size_t>(d)].is_unlimited() && i != 0)
      return pnc::Status(pnc::Err::kUnlimPos, name);
  }
  Var v;
  v.name = name;
  v.type = type;
  v.dimids = std::move(dimids);
  vars.push_back(std::move(v));
  return static_cast<int>(vars.size()) - 1;
}

pnc::Status Header::RenameDim(int dimid, const std::string& name) {
  if (dimid < 0 || static_cast<std::size_t>(dimid) >= dims.size())
    return pnc::Status(pnc::Err::kBadDim);
  if (FindDim(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  dims[static_cast<std::size_t>(dimid)].name = name;
  return pnc::Status::Ok();
}

pnc::Status Header::RenameVar(int varid, const std::string& name) {
  if (varid < 0 || static_cast<std::size_t>(varid) >= vars.size())
    return pnc::Status(pnc::Err::kNotVar);
  if (FindVar(name) >= 0) return pnc::Status(pnc::Err::kNameInUse, name);
  vars[static_cast<std::size_t>(varid)].name = name;
  return pnc::Status::Ok();
}

namespace {
template <typename H>
auto AttrListOf(H& h, int varid)
    -> pnc::Result<decltype(&h.gatts)> {
  if (varid == kGlobalVarId) return &h.gatts;
  if (varid < 0 || static_cast<std::size_t>(varid) >= h.vars.size())
    return pnc::Status(pnc::Err::kNotVar);
  return &h.vars[static_cast<std::size_t>(varid)].attrs;
}

template <typename List>
auto FindAttrIn(List& attrs, std::string_view name) {
  return std::find_if(attrs.begin(), attrs.end(),
                      [&](const Attr& a) { return a.name == name; });
}
}  // namespace

pnc::Status Header::PutAtt(int varid, Attr att, bool defining) {
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs, AttrListOf(*this, varid));
  const auto it = FindAttrIn(*attrs, att.name);
  if (!defining && (it == attrs->end() || att.type != it->type ||
                    att.data.size() > it->data.size()))
    return pnc::Status(pnc::Err::kNotInDefine, att.name);
  if (it != attrs->end()) {
    *it = std::move(att);
    return pnc::Status::Ok();
  }
  if (attrs->size() >= kMaxAttrs) return pnc::Status(pnc::Err::kMaxAtts);
  attrs->push_back(std::move(att));
  return pnc::Status::Ok();
}

pnc::Result<Attr> Header::GetAtt(int varid, std::string_view name) const {
  PNC_ASSIGN_OR_RETURN(const std::vector<Attr>* attrs,
                       AttrListOf(*this, varid));
  const auto it = FindAttrIn(*attrs, name);
  if (it == attrs->end())
    return pnc::Status(pnc::Err::kNotAtt, std::string(name));
  return *it;
}

pnc::Status Header::DelAtt(int varid, std::string_view name) {
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs, AttrListOf(*this, varid));
  const auto it = FindAttrIn(*attrs, name);
  if (it == attrs->end())
    return pnc::Status(pnc::Err::kNotAtt, std::string(name));
  attrs->erase(it);
  return pnc::Status::Ok();
}

pnc::Status Header::RenameAtt(int varid, std::string_view old_name,
                              const std::string& new_name) {
  PNC_ASSIGN_OR_RETURN(std::vector<Attr>* attrs, AttrListOf(*this, varid));
  if (FindAttrIn(*attrs, new_name) != attrs->end())
    return pnc::Status(pnc::Err::kNameInUse, new_name);
  const auto it = FindAttrIn(*attrs, old_name);
  if (it == attrs->end())
    return pnc::Status(pnc::Err::kNotAtt, std::string(old_name));
  it->name = new_name;
  return pnc::Status::Ok();
}

pnc::Status Header::Validate() const {
  if (version != 1 && version != 2)
    return pnc::Status(pnc::Err::kNotNc, "bad version");
  if (dims.size() > kMaxDims) return pnc::Status(pnc::Err::kMaxDims);
  if (vars.size() > kMaxVars) return pnc::Status(pnc::Err::kMaxVars);
  if (gatts.size() > kMaxAttrs) return pnc::Status(pnc::Err::kMaxAtts);

  std::set<std::string> seen;
  int n_unlimited = 0;
  for (const auto& d : dims) {
    if (!NameOk(d.name)) return pnc::Status(pnc::Err::kBadName, d.name);
    if (!seen.insert(d.name).second)
      return pnc::Status(pnc::Err::kNameInUse, d.name);
    if (d.is_unlimited()) ++n_unlimited;
  }
  if (n_unlimited > 1) return pnc::Status(pnc::Err::kUnlimit);

  auto check_attrs = [](const std::vector<Attr>& attrs) -> pnc::Status {
    std::set<std::string> names;
    for (const auto& a : attrs) {
      if (!NameOk(a.name)) return pnc::Status(pnc::Err::kBadName, a.name);
      if (!names.insert(a.name).second)
        return pnc::Status(pnc::Err::kNameInUse, a.name);
    }
    return pnc::Status::Ok();
  };
  PNC_RETURN_IF_ERROR(check_attrs(gatts));

  seen.clear();
  for (const auto& v : vars) {
    if (!NameOk(v.name)) return pnc::Status(pnc::Err::kBadName, v.name);
    if (!seen.insert(v.name).second)
      return pnc::Status(pnc::Err::kNameInUse, v.name);
    if (v.dimids.size() > kMaxVarDims) return pnc::Status(pnc::Err::kMaxDims);
    for (std::size_t i = 0; i < v.dimids.size(); ++i) {
      const auto d = v.dimids[i];
      if (d < 0 || static_cast<std::size_t>(d) >= dims.size())
        return pnc::Status(pnc::Err::kBadDim, v.name);
      // The unlimited dimension must be the most significant one (§3.1).
      if (dims[static_cast<std::size_t>(d)].is_unlimited() && i != 0)
        return pnc::Status(pnc::Err::kUnlimPos, v.name);
    }
    PNC_RETURN_IF_ERROR(check_attrs(v.attrs));
  }
  return pnc::Status::Ok();
}

pnc::Status Header::ComputeLayout(std::uint64_t min_data_begin) {
  PNC_RETURN_IF_ERROR(Validate());

  data_begin_ = std::max(pnc::xdr::RoundUp4(EncodedSize()),
                         pnc::xdr::RoundUp4(min_data_begin));

  // vsize: bytes per (record of the) variable, rounded up to 4.
  for (std::size_t i = 0; i < vars.size(); ++i) {
    auto& v = vars[i];
    const std::uint64_t raw =
        VarInstanceElems(static_cast<int>(i)) * TypeSize(v.type);
    v.vsize = pnc::xdr::RoundUp4(raw);
  }

  // Fixed-size arrays: contiguous, in definition order (Figure 1).
  std::uint64_t cursor = data_begin_;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (IsRecordVar(static_cast<int>(i))) continue;
    vars[i].begin = cursor;
    cursor += vars[i].vsize;
  }

  // Record variables: their first records laid out back to back after the
  // fixed arrays; subsequent records repeat at recsize() intervals.
  std::uint64_t nrec_vars = 0;
  std::uint64_t rec_cursor = cursor;
  std::uint64_t rec_bytes = 0;
  std::uint64_t sole_raw = 0;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (!IsRecordVar(static_cast<int>(i))) continue;
    vars[i].begin = rec_cursor;
    rec_cursor += vars[i].vsize;
    rec_bytes += vars[i].vsize;
    sole_raw = VarInstanceElems(static_cast<int>(i)) * TypeSize(vars[i].type);
    ++nrec_vars;
  }
  // Special case: a single record variable needs no inter-record padding.
  recsize_ = (nrec_vars == 1) ? sole_raw : rec_bytes;

  if (version == 1) {
    for (const auto& v : vars) {
      if (v.begin > std::numeric_limits<std::int32_t>::max())
        return pnc::Status(pnc::Err::kVarSize, v.name + " (needs CDF-2)");
    }
  }
  return pnc::Status::Ok();
}

std::uint64_t Header::EncodedSize() const {
  std::uint64_t n = 4 + 4;  // magic + numrecs
  n += 8;                   // dim_list tag+count
  for (const auto& d : dims) n += NameEncodedSize(d.name) + 4;
  n += 8;  // gatt_list
  for (const auto& a : gatts) n += AttrEncodedSize(a);
  n += 8;  // var_list
  for (const auto& v : vars) {
    n += NameEncodedSize(v.name) + 4 + 4 * v.dimids.size();
    n += 8;  // vatt_list
    for (const auto& a : v.attrs) n += AttrEncodedSize(a);
    n += 4 + 4;                      // nc_type + vsize
    n += (version == 2) ? 8u : 4u;   // begin
  }
  return n;
}

void Header::Encode(std::vector<std::byte>& out) const {
  pnc::xdr::Encoder enc(out);
  enc.PutU8('C');
  enc.PutU8('D');
  enc.PutU8('F');
  enc.PutU8(static_cast<std::uint8_t>(version));
  enc.PutU32(static_cast<std::uint32_t>(numrecs));

  if (dims.empty()) {
    enc.PutI32(0);
    enc.PutI32(0);
  } else {
    enc.PutI32(kTagDimension);
    enc.PutI32(static_cast<std::int32_t>(dims.size()));
    for (const auto& d : dims) {
      enc.PutName(d.name);
      enc.PutU32(static_cast<std::uint32_t>(d.len));
    }
  }

  EncodeAttrList(enc, gatts);

  if (vars.empty()) {
    enc.PutI32(0);
    enc.PutI32(0);
  } else {
    enc.PutI32(kTagVariable);
    enc.PutI32(static_cast<std::int32_t>(vars.size()));
    for (const auto& v : vars) {
      enc.PutName(v.name);
      enc.PutI32(static_cast<std::int32_t>(v.dimids.size()));
      for (auto d : v.dimids) enc.PutI32(d);
      EncodeAttrList(enc, v.attrs);
      enc.PutI32(static_cast<std::int32_t>(v.type));
      // vsize caps at the 32-bit sentinel for huge variables (format rule).
      enc.PutU32(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(v.vsize, 0xFFFFFFFFULL)));
      if (version == 2) {
        enc.PutU64(v.begin);
      } else {
        enc.PutU32(static_cast<std::uint32_t>(v.begin));
      }
    }
  }
}

pnc::Result<Header> Header::Decode(pnc::ConstByteSpan in) {
  pnc::xdr::Decoder dec(in);
  std::array<std::byte, 4> magic{};
  PNC_RETURN_IF_ERROR(dec.GetBytes(magic));
  if (magic[0] != std::byte{'C'} || magic[1] != std::byte{'D'} ||
      magic[2] != std::byte{'F'})
    return pnc::Status(pnc::Err::kNotNc, "bad magic");
  Header h;
  h.version = static_cast<int>(magic[3]);
  if (h.version != 1 && h.version != 2)
    return pnc::Status(pnc::Err::kNotNc, "unsupported version");

  std::uint32_t numrecs = 0;
  PNC_RETURN_IF_ERROR(dec.GetU32(numrecs));
  h.numrecs = numrecs;

  std::int32_t tag = 0, count = 0;
  PNC_RETURN_IF_ERROR(dec.GetI32(tag));
  PNC_RETURN_IF_ERROR(dec.GetI32(count));
  if (!(tag == 0 && count == 0)) {
    if (tag != kTagDimension || count < 0)
      return pnc::Status(pnc::Err::kNotNc, "bad dim list");
    PNC_RETURN_IF_ERROR(CheckedCount(dec, count, /*name+len=*/8));
    h.dims.resize(static_cast<std::size_t>(count));
    for (auto& d : h.dims) {
      PNC_RETURN_IF_ERROR(dec.GetName(d.name));
      std::uint32_t len = 0;
      PNC_RETURN_IF_ERROR(dec.GetU32(len));
      d.len = len;
    }
  }

  PNC_RETURN_IF_ERROR(DecodeAttrList(dec, h.gatts));

  PNC_RETURN_IF_ERROR(dec.GetI32(tag));
  PNC_RETURN_IF_ERROR(dec.GetI32(count));
  if (!(tag == 0 && count == 0)) {
    if (tag != kTagVariable || count < 0)
      return pnc::Status(pnc::Err::kNotNc, "bad var list");
    PNC_RETURN_IF_ERROR(CheckedCount(dec, count, /*min var entry=*/28));
    h.vars.resize(static_cast<std::size_t>(count));
    for (auto& v : h.vars) {
      PNC_RETURN_IF_ERROR(dec.GetName(v.name));
      std::int32_t ndims = 0;
      PNC_RETURN_IF_ERROR(dec.GetI32(ndims));
      if (ndims < 0 || static_cast<std::size_t>(ndims) > kMaxVarDims)
        return pnc::Status(pnc::Err::kNotNc, "bad ndims");
      v.dimids.resize(static_cast<std::size_t>(ndims));
      for (auto& d : v.dimids) PNC_RETURN_IF_ERROR(dec.GetI32(d));
      PNC_RETURN_IF_ERROR(DecodeAttrList(dec, v.attrs));
      std::int32_t t = 0;
      PNC_RETURN_IF_ERROR(dec.GetI32(t));
      if (!IsValidType(t)) return pnc::Status(pnc::Err::kBadType, v.name);
      v.type = static_cast<NcType>(t);
      std::uint32_t vsize = 0;
      PNC_RETURN_IF_ERROR(dec.GetU32(vsize));
      v.vsize = vsize;
      if (h.version == 2) {
        std::uint64_t begin = 0;
        PNC_RETURN_IF_ERROR(dec.GetU64(begin));
        v.begin = begin;
      } else {
        std::uint32_t begin = 0;
        PNC_RETURN_IF_ERROR(dec.GetU32(begin));
        v.begin = begin;
      }
    }
  }

  PNC_RETURN_IF_ERROR(h.Validate());

  // Rebuild the derived layout values from what the file declares. The
  // vsize fields are recomputed (they are redundant with the shape) while
  // begin offsets are taken from the file, as the reference library does —
  // writers may leave extra header space.
  h.data_begin_ = pnc::xdr::RoundUp4(dec.pos());
  std::uint64_t nrec_vars = 0;
  std::uint64_t rec_bytes = 0;
  std::uint64_t sole_raw = 0;
  for (std::size_t i = 0; i < h.vars.size(); ++i) {
    auto& v = h.vars[i];
    const std::uint64_t raw =
        h.VarInstanceElems(static_cast<int>(i)) * TypeSize(v.type);
    v.vsize = pnc::xdr::RoundUp4(raw);
    if (h.IsRecordVar(static_cast<int>(i))) {
      rec_bytes += v.vsize;
      sole_raw = raw;
      ++nrec_vars;
    }
  }
  h.recsize_ = (nrec_vars == 1) ? sole_raw : rec_bytes;
  return h;
}

bool operator==(const Header& a, const Header& b) {
  auto attr_eq = [](const Attr& x, const Attr& y) {
    return x.name == y.name && x.type == y.type && x.data == y.data;
  };
  auto attrs_eq = [&](const std::vector<Attr>& x, const std::vector<Attr>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), attr_eq);
  };
  if (a.version != b.version || a.numrecs != b.numrecs) return false;
  if (a.dims.size() != b.dims.size() || a.vars.size() != b.vars.size())
    return false;
  for (std::size_t i = 0; i < a.dims.size(); ++i)
    if (a.dims[i].name != b.dims[i].name || a.dims[i].len != b.dims[i].len)
      return false;
  if (!attrs_eq(a.gatts, b.gatts)) return false;
  for (std::size_t i = 0; i < a.vars.size(); ++i) {
    const auto& x = a.vars[i];
    const auto& y = b.vars[i];
    if (x.name != y.name || x.dimids != y.dimids || x.type != y.type ||
        x.begin != y.begin || x.vsize != y.vsize || !attrs_eq(x.attrs, y.attrs))
      return false;
  }
  return true;
}

}  // namespace ncformat
