#include "iostat/report.hpp"

#include <cinttypes>
#include <cstdio>

#include "iostat/json_cursor.hpp"
#include "iostat/schemas.hpp"
#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

Report BuildReport() {
  const Registry& reg = Registry::Get();
  Report rep;
  rep.nranks = reg.nranks();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    auto& agg = rep.counters[i];
    agg.min = ~0ULL;
    for (int r = 0; r < rep.nranks; ++r) {
      const std::uint64_t v = reg.Value(r, static_cast<Ctr>(i));
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
      agg.sum += v;
    }
    if (rep.nranks > 0)
      agg.mean = static_cast<double>(agg.sum) / rep.nranks;
    else
      agg.min = 0;
  }

  const auto sum = [&](Ctr c) {
    return static_cast<double>(rep[c].sum);
  };
  const double wanted = sum(Ctr::kMpiioSieveBytesWanted);
  const double filed = sum(Ctr::kMpiioSieveBytesFile);
  rep.sieve_amplification = wanted > 0 ? filed / wanted : 1.0;
  const double payload = sum(Ctr::kMpiioCollPayloadBytes);
  const double agg_bytes = sum(Ctr::kMpiioAggBytes);
  rep.twophase_amplification = payload > 0 ? agg_bytes / payload : 1.0;
  const double ex = sum(Ctr::kMpiioExchangeNs);
  const double io = sum(Ctr::kMpiioIoPhaseNs);
  rep.exchange_frac = (ex + io) > 0 ? ex / (ex + io) : 0.0;
  const double busy = sum(Ctr::kPfsBusyNs);
  const double qwait = sum(Ctr::kPfsQueueWaitNs);
  const double servers = static_cast<double>(rep[Ctr::kPfsServers].max);
  const double horizon = static_cast<double>(rep[Ctr::kPfsHorizonNs].max);
  rep.pfs_busy_frac =
      servers > 0 && horizon > 0 ? busy / (servers * horizon) : 0.0;
  rep.pfs_queue_wait_frac = (qwait + busy) > 0 ? qwait / (qwait + busy) : 0.0;
  rep.pattern = PatternRegistry::Get().Snapshot();
  return rep;
}

std::string ToJson(const Report& rep) {
  std::string out;
  out.reserve(2048);
  AppendF(out, "{\"schema\":\"%s\",\"nranks\":%d,\"counters\":{",
          schemas::kIostat, rep.nranks);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto& a = rep.counters[i];
    AppendF(out,
            "%s\"%s\":{\"min\":%" PRIu64 ",\"max\":%" PRIu64 ",\"sum\":%" PRIu64
            ",\"mean\":%.17g}",
            i == 0 ? "" : ",", CtrName(static_cast<Ctr>(i)), a.min, a.max,
            a.sum, a.mean);
  }
  AppendF(out,
          "},\"derived\":{\"sieve_amplification\":%.17g,"
          "\"twophase_amplification\":%.17g,\"exchange_frac\":%.17g,"
          "\"pfs_busy_frac\":%.17g,\"pfs_queue_wait_frac\":%.17g}",
          rep.sieve_amplification, rep.twophase_amplification,
          rep.exchange_frac, rep.pfs_busy_frac, rep.pfs_queue_wait_frac);
  // The pattern member is emitted only when the profiler recorded something:
  // with PNC_IOSTAT_PATTERN=0 (or -DPNC_IOSTAT=OFF) the report stays
  // byte-identical to the pre-profiler schema.
  if (rep.pattern.present) {
    out += ",\"pattern\":";
    out += PatternToJson(rep.pattern);
  }
  out.push_back('}');
  return out;
}

// --------------------------------------------------------------- parsing
// Built on the shared jsoncur reader (json_cursor.hpp). Unknown keys are
// skipped (SkipValue handles arbitrary nesting), so records that embed the
// report alongside other members still parse.

namespace {

using jsoncur::Cursor;

bool LookupCtr(const std::string& name, Ctr* out) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (name == CtrName(static_cast<Ctr>(i))) {
      *out = static_cast<Ctr>(i);
      return true;
    }
  }
  return false;
}

bool ParseAgg(Cursor& cur, Report::Agg* agg) {
  if (!cur.Eat('{')) return false;
  if (cur.Eat('}')) return true;
  do {
    std::string key;
    double v = 0;
    if (!cur.ParseString(&key) || !cur.Eat(':') || !cur.ParseNumber(&v))
      return false;
    if (key == "min") agg->min = static_cast<std::uint64_t>(v);
    else if (key == "max") agg->max = static_cast<std::uint64_t>(v);
    else if (key == "sum") agg->sum = static_cast<std::uint64_t>(v);
    else if (key == "mean") agg->mean = v;
  } while (cur.Eat(','));
  return cur.Eat('}');
}

}  // namespace

pnc::Result<Report> ParseReportJson(std::string_view text) {
  Cursor cur{text.data(), text.data() + text.size()};
  const auto fail = [](const char* what) {
    return pnc::Status(pnc::Err::kNotNc, std::string("iostat report: ") + what);
  };
  // The report may be nested inside a bench record: scan forward to the
  // schema marker and parse the object that contains it.
  if (!jsoncur::SeekObjectWithMarker(cur, schemas::kIostat))
    return fail("schema marker not found");

  Report rep;
  if (!cur.Eat('{')) return fail("expected object");
  if (!cur.Eat('}')) {
    do {
      std::string key;
      if (!cur.ParseString(&key) || !cur.Eat(':')) return fail("bad member");
      if (key == "nranks") {
        double v = 0;
        if (!cur.ParseNumber(&v)) return fail("bad nranks");
        rep.nranks = static_cast<int>(v);
      } else if (key == "counters") {
        if (!cur.Eat('{')) return fail("bad counters");
        if (!cur.Eat('}')) {
          do {
            std::string name;
            if (!cur.ParseString(&name) || !cur.Eat(':'))
              return fail("bad counter");
            Report::Agg agg;
            if (!ParseAgg(cur, &agg)) return fail("bad counter aggregate");
            Ctr c;
            if (LookupCtr(name, &c))
              rep.counters[static_cast<std::size_t>(c)] = agg;
          } while (cur.Eat(','));
          if (!cur.Eat('}')) return fail("unterminated counters");
        }
      } else if (key == "derived") {
        if (!cur.Eat('{')) return fail("bad derived");
        if (!cur.Eat('}')) {
          do {
            std::string name;
            double v = 0;
            if (!cur.ParseString(&name) || !cur.Eat(':') ||
                !cur.ParseNumber(&v))
              return fail("bad derived member");
            if (name == "sieve_amplification") rep.sieve_amplification = v;
            else if (name == "twophase_amplification")
              rep.twophase_amplification = v;
            else if (name == "exchange_frac") rep.exchange_frac = v;
            else if (name == "pfs_busy_frac") rep.pfs_busy_frac = v;
            else if (name == "pfs_queue_wait_frac")
              rep.pfs_queue_wait_frac = v;
          } while (cur.Eat(','));
          if (!cur.Eat('}')) return fail("unterminated derived");
        }
      } else if (key == "pattern") {
        if (!ParsePatternValue(cur, &rep.pattern)) return fail("bad pattern");
      } else {
        if (!cur.SkipValue()) return fail("bad value");
      }
    } while (cur.Eat(','));
    if (!cur.Eat('}')) return fail("unterminated object");
  }
  return rep;
}

// --------------------------------------------------------- pretty printer

std::string PrettyPrint(const Report& rep) {
  std::string out;
  out.reserve(2048);
  AppendF(out, "iostat report (%d rank%s)\n", rep.nranks,
          rep.nranks == 1 ? "" : "s");

  const char* last_layer = "";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const char* name = CtrName(static_cast<Ctr>(i));
    const char* dot = std::strchr(name, '.');
    const std::size_t layer_len =
        dot ? static_cast<std::size_t>(dot - name) : std::strlen(name);
    if (std::strncmp(last_layer, name, layer_len) != 0 ||
        last_layer[layer_len] != '.') {
      AppendF(out, "  [%.*s]\n", static_cast<int>(layer_len), name);
      last_layer = name;
    }
    const auto& a = rep.counters[i];
    AppendF(out,
            "    %-24s sum %14" PRIu64 "  mean %14.1f  min %12" PRIu64
            "  max %12" PRIu64 "\n",
            dot ? dot + 1 : name, a.sum, a.mean, a.min, a.max);
  }
  AppendF(out, "  [derived]\n");
  AppendF(out, "    %-24s %.4f\n", "sieve_amplification",
          rep.sieve_amplification);
  AppendF(out, "    %-24s %.4f\n", "twophase_amplification",
          rep.twophase_amplification);
  AppendF(out, "    %-24s %.4f\n", "exchange_frac", rep.exchange_frac);
  AppendF(out, "    %-24s %.4f\n", "pfs_busy_frac", rep.pfs_busy_frac);
  AppendF(out, "    %-24s %.4f\n", "pfs_queue_wait_frac",
          rep.pfs_queue_wait_frac);

  if (rep.pattern.present) {
    AppendF(out, "  [pattern]\n");
    for (const auto& v : rep.pattern.vars) {
      AppendF(out,
              "    var %-12s calls %6" PRIu64 " (w %" PRIu64 "/r %" PRIu64
              ", indep %" PRIu64 "/coll %" PRIu64 ")  shape c/s/r %" PRIu64
              "/%" PRIu64 "/%" PRIu64 "  mean extent %.0f B\n",
              v.var.c_str(), v.calls, v.writes, v.reads, v.indep, v.coll,
              v.contig, v.strided, v.random, v.extent_bytes.mean());
    }
    AppendF(out,
            "    sieve                    rd amp %.2f  wr amp %.2f  rereads "
            "%" PRIu64 "\n",
            rep.pattern.SieveReadAmp(), rep.pattern.SieveWriteAmp(),
            rep.pattern.sieve_rd_rereads);
    const auto [share, hottest] = rep.pattern.HottestServer();
    if (hottest >= 0)
      AppendF(out, "    hottest server           s%d (%.0f%% of bytes)\n",
              hottest, 100.0 * share);
    if (!rep.pattern.agg_bytes.empty())
      AppendF(out, "    agg imbalance            %.2fx across %d ranks\n",
              rep.pattern.AggImbalance(rep.nranks), rep.nranks);
  }
  return out;
}

}  // namespace iostat
