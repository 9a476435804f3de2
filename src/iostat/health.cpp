#include "iostat/health.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/json.hpp"

namespace iostat {

using pnc::json::AppendF;

namespace {

/// Split `text` on `sep`, keeping empty fields (the rule syntax uses
/// positional fields, so "bw_floor::50" has an empty tenant).
std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

const char* SloKindName(SloRule::Kind k) {
  switch (k) {
    case SloRule::Kind::kP99WaitNs: return "p99_wait";
    case SloRule::Kind::kMissRate: return "miss_rate";
    case SloRule::Kind::kRetryRate: return "retry_rate";
    case SloRule::Kind::kFaultRate: return "fault_rate";
    case SloRule::Kind::kBwFloorMBps: return "bw_floor";
  }
  return "?";
}

bool SloKindFromName(std::string_view name, SloRule::Kind* out) {
  for (int k = 0; k <= static_cast<int>(SloRule::Kind::kBwFloorMBps); ++k) {
    const auto kind = static_cast<SloRule::Kind>(k);
    if (name == SloKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::vector<SloRule> ParseSloRules(std::string_view text) {
  std::vector<SloRule> rules;
  for (const std::string& entry : Split(text, ';')) {
    if (entry.empty()) continue;
    const std::vector<std::string> f = Split(entry, ':');
    SloRule r;
    if (!SloKindFromName(f[0], &r.kind)) continue;
    if (f.size() > 1) r.tenant = f[1];
    if (f.size() > 2 && !f[2].empty()) r.threshold = std::strtod(f[2].c_str(), nullptr);
    if (f.size() > 3 && !f[3].empty()) {
      const long w = std::strtol(f[3].c_str(), nullptr, 10);
      if (w >= 1) r.window = static_cast<int>(w);
    }
    r.id = f[0];
    if (!r.tenant.empty()) r.id += "." + r.tenant;
    rules.push_back(std::move(r));
  }
  return rules;
}

std::vector<SloRule> DefaultSloRules() {
  // Objective floors that hold for any healthy run: no deadline misses, no
  // injected faults. Threshold 0 with ">" semantics means a single miss or
  // fault in a bucket trips.
  SloRule miss;
  miss.kind = SloRule::Kind::kMissRate;
  miss.id = "miss_rate";
  SloRule fault;
  fault.kind = SloRule::Kind::kFaultRate;
  fault.id = "fault_rate";
  return {miss, fault};
}

std::vector<SloRule> SloRulesFromEnv() {
  const char* v = std::getenv("PNC_SLO");
  if (v == nullptr || *v == '\0') return DefaultSloRules();
  return ParseSloRules(v);
}

bool SloRuleTrips(const SloRule& r, const SloBucketView& v, double* observed) {
  double obs = 0.0;
  bool trip = false;
  switch (r.kind) {
    case SloRule::Kind::kP99WaitNs:
      obs = v.p99_wait_ns;
      trip = v.grants > 0 && obs > r.threshold;
      break;
    case SloRule::Kind::kMissRate:
      obs = v.grants ? static_cast<double>(v.misses) /
                           static_cast<double>(v.grants)
                     : 0.0;
      trip = v.grants > 0 && obs > r.threshold;
      break;
    case SloRule::Kind::kRetryRate:
      obs = v.retries_per_s;
      trip = obs > r.threshold;
      break;
    case SloRule::Kind::kFaultRate:
      obs = v.faults_per_s;
      trip = obs > r.threshold;
      break;
    case SloRule::Kind::kBwFloorMBps:
      obs = v.mbps;
      trip = obs < r.threshold;  // silence counts: a collapse IS the signal
      break;
  }
  if (observed != nullptr) *observed = obs;
  return trip;
}

void HealthMonitor::SetRules(std::vector<SloRule> rules) {
  rules_ = std::move(rules);
  state_.assign(rules_.size(), RuleState{});
  for (std::size_t i = 0; i < rules_.size(); ++i) state_[i].st.rule = rules_[i];
  fed_ = false;
}

std::vector<HealthMonitor::Violation> HealthMonitor::OnBucketSealed(
    std::uint64_t bucket, const std::vector<SloBucketView>& per_rule) {
  std::vector<Violation> out;
  fed_ = true;
  for (std::size_t i = 0; i < rules_.size() && i < per_rule.size(); ++i) {
    const SloRule& r = rules_[i];
    const SloBucketView& v = per_rule[i];
    RuleState& s = state_[i];
    double obs = 0.0;
    const bool trip = SloRuleTrips(r, v, &obs);
    // Track the most extreme value either direction of the threshold.
    const bool floor = r.kind == SloRule::Kind::kBwFloorMBps;
    if (!s.worst_init) {
      s.st.worst = obs;
      s.worst_init = true;
    } else {
      s.st.worst = floor ? std::min(s.st.worst, obs) : std::max(s.st.worst, obs);
    }
    if (!trip) {
      s.consec = 0;
      continue;
    }
    s.st.tripped_buckets += 1;
    if (s.consec == 0) s.episode_start_ns = v.start_ns;
    s.consec += 1;
    const double end_ns = v.start_ns + v.len_ns;
    if (s.consec >= r.window && s.episode_start_ns > s.last_emit_end_ns) {
      s.last_emit_end_ns = end_ns;
      s.st.violations += 1;
      if (s.st.first_violation_ns < 0) s.st.first_violation_ns = s.episode_start_ns;
      out.push_back(Violation{i, s.episode_start_ns, end_ns, obs, bucket});
    }
  }
  return out;
}

HealthStatus HealthMonitor::Status() const {
  HealthStatus h;
  h.evaluated = fed_;
  for (const RuleState& s : state_) {
    h.total_violations += s.st.violations;
    h.rules.push_back(s.st);
  }
  return h;
}

void HealthMonitor::Reset() {
  state_.assign(rules_.size(), RuleState{});
  for (std::size_t i = 0; i < rules_.size(); ++i) state_[i].st.rule = rules_[i];
  fed_ = false;
}

std::string RenderHealth(const HealthStatus& h) {
  std::string out;
  if (!h.evaluated) {
    out += "[health] no sealed timeline buckets (timeline off or empty run)\n";
    return out;
  }
  AppendF(out, "[health] %llu violation%s across %zu rule%s\n",
          static_cast<unsigned long long>(h.total_violations),
          h.total_violations == 1 ? "" : "s", h.rules.size(),
          h.rules.size() == 1 ? "" : "s");
  for (const SloRuleStatus& s : h.rules) {
    const char* cmp =
        s.rule.kind == SloRule::Kind::kBwFloorMBps ? "floor" : "limit";
    AppendF(out, "  %-24s %s %s=%.6g window=%d  tripped=%llu violations=%llu",
            s.rule.id.c_str(), s.violations ? "VIOLATED" : "ok      ", cmp,
            s.rule.threshold, s.rule.window,
            static_cast<unsigned long long>(s.tripped_buckets),
            static_cast<unsigned long long>(s.violations));
    if (s.violations)
      AppendF(out, "  first@%.0fns worst=%.6g", s.first_violation_ns, s.worst);
    out += '\n';
  }
  return out;
}

}  // namespace iostat
