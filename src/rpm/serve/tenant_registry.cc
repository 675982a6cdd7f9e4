#include "rpm/serve/tenant_registry.h"

#include <algorithm>
#include <istream>

#include "rpm/serve/wire.h"

namespace rpm::serve {

namespace {

uint64_t ClampOne(uint64_t requested, uint64_t ceiling) {
  if (ceiling == 0) return requested;             // No ceiling.
  if (requested == 0) return ceiling;             // Unlimited -> ceiling.
  return std::min(requested, ceiling);
}

/// Applies one config object onto `quotas`; rejects unknown fields so
/// typos fail loudly at startup instead of silently granting defaults.
Status ApplyConfigObject(const JsonValue& object, TenantQuotas* quotas,
                         std::string* tenant_out) {
  for (const auto& [key, value] : object.members) {
    if (key == "tenant") {
      RPM_ASSIGN_OR_RETURN(*tenant_out, value.GetString(key));
    } else if (key == "max_concurrent") {
      RPM_ASSIGN_OR_RETURN(quotas->max_concurrent, value.GetUint64(key));
      if (quotas->max_concurrent == 0) {
        return Status::InvalidArgument(
            "max_concurrent must be >= 1 (0 would deny the tenant "
            "entirely; omit the tenant from the config instead)");
      }
    } else if (key == "max_queued") {
      RPM_ASSIGN_OR_RETURN(quotas->max_queued, value.GetUint64(key));
    } else if (key == "deadline_ceiling_ms") {
      RPM_ASSIGN_OR_RETURN(quotas->deadline_ceiling_ms,
                           value.GetUint64(key));
    } else if (key == "memory_ceiling_mb") {
      RPM_ASSIGN_OR_RETURN(quotas->memory_ceiling_mb, value.GetUint64(key));
      // ClampLimits scales the ceiling to bytes; refuse one that wraps.
      RPM_RETURN_NOT_OK(
          MebibytesToBytes(quotas->memory_ceiling_mb, key).status());
    } else if (key == "max_patterns") {
      RPM_ASSIGN_OR_RETURN(quotas->max_patterns, value.GetUint64(key));
    } else {
      return Status::InvalidArgument("unknown tenant-config field '" + key +
                                     "'");
    }
  }
  if (tenant_out->empty()) {
    return Status::InvalidArgument(
        "tenant-config object is missing the \"tenant\" field");
  }
  return Status::OK();
}

}  // namespace

ResourceLimits TenantQuotas::ClampLimits(
    const ResourceLimits& requested) const {
  ResourceLimits clamped;
  clamped.timeout_ms = static_cast<int64_t>(
      ClampOne(static_cast<uint64_t>(requested.timeout_ms),
               deadline_ceiling_ms));
  clamped.memory_budget_bytes =
      ClampOne(requested.memory_budget_bytes,
               memory_ceiling_mb * 1024ull * 1024ull);
  clamped.max_patterns = ClampOne(requested.max_patterns, max_patterns);
  return clamped;
}

Status TenantRegistry::LoadConfig(std::istream& config) {
  std::string line;
  for (size_t line_number = 1; std::getline(config, line); ++line_number) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    Result<JsonValue> parsed = ParseJson(line);
    const std::string line_tag =
        "tenant config line " + std::to_string(line_number) + ": ";
    if (!parsed.ok()) {
      return Status::InvalidArgument(line_tag + parsed.status().message());
    }
    if (parsed->kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument(line_tag + "expected a JSON object");
    }
    TenantQuotas quotas = defaults_;
    std::string tenant;
    if (Status s = ApplyConfigObject(*parsed, &quotas, &tenant); !s.ok()) {
      return Status::InvalidArgument(line_tag + s.message());
    }
    if (tenant == "default") {
      defaults_ = quotas;
      continue;
    }
    if (!tenants_.emplace(tenant, quotas).second) {
      return Status::InvalidArgument(line_tag + "duplicate tenant '" +
                                     tenant + "'");
    }
  }
  return Status::OK();
}

const TenantQuotas& TenantRegistry::QuotasFor(
    const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? defaults_ : it->second;
}

std::vector<std::string> TenantRegistry::ConfiguredTenants() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, quotas] : tenants_) names.push_back(name);
  return names;  // std::map iterates sorted.
}

}  // namespace rpm::serve
