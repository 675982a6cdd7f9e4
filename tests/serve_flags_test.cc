// Regression-pins the `rpminer serve` flag surface: names, defaults, the
// translation into serve option structs, and the tenant-quota defaults.
// A default drifting here is a silent behavior change for every
// deployment that relies on it — this test makes the drift loud.

#include "rpm/tools/serve_flags.h"

#include <cstdint>
#include <sstream>
#include <vector>

#include "gtest/gtest.h"
#include "rpm/common/flags.h"
#include "rpm/serve/tenant_registry.h"

namespace rpm::tools {
namespace {

TEST(ServeFlags, DefaultsArePinned) {
  ServeFlags flags;
  EXPECT_EQ(flags.port, 0u);
  EXPECT_EQ(flags.config, "");
  EXPECT_EQ(flags.max_sessions, 64u);
  EXPECT_EQ(flags.global_max_concurrent, 8u);
  EXPECT_EQ(flags.global_max_queued, 32u);
  EXPECT_EQ(flags.drain_deadline_ms, 5000u);
  EXPECT_EQ(flags.retry_after_base_ms, 50u);
  EXPECT_EQ(flags.cache_entries, 64u);
}

TEST(ServeFlags, TenantQuotaDefaultsArePinned) {
  serve::TenantQuotas quotas;
  EXPECT_EQ(quotas.max_concurrent, 2u);
  EXPECT_EQ(quotas.max_queued, 8u);
  EXPECT_EQ(quotas.deadline_ceiling_ms, 30000u);
  EXPECT_EQ(quotas.memory_ceiling_mb, 256u);
  EXPECT_EQ(quotas.max_patterns, 0u);
}

TEST(ServeFlags, EveryFlagParsesByItsDocumentedName) {
  ServeFlags flags;
  FlagParser parser("rpminer serve", "test");
  flags.Register(&parser);
  const char* argv[] = {"serve",
                        "--port=9000",
                        "--config=/tmp/tenants.jsonl",
                        "--max-sessions=16",
                        "--global-max-concurrent=4",
                        "--global-max-queued=10",
                        "--drain-deadline-ms=1000",
                        "--retry-after-base-ms=25",
                        "--cache-entries=8",
                        "paper=/tmp/p.tspmf"};
  ASSERT_TRUE(parser.Parse(static_cast<int>(std::size(argv)), argv).ok());
  EXPECT_EQ(flags.port, 9000u);
  EXPECT_EQ(flags.config, "/tmp/tenants.jsonl");
  EXPECT_EQ(flags.max_sessions, 16u);
  EXPECT_EQ(flags.global_max_concurrent, 4u);
  EXPECT_EQ(flags.global_max_queued, 10u);
  EXPECT_EQ(flags.drain_deadline_ms, 1000u);
  EXPECT_EQ(flags.retry_after_base_ms, 25u);
  EXPECT_EQ(flags.cache_entries, 8u);
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "paper=/tmp/p.tspmf");
}

TEST(ServeFlags, TranslatesIntoServeOptionStructs) {
  ServeFlags flags;
  flags.port = 7777;
  flags.max_sessions = 3;
  flags.global_max_concurrent = 2;
  flags.global_max_queued = 5;
  flags.drain_deadline_ms = 250;
  flags.retry_after_base_ms = 10;
  flags.cache_entries = 4;

  Result<serve::QueryService::Options> service = flags.ToServiceOptions();
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->admission.global_max_concurrent, 2u);
  EXPECT_EQ(service->admission.global_max_queued, 5u);
  EXPECT_EQ(service->admission.retry_after_base_ms, 10);
  EXPECT_EQ(service->cache_entries, 4u);

  Result<serve::Server::Options> server = flags.ToServerOptions();
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server->port, 7777);
  EXPECT_EQ(server->max_sessions, 3u);
  EXPECT_EQ(server->drain_deadline_ms, 250);
}

TEST(ServeFlags, RejectsOutOfRangeValues) {
  ServeFlags flags;
  flags.port = 70000;  // Does not fit uint16.
  EXPECT_FALSE(flags.ToServerOptions().ok());

  ServeFlags zero_conc;
  zero_conc.global_max_concurrent = 0;
  EXPECT_FALSE(zero_conc.ToServiceOptions().ok());

  ServeFlags zero_sessions;
  zero_sessions.max_sessions = 0;
  EXPECT_FALSE(zero_sessions.ToServerOptions().ok());
}

TEST(ServeFlags, TenantConfigOverridesAndClamps) {
  serve::TenantRegistry registry;
  std::istringstream config(
      "# comment line\n"
      "\n"
      "{\"tenant\":\"default\",\"max_queued\":4}\n"
      "{\"tenant\":\"alice\",\"max_concurrent\":5,"
      "\"deadline_ceiling_ms\":2000}\n");
  ASSERT_TRUE(registry.LoadConfig(config).ok());

  // "default" rewrote the fallback quotas for unconfigured tenants...
  EXPECT_EQ(registry.QuotasFor("stranger").max_queued, 4u);
  EXPECT_EQ(registry.QuotasFor("stranger").max_concurrent, 2u);
  // ...and tenants configured on later lines inherit them.
  EXPECT_EQ(registry.QuotasFor("alice").max_concurrent, 5u);
  EXPECT_EQ(registry.QuotasFor("alice").max_queued, 4u);
  EXPECT_EQ(registry.QuotasFor("alice").deadline_ceiling_ms, 2000u);

  // Quota ceilings clamp requested limits: less is allowed, more is not,
  // and "unlimited" (0) requests take the ceiling.
  ResourceLimits requested;
  requested.timeout_ms = 10000;
  ResourceLimits clamped =
      registry.QuotasFor("alice").ClampLimits(requested);
  EXPECT_EQ(clamped.timeout_ms, 2000);
  requested.timeout_ms = 500;
  EXPECT_EQ(registry.QuotasFor("alice").ClampLimits(requested).timeout_ms,
            500);
  requested.timeout_ms = 0;
  EXPECT_EQ(registry.QuotasFor("alice").ClampLimits(requested).timeout_ms,
            2000);

  // Unknown fields and duplicate tenants are config errors.
  serve::TenantRegistry bad;
  std::istringstream unknown("{\"tenant\":\"x\",\"bogus\":1}\n");
  EXPECT_FALSE(bad.LoadConfig(unknown).ok());
  serve::TenantRegistry dup;
  std::istringstream twice(
      "{\"tenant\":\"x\",\"max_queued\":1}\n"
      "{\"tenant\":\"x\",\"max_queued\":2}\n");
  EXPECT_FALSE(dup.LoadConfig(twice).ok());
}

TEST(ServeFlags, TenantConfigRejectsMemoryCeilingWhoseByteCountOverflows) {
  // 2^44 - 1 MiB still fits a uint64 byte count and clamps exactly.
  serve::TenantRegistry registry;
  std::istringstream largest(
      "{\"tenant\":\"big\",\"memory_ceiling_mb\":17592186044415}\n");
  ASSERT_TRUE(registry.LoadConfig(largest).ok());
  EXPECT_EQ(registry.QuotasFor("big").ClampLimits({}).memory_budget_bytes,
            ((uint64_t{1} << 44) - 1) << 20);
  // 2^44 + 1 MiB would wrap to a 1 MiB ceiling.
  serve::TenantRegistry wraps;
  std::istringstream config(
      "{\"tenant\":\"x\",\"memory_ceiling_mb\":17592186044417}\n");
  const Status status = wraps.LoadConfig(config);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("memory_ceiling_mb"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace rpm::tools
