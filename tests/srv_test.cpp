// Tests for the campaign server control plane (src/srv): journal framing
// and torn-tail recovery, submission parsing, the quota watchdog, the
// campaign state machine through the HTTP handler, and the nemesis paths
// the design promises to survive — quota eviction + resume, drain +
// restart recovery, torn journals, memory pressure, and submissions
// racing a drain. The load-bearing assertions are the byte-compares: a
// campaign's event log must be identical to the same scenario run in one
// shot, no matter how many times it was paused, evicted, or recovered.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/srv/campaign.hpp"
#include "ecocloud/srv/journal.hpp"
#include "ecocloud/srv/server.hpp"

using namespace ecocloud;

namespace {

/// Small daily scenario that completes in well under a second; every
/// server test uses it (sometimes with campaign.* lease lines prepended).
constexpr const char* kScenarioText =
    "servers = 4\n"
    "vms = 12\n"
    "horizon_hours = 1\n"
    "warmup_hours = 0.25\n"
    "seed = 7\n";

/// Fresh per-test data dir. A stale journal or checkpoint from a previous
/// ctest invocation would replay as real state, so wipe it completely.
std::string temp_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "srv_test_" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Event CSV of the scenario run uninterrupted, in process — the
/// reference every server-side event log must match byte for byte.
std::string one_shot_events(const std::string& scenario_text) {
  std::istringstream in(scenario_text);
  scenario::DailyConfig config = scenario::load_daily_config(in);
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  daily.run();
  std::ostringstream out;
  log.write_csv(out);
  return out.str();
}

obs::HttpRequest make_request(const std::string& method,
                              const std::string& target,
                              const std::string& body = {}) {
  obs::HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  return request;
}

srv::ServerConfig fast_config(const std::string& data_dir) {
  srv::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.data_dir = data_dir;
  // Small slices so pause/evict/checkpoint safe points come up quickly.
  config.slice_s = 300.0;
  config.checkpoint_every_slices = 2;
  return config;
}

int status_of(const obs::HttpResponse& response) { return response.status; }

/// Poll a campaign until it reaches \p state (by name in the status doc).
bool wait_for_state(srv::CampaignServer& server, std::uint64_t id,
                    srv::CampaignState state, double timeout_s = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server.state_of(id) == state) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Journal framing

TEST(SubmissionJournal, RoundTripsSubmitAndStateRecords) {
  const std::string dir = temp_dir("journal_roundtrip");
  const std::string path = dir + "/journal.bin";
  {
    srv::SubmissionJournal journal(path);
    EXPECT_TRUE(journal.recovered().empty());
    srv::CampaignQuota quota;
    quota.wall_budget_s = 10.0;
    quota.event_budget = 500;
    quota.rss_budget_mb = 256.0;
    journal.append_submit(1, "alice", "job-a", quota, "servers = 4\n");
    journal.append_state(1, srv::CampaignState::kEvicted, "event budget");
    journal.append_state(1, srv::CampaignState::kQueued);
  }
  srv::SubmissionJournal journal(path);
  ASSERT_EQ(journal.recovered().size(), 3u);
  EXPECT_EQ(journal.truncated_bytes(), 0u);
  const auto& submit = journal.recovered()[0];
  EXPECT_EQ(submit.type, srv::JournalRecordType::kSubmit);
  EXPECT_EQ(submit.campaign_id, 1u);
  EXPECT_EQ(submit.client, "alice");
  EXPECT_EQ(submit.idem_key, "job-a");
  EXPECT_DOUBLE_EQ(submit.quota.wall_budget_s, 10.0);
  EXPECT_EQ(submit.quota.event_budget, 500u);
  EXPECT_DOUBLE_EQ(submit.quota.rss_budget_mb, 256.0);
  EXPECT_EQ(submit.config_text, "servers = 4\n");
  EXPECT_EQ(journal.recovered()[1].state, srv::CampaignState::kEvicted);
  EXPECT_EQ(journal.recovered()[1].detail, "event budget");
  EXPECT_EQ(journal.recovered()[2].state, srv::CampaignState::kQueued);
}

TEST(SubmissionJournal, TornTailIsTruncatedAndAppendableAfter) {
  const std::string dir = temp_dir("journal_torn");
  const std::string path = dir + "/journal.bin";
  {
    srv::SubmissionJournal journal(path);
    journal.append_submit(1, "a", "", {}, "x\n");
    journal.append_state(1, srv::CampaignState::kDone);
  }
  // A SIGKILL mid-append leaves a partial frame: a valid magic with a
  // length that runs past EOF.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {'E', 'C', 'J', 'L', '\x40', '\x00', '\x00', '\x00',
                         '\x01', '\x02'};
    out.write(torn, sizeof(torn));
  }
  {
    srv::SubmissionJournal journal(path);
    ASSERT_EQ(journal.recovered().size(), 2u);
    EXPECT_GT(journal.truncated_bytes(), 0u);
    // The torn bytes are gone from disk; appending resumes cleanly.
    journal.append_state(1, srv::CampaignState::kQueued);
  }
  srv::SubmissionJournal journal(path);
  ASSERT_EQ(journal.recovered().size(), 3u);
  EXPECT_EQ(journal.truncated_bytes(), 0u);
  EXPECT_EQ(journal.recovered()[2].state, srv::CampaignState::kQueued);
}

TEST(SubmissionJournal, ParseStopsAtCorruptFrameAndNeverResyncs) {
  const std::string dir = temp_dir("journal_corrupt");
  const std::string path = dir + "/journal.bin";
  std::size_t first_frame_end = 0;
  {
    srv::SubmissionJournal journal(path);
    journal.append_submit(1, "a", "", {}, "x\n");
    first_frame_end = read_file(path).size();
    journal.append_state(1, srv::CampaignState::kDone);
    journal.append_state(1, srv::CampaignState::kQueued);
  }
  std::string bytes = read_file(path);
  // Flip one payload byte of the middle record: its CRC fails, and the
  // third (intact) record after it must NOT be resynchronized to.
  bytes[first_frame_end + 12] ^= 0x55;
  std::size_t valid = 0;
  const auto records = srv::SubmissionJournal::parse(bytes, &valid);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, srv::JournalRecordType::kSubmit);
  EXPECT_EQ(valid, first_frame_end);
}

// ---------------------------------------------------------------------------
// Submission parsing

TEST(ParseSubmission, ExtractsLeaseAndBlanksCampaignLinesInPlace) {
  const std::string body =
      "campaign.client = alice\n"
      "campaign.key = job-1\n"
      "campaign.wall_budget_s = 30\n"
      "campaign.event_budget = 1000\n"
      "campaign.rss_budget_mb = 512\n" +
      std::string(kScenarioText);
  const srv::CampaignSpec spec = srv::parse_submission(body);
  EXPECT_EQ(spec.client, "alice");
  EXPECT_EQ(spec.idem_key, "job-1");
  EXPECT_DOUBLE_EQ(spec.quota.wall_budget_s, 30.0);
  EXPECT_EQ(spec.quota.event_budget, 1000u);
  EXPECT_DOUBLE_EQ(spec.quota.rss_budget_mb, 512.0);
  EXPECT_EQ(spec.config.fleet.num_servers, 4u);
  EXPECT_EQ(spec.config.num_vms, 12u);
  // campaign.* lines are blanked in place, so the stored text has the
  // same number of lines as the submission.
  EXPECT_EQ(std::count(spec.config_text.begin(), spec.config_text.end(), '\n'),
            std::count(body.begin(), body.end(), '\n'));
  EXPECT_EQ(spec.config_text.find("campaign."), std::string::npos);
  // The server owns robustness: client [checkpoint]/[audit] wiring is
  // cleared.
  EXPECT_TRUE(spec.config.run.checkpoint_out.empty());
}

TEST(ParseSubmission, UnknownCampaignKeyReportsLineNumber) {
  const std::string body = std::string(kScenarioText) +
                           "campaign.colour = blue\n";  // line 6
  try {
    (void)srv::parse_submission(body);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("campaign.colour"),
              std::string::npos)
        << ex.what();
    EXPECT_NE(std::string(ex.what()).find("line 6"), std::string::npos)
        << ex.what();
  }
}

TEST(ParseSubmission, ScenarioErrorsKeepTheClientsLineNumbers) {
  // The bogus scenario key sits on line 3 of the client's body; blanking
  // the campaign.* line above it must not shift the reported number.
  const std::string body =
      "campaign.client = bob\n"
      "servers = 4\n"
      "definitely_not_a_key = 1\n";
  try {
    (void)srv::parse_submission(body);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("line 3"), std::string::npos)
        << ex.what();
  }
}

TEST(ParseSubmission, NegativeBudgetRejected) {
  EXPECT_THROW((void)srv::parse_submission(std::string(kScenarioText) +
                                           "campaign.wall_budget_s = -1\n"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Watchdog

TEST(Watchdog, ReportsFirstExceededBudget) {
  srv::CampaignQuota quota;
  quota.event_budget = 100;
  srv::Watchdog dog(quota);
  dog.begin_window(1000);
  dog.record(0.5, 1050, 10.0);
  EXPECT_EQ(dog.violation(), "");
  dog.record(0.5, 1150, 10.0);  // 150 events past the base
  EXPECT_NE(dog.violation().find("event budget exceeded"), std::string::npos);
  // A fresh window (as granted by an explicit resume) clears the slate.
  dog.begin_window(1150);
  EXPECT_EQ(dog.violation(), "");
}

TEST(Watchdog, ZeroBudgetsAreUnlimited) {
  srv::Watchdog dog;  // all budgets 0
  dog.begin_window(0);
  dog.record(1e9, 1u << 30, 1e9);
  EXPECT_EQ(dog.violation(), "");
}

TEST(Watchdog, WallAndRssBudgets) {
  srv::CampaignQuota quota;
  quota.wall_budget_s = 1.0;
  srv::Watchdog dog(quota);
  dog.begin_window(0);
  dog.record(2.0, 0, 0.0);
  EXPECT_NE(dog.violation().find("wall-clock budget exceeded"),
            std::string::npos);

  quota = {};
  quota.rss_budget_mb = 100.0;
  dog.set_quota(quota);
  dog.begin_window(0);
  dog.record(0.0, 0, 250.0);
  EXPECT_NE(dog.violation().find("RSS budget exceeded"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaign server: state machine and API (exercised in-process through
// handle(), exactly as the HTTP listener dispatches).

TEST(CampaignServer, SubmittedCampaignRunsToDoneByteIdenticalToOneShot) {
  srv::CampaignServer server(fast_config(temp_dir("run_to_done")));
  server.start();

  const auto response =
      server.handle(make_request("POST", "/campaigns", kScenarioText));
  ASSERT_EQ(status_of(response), 202) << response.body;
  EXPECT_NE(response.body.find("\"id\":1"), std::string::npos);

  ASSERT_TRUE(server.wait_idle(30.0));
  ASSERT_EQ(server.state_of(1), srv::CampaignState::kDone);

  const auto status = server.handle(make_request("GET", "/campaigns/1"));
  EXPECT_EQ(status_of(status), 200);
  EXPECT_NE(status.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(status.body.find("\"percent\":100"), std::string::npos);

  EXPECT_EQ(read_file(server.events_path(1)), one_shot_events(kScenarioText));
  server.drain();
}

TEST(CampaignServer, MalformedSubmissionIs400WithLineNumber) {
  srv::CampaignServer server(fast_config(temp_dir("bad_submit")));
  server.start();
  const auto response = server.handle(
      make_request("POST", "/campaigns", "servers = 4\nwat = 1\n"));
  EXPECT_EQ(status_of(response), 400);
  EXPECT_NE(response.body.find("line"), std::string::npos) << response.body;

  // A horizon that is not a number is refused by key before any trace is
  // generated, so it cannot tie up a worker.
  const auto nan_horizon = server.handle(
      make_request("POST", "/campaigns", "servers = 4\nhorizon_hours = nan\n"));
  EXPECT_EQ(status_of(nan_horizon), 400);
  EXPECT_NE(nan_horizon.body.find("'horizon_hours'"), std::string::npos)
      << nan_horizon.body;
  EXPECT_NE(nan_horizon.body.find("line 2"), std::string::npos)
      << nan_horizon.body;
  server.drain();
}

TEST(CampaignServer, OverCapacityIs429WithRetryAfter) {
  srv::ServerConfig config = fast_config(temp_dir("capacity"));
  config.workers = 1;
  config.queue_capacity = 1;
  config.retry_after_s = 7;
  srv::CampaignServer server(config);
  server.start();

  // A longer horizon keeps the first campaign on the single worker while
  // the second sits in the queue and the third bounces.
  const std::string slow = "servers = 8\nvms = 60\nhorizon_hours = 24\n";
  EXPECT_EQ(status_of(server.handle(make_request("POST", "/campaigns", slow))),
            202);
  EXPECT_EQ(status_of(server.handle(make_request("POST", "/campaigns", slow))),
            202);
  const auto third =
      server.handle(make_request("POST", "/campaigns", slow));
  EXPECT_EQ(status_of(third), 429);
  bool saw_retry_after = false;
  for (const auto& header : third.extra_headers) {
    if (header.find("Retry-After: 7") != std::string::npos)
      saw_retry_after = true;
  }
  EXPECT_TRUE(saw_retry_after);

  // Cancel everything so drain() does not wait out 24 sim-hours.
  EXPECT_EQ(status_of(server.handle(make_request("DELETE", "/campaigns/2"))),
            200);  // queued: cancelled immediately
  const auto cancel_running =
      server.handle(make_request("DELETE", "/campaigns/1"));
  EXPECT_TRUE(status_of(cancel_running) == 200 ||
              status_of(cancel_running) == 202);
  ASSERT_TRUE(server.wait_idle(30.0));
  server.drain();
  EXPECT_EQ(server.state_of(2), srv::CampaignState::kCancelled);
}

TEST(CampaignServer, DuplicateIdempotencyKeyReturnsSameCampaign) {
  srv::CampaignServer server(fast_config(temp_dir("idempotency")));
  server.start();
  const std::string body =
      "campaign.client = alice\ncampaign.key = job-1\n" +
      std::string(kScenarioText);
  const auto first = server.handle(make_request("POST", "/campaigns", body));
  ASSERT_EQ(status_of(first), 202);
  const auto dup = server.handle(make_request("POST", "/campaigns", body));
  EXPECT_EQ(status_of(dup), 200);
  EXPECT_NE(dup.body.find("\"id\":1"), std::string::npos) << dup.body;
  EXPECT_NE(dup.body.find("\"duplicate\":true"), std::string::npos);
  // A different client may reuse the key: idempotency is per client.
  const std::string other =
      "campaign.client = bob\ncampaign.key = job-1\n" +
      std::string(kScenarioText);
  const auto second = server.handle(make_request("POST", "/campaigns", other));
  EXPECT_EQ(status_of(second), 202);
  EXPECT_NE(second.body.find("\"id\":2"), std::string::npos) << second.body;
  ASSERT_TRUE(server.wait_idle(30.0));
  server.drain();
}

TEST(CampaignServer, QuotaEvictionThenResumeMatchesOneShotByteForByte) {
  srv::CampaignServer server(fast_config(temp_dir("evict_resume")));
  server.start();

  const std::string body =
      "campaign.event_budget = 300\n" + std::string(kScenarioText);
  ASSERT_EQ(status_of(server.handle(make_request("POST", "/campaigns", body))),
            202);
  ASSERT_TRUE(wait_for_state(server, 1, srv::CampaignState::kEvicted));

  const auto status = server.handle(make_request("GET", "/campaigns/1"));
  EXPECT_NE(status.body.find("\"state\":\"evicted\""), std::string::npos);
  EXPECT_NE(status.body.find("event budget exceeded"), std::string::npos);
  EXPECT_NE(status.body.find("\"has_checkpoint\":true"), std::string::npos);

  // Resuming an evicted campaign opens a fresh budget window; with the
  // same budget and only ~300 events left it still evicts again or
  // finishes — resume repeatedly until done, as a client would.
  for (int rounds = 0; rounds < 20; ++rounds) {
    if (server.state_of(1) == srv::CampaignState::kDone) break;
    if (server.state_of(1) == srv::CampaignState::kEvicted) {
      const auto resumed =
          server.handle(make_request("POST", "/campaigns/1/resume"));
      ASSERT_EQ(status_of(resumed), 202) << resumed.body;
    }
    ASSERT_TRUE(server.wait_idle(30.0));
  }
  ASSERT_EQ(server.state_of(1), srv::CampaignState::kDone);

  EXPECT_EQ(read_file(server.events_path(1)), one_shot_events(kScenarioText));

  // Resume of a terminal campaign is a conflict.
  EXPECT_EQ(status_of(server.handle(make_request("POST",
                                                 "/campaigns/1/resume"))),
            409);
  server.drain();
}

TEST(CampaignServer, CancelAndRouteErrors) {
  srv::CampaignServer server(fast_config(temp_dir("routes")));
  server.start();
  EXPECT_EQ(status_of(server.handle(make_request("GET", "/campaigns/99"))),
            404);
  EXPECT_EQ(status_of(server.handle(make_request("DELETE", "/campaigns/99"))),
            404);
  EXPECT_EQ(status_of(server.handle(make_request("PUT", "/campaigns"))), 405);
  EXPECT_EQ(status_of(server.handle(make_request("GET", "/nope"))), 404);
  EXPECT_EQ(server.handle(make_request("GET", "/healthz")).body, "ok\n");

  ASSERT_EQ(status_of(server.handle(
                make_request("POST", "/campaigns", kScenarioText))),
            202);
  ASSERT_TRUE(server.wait_idle(30.0));
  // Terminal cancel is a conflict.
  EXPECT_EQ(status_of(server.handle(make_request("DELETE", "/campaigns/1"))),
            409);
  const auto list = server.handle(make_request("GET", "/campaigns"));
  EXPECT_EQ(status_of(list), 200);
  EXPECT_NE(list.body.find("\"campaigns\":["), std::string::npos);
  const auto metrics = server.handle(make_request("GET", "/metrics"));
  EXPECT_NE(metrics.body.find("ecocloud_server_submissions_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("campaign=\"1\""), std::string::npos);
  server.drain();
}

TEST(CampaignServer, DrainCheckpointsInFlightAndRestartCompletesThem) {
  const std::string dir = temp_dir("drain_restart");
  // Paper-scale fleet so the run spans hundreds of slice boundaries and
  // the drain below reliably catches it mid-flight.
  const std::string slow =
      "servers = 400\nvms = 6000\nhorizon_hours = 24\nseed = 11\n";
  {
    srv::CampaignServer server(fast_config(dir));
    server.start();
    ASSERT_EQ(
        status_of(server.handle(make_request("POST", "/campaigns", slow))),
        202);
    // submit() dispatches synchronously, so the campaign is already
    // running; drain immediately to interrupt it mid-horizon.
    server.drain();
    // Mid-run the drain pauses it at a safe point with a checkpoint on
    // disk; on a starved machine drain can instead win the race to the
    // worker before the first slice, which re-queues the campaign
    // untouched. Both must survive the restart below identically.
    const auto drained = server.state_of(1);
    ASSERT_TRUE(drained.has_value());
    ASSERT_TRUE(*drained == srv::CampaignState::kPaused ||
                *drained == srv::CampaignState::kQueued)
        << static_cast<int>(*drained);
    EXPECT_EQ(status_of(server.handle(
                  make_request("POST", "/campaigns", kScenarioText))),
              503);
  }
  srv::CampaignServer server(fast_config(dir));
  server.start();
  EXPECT_EQ(server.recovered_campaigns(), 1u);
  ASSERT_TRUE(server.wait_idle(60.0));
  ASSERT_EQ(server.state_of(1), srv::CampaignState::kDone);
  EXPECT_EQ(read_file(server.events_path(1)), one_shot_events(slow));
  server.drain();
}

TEST(CampaignServer, TornJournalTailDoesNotPoisonRecovery) {
  const std::string dir = temp_dir("torn_recovery");
  {
    srv::CampaignServer server(fast_config(dir));
    server.start();
    ASSERT_EQ(status_of(server.handle(
                  make_request("POST", "/campaigns", kScenarioText))),
              202);
    ASSERT_TRUE(server.wait_idle(30.0));
    server.drain();
  }
  // Simulate a SIGKILL mid-append: garbage on the journal tail.
  {
    std::ofstream out(dir + "/journal.bin", std::ios::binary | std::ios::app);
    out.write("ECJL\x7f\x00\x00\x00partial", 15);
  }
  srv::CampaignServer server(fast_config(dir));
  server.start();
  EXPECT_EQ(server.recovered_campaigns(), 1u);
  // The completed campaign replays as done and is not re-run.
  EXPECT_EQ(server.state_of(1), srv::CampaignState::kDone);
  server.drain();
}

TEST(CampaignServer, MemoryPressurePausesLargestAndAutoResumes) {
  srv::ServerConfig config = fast_config(temp_dir("pressure"));
  config.workers = 1;
  config.rss_high_mb = 100.0;
  config.rss_low_mb = 50.0;
  config.pressure_poll_ms = 10;
  // Pressure is already high when the campaign starts: the controller
  // must pause it at an early slice boundary, long before the horizon.
  auto rss = std::make_shared<std::atomic<double>>(200.0);
  config.rss_probe = [rss] { return rss->load(); };
  srv::CampaignServer server(config);
  server.start();

  const std::string slow =
      "servers = 400\nvms = 6000\nhorizon_hours = 24\nseed = 11\n";
  ASSERT_EQ(status_of(server.handle(make_request("POST", "/campaigns", slow))),
            202);
  ASSERT_TRUE(wait_for_state(server, 1, srv::CampaignState::kPaused));
  const auto paused = server.handle(make_request("GET", "/campaigns/1"));
  EXPECT_NE(paused.body.find("memory pressure"), std::string::npos)
      << paused.body;

  // Pressure clears: the campaign is transparently re-queued and runs to
  // completion (paused campaigns don't count as busy, so poll for done
  // rather than wait_idle, which would return before the requeue).
  rss->store(10.0);
  ASSERT_TRUE(wait_for_state(server, 1, srv::CampaignState::kDone, 60.0));
  EXPECT_EQ(read_file(server.events_path(1)), one_shot_events(slow));
  server.drain();
}

TEST(CampaignServer, ConcurrentSubmitsRacingDrainNeverLoseAnAck) {
  srv::ServerConfig config = fast_config(temp_dir("race_drain"));
  config.workers = 2;
  config.queue_capacity = 64;
  srv::CampaignServer server(config);
  server.start();

  // Several clients hammer POST /campaigns while the server drains.
  // Every response must be a definite verdict (202 accepted, 429 full,
  // 503 draining) and every 202 must name a campaign the server still
  // knows after the drain — an accepted campaign is never lost.
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::atomic<bool> bad_status{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, &accepted, &refused, &bad_status, c] {
      for (int i = 0; i < 8; ++i) {
        const std::string body = "campaign.client = c" + std::to_string(c) +
                                 "\n" + std::string(kScenarioText);
        const auto response =
            server.handle(make_request("POST", "/campaigns", body));
        if (response.status == 202)
          ++accepted;
        else if (response.status == 429 || response.status == 503)
          ++refused;
        else
          bad_status = true;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.drain();
  for (auto& client : clients) client.join();
  EXPECT_FALSE(bad_status);
  EXPECT_GE(refused.load(), 0);

  // Restart on the same journal: every acknowledged campaign replays.
  srv::CampaignServer restarted(fast_config(config.data_dir));
  restarted.start();
  EXPECT_EQ(restarted.recovered_campaigns(),
            static_cast<std::size_t>(accepted.load()));
  ASSERT_TRUE(restarted.wait_idle(120.0));
  for (std::uint64_t id = 1;
       id <= static_cast<std::uint64_t>(accepted.load()); ++id) {
    EXPECT_EQ(restarted.state_of(id), srv::CampaignState::kDone) << id;
  }
  restarted.drain();
}
